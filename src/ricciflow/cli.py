"""Command-line surface: gen, flow, pair, timemap, and audit subcommands.

Exit status is 0 when every enabled check is satisfied, 1 when some check
failed, and 2 on errors (reported as a single JSON object on stdout so
failures stay machine-readable).

The ``RICCIFLOW_THREADS`` environment variable caps the numeric thread
pools (default: all logical processors); importing the package, before numpy,
applies it. Results are deterministic at the documented tolerances
regardless of its value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace as dc_replace


def make_parser():
    parser = argparse.ArgumentParser(
        prog="ricciflow",
        description="Normalized Ricci flow on closed triangulated surfaces, "
        "with Laplace-spectrum tracking and inequality audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a genus-2 mesh and report invariants")
    gen.add_argument("--level", type=int, default=2, help="subdivision level")
    gen.add_argument("--out", help="directory for mesh.json")
    gen.add_argument("--quiet", action="store_true")

    for name, description in (
        ("flow", "run one normalized flow with full audits"),
        ("pair", "run the two-surface comparison pipeline"),
    ):
        cmd = sub.add_parser(name, help=description)
        cmd.add_argument("--config", required=True, help="experiment config JSON")
        cmd.add_argument("--out", help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, help="override the flow seed")
        cmd.add_argument("--quiet", action="store_true")

    tmap = sub.add_parser("timemap", help="unnormalized/normalized flow time table")
    tmap.add_argument("--area0", type=float, required=True)
    tmap.add_argument("--chi", type=int, required=True)
    tmap.add_argument("--tau", required=True, help="comma-separated tau values")
    tmap.add_argument("--quiet", action="store_true")

    audit = sub.add_parser("audit", help="re-run checks on stored artifacts")
    audit.add_argument("--dir", required=True, help="directory with run artifacts")
    audit.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    from .errors import RicciFlowError

    try:
        handler = {
            "gen": _cmd_gen,
            "flow": _cmd_flow,
            "pair": _cmd_pair,
            "timemap": _cmd_timemap,
            "audit": _cmd_audit,
        }[args.command]
        return handler(args)
    except RicciFlowError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2


def _say(args, message):
    if not args.quiet:
        print(message)


def _say_checks(args, checks):
    for check in checks:
        _say(
            args,
            f"  {check['name']}: {'ok' if check['satisfied'] else 'VIOLATED'} "
            f"margin={check['worst_margin']:+.6g}",
        )


def _cmd_gen(args):
    from .errors import ConfigError
    from .flow import integer_at_least
    from .geometry import ConformalMetric, measure_curvature
    from .mesh import generate_genus2
    from .reporting import write_report_json

    try:
        integer_at_least(args.level, 0, "level")
    except ValueError as exc:
        raise ConfigError(f"invalid --level: {exc}") from exc
    mesh, base_lengths = generate_genus2(args.level)
    metric = ConformalMetric.flat(mesh, base_lengths)
    fld = measure_curvature(metric)
    _say(
        args,
        f"level {args.level}: V={mesh.vertex_count} E={mesh.edge_count} "
        f"F={mesh.triangle_count} chi={mesh.chi} genus={mesh.genus}",
    )
    _say(
        args,
        f"area={fld.total_area:.6f} r={fld.r:.6f} "
        f"R in [{fld.R_min:.6f}, {fld.R_max:.6f}]",
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        payload = {
            "version": 1,
            "vertex_count": mesh.vertex_count,
            "chi": mesh.chi,
            "genus": mesh.genus,
            "triangles": mesh.triangles.tolist(),
            "edges": mesh.edges.tolist(),
            "base_lengths": [float(x) for x in base_lengths],
        }
        write_report_json(os.path.join(args.out, "mesh.json"), payload)
        _say(args, f"wrote {os.path.join(args.out, 'mesh.json')}")
    return 0


def _load_config(args):
    from .errors import ConfigError
    from .experiment import ExperimentConfig

    try:
        with open(args.config, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    config = ExperimentConfig.from_dict(data)
    updates = {}
    if args.out:
        updates["output_dir"] = args.out
    if args.seed is not None:
        try:
            updates["flow"] = dc_replace(config.flow, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"invalid --seed: {exc}") from exc
    if updates:
        config = dc_replace(config, **updates)
    return config


def _progress_printer(args):
    if args.quiet:
        return None

    def progress(t, dev, dt):
        print(f"  t={t:.5f} max|R-r|={dev:.3e} dt={dt:.3e}", flush=True)

    return progress


def _cmd_flow(args):
    from .experiment import run_flow_experiment

    config = _load_config(args)
    artifacts = run_flow_experiment(config, progress=_progress_printer(args))
    ok = artifacts.report_dict["all_satisfied"]
    _say(args, f"converged={artifacts.trace.converged} checks_satisfied={ok}")
    _say_checks(args, artifacts.report_dict["checks"])
    return 0 if ok else 1


def _cmd_pair(args):
    from .experiment import run_pair_experiment

    config = _load_config(args)
    artifacts = run_pair_experiment(config)
    ok = artifacts.report_dict["all_satisfied"]
    _say(
        args,
        f"delta_hat={artifacts.delta_hat:.6g} bound_factor={artifacts.bound_factor:.6g} "
        f"checks_satisfied={ok}",
    )
    _say_checks(args, artifacts.report_dict["pair_checks"])
    return 0 if ok else 1


def _cmd_timemap(args):
    from .errors import ConfigError, HypothesisError
    from .flow import rf_nrf_time_map

    if args.chi >= 0:
        raise HypothesisError("timemap requires negative Euler characteristic")
    try:
        taus = [float(x) for x in args.tau.split(",") if x.strip()]
        if not taus:
            raise ValueError("no tau values given")
        # OverflowError: a chi beyond the float range
        t, area = rf_nrf_time_map(args.area0, args.chi, taus)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid timemap arguments: {exc}") from exc
    print(f"{'tau':>16} {'t':>16} {'area':>16}")
    for row in zip(taus, t, area):
        print(" ".join(f"{x:16.10g}" for x in row))
    return 0


def _cmd_audit(args):
    from .audit import audit_directory

    result = audit_directory(args.dir)
    ok = result["all_satisfied"]
    _say(args, f"audit: checks_satisfied={ok}")
    _say_checks(args, result["checks"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
