"""Experiment orchestration: configs, pipelines, and artifact emission.

A flow experiment builds a surface (generated or loaded), normalizes its
area, perturbs it and runs the flow in a forked, thread-free process while
this process solves the spectrum of each stored sample as it arrives, tracks
the spectrum, and evaluates every applicable bound check. The pair experiment
builds the base surface once, does this for two perturbations of it at once,
and adds the two-surface comparison checks, including the end-to-end spectral
comparison with the measured distortion bound of the two limits.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from dataclasses import asdict, dataclass, fields, replace
from multiprocessing.connection import wait

import numpy as np

from . import bounds as bnd
from .errors import ConfigError, EigensolverError, FlowAbortError, HypothesisError
from .flow import FlowConfig, FlowTrace, integer_at_least, monotonicity_violations, real_number
from .flow import run_flow, solve_sample
from .geometry import ConformalMetric, curvature_window, normalize_area, perturb_metric
from .mesh import MAX_LEVEL, generate_genus2, load_off
from .reporting import (
    json_object,
    timestamp,
    write_plot_series,  # not called: perfbench/tracer.py's TARGETS patches it here
    write_report_json,
    write_spectrum_csv,
    write_trace_csv,
)
from .tracking import (
    DEFAULT_GAP_TOL,
    DEFAULT_OVERLAP_MIN,
    BranchTracker,
    dual_area_rate_residuals,
    evolution_residual_median,
    normalization_rate_residuals,
    pde_residual_median,
    track_branches,
)

@dataclass(frozen=True)
class PerturbationSpec:
    amplitude: float
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``from_dict`` holds the schema and the defaults."""

    generator_level: int | None
    off_path: str | None
    perturbations: tuple
    flow: FlowConfig
    output_dir: str | None

    def __post_init__(self):
        if (self.generator_level is None) == (self.off_path is None):
            raise ConfigError("exactly one mesh source required (generator or OFF path)")
        if not 1 <= len(self.perturbations) <= 2:
            raise ConfigError("need one perturbation spec (two for the pair pipeline)")

    @classmethod
    def from_dict(cls, data):
        """Parse a config dict; a value of the wrong type or range raises ConfigError."""
        try:
            return cls(**_fields(data))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

    def to_dict(self):
        mesh = (
            {"off": self.off_path}
            if self.off_path is not None
            else {"generator": "genus2", "level": self.generator_level}
        )
        return {
            "version": 1,
            "mesh": mesh,
            "area": "minus_two_pi_chi",
            "perturbations": [asdict(p) for p in self.perturbations],
            "flow": asdict(self.flow),
            "output_dir": self.output_dir,
        }


def _fields(data):
    top = {"version", "mesh", "area", "perturbations", "flow", "output_dir"}
    json_object(data, "config", top)
    # the integer 1: JSON true and 1.0 compare equal to 1 but are not it
    if type(data.get("version")) is not int or data["version"] != 1:
        raise ConfigError("config requires 'version': 1")

    mesh = json_object(data.get("mesh", {}), "mesh", {"generator", "level", "off"})
    level = None
    off_path = None
    if "off" in mesh:
        off_path = mesh["off"]
        if not isinstance(off_path, str):
            raise ConfigError(f"mesh 'off' must be a path string, got {off_path!r}")
        if "generator" in mesh or "level" in mesh:
            raise ConfigError("mesh source must be either a generator or an OFF path")
    else:
        if mesh.get("generator", "genus2") != "genus2":
            raise ConfigError("only the 'genus2' generator is available")
        level = integer_at_least(mesh.get("level", 2), 0, "mesh level")
        if level > MAX_LEVEL:
            raise ConfigError(f"mesh level must be at most {MAX_LEVEL}, got {level}")
    if data.get("area", "minus_two_pi_chi") != "minus_two_pi_chi":
        raise ConfigError("only the 'minus_two_pi_chi' area is available")

    specs = []
    for entry in data.get("perturbations", [{}]):
        json_object(entry, "perturbations", {"amplitude", "seed"})
        amplitude = float(real_number(entry.get("amplitude", 0.0), "perturbation amplitude"))
        seed = integer_at_least(entry.get("seed", 0), 0, "perturbation seed")
        specs.append(PerturbationSpec(amplitude, seed))

    flow = json_object(data.get("flow", {}), "flow", {f.name for f in fields(FlowConfig)})
    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a path string or null, got {output_dir!r}")
    return {
        "generator_level": level,
        "off_path": off_path,
        "perturbations": tuple(specs),
        "flow": FlowConfig(**flow),
        "output_dir": output_dir,
    }


@dataclass
class FlowArtifacts:
    config: ExperimentConfig
    initial: ConformalMetric
    window: tuple
    trace: object
    branch_set: object
    report_dict: dict


@dataclass
class PairArtifacts:
    config: ExperimentConfig
    surfaces: tuple
    report_dict: dict


def build_base_metric(config):
    """Load or generate the base surface and normalize its area to -2 pi chi."""
    if config.off_path is not None:
        mesh, base_lengths = load_off(config.off_path)
    else:
        mesh, base_lengths = generate_genus2(config.generator_level)
    # the eigensolver needs k < V/2, and the ratio check a nonzero eigenvalue
    if not 2 <= config.flow.k < mesh.vertex_count / 2:
        raise ConfigError(f"k = {config.flow.k} outside [2, V/2) with V = {mesh.vertex_count}")
    if mesh.chi >= 0:
        raise HypothesisError("minus_two_pi_chi normalization needs chi < 0")
    return normalize_area(ConformalMetric.flat(mesh, base_lengths), -2.0 * np.pi * mesh.chi)


def fork_context():
    """The ``fork`` start method where the platform offers it, else the default.

    A forked process inherits the loaded modules (and any patches of them)
    and its arguments unpickled; spawn would re-import numpy and scipy.
    """
    fork = "fork" in multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if fork else None)


def _run_surfaces(config, base, specs, progress=None):
    """One ``(metric, window, trace, branch_set)`` per perturbation spec of ``base``.

    Each flow runs in its own ``_flow_process``, which sends each sample as it
    stores it; this process solves each sample as it arrives, tracks its
    spectrum at once with the sample's curvature field, so that the residual
    stencils are evaluated as they complete, and stores the sample with its
    spectrum, without eigenvectors or mass. The metric and the curvature
    window are read from the first sample.

    Each failed solve is decided here, as it is made. At an interior sample
    the spectrum stays None and the trace gets a warning. The checks read the
    spectra at the start and at the end of the flow, so a failed first solve
    raises EigensolverError at once, which stops the flows, and a failed last
    solve raises it once that flow's ``done`` has arrived; any other error of
    a solve is raised at once. So is a flow's own error; a flow process that
    dies raises FlowAbortError, and every one is joined on every way out.
    """
    context = fork_context()
    # pending: (surface, kind, body) of each sample not yet solved and of each
    # "done", which is decided once the samples sent before it are solved
    processes, pipes, pending = [], {}, []
    ends = [None] * len(specs)
    samples, warnings = [[] for _ in specs], [[] for _ in specs]
    failures = [None] * len(specs)  # each flow's latest failed solve
    trackers = [BranchTracker(bnd.checked_branches(config.flow.k)) for _ in specs]

    def no_spectrum(sample, exc):
        message = f"no spectrum at t={sample.t:.6g}, which the checks need: {exc}"
        raise EigensolverError(message, exc.best_residual) from exc

    try:
        for i, spec in enumerate(specs):
            receiver, sender = context.Pipe(duplex=False)
            args = (sender, [*pipes, receiver], config, base, spec, progress is not None)
            processes.append(context.Process(target=_flow_process, args=args))
            processes[-1].start()
            sender.close()  # the flow process now holds the only write end: its death is EOF
            pipes[receiver] = i
        while pipes or pending:
            # read all that has arrived before each solve: no flow may wait on a full pipe
            for pipe in wait(list(pipes), timeout=0 if pending else None):
                while pipe in pipes and pipe.poll():
                    i = pipes[pipe]
                    try:
                        kind, *body = pipe.recv()
                    except EOFError:
                        raise FlowAbortError(
                            f"a flow worker process ended abruptly; unflowed surfaces: [{i + 1}]"
                        ) from None
                    if kind == "progress":
                        progress(*body)
                    elif kind == "error":
                        raise body[0]
                    else:  # "sample" or "done"
                        pending.append((i, kind, body))
                        if kind == "done":
                            del pipes[pipe]
                            pipe.close()
            if pending:
                i, kind, body = pending.pop(0)
                if kind == "done":
                    ends[i] = body
                    if samples[i][-1].spectrum is None:
                        no_spectrum(samples[i][-1], failures[i])
                    continue
                [sample] = body
                try:
                    snap = solve_sample(base.mesh, base.base_lengths, config.flow, sample.t,
                                        sample.u)
                except EigensolverError as exc:
                    if sample.step == 0:
                        no_spectrum(sample, exc)
                    warnings[i].append(f"eigensolver failed at t={sample.t:.6g}: {exc}")
                    failures[i] = exc
                else:
                    trackers[i].add(snap, sample.curvature)
                    # drop the vectors now, not at the next solve: they would raise its peak
                    snap = replace(snap, eigenvectors=None, mass=None)
                    sample = replace(sample, spectrum=snap)
                samples[i].append(sample)
    finally:
        for pipe, i in pipes.items():
            processes[i].terminate()
            pipe.close()
        for process in processes:
            process.join()

    surfaces = []
    for stored, (steps, converged), warned, tracker in zip(samples, ends, warnings, trackers):
        trace = FlowTrace(base.mesh, base.base_lengths, config.flow, steps, stored, converged,
                          warned)
        surfaces.append((base.with_u(stored[0].u), curvature_window(stored[0].curvature), trace,
                         track_branches(tracker)))
    return surfaces


def _flow_process(pipe, receivers, config, base, spec, report_progress):
    """Perturb ``base`` by ``spec`` and run the flow, which sends each
    ``("sample", FlowSample)`` as it stores it, the start state first, and,
    if asked, ``("progress", t, max_dev, dt)`` down ``pipe``; then send
    ``("done", steps, converged)`` or ``("error", exc)``; ``run_flow`` records
    no warnings, so none are sent. A sample message holds one sample, but a
    ``FlowAbortError`` carries the partial trace as ``exc.trace``, so its
    error message holds every sample stored so far once more. The read ends
    the fork copied, ``receivers``, are closed first, so that once the parent
    is gone a send raises BrokenPipeError, which ends the process."""
    for receiver in receivers:
        receiver.close()
    try:
        try:
            metric, _ = perturb_metric(base, spec.amplitude, spec.seed)
            progress = (lambda *state: pipe.send(("progress", *state))) if report_progress else None
            trace = run_flow(metric, config.flow, progress=progress,
                             on_sample=lambda s: pipe.send(("sample", s)))
            pipe.send(("done", trace.steps, trace.converged))
        except Exception as exc:  # the parent raises it as the flow's own error
            pipe.send(("error", exc))
    except BrokenPipeError:
        pass  # the parent died: nothing reads this flow any more


def _surface_block(config, window, trace, branch_set):
    """One surface's ``BoundCheck`` list and report block (inputs, checks as
    dicts, residual stats, warnings); the block is the verdicts' one record."""
    mesh = trace.mesh
    inputs = {
        "alpha": float(window[0]),
        "beta": float(window[1]),
        "r": float(trace.r),
        "area": float(trace.samples[0].curvature.total_area),
        "chi": int(mesh.chi),
        "genus": int(mesh.genus),
        "vertices": int(mesh.vertex_count),
        "mean_edge_length": bnd.mean_edge_length(trace),
        "c_disc": bnd.DEFAULT_C_DISC,
        "tol_ratio": bnd.DEFAULT_TOL_RATIO,
        "overlap_min": DEFAULT_OVERLAP_MIN,
        "gap_tol": DEFAULT_GAP_TOL,
        "k": config.flow.k,
        "seed": config.flow.seed,
        "converged": bool(trace.converged),
    }
    warnings = list(trace.warnings)
    checks, bracket = bnd.surface_checks(trace.steps, vars(branch_set), inputs, warnings)
    inputs["ratio_bracket"] = list(bracket)

    branches = bnd.checked_branches(config.flow.k)
    stats = {"monotonicity_events": len(monotonicity_violations(trace))}
    try:
        med, count = evolution_residual_median(trace, branch_set, branches)
        stats["evolution_formula_median"] = med
        stats["evolution_formula_samples"] = count
    except ValueError:
        pass
    try:
        stats["volume_form_median"] = float(np.median(dual_area_rate_residuals(trace)))
    except ValueError:
        pass
    try:
        stats["normalization_median"] = float(
            np.median(normalization_rate_residuals(trace, branch_set, branches))
        )
    except ValueError:
        pass
    try:
        stats["pde_residual_median"] = pde_residual_median(trace)
    except ValueError:
        pass
    block = {
        "inputs": inputs,
        "checks": [c.as_dict() for c in checks],
        "residual_stats": stats,
        "warnings": warnings,
    }
    return checks, block


def run_flow_experiment(config, progress=None):
    """Single-surface pipeline: flow, spectrum tracking, and all audits."""
    if len(config.perturbations) != 1:
        raise ConfigError("flow experiment takes exactly one perturbation spec")
    base = build_base_metric(config)
    _make_output_dir(config)
    [surface] = _run_surfaces(config, base, config.perturbations, progress)
    metric, window, trace, branch_set = surface
    checks, block = _surface_block(config, window, trace, branch_set)
    report_dict = {
        "version": 1,
        "kind": "flow",
        "generated_at": timestamp(),
        **block,
        "all_satisfied": all(c.satisfied for c in checks),
    }
    if config.output_dir:
        _emit(config, report_dict, [("", trace, branch_set)])
    return FlowArtifacts(config, metric, window, trace, branch_set, report_dict)


def run_pair_experiment(config):
    """Two-surface pipeline behind the spectral comparison theorem.

    Both perturbations start from one base surface, and the two flows run
    at once in two flow processes, so they do not contend for the GIL. The
    measured curvature windows are merged (widest wins), and the comparison
    checks use the distortion upper bound of the two limit metrics.
    """
    if len(config.perturbations) != 2:
        raise ConfigError("pair experiment needs exactly two perturbation specs")
    base = build_base_metric(config)
    _make_output_dir(config)
    (m1, w1, tr1, bs1), (m2, w2, tr2, bs2) = _run_surfaces(config, base, config.perturbations)
    # perturbation renormalizes the area, so sharing the mesh does not settle these
    area1 = tr1.samples[0].curvature.total_area
    area2 = tr2.samples[0].curvature.total_area
    if abs(area1 - area2) > 1e-9 * area1:
        raise HypothesisError("surfaces do not share the same area")
    if abs(tr1.r - tr2.r) > 1e-9 * abs(tr1.r):
        raise HypothesisError("surfaces do not share the average curvature")

    window = (min(w1[0], w2[0]), max(w1[1], w2[1]))
    checks1, block1 = _surface_block(config, window, tr1, bs1)
    checks2, block2 = _surface_block(config, window, tr2, bs2)

    q_hat, delta_hat = bnd.distortion_upper_bound(tr1.limit, tr2.limit)
    checks, factor = bnd.pair_checks(
        bs1.sorted_values, bs2.sorted_values, window, tr1.r, delta_hat, bnd.DEFAULT_TOL_RATIO
    )
    # the merged window makes these inputs equal on both surfaces
    shared = ("alpha", "beta", "r", "area", "chi", "genus", "vertices", "c_disc", "tol_ratio", "k")
    inputs = {key: block1["inputs"][key] for key in shared}
    inputs.update(delta_hat=float(delta_hat), q_hat=float(q_hat), bound_factor=float(factor))
    report_dict = {
        "version": 1,
        "kind": "pair",
        "generated_at": timestamp(),
        "inputs": inputs,
        "surface_1": block1,
        "surface_2": block2,
        "pair_checks": [c.as_dict() for c in checks],
        "all_satisfied": all(c.satisfied for c in checks1 + checks2 + checks),
    }
    if config.output_dir:
        _emit(config, report_dict, [("surface_1", tr1, bs1), ("surface_2", tr2, bs2)])
    return PairArtifacts(config, ((m1, window, tr1, bs1), (m2, window, tr2, bs2)), report_dict)


def _make_output_dir(config):
    """Create the output directory, if any, before a flow starts, so that a
    path that cannot be one fails at once rather than after the flows."""
    if config.output_dir:
        try:
            os.makedirs(config.output_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output_dir: {exc}") from exc


def _emit(config, report_dict, surfaces):
    """Write the one artifact set that ``ricciflow audit`` reads:
    ``config_resolved.json``, a ``trace.csv`` and a ``spectrum.csv`` in the
    subdirectory of each ``(subdirectory, trace, branch_set)`` of ``surfaces``,
    and ``report.json``.

    A report left by an earlier run goes first and the new one is written
    last, so a write that fails leaves no report beside a mix of old and new
    artifacts, and ``ricciflow audit`` refuses the directory. A path that
    cannot be removed or written raises ConfigError naming it.
    """
    out_dir = config.output_dir
    report = os.path.join(out_dir, "report.json")
    writes = []
    for sub, trace, branch_set in surfaces:
        writes.append((os.path.join(out_dir, sub, "trace.csv"), write_trace_csv, trace))
        writes.append((os.path.join(out_dir, sub, "spectrum.csv"), write_spectrum_csv, branch_set))
    writes.append((os.path.join(out_dir, "config_resolved.json"), write_report_json,
                   config.to_dict()))
    writes.append((report, write_report_json, report_dict))
    path = report
    try:
        with contextlib.suppress(FileNotFoundError):
            os.remove(report)
        for path, write, payload in writes:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write(path, payload)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
