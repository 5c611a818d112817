"""One benchmark process: set up a workload, run its ops, and check each one.

Started by ``run.py`` with the threads pinned and ``src`` on ``PYTHONPATH``;
it prints one JSON object with its raw measurements as its last line. With
``--setup-only`` it stops after the set-up. Set-up is importing ``ricciflow``
and building the workload's base surface (``build_base_metric``) once.

One op is: parse the config dict, run the experiment with ``output_dir`` set
to a fresh directory, and re-audit the emitted artifacts with
``audit_directory``, i.e. the time to an audited result. Outside the timed
part each op then passes the correctness gate and gets a digest of its
artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict

from tracer import Tracer, span_metrics
from workloads import WORKLOADS

OUT_DIR = ".perfbench_out"
PAIR_CHECKS = ("distortion_spectral_comparison", "spectral_comparison_main", "consistency_chain")
THREAD_VARS = ("RICCIFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    import ricciflow
    from ricciflow.experiment import ExperimentConfig, build_base_metric

    build_base_metric(ExperimentConfig.from_dict(workload.config(args.seed)))
    result = {"setup_s": time.perf_counter() - start}

    expected = os.path.realpath(os.path.join("src", "ricciflow"))
    if os.path.dirname(os.path.realpath(ricciflow.__file__)) != expected:
        raise SystemExit(f"imported ricciflow from {ricciflow.__file__}, not from {expected}")
    if not args.setup_only:
        result.update(measure(workload, args.seed, args.seconds, bool(args.trace)))
        result["environment"] = environment()
    print(json.dumps(result))
    return 0


def measure(workload, seed, seconds, trace):
    """Run ops for ``seconds`` seconds; with ``trace``, every second op is traced."""
    tmp_root = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    ops, spans = [], []
    start = time.perf_counter()
    while _more(ops, time.perf_counter() - start, seconds, trace):
        tracer = Tracer(len(ops)) if trace and len(ops) % 2 == 1 else None
        out = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root)
        try:
            ops.append(run_op(workload, seed, out, tracer))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if len(ops) == 1:
            # the memory one experiment needs; later ops only add allocator growth
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            spans.extend({"trace": tracer.trace_id, **asdict(s)} for s in tracer.spans)
    shutil.rmtree(tmp_root, ignore_errors=True)
    if trace:
        path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl")
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in spans)
    return {"ops": ops, "peak_rss_mb": peak_rss_mb}


def run_op(workload, seed, out, tracer):
    """One op, timed, then checked; the op's artifacts die with this frame."""
    from ricciflow import audit, experiment

    run = experiment.run_flow_experiment if workload.kind == "flow" else experiment.run_pair_experiment
    op = {"traced": tracer is not None}
    t0 = time.perf_counter()
    try:
        with tracer.session() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            config = experiment.ExperimentConfig.from_dict(workload.config(seed, out))
            artifacts = run(config)
            audited = audit.audit_directory(out)
            op["wall_s"] = time.perf_counter() - t0
        op.update(check_op(workload, artifacts, audited, out))
        if tracer is not None:
            layers = op["layers"]
            layers.update(span_metrics(tracer.spans))
            layers["flow.ms_per_step"] = 1000.0 * layers["flow.self_s"] / layers["flow.steps"]
    except Exception:  # an op that raises is counted as failed, and the run goes on
        traceback.print_exc()
        op.setdefault("wall_s", time.perf_counter() - t0)
        op["problems"] = ["raised " + traceback.format_exc().strip().splitlines()[-1]]
    return op


def _more(ops, elapsed, seconds, trace):
    """Start another op only if it should end within ``seconds`` (and 120 s,
    which keeps the process well inside the benchmark's 180 s limit); the
    first op of each kind always runs."""
    if len({op["traced"] for op in ops}) < (2 if trace else 1):
        return True
    typical = statistics.median(op["wall_s"] for op in ops)
    return elapsed + typical <= min(seconds, 120.0)


def _surfaces(workload, artifacts):
    if workload.kind == "flow":
        return [(artifacts.trace, artifacts.branch_set)]
    return [(trace, branch_set) for _, _, trace, branch_set in artifacts.surfaces]


def _checks(workload, report):
    if workload.kind == "flow":
        return report["checks"]
    return report["surface_1"]["checks"] + report["surface_2"]["checks"] + report["pair_checks"]


def check_op(workload, artifacts, audited, out):
    """Correctness gate, digest and artifact-derived layer numbers of one op."""
    report = artifacts.report_dict
    surfaces = _surfaces(workload, artifacts)
    snapshots = [trace.snapshots() for trace, _ in surfaces]
    max_residual = max(float(s.residuals.max()) for snaps in snapshots for s in snaps)
    gaps = [b.t - a.t for snaps in snapshots for a, b in zip(snaps, snaps[1:])]
    gap_max = max(gaps) if gaps else 0.0
    audit_agrees = audited["all_satisfied"] == report["all_satisfied"]
    if workload.kind == "flow":
        verdicts = {c["name"]: c["satisfied"] for c in report["checks"]}
        audit_agrees &= {c["name"]: c["satisfied"] for c in audited["checks"]} == verdicts

    problems = []
    if workload.kind == "flow":
        trace = artifacts.trace
        if not report["all_satisfied"]:
            problems.append("not all checks satisfied")
        bad = [w for w in report["warnings"] if w.startswith(("eigensolver failed", "area drift"))]
        if bad:
            problems.append(f"warnings: {bad}")
        if max_residual > trace.config.eig_tol:
            problems.append(f"eigen residual {max_residual:g} above eig_tol")
        if workload.must_converge and not trace.converged:
            problems.append("did not converge")
        if gap_max > workload.max_snapshot_gap:
            problems.append(f"snapshot gap {gap_max:g} above {workload.max_snapshot_gap:g}")
        if not audit_agrees:
            problems.append("audit verdict differs from the live report")
    else:
        pair = {c["name"]: c["satisfied"] for c in report["pair_checks"]}
        failing = [name for name in PAIR_CHECKS if not pair.get(name, False)]
        if failing:
            problems.append(f"pair checks not satisfied: {failing}")

    checks = _checks(workload, report)
    violated = sum(1 for c in checks if not c["satisfied"])
    steps = sum(trace.steps["t"].shape[0] - 1 for trace, _ in surfaces)
    flow_time = sum(float(trace.steps["t"][-1]) for trace, _ in surfaces)
    return {
        "problems": problems,
        "digest": digest(workload, out),
        "layers": {
            "flow.steps": steps,
            "flow.steps_per_flow_time": steps / flow_time,
            "spectrum.max_residual": max_residual,
            "spectrum.snapshot_gap_max": gap_max,
            "tracking.snapshots": sum(len(snaps) for snaps in snapshots),
            "tracking.flagged": sum(int(bs.flagged.sum()) for _, bs in surfaces),
            "bounds.checks_evaluated": len(checks),
            "bounds.checks_violated": violated,
            "reporting.bytes_written": _bytes_written(out),
            "audit.agrees": int(audit_agrees),
        },
    }


def digest(workload, out):
    """sha256 of report.json without its timestamp line, and every trace and spectrum CSV."""
    subdirs = [""] if workload.kind == "flow" else ["surface_1", "surface_2"]
    h = hashlib.sha256()
    with open(os.path.join(out, "report.json"), "rb") as fh:
        h.update(b"".join(line for line in fh if b'"generated_at"' not in line))
    for sub in subdirs:
        for name in ("trace.csv", "spectrum.csv"):
            with open(os.path.join(out, sub, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _bytes_written(out):
    total = 0
    for root, _, files in os.walk(out):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files if f != "audit_report.json")
    return total


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    sys.exit(main())
