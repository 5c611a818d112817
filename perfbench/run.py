"""Benchmark of the ricciflow pipeline: time to an audited experiment result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow_l2 --seed 1 --seconds 25 --trace 0

Each run starts fresh processes with every numeric thread pool pinned to one
thread and ``src`` on ``PYTHONPATH``: a few that only set up (to take the
median set-up time), then one that also runs the workload's ops for
``--seconds`` seconds. With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones; in a traced run
every second op is traced, and the untraced ones give the tracing overhead.
Every metric is printed by name with its unit, and the last line of standard
output is one JSON object. Workloads are in workloads.py; README.md explains
them and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
PINNED_THREADS = {
    "RICCIFLOW_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
TIME_LIMIT_S = 175.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ricciflow", "__init__.py")):
        print("run.py: no src/ricciflow here; run from the root of a ricciflow checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [_worker(common + ["--setup-only"], started)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], started)
    setups.append(result["setup_s"])

    ops = result["ops"]
    failed = [op for op in ops if op["problems"]]
    digests = {op["digest"] for op in ops if "digest" in op}
    _describe(args, result, setups, failed, digests)
    values = end_to_end(ops, setups, result["peak_rss_mb"], len(failed))
    if args.trace:
        values.update(per_layer(ops, values["wall_s"]))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] in values:
            print(f"# {metric['name']:32s} {values[metric['name']]:.6g} {metric['unit']}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not failed:
        raise SystemExit(f"run.py: no value for {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    correct = not failed and len(digests) == 1
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def _worker(extra, started):
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    remaining = TIME_LIMIT_S - (time.perf_counter() - started)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + extra,
        env=env, stdout=subprocess.PIPE, text=True, timeout=max(remaining, 1.0),
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py: worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(ops, setups, peak_rss_mb, failed):
    satisfied = [
        100.0 * (op["layers"]["bounds.checks_evaluated"] - op["layers"]["bounds.checks_violated"])
        / op["layers"]["bounds.checks_evaluated"]
        for op in ops if "layers" in op
    ]
    return {
        "wall_s": _median([op["wall_s"] for op in ops if not op["traced"]]),
        "setup_s": _median(setups),
        "peak_rss_mb": peak_rss_mb,
        "checks_satisfied_pct": _median(satisfied),
        "ops_ok_pct": 100.0 * (len(ops) - failed) / len(ops),
    }


def per_layer(ops, untraced_wall):
    traced = [op for op in ops if op["traced"] and "layers" in op]
    values = {
        name: _median([op["layers"][name] for op in traced])
        for name in (traced[0]["layers"] if traced else ())
    }
    traced_wall = _median([op["wall_s"] for op in ops if op["traced"]])
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def _describe(args, result, setups, failed, digests):
    """Human-readable lines ahead of the JSON result."""
    ops = result["ops"]
    walls = sorted(op["wall_s"] for op in ops if not op["traced"])
    quartiles = statistics.quantiles(walls, n=4, method="inclusive") if len(walls) > 1 else walls * 3
    print(f"# workload {args.workload} seed {args.seed}: {len(ops)} ops, {len(failed)} failed")
    print(f"# environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"# untraced wall_s n={len(walls)} median={_median(walls):.4f} "
          f"q1={quartiles[0]:.4f} q3={quartiles[-1]:.4f} min={walls[0]:.4f} max={walls[-1]:.4f}")
    print(f"# setup_s samples {' '.join(f'{s:.4f}' for s in setups)}")
    for op in ops:
        if "layers" in op:
            layers = op["layers"]
            print(f"# op wall_s={op['wall_s']:.4f} traced={int(op['traced'])} "
                  f"checks_violated={layers['bounds.checks_violated']}"
                  f"/{layers['bounds.checks_evaluated']} steps={layers['flow.steps']} "
                  f"digest={op['digest'][:16]}")
    for op in failed:
        print(f"# failed op: {'; '.join(op['problems'])}")
    print(f"# error_rate {len(failed) / len(ops):.4f}; "
          f"artifact digests {'agree' if len(digests) == 1 else 'DIFFER'}: "
          f"{' '.join(sorted(digests))}")


if __name__ == "__main__":
    sys.exit(main())
