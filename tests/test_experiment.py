import importlib.util
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from ricciflow import ConfigError, EigensolverError, HypothesisError
from ricciflow import flow as flow_module
from ricciflow.audit import audit_directory
from ricciflow.cli import main as cli_main
from ricciflow.experiment import (
    ExperimentConfig,
    build_base_metric,
    pde_residual_median,
    run_flow_experiment,
    run_pair_experiment,
)
from ricciflow.geometry import perturb_metric
from ricciflow.reporting import read_report_json, write_report_json


def _config_dict(**overrides):
    data = {
        "version": 1,
        "mesh": {"generator": "genus2", "level": 0},
        "area": "minus_two_pi_chi",
        "perturbations": [{"amplitude": 0.02, "seed": 11}],
        "flow": {"spectrum_every": 30, "k": 8, "seed": 3},
        "emit": {"plot_data": False},
    }
    data.update(overrides)
    return data


def test_config_rejects_unknown_keys():
    for broken in (
        _config_dict(surprise=1),
        _config_dict(mesh={"generator": "genus2", "level": 1, "extra": 2}),
        _config_dict(flow={"dt_weird": 1.0}),
        _config_dict(emit={"pdf": True}),
        _config_dict(checks={"c_disk": 1.0}),
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(broken)


@pytest.mark.parametrize(
    "overrides",
    [
        {"perturbations": [{"amplitude": float("nan"), "seed": 1}]},
        {"flow": {"dt_init": float("nan")}},
        {"flow": {"t_max": float("nan")}},
        {"checks": {"c_disc": float("inf")}},
    ],
)
def test_config_rejects_non_finite_values(overrides):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_config_dict(**overrides))


def test_config_requires_version_and_one_source():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_config_dict(version=2))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _config_dict(mesh={"generator": "genus2", "level": 1, "off": "x.off"})
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_config_dict(perturbations=[]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _config_dict(perturbations=[{"amplitude": 0.0, "seed": 0}] * 3)
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_config_dict(area="square"))


def test_config_round_trip():
    config = ExperimentConfig.from_dict(_config_dict())
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def test_flow_experiment_artifacts(tmp_path):
    data = _config_dict(output_dir=str(tmp_path / "out"))
    config = ExperimentConfig.from_dict(data)
    artifacts = run_flow_experiment(config)
    assert artifacts.trace.converged
    assert artifacts.report_dict["all_satisfied"]
    out = tmp_path / "out"
    for name in ("config_resolved.json", "trace.csv", "spectrum.csv", "report.json"):
        assert (out / name).exists(), name
    report = read_report_json(out / "report.json")
    names = {c["name"] for c in report["checks"]}
    assert {
        "curvature_envelope_lower",
        "curvature_envelope_upper",
        "curvature_stays_below_beta",
        "rmax_comparison_ode",
        "log_derivative_corridor",
        "eigenvalue_ratio_window",
    } <= names
    assert "evolution_formula_median" in report["residual_stats"]


def test_pair_experiment_identical_specs(tmp_path):
    data = _config_dict(
        perturbations=[{"amplitude": 0.02, "seed": 5}, {"amplitude": 0.02, "seed": 5}],
        output_dir=str(tmp_path / "pair"),
    )
    config = ExperimentConfig.from_dict(data)
    artifacts = run_pair_experiment(config)
    assert artifacts.delta_hat < 1e-9  # identical surfaces, identical limits
    report = artifacts.report_dict
    assert report["all_satisfied"]
    mt = [c for c in report["pair_checks"] if c["name"] == "spectral_comparison_main"][0]
    assert mt["satisfied"]
    chain = [c for c in report["pair_checks"] if c["name"] == "consistency_chain"][0]
    assert chain["satisfied"]
    for sub in ("surface_1", "surface_2"):
        assert (tmp_path / "pair" / sub / "trace.csv").exists()


def test_pair_experiment_opposite_perturbations():
    data = _config_dict(
        perturbations=[{"amplitude": 0.02, "seed": 5}, {"amplitude": -0.02, "seed": 5}]
    )
    config = ExperimentConfig.from_dict(data)
    artifacts = run_pair_experiment(config)
    assert artifacts.report_dict["all_satisfied"]
    # same conformal class and area: the two limits coincide up to solver slack
    conv = config.flow.convergence_tol
    u1 = artifacts.surfaces[0][2].samples[-1].u
    u2 = artifacts.surfaces[1][2].samples[-1].u
    assert np.abs(u1 - u2).max() <= 10.0 * conv


def test_pair_area_guard(monkeypatch):
    import ricciflow.experiment as exp

    real = exp._run_one_surface
    calls = []

    def rigged(config, base, spec, progress=None):
        metric, window, trace, branches = real(config, base, spec, progress)
        if calls:  # shrink the second surface's recorded area
            from dataclasses import replace

            bad = replace(trace.samples[0].curvature, total_area=1.0)
            trace.samples[0] = exp.run_flow.__globals__["FlowSample"](
                step=0, t=0.0, u=trace.samples[0].u, curvature=bad,
                spectrum=trace.samples[0].spectrum,
            )
        calls.append(1)
        return metric, window, trace, branches

    monkeypatch.setattr(exp, "_run_one_surface", rigged)
    data = _config_dict(
        perturbations=[{"amplitude": 0.02, "seed": 5}, {"amplitude": 0.02, "seed": 6}]
    )
    with pytest.raises(HypothesisError):
        run_pair_experiment(ExperimentConfig.from_dict(data))


def test_flow_experiment_wrong_spec_count():
    data = _config_dict(
        perturbations=[{"amplitude": 0.02, "seed": 5}, {"amplitude": 0.02, "seed": 6}]
    )
    with pytest.raises(ConfigError):
        run_flow_experiment(ExperimentConfig.from_dict(data))


def _write_config(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def test_cli_flow_and_audit(tmp_path):
    cfg = tmp_path / "config.json"
    out = tmp_path / "out"
    _write_config(cfg, _config_dict())
    code = cli_main(["flow", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 0
    code = cli_main(["audit", "--dir", str(out), "--quiet"])
    assert code == 0
    audit = read_report_json(out / "audit_report.json")
    assert audit["all_satisfied"]
    assert {c["name"] for c in audit["checks"]} >= {
        "curvature_envelope_lower",
        "eigenvalue_ratio_window",
    }
    # the audit reproduces the live checks exactly, vertex witnesses included
    assert audit["checks"] == read_report_json(out / "report.json")["checks"]
    assert all(isinstance(c["witness"]["index"], int) for c in audit["checks"])


def test_cli_pair_and_audit(tmp_path):
    cfg = tmp_path / "config.json"
    out = tmp_path / "pair"
    _write_config(
        cfg,
        _config_dict(
            perturbations=[
                {"amplitude": 0.02, "seed": 5},
                {"amplitude": -0.02, "seed": 5},
            ]
        ),
    )
    assert cli_main(["pair", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert cli_main(["audit", "--dir", str(out), "--quiet"]) == 0
    live = read_report_json(out / "report.json")
    expected = [
        dict(check, name=f"{surface}/{check['name']}")
        for surface in ("surface_1", "surface_2")
        for check in live[surface]["checks"]
    ] + live["pair_checks"]
    audit = read_report_json(out / "audit_report.json")
    assert audit["checks"] == expected
    assert audit["checks"][-1]["name"] == "consistency_chain"


def test_flow_experiment_converged_at_start(tmp_path):
    # an unperturbed generated surface is near-hyperbolic; with a loose
    # convergence tolerance it converges on the spot and still produces a
    # complete, all-green artifact set
    data = _config_dict(
        perturbations=[{"amplitude": 0.0, "seed": 0}],
        flow={"spectrum_every": 30, "k": 8, "seed": 3, "convergence_tol": 0.2},
        output_dir=str(tmp_path / "idle"),
    )
    artifacts = run_flow_experiment(ExperimentConfig.from_dict(data))
    assert artifacts.trace.converged
    assert len(artifacts.trace.samples) == 1
    assert artifacts.report_dict["all_satisfied"]
    for name in ("trace.csv", "spectrum.csv", "report.json"):
        assert (tmp_path / "idle" / name).exists()
    assert cli_main(["audit", "--dir", str(tmp_path / "idle"), "--quiet"]) == 0
    audit = read_report_json(tmp_path / "idle" / "audit_report.json")
    assert audit["checks"] == artifacts.report_dict["checks"]


def test_flow_experiment_converged_at_start_level1(tmp_path):
    # a perturbed level-1 surface within the loose tolerance at t = 0: the
    # lone snapshot is tracked like any other, and the checks that need only
    # one sample run on it
    out = tmp_path / "idle1"
    data = _config_dict(
        mesh={"generator": "genus2", "level": 1},
        flow={"k": 12, "convergence_tol": 1.0},
        output_dir=str(out),
    )
    artifacts = run_flow_experiment(ExperimentConfig.from_dict(data))
    assert artifacts.trace.converged
    assert len(artifacts.trace.samples) == 1
    rows = (out / "spectrum.csv").read_text().splitlines()
    assert len(rows) == 2  # header and one data row
    checks = artifacts.report_dict["checks"]
    assert [c["name"] for c in checks] == [
        "curvature_envelope_lower",
        "curvature_envelope_upper",
        "curvature_stays_below_beta",
        "eigenvalue_ratio_window",
    ]
    assert all(c["satisfied"] for c in checks)
    assert audit_directory(str(out))["checks"] == checks


def test_cli_exit_one_on_violated_check(tmp_path):
    cfg = tmp_path / "config.json"
    out = tmp_path / "out"
    _write_config(cfg, _config_dict())
    assert cli_main(["flow", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    # doctor the stored trace so the ceiling check must fail on re-audit
    trace_path = out / "trace.csv"
    lines = trace_path.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("R_max")
    parts = lines[10].split(",")
    parts[col] = "0.5"
    lines[10] = ",".join(parts)
    trace_path.write_text("\n".join(lines) + "\n")
    assert cli_main(["audit", "--dir", str(out), "--quiet"]) == 1
    audit = read_report_json(out / "audit_report.json")
    assert not audit["all_satisfied"]
    bad = [c for c in audit["checks"] if not c["satisfied"]]
    assert bad and all(c["worst_margin"] < 0 for c in bad)


def test_cli_error_is_machine_readable(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict(perturbations=[{"amplitude": 5.0, "seed": 1}]))
    code = cli_main(["flow", "--config", str(cfg), "--quiet"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "PerturbationError"


def test_cli_rejects_nan_amplitude(tmp_path, capsys):
    # json.load accepts NaN, so the config check has to catch it
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict(perturbations=[{"amplitude": float("nan"), "seed": 1}]))
    assert cli_main(["flow", "--config", str(cfg), "--quiet"]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"


@pytest.mark.parametrize(
    "data, extra",
    [
        pytest.param([1], [], id="top_level_list"),
        pytest.param(_config_dict(emit=5), [], id="emit_int"),
        pytest.param(_config_dict(mesh={"level": "x"}), [], id="level_str"),
        pytest.param(_config_dict(mesh={"level": -1}), [], id="level_negative"),
        pytest.param(_config_dict(perturbations=[{"seed": "abc"}]), [], id="pert_seed_str"),
        pytest.param(_config_dict(perturbations=[{"seed": -3}]), [], id="pert_seed_negative"),
        pytest.param(_config_dict(flow={"k": "12"}), [], id="k_str"),
        pytest.param(_config_dict(flow={"dt_init": "0.01"}), [], id="dt_init_str"),
        pytest.param(_config_dict(flow={"seed": -1}), [], id="flow_seed_negative"),
        pytest.param(_config_dict(flow={"k": 3.5}), [], id="k_float"),
        pytest.param(_config_dict(flow={"k": 1}), [], id="k_one"),
        pytest.param(_config_dict(flow={"k": True}), [], id="k_bool"),
        pytest.param(_config_dict(flow={"k": 20}), [], id="k_above_half_V"),  # level 0: V = 32
        pytest.param(_config_dict(flow={"spectrum_every": 2.5}), [], id="spectrum_every_float"),
        pytest.param(_config_dict(), ["--seed", "-1"], id="cli_seed_negative"),
        pytest.param(_config_dict(output_dir=5), [], id="output_dir_int"),
        pytest.param(_config_dict(emit={"plot_data": "no"}), [], id="emit_str"),
        pytest.param(_config_dict(checks={"c_disc": True}), [], id="c_disc_bool"),
        pytest.param(_config_dict(checks={"c_disc": "10"}), [], id="c_disc_str"),
        pytest.param(_config_dict(perturbations=[{"amplitude": True}]), [], id="amplitude_bool"),
        pytest.param(_config_dict(flow={"dt_init": True}), [], id="dt_init_bool"),
        pytest.param(_config_dict(flow={"t_max": True}), [], id="t_max_bool"),
        pytest.param(_config_dict(mesh={"off": 5}), [], id="off_int"),
    ],
)
def test_cli_rejects_wrong_typed_config(tmp_path, capsys, data, extra):
    # a value of the wrong type or range is a ConfigError (exit 2), not a traceback
    cfg = tmp_path / "config.json"
    _write_config(cfg, data)
    assert cli_main(["flow", "--config", str(cfg), "--quiet", *extra]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"


def test_benchmark_tracer_records_experiment_spans(monkeypatch, tmp_path):
    # perfbench/tracer.py patches the experiment layer by module attribute;
    # the span counts show that a pair builds its base surface once and still
    # calls every per-surface stage through those attributes, once per surface
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)
    spec.loader.exec_module(tracer_module)

    data = _config_dict(
        perturbations=[{"amplitude": 0.02, "seed": 5}, {"amplitude": -0.02, "seed": 5}],
        output_dir=str(tmp_path / "pair"),
    )
    tracer = tracer_module.Tracer(0)
    with tracer.session():
        run_pair_experiment(ExperimentConfig.from_dict(data))
    counts = Counter(s.name for s in tracer.spans)
    assert counts["mesh.generate_genus2"] == 1
    per_surface = [
        "geometry.perturb_metric",
        "flow.run_flow",
        "tracking.track_branches",
        "reporting.write_trace_csv",
        "reporting.write_spectrum_csv",
        "tracking.monotonicity_violations",
        "tracking.evolution_residual_median",
        "tracking.dual_area_rate_residuals",
        "tracking.normalization_rate_residuals",
        "tracking.pde_residual_median",
    ]
    assert {name: counts[name] for name in per_surface} == dict.fromkeys(per_surface, 2)


def test_cli_audit_truncated_trace(tmp_path, capsys):
    write_report_json(tmp_path / "report.json", {"version": 1, "kind": "flow", "inputs": {}})
    (tmp_path / "trace.csv").write_text("t,dt,area,r,R_min,R_max,max_abs_R_minus_r\n")
    assert cli_main(["audit", "--dir", str(tmp_path), "--quiet"]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"


def test_cli_missing_off_file(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict(mesh={"off": str(tmp_path / "absent.off")}))
    assert cli_main(["flow", "--config", str(cfg), "--quiet"]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "MeshFormatError"


def test_pde_residual_median_reads_every_sample(monkeypatch):
    # a failed mid-run eigensolve leaves a sample without a spectrum; the
    # curvature-law residual needs none, so the gate and the residual must
    # both read trace.samples
    real = flow_module.smallest_eigenpairs
    calls = []

    def solver(stiffness, mass, k, tol, seed, t=0.0):
        calls.append(t)
        if len(calls) == 4:
            raise EigensolverError("injected failure")
        return real(stiffness, mass, k, tol, seed, t=t)

    monkeypatch.setattr(flow_module, "smallest_eigenpairs", solver)
    config = ExperimentConfig.from_dict(
        _config_dict(mesh={"generator": "genus2", "level": 1}, flow={"spectrum_every": 10})
    )
    metric, _ = perturb_metric(build_base_metric(config), 0.02, 11)
    trace = flow_module.run_flow(metric, config.flow)
    samples = trace.samples
    assert len(trace.snapshot_samples()) == len(samples) - 1
    active = 20.0 * samples[-1].curvature.max_deviation()
    pooled = [
        np.abs(flow_module.curvature_pde_residual(trace, j))
        for j in range(1, len(samples) - 1)
        if samples[j].curvature.max_deviation() >= active
    ]
    assert pde_residual_median(trace) == float(np.median(np.concatenate(pooled)))


@pytest.fixture(scope="module")
def flow_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("flow") / "out"
    run_flow_experiment(ExperimentConfig.from_dict(_config_dict(output_dir=str(out))))
    return out


def _edit_report(directory, edit):
    report = read_report_json(directory / "report.json")
    edit(report)
    write_report_json(directory / "report.json", report)


def _drop_columns(path, drop):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [j for j, name in enumerate(rows[0]) if not drop(name)]
    path.write_text("".join(",".join(row[j] for j in keep) + "\n" for row in rows))


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(
            lambda d: _edit_report(d, lambda r: r["inputs"].pop("c_disc")), id="input_key"
        ),
        pytest.param(lambda d: _edit_report(d, lambda r: r.pop("inputs")), id="no_inputs"),
        pytest.param(lambda d: (d / "report.json").write_text("{not json\n"), id="not_json"),
        pytest.param(lambda d: _drop_columns(d / "trace.csv", "R_max".__eq__), id="no_R_max"),
        pytest.param(
            lambda d: _drop_columns(d / "spectrum.csv", lambda name: name.startswith("branch_")),
            id="no_branches",
        ),
        pytest.param(lambda d: (d / "spectrum.csv").unlink(), id="no_spectrum"),
        pytest.param(lambda d: write_report_json(d / "report.json", []), id="top_level_list"),
        pytest.param(lambda d: _edit_report(d, lambda r: r.update(inputs=None)), id="inputs_null"),
    ],
)
def test_cli_audit_malformed_artifacts(flow_dir, tmp_path, capsys, corrupt):
    broken = tmp_path / "broken"
    shutil.copytree(flow_dir, broken)
    corrupt(broken)
    assert cli_main(["audit", "--dir", str(broken), "--quiet"]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"


def test_thread_variable_overrides_blas_settings():
    import ricciflow

    src = os.path.dirname(os.path.dirname(os.path.abspath(ricciflow.__file__)))
    env = dict(os.environ, RICCIFLOW_THREADS="1", OPENBLAS_NUM_THREADS="4", PYTHONPATH=src)
    code = "import os, ricciflow; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"


@pytest.mark.parametrize("failing", ["start", "every"])
def test_missing_start_snapshot_is_typed_error(monkeypatch, tmp_path, capsys, failing):
    # the ratio and comparison checks need the t = 0 spectrum; a later
    # snapshot must not stand in for it
    real = flow_module.smallest_eigenpairs

    def solver(stiffness, mass, k, tol, seed, t=0.0):
        if t == 0.0 or failing == "every":
            raise EigensolverError("injected failure")
        return real(stiffness, mass, k, tol, seed, t=t)

    monkeypatch.setattr(flow_module, "smallest_eigenpairs", solver)
    with pytest.raises(EigensolverError):
        run_flow_experiment(ExperimentConfig.from_dict(_config_dict()))
    pair = _config_dict(perturbations=[{"amplitude": 0.02, "seed": 5},
                                       {"amplitude": -0.02, "seed": 5}])
    with pytest.raises(EigensolverError):
        run_pair_experiment(ExperimentConfig.from_dict(pair))
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict())
    assert cli_main(["flow", "--config", str(cfg), "--quiet"]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "EigensolverError"


def test_artifacts_independent_of_thread_count(tmp_path):
    # the level-2 acceptance run, once with BLAS on one thread and once on two
    import ricciflow

    src = os.path.dirname(os.path.dirname(os.path.abspath(ricciflow.__file__)))
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict(mesh={"generator": "genus2", "level": 2},
                                    flow={"spectrum_every": 30, "k": 12, "seed": 3}))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, RICCIFLOW_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "ricciflow.cli", "flow", "--config", str(cfg),
             "--out", str(out), "--quiet"],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        report = (out / "report.json").read_text().splitlines()
        outputs.append((
            [line for line in report if "generated_at" not in line],
            (out / "trace.csv").read_bytes(),
            (out / "spectrum.csv").read_bytes(),
        ))
    assert outputs[0] == outputs[1]


def test_flows_sharing_one_base_surface_match_sequential_runs():
    # the pair's flow threads share one mesh and geometry kernel; with more
    # threads than cores and a short switch interval, every flow must still
    # equal its sequential run bit for bit
    config = ExperimentConfig.from_dict(_config_dict())
    base = build_base_metric(config)
    amplitudes = (0.02, -0.02, 0.01, -0.01)

    def flow_from(amplitude):
        metric, _ = perturb_metric(base, amplitude, 5)
        trace = flow_module.run_flow(metric, config.flow)
        return trace.steps["t"], trace.samples[-1].u

    expected = [flow_from(a) for a in amplitudes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(amplitudes)) as pool:
            futures = [pool.submit(flow_from, a) for a in amplitudes]
            found = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (t0, u0), (t1, u1) in zip(expected, found):
        assert np.array_equal(t0, t1) and np.array_equal(u0, u1)


def test_cli_timemap(capsys):
    assert cli_main(["timemap", "--area0", "1.0", "--chi", "-2",
                     "--tau", "0,0.027586"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert float(rows[0][1]) == 0.0
    assert abs(float(rows[1][1]) - 0.03979) < 1e-4
    assert cli_main(["timemap", "--area0", "1.0", "--chi", "2", "--tau", "0"]) == 2


def test_cli_gen(tmp_path, capsys):
    assert cli_main(["gen", "--level", "0", "--out", str(tmp_path)]) == 0
    payload = read_report_json(tmp_path / "mesh.json")
    assert payload["chi"] == -2 and payload["genus"] == 2
    assert len(payload["triangles"]) == 68
    assert len(payload["base_lengths"]) == 102


def test_cli_seed_override(tmp_path):
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["flow", "--config", str(cfg), "--out", str(out1),
                     "--seed", "21", "--quiet"]) == 0
    resolved = read_report_json(out1 / "config_resolved.json")
    assert resolved["flow"]["seed"] == 21
    assert cli_main(["flow", "--config", str(cfg), "--out", str(out2),
                     "--quiet"]) == 0
    assert read_report_json(out2 / "config_resolved.json")["flow"]["seed"] == 3


def test_report_determinism_modulo_timestamp(tmp_path):
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict())
    texts = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert cli_main(["flow", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        lines = (out / "report.json").read_text().splitlines()
        texts.append("\n".join(ln for ln in lines if "generated_at" not in ln))
    assert texts[0] == texts[1]
    for sub in ("r1", "r2"):
        csv1 = (tmp_path / sub / "trace.csv").read_bytes()
    assert csv1 == (tmp_path / "r1" / "trace.csv").read_bytes()
