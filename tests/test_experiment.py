import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ricciflow import ConfigError, EigensolverError, HypothesisError
from ricciflow import flow as flow_module
from ricciflow.cli import main as cli_main
from ricciflow.experiment import (
    ExperimentConfig,
    run_flow_experiment,
    run_pair_experiment,
)
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

    def rigged(config, spec, progress=None):
        metric, window, trace, branches = real(config, spec, progress)
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


def test_cli_audit_truncated_trace(tmp_path, capsys):
    write_report_json(tmp_path / "report.json", {"version": 1, "kind": "flow", "inputs": {}})
    (tmp_path / "trace.csv").write_text("t,dt,area,r,R_min,R_max,max_abs_R_minus_r\n")
    assert cli_main(["audit", "--dir", str(tmp_path), "--quiet"]) == 2
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
