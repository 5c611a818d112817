import contextlib
import importlib.util
import io
import json
import os
import pickle
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, is_dataclass, replace
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ricciflow
from ricciflow import (
    ConfigError,
    EigensolverError,
    HypothesisError,
    SpectrumSnapshot,
    TriangleInequalityError,
)
from ricciflow import bounds as bnd
from ricciflow import errors as errors_module
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
from ricciflow.geometry import curvature_window, perturb_metric, scale_metric
from ricciflow.reporting import format_float, read_report_json, write_report_json
from ricciflow.tracking import (
    BranchTracker,
    active_interior,
    dual_area_rate_residuals,
    evolution_residual_median,
    normalization_rate_residuals,
    track_branches,
)

import oracles
from meshes import flat_torus_metric


def _config_dict(**overrides):
    data = {
        "version": 1,
        "mesh": {"generator": "genus2", "level": 0},
        "area": "minus_two_pi_chi",
        "perturbations": [{"amplitude": 0.02, "seed": 11}],
        "flow": {"spectrum_every": 30, "k": 8, "seed": 3},
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
        _config_dict(checks={"c_disc": 10.0, "tol_ratio": 0.02}),  # the tolerances are constants
        # step control and the eigensolver tolerance are constants too
        *(_config_dict(flow={name: 0.5})
          for name in ("dt_init", "dt_min", "safety", "convergence_tol", "eig_tol")),
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(broken)


@pytest.mark.parametrize(
    "overrides",
    [
        {"perturbations": [{"amplitude": float("nan"), "seed": 1}]},
        {"flow": {"t_max": float("inf")}},
        {"flow": {"t_max": float("nan")}},
        {"perturbations": [{"amplitude": float("inf"), "seed": 1}]},
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


def test_readme_flow_config_parses():
    # the README's example is a config the current schema accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("A flow config looks like:", 1)[1]
    block = example.split("```json\n", 1)[1].split("```", 1)[0]
    config = ExperimentConfig.from_dict(json.loads(block))
    assert config.generator_level == 2 and len(config.perturbations) == 1


def test_flow_experiment_artifacts(tmp_path):
    data = _config_dict(output_dir=str(tmp_path / "out"))
    config = ExperimentConfig.from_dict(data)
    artifacts = run_flow_experiment(config)
    assert artifacts.trace.converged
    assert artifacts.report_dict["all_satisfied"]
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == [
        "config_resolved.json", "report.json", "spectrum.csv", "trace.csv"
    ]
    resolved = read_report_json(out / "config_resolved.json")
    assert "emit" not in resolved and "checks" not in resolved
    report = read_report_json(out / "report.json")
    # the check tolerances are constants, recorded where audit reads them
    assert (report["inputs"]["c_disc"], report["inputs"]["tol_ratio"]) == (10.0, 0.02)
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
    report = artifacts.report_dict
    assert report["inputs"]["delta_hat"] < 1e-9  # identical surfaces, identical limits
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
    conv = flow_module.CONVERGENCE_TOL
    u1 = artifacts.surfaces[0][2].samples[-1].u
    u2 = artifacts.surfaces[1][2].samples[-1].u
    assert np.abs(u1 - u2).max() <= 10.0 * conv


def test_pair_area_guard(monkeypatch):
    # the flow processes inherit the patch, which halves the area of the
    # surface of seed 6 before it is perturbed
    import ricciflow.experiment as exp

    real = exp.perturb_metric

    def perturb(base, amplitude, seed):
        return real(scale_metric(base, 0.5) if seed == 6 else base, amplitude, seed)

    monkeypatch.setattr(exp, "perturb_metric", perturb)
    data = _config_dict(
        perturbations=[{"amplitude": 0.02, "seed": 5}, {"amplitude": 0.02, "seed": 6}]
    )
    with pytest.raises(HypothesisError, match="area"):
        run_pair_experiment(ExperimentConfig.from_dict(data))


_PAIR_SPECS = [{"amplitude": 0.02, "seed": 5}, {"amplitude": -0.02, "seed": 5}]


def _kind_config(kind, **overrides):
    """The config dict of a ``flow`` or ``pair`` run: one or both of ``_PAIR_SPECS``."""
    specs = _PAIR_SPECS[: 1 if kind == "flow" else 2]
    return _config_dict(perturbations=specs, **overrides)


def _run_kind(kind, config):
    """``(metric, window, trace, branch_set)`` of each surface of a ``kind`` run."""
    if kind == "pair":
        return list(run_pair_experiment(config).surfaces)
    artifacts = run_flow_experiment(config)
    return [(artifacts.initial, artifacts.window, artifacts.trace, artifacts.branch_set)]


@pytest.mark.parametrize("kind", ["flow", "pair"])
def test_dead_flow_process_is_typed_error(kind, monkeypatch, tmp_path, capsys):
    # the flow processes inherit the patch; one that dies must not leave the
    # CLI with a traceback
    import ricciflow.experiment as exp

    monkeypatch.setattr(exp, "run_flow", lambda *args, **kwargs: os._exit(3))
    cfg = tmp_path / "config.json"
    _write_config(cfg, _kind_config(kind))
    assert cli_main([kind, "--config", str(cfg), "--quiet"]) == 2
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "FlowAbortError"
    assert payload["message"].startswith("a flow worker process ended abruptly; unflowed surfaces")
    assert "Traceback" not in err


def _run_python(code, *args, timeout=120):
    """``python -c code args`` with this checkout's ricciflow; a hang fails
    the calling test by ``timeout`` instead of stalling the suite. On timeout
    the child's whole session is killed: a forked flow process outlives a
    killed parent."""
    import ricciflow

    src = os.path.dirname(os.path.dirname(os.path.abspath(ricciflow.__file__)))
    with subprocess.Popen(
        [sys.executable, "-c", code, *map(str, args)], env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(child.args, child.returncode, out, err)


_WORKER_LIFECYCLE = """
import json, multiprocessing, os, sys, threading
from ricciflow import EigensolverError, FlowAbortError, TriangleInequalityError, experiment, flow

kind, case = sys.argv[1], sys.argv[2]
config = experiment.ExperimentConfig.from_dict(json.loads(sys.argv[3]))
for name, value in json.loads(sys.argv[4]).items():  # flow constants; the fork inherits them
    setattr(flow, name, value)
real = flow.smallest_eigenpairs

def solver(stiffness, mass, k, tol, seed, t=0.0):
    # interior failures are warnings, so failing every sample after the
    # first makes the last one the failure that counts
    if (case, t == 0.0) in (("first", True), ("last", False)):
        raise EigensolverError("injected failure")
    if (case, t == 0.0) == ("other", False):
        raise TriangleInequalityError("injected failure")
    return real(stiffness, mass, k, tol, seed, t=t)

flow.smallest_eigenpairs = solver
if case == "dead":
    experiment.run_flow = lambda *args, **kwargs: os._exit(3)
run = experiment.run_flow_experiment if kind == "flow" else experiment.run_pair_experiment
try:
    run(config)
    outcome = "ok"
except (EigensolverError, FlowAbortError, TriangleInequalityError) as exc:
    outcome = f"{type(exc).__name__}: {exc}"
print(json.dumps([outcome, len(multiprocessing.active_children()), threading.active_count()]))
"""


@pytest.mark.parametrize("kind", ["flow", "pair"])
@pytest.mark.parametrize(
    "case, flow, outcome",
    [
        ("normal", {}, "ok"),
        ("abort", {"SAFETY": 1e-12}, "FlowAbortError: step size underflow"),
        ("first", {}, "EigensolverError: no spectrum at t=0,"),
        ("last", {}, "EigensolverError: no spectrum at t="),
        ("dead", {}, "FlowAbortError: a flow worker process ended abruptly"),
        ("other", {}, "TriangleInequalityError: injected failure"),
    ],
)
def test_spectrum_worker_leaves_no_process(case, flow, outcome, kind):
    # on every way out of an experiment its flow processes are joined, no
    # thread is left beside the main one, and the interpreter exits at once;
    # a solve's error other than an EigensolverError reaches the caller as
    # it was raised. ``flow`` names the ``ricciflow.flow`` constants to patch
    data = _kind_config(kind, flow={"spectrum_every": 30, "k": 8, "seed": 3})
    done = _run_python(_WORKER_LIFECYCLE, kind, case, json.dumps(data), json.dumps(flow))
    assert done.returncode == 0, done.stderr
    found, children, threads = json.loads(done.stdout)
    assert found.startswith(outcome), found
    if case == "last":
        assert not found.startswith("EigensolverError: no spectrum at t=0,"), found
    assert children == 0 and threads == 1
    assert "Traceback" not in done.stderr


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_errors_survive_pickle():
    # a flow process's error reaches the parent by pickle, with its attributes
    classes = [
        obj for obj in vars(errors_module).values()
        if isinstance(obj, type) and issubclass(obj, errors_module.RicciFlowError)
    ]
    extra = {
        errors_module.TriangleInequalityError: {"face": 17},
        errors_module.EigensolverError: {"best_residual": 2.5e-7},
        errors_module.FlowAbortError: {"t": 0.125, "dt": 1e-12},
    }
    for cls in classes:
        exc = cls("message", **extra.get(cls, {}))
        back = _round_trip(exc)
        assert type(back) is cls and back.args == ("message",)
        for name, value in extra.get(cls, {}).items():
            assert getattr(back, name) == value

    config = ExperimentConfig.from_dict(_config_dict(flow={"t_max": 0.01, "k": 8, "seed": 3}))
    metric, _ = perturb_metric(build_base_metric(config), 0.02, 5)
    exc = errors_module.FlowAbortError("step size underflow", t=0.01, dt=1e-14)
    exc.trace = flow_module.run_flow(metric, config.flow)
    back = _round_trip(exc)
    assert type(back) is errors_module.FlowAbortError and (back.t, back.dt) == (0.01, 1e-14)
    assert np.array_equal(back.trace.mesh.triangles, exc.trace.mesh.triangles)
    for key, column in exc.trace.steps.items():
        assert np.array_equal(back.trace.steps[key], column)
    assert [s.t for s in back.trace.samples] == [s.t for s in exc.trace.samples]


def test_package_exports_resolve_once_and_no_test_oracle():
    names = ricciflow.__all__
    assert len(set(names)) == len(names) and all(hasattr(ricciflow, name) for name in names)
    # moved to the test oracles, or gone: report_dict is the one verdict record
    gone = {"dense_eigenpairs", "rayleigh_quotient", "nrf_velocity", "step",
            "branch_log_derivative", "evolution_formula_residual", "BranchCrossingError",
            "BoundReport"}
    assert not gone & (set(names) | set(vars(ricciflow)))


@pytest.mark.parametrize("kind", ["flow", "pair"])
def test_surfaces_match_in_process_runs(kind):
    # each flow runs in its own process and its spectra are solved in this
    # one; every surface must still be the in-process run, bit for bit
    config = ExperimentConfig.from_dict(
        _kind_config(kind, mesh={"generator": "genus2", "level": 1})
    )
    surfaces = _run_kind(kind, config)
    meshes = {id(trace.mesh) for _, _, trace, _ in surfaces}
    assert len(meshes) == 1  # the pair's two traces are rejoined to one base mesh
    base = build_base_metric(config)
    for spec, (metric, window, trace, branch_set) in zip(config.perturbations, surfaces):
        expected_metric, expected_window = perturb_metric(base, spec.amplitude, spec.seed)
        expected = flow_module.run_flow(expected_metric, config.flow)
        oracles.solve_every_sample(expected)
        checked = bnd.checked_branches(config.flow.k)
        expected_branches = track_branches(expected.snapshots())
        if kind == "flow":  # the pair merges the two windows
            assert window == expected_window
        assert trace.converged and expected.converged and trace.warnings == expected.warnings
        assert metric.mesh is trace.mesh and np.array_equal(metric.u, expected_metric.u)
        assert trace.steps.keys() == expected.steps.keys()
        for key, column in expected.steps.items():
            assert np.array_equal(trace.steps[key], column), key
        assert len(trace.samples) == len(expected.samples)
        for got, want in zip(trace.samples, expected.samples):
            assert got.t == want.t and np.array_equal(got.u, want.u)
            for field in (f.name for f in fields(got.curvature)):
                assert np.array_equal(getattr(got.curvature, field),
                                      getattr(want.curvature, field)), field
            # tracked as it was solved, the spectrum is kept without its vectors and mass
            assert got.spectrum.eigenvectors is None and got.spectrum.mass is None
            for field in (f.name for f in fields(SpectrumSnapshot)):
                if field not in ("eigenvectors", "mass"):
                    assert np.array_equal(getattr(got.spectrum, field),
                                          getattr(want.spectrum, field)), field
        for field in ("times", "values", "columns", "signs", "flagged", "sorted_values"):
            assert np.array_equal(getattr(branch_set, field),
                                  getattr(expected_branches, field)), field
        assert branch_set.branches == tuple(checked)
        # no vectors: the stencils were evaluated as the spectra arrived, and
        # give the statistics that the vector-reading oracle gives over
        # tracking the whole list
        streamed = BranchTracker(checked)
        for sample in expected.snapshot_samples():
            streamed.add(sample.spectrum, sample.curvature)
        assert np.array_equal(branch_set.stencil_residuals,
                              track_branches(streamed).stencil_residuals, equal_nan=True)
        assert (evolution_residual_median(trace, branch_set, checked)
                == oracles.evolution_residual_median(expected, expected_branches, checked))
        assert np.array_equal(normalization_rate_residuals(trace, branch_set, checked),
                              oracles.law_residuals(expected, expected_branches, checked, 1))


@pytest.mark.parametrize("level", [2, 3])
def test_first_sample_window_is_the_perturbation_window(level):
    # the parent reads each surface's curvature window from its flow's first
    # sample, not from perturb_metric: the two must agree bit for bit
    config = ExperimentConfig.from_dict(_config_dict(mesh={"generator": "genus2", "level": level}))
    base = build_base_metric(config)
    for amplitude, seed in ((0.02, 11), (-0.02, 5), (0.02, 5), (0.0, 0)):
        metric, window = perturb_metric(base, amplitude, seed)
        first = []
        flow_module.run_flow(metric, replace(config.flow, t_max=1e-6), on_sample=first.append)
        assert curvature_window(first[0].curvature) == window, (amplitude, seed)


def _arrays(obj):
    """Every NumPy array in ``obj``, through containers and dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)
    elif is_dataclass(obj):
        for field in fields(obj):
            yield from _arrays(getattr(obj, field.name))


@pytest.mark.parametrize("kind", ["flow", "pair"])
def test_experiment_keeps_no_branch_vectors(kind, monkeypatch):
    # each spectrum is tracked as soon as it is solved, with its sample's
    # curvature field: the branch set keeps the residual stencils and no
    # vector, the trace's spectra keep neither vectors nor masses, and no pipe
    # message carries more than one sample's arrays
    messages = []
    real_recv = Connection.recv

    def recv(self):
        messages.append(real_recv(self))
        return messages[-1]

    monkeypatch.setattr(Connection, "recv", recv)
    flow = {"spectrum_every": 60, "k": 8, "seed": 3}
    config = ExperimentConfig.from_dict(
        _kind_config(kind, mesh={"generator": "genus2", "level": 2}, flow=flow)
    )
    surfaces = _run_kind(kind, config)
    checked = bnd.checked_branches(config.flow.k)
    for _, _, trace, branch_set in surfaces:
        snapshots = trace.snapshots()
        assert len(snapshots) == len(branch_set.times) > 2
        assert all(snap.eigenvectors is None and snap.mass is None for snap in snapshots)
        table = branch_set.stencil_residuals
        assert table.shape == (2, len(checked), len(snapshots))
        assert np.isnan(table[:, :, [0, -1]]).all() and np.isfinite(table[:, :, 1:-1]).all()

    samples = sum(len(trace.samples) for _, _, trace, _ in surfaces)
    assert Counter(tag for tag, *_ in messages) == {"sample": samples, "done": len(surfaces)}
    n = surfaces[0][2].mesh.vertex_count
    for tag, *body in messages:
        arrays = list(_arrays(body))
        if tag == "sample":  # one state, without a spectrum: u, dual area and R
            [sample] = body
            assert isinstance(sample, flow_module.FlowSample) and sample.spectrum is None
            assert [a.shape for a in arrays] == [(n,)] * 3
        elif tag == "done":  # the per-step columns, and no sample
            steps, converged = body
            assert isinstance(converged, bool)
            assert [id(a) for a in arrays] == [id(a) for a in steps.values()]
        else:
            assert arrays == []


@pytest.mark.parametrize("kind", ["flow", "pair"])
@pytest.mark.parametrize("error", [EigensolverError, TriangleInequalityError])
def test_a_failed_start_solve_stops_the_flows(kind, error, monkeypatch):
    # the checks need the spectrum at t = 0, so a failed start solve raises
    # as it is made and stops the flows, which, with no flow converging,
    # would otherwise run to t_max for nothing and send their "done"
    messages = []
    real_recv = Connection.recv
    real = flow_module.smallest_eigenpairs

    def recv(self):
        messages.append(real_recv(self))
        return messages[-1]

    def solver(stiffness, mass, k, tol, seed, t=0.0):
        if t == 0.0:
            raise error("injected failure")
        return real(stiffness, mass, k, tol, seed, t=t)

    monkeypatch.setattr(Connection, "recv", recv)
    monkeypatch.setattr(flow_module, "smallest_eigenpairs", solver)
    monkeypatch.setattr(flow_module, "CONVERGENCE_TOL", 0.0)
    flow = {"t_max": 5, "spectrum_every": 10, "k": 8, "seed": 3}
    config = ExperimentConfig.from_dict(
        _kind_config(kind, mesh={"generator": "genus2", "level": 1}, flow=flow)
    )
    with pytest.raises(error):
        _run_kind(kind, config)
    tags = Counter(tag for tag, *_ in messages)
    assert "done" not in tags, tags


@pytest.mark.parametrize("kind", ["flow", "pair"])
def test_streamed_statistics_skip_a_failed_interior_solve(kind, monkeypatch):
    # one interior eigensolve fails on each surface: the stencils span the
    # gap, as trace.snapshot_samples() does, the residual statistics equal
    # the vector-reading oracle's over list-based tracking of an in-process
    # run, bit for bit, and the curvature-law residual and the volume-form
    # rate, which need no spectrum, still count the sample
    flow = {"spectrum_every": 10, "k": 8, "seed": 3}
    config = ExperimentConfig.from_dict(
        _kind_config(kind, mesh={"generator": "genus2", "level": 1}, flow=flow)
    )
    base = build_base_metric(config)
    expected = [
        flow_module.run_flow(perturb_metric(base, s.amplitude, s.seed)[0], config.flow)
        for s in config.perturbations
    ]
    unfailed = [replace(want, samples=list(want.samples), warnings=[]) for want in expected]
    for trace in unfailed:
        oracles.solve_every_sample(trace)
    failing = {trace.samples[3].t for trace in expected}
    real = flow_module.smallest_eigenpairs

    def solver(stiffness, mass, k, tol, seed, t=0.0):
        if t in failing:
            raise EigensolverError("injected failure")
        return real(stiffness, mass, k, tol, seed, t=t)

    monkeypatch.setattr(flow_module, "smallest_eigenpairs", solver)
    if kind == "flow":
        artifacts = run_flow_experiment(config)
        surfaces = [(artifacts.trace, artifacts.branch_set, artifacts.report_dict)]
    else:
        artifacts = run_pair_experiment(config)
        blocks = [artifacts.report_dict[f"surface_{i}"] for i in (1, 2)]
        surfaces = [(tr, bs, block) for (_, _, tr, bs), block in zip(artifacts.surfaces, blocks)]
    checked = bnd.checked_branches(config.flow.k)
    for want, solved, (trace, branch_set, block) in zip(expected, unfailed, surfaces):
        oracles.solve_every_sample(want)
        tracked = track_branches(want.snapshots())
        assert trace.samples[3].spectrum is None and want.samples[3].spectrum is None
        assert trace.warnings == want.warnings and len(want.warnings) == 1
        assert np.array_equal(branch_set.times, [s.t for s in want.snapshot_samples()])
        assert len(branch_set.times) == len(trace.samples) - 1
        # the stencil at snapshot 2 reads samples 1, 2 and 4
        for j in range(1, len(branch_set.times) - 1):
            for i, b in enumerate(checked):
                if not tracked.flagged[b, j - 1 : j + 2].any():
                    assert (branch_set.stencil_residuals[0, i, j]
                            == oracles.evolution_formula(want, tracked, b, j)[2])
        stats = block["residual_stats"]
        assert (stats["evolution_formula_median"], stats["evolution_formula_samples"]) == (
            oracles.evolution_residual_median(want, tracked, checked)
        )
        normalization = oracles.law_residuals(want, tracked, checked, 1)
        assert np.array_equal(normalization_rate_residuals(trace, branch_set, checked),
                              normalization)
        assert stats["normalization_median"] == float(np.median(normalization))
        assert 3 in active_interior(want.samples)
        assert stats["pde_residual_median"] == pde_residual_median(want)
        assert stats["volume_form_median"] == float(
            np.median(dual_area_rate_residuals(solved))
        )


@pytest.mark.parametrize("kind", ["flow", "pair"])
def test_flow_process_runs_one_thread(kind, monkeypatch, tmp_path):
    # the process that integrates a flow starts no thread, so no helper
    # thread takes the GIL from the integrator
    import ricciflow.experiment as exp

    log = tmp_path / "threads.txt"
    real = exp.run_flow

    def run_flow(metric, config, progress=None, on_sample=None):
        def record(sample):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()} {threading.active_count()}\n")
            on_sample(sample)

        return real(metric, config, progress=progress, on_sample=record)

    monkeypatch.setattr(exp, "run_flow", run_flow)
    surfaces = _run_kind(kind, ExperimentConfig.from_dict(_kind_config(kind)))
    rows = [line.split() for line in log.read_text(encoding="ascii").splitlines()]
    assert len(rows) == sum(len(trace.samples) for _, _, trace, _ in surfaces)
    assert {threads for _, threads in rows} == {"1"}
    assert len({pid for pid, _ in rows}) == len(surfaces)
    assert str(os.getpid()) not in {pid for pid, _ in rows}


def test_flow_progress_reaches_the_caller(monkeypatch, tmp_path):
    # the flow runs in another process, and its progress still reaches the
    # caller's callback in this one, value for value
    import ricciflow.experiment as exp

    pid_file = tmp_path / "pid.txt"
    real = exp.run_flow

    def run_flow(metric, config, progress=None, on_sample=None):
        pid_file.write_text(str(os.getpid()), encoding="ascii")
        progress(0.25, 1e-3, 1e-4)
        return real(metric, config, on_sample=on_sample)

    monkeypatch.setattr(exp, "run_flow", run_flow)
    calls = []
    run_flow_experiment(
        ExperimentConfig.from_dict(_config_dict()),
        progress=lambda *state: calls.append((os.getpid(), state)),
    )
    assert calls == [(os.getpid(), (0.25, 1e-3, 1e-4))]
    assert pid_file.read_text(encoding="ascii") != str(os.getpid())


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


@pytest.mark.parametrize("extra", [[], ["--seed", "7"]], ids=["config_seed", "cli_seed"])
@pytest.mark.parametrize("kind", ["flow", "pair"])
def test_config_resolved_loads_back_into_the_run_config(kind, extra, tmp_path, monkeypatch):
    # config_resolved.json parses back into the very config the run used,
    # with the CLI's --out and --seed applied
    import ricciflow.experiment as exp

    name = f"run_{kind}_experiment"
    real, configs = getattr(exp, name), []

    def run(config, **kwargs):
        configs.append(config)
        return real(config, **kwargs)

    monkeypatch.setattr(exp, name, run)
    cfg = tmp_path / "config.json"
    out = tmp_path / "out"
    _write_config(cfg, _kind_config(kind))
    assert cli_main([kind, "--config", str(cfg), "--out", str(out), "--quiet", *extra]) in (0, 1)
    [config] = configs
    assert config.output_dir == str(out) and config.flow.seed == (7 if extra else 3)
    assert ExperimentConfig.from_dict(read_report_json(out / "config_resolved.json")) == config


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
    assert sorted(os.listdir(out)) == [
        "audit_report.json", "config_resolved.json", "report.json", "surface_1", "surface_2"
    ]
    for sub in ("surface_1", "surface_2"):
        assert sorted(os.listdir(out / sub)) == ["spectrum.csv", "trace.csv"]
    live = read_report_json(out / "report.json")
    expected = [
        dict(check, name=f"{surface}/{check['name']}")
        for surface in ("surface_1", "surface_2")
        for check in live[surface]["checks"]
    ] + live["pair_checks"]
    audit = read_report_json(out / "audit_report.json")
    assert audit["checks"] == expected
    assert audit["checks"][-1]["name"] == "consistency_chain"


def test_flow_experiment_converged_at_start(tmp_path, monkeypatch):
    # an unperturbed generated surface is near-hyperbolic; with a loose
    # convergence tolerance it converges on the spot and still produces a
    # complete, all-green artifact set. The forked flow process inherits
    # the patched constant
    monkeypatch.setattr(flow_module, "CONVERGENCE_TOL", 0.2)
    data = _config_dict(
        perturbations=[{"amplitude": 0.0, "seed": 0}],
        flow={"spectrum_every": 30, "k": 8, "seed": 3},
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


def test_flow_experiment_converged_at_start_level1(tmp_path, monkeypatch):
    # a perturbed level-1 surface within the loose tolerance at t = 0: the
    # lone snapshot is tracked like any other, and the checks that need only
    # one sample run on it
    monkeypatch.setattr(flow_module, "CONVERGENCE_TOL", 1.0)
    out = tmp_path / "idle1"
    data = _config_dict(
        mesh={"generator": "genus2", "level": 1},
        flow={"k": 12},
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


def test_flow_with_every_branch_flagged_skips_corridor(monkeypatch, tmp_path):
    # a tracker that flags every sample leaves the corridor nothing to check:
    # the live run and its audit both leave it out, and the report says why
    import ricciflow.experiment as exp

    real = exp.track_branches

    def flag_everything(snapshots):
        branches = real(snapshots)
        return replace(branches, flagged=np.ones_like(branches.flagged))

    monkeypatch.setattr(exp, "track_branches", flag_everything)
    out = tmp_path / "flagged"
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict(flow={"spectrum_every": 5, "k": 8, "seed": 3}))
    assert cli_main(["flow", "--config", str(cfg), "--out", str(out), "--quiet"]) in (0, 1)
    report = read_report_json(out / "report.json")
    assert len(report["checks"]) == 5
    assert "log_derivative_corridor" not in [c["name"] for c in report["checks"]]
    assert report["warnings"][-1].startswith("log_derivative_corridor skipped")
    assert audit_directory(str(out))["checks"] == report["checks"]


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


def test_cli_config_with_a_non_ascii_byte_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"version": 1, "output_dir": "r\xffsultats"}')
    for kind in ("flow", "pair"):
        assert cli_main([kind, "--config", str(cfg), "--quiet"]) == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith("cannot read config")


@pytest.mark.parametrize("kind", ["flow", "pair"])
def test_cli_output_dir_that_cannot_be_created_fails_before_any_flow(kind, tmp_path, capsys,
                                                                     monkeypatch):
    import ricciflow.experiment as exp

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow started before the output directory was made")

    monkeypatch.setattr(exp, "_run_surfaces", no_flow)
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    cfg = tmp_path / "config.json"
    _write_config(cfg, _kind_config(kind))
    code = cli_main([kind, "--config", str(cfg), "--out", str(afile / "sub"), "--quiet"])
    assert code == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith("cannot create output_dir")


def test_cli_gen_output_dir_that_cannot_be_created_is_a_config_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    assert cli_main(["gen", "--level", "0", "--out", str(afile / "sub"), "--quiet"]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith("cannot create output directory")


def test_cli_gen_mesh_file_that_cannot_be_written_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "mesh.json").mkdir(parents=True)
    assert cli_main(["gen", "--level", "0", "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(f"cannot write {out / 'mesh.json'}:")
    assert list(out.rglob("*.tmp")) == []


@pytest.mark.parametrize("artifact", ["report.json", "trace.csv"])
@pytest.mark.parametrize("kind", ["flow", "pair"])
def test_cli_artifact_that_cannot_be_written_is_a_config_error(kind, artifact, tmp_path, capsys):
    # the artifacts are written after the flows; one whose path is a
    # directory still ends the run with one JSON ConfigError naming it
    out = tmp_path / "out"
    sub = "surface_1" if kind == "pair" and artifact != "report.json" else ""
    blocked = out / sub / artifact
    blocked.mkdir(parents=True)
    cfg = tmp_path / "config.json"
    _write_config(cfg, _kind_config(kind))
    assert cli_main([kind, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(f"cannot write {blocked}:")
    assert not (out / "report.json").is_file()
    assert list(out.rglob("*.tmp")) == []


def test_failed_rerun_leaves_no_report_for_audit(tmp_path, capsys, monkeypatch):
    # a second run into a used directory that fails mid-emit must not leave
    # the first run's report beside its own new artifacts
    import ricciflow.experiment as exp

    out = tmp_path / "out"
    run_flow_experiment(ExperimentConfig.from_dict(_config_dict(output_dir=str(out))))
    assert (out / "report.json").exists()

    def broken(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(exp, "write_spectrum_csv", broken)
    second = _config_dict(flow={"spectrum_every": 20, "k": 8, "seed": 4}, output_dir=str(out))
    with pytest.raises(ConfigError, match="spectrum.csv: no space left"):
        run_flow_experiment(ExperimentConfig.from_dict(second))
    assert not (out / "report.json").exists()
    assert sorted(p.name for p in out.iterdir() if p.name.endswith(".tmp")) == []
    assert cli_main(["audit", "--dir", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigError"


def test_cli_error_is_machine_readable(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict(perturbations=[{"amplitude": 5.0, "seed": 1}]))
    code = cli_main(["flow", "--config", str(cfg), "--quiet"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "PerturbationError"


def test_cli_flow_on_a_non_orientable_off_is_machine_readable(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    off = os.path.join(os.path.dirname(__file__), "data", "torus_reversed_face.off")
    _write_config(cfg, _config_dict(mesh={"off": off}))
    assert cli_main(["flow", "--config", str(cfg), "--quiet"]) == 2
    [line] = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "NonOrientableError" and "2284" in payload["message"]


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
        pytest.param(_config_dict(emit={"plot_data": False}), [], id="emit"),
        pytest.param(_config_dict(emit=5), [], id="emit_int"),
        pytest.param(_config_dict(emit={"plot_data": "no"}), [], id="emit_str"),
        pytest.param(_config_dict(mesh={"level": "x"}), [], id="level_str"),
        pytest.param(_config_dict(mesh={"level": -1}), [], id="level_negative"),
        pytest.param(_config_dict(perturbations=[{"seed": "abc"}]), [], id="pert_seed_str"),
        pytest.param(_config_dict(perturbations=[{"seed": -3}]), [], id="pert_seed_negative"),
        pytest.param(_config_dict(flow={"k": "12"}), [], id="k_str"),
        # dt_init is a constant: the key itself is refused, whatever its value
        pytest.param(_config_dict(flow={"dt_init": "0.01"}), [], id="dt_init_str"),
        pytest.param(_config_dict(flow={"seed": -1}), [], id="flow_seed_negative"),
        pytest.param(_config_dict(flow={"k": 3.5}), [], id="k_float"),
        pytest.param(_config_dict(flow={"k": 1}), [], id="k_one"),
        pytest.param(_config_dict(flow={"k": True}), [], id="k_bool"),
        pytest.param(_config_dict(flow={"k": 20}), [], id="k_above_half_V"),  # level 0: V = 32
        pytest.param(_config_dict(flow={"spectrum_every": 2.5}), [], id="spectrum_every_float"),
        pytest.param(_config_dict(), ["--seed", "-1"], id="cli_seed_negative"),
        pytest.param(_config_dict(output_dir=5), [], id="output_dir_int"),
        pytest.param(_config_dict(checks={"c_disc": True}), [], id="c_disc_bool"),
        pytest.param(_config_dict(checks={"c_disc": "10"}), [], id="c_disc_str"),
        pytest.param(_config_dict(perturbations=[{"amplitude": True}]), [], id="amplitude_bool"),
        pytest.param(_config_dict(flow={"dt_init": True}), [], id="dt_init_bool"),
        pytest.param(_config_dict(flow={"t_max": True}), [], id="t_max_bool"),
        pytest.param(_config_dict(flow={"t_max": float("inf")}), [], id="t_max_infinity"),
        pytest.param(_config_dict(checks={"c_disc": 10**400}), [], id="c_disc_huge_int"),
        pytest.param(_config_dict(mesh={"off": 5}), [], id="off_int"),
        # the check tolerances are constants: the removed block is an unknown key
        pytest.param(_config_dict(checks={"c_disc": 10.0, "tol_ratio": 0.02}), [], id="checks"),
    ],
)
def test_cli_rejects_wrong_typed_config(tmp_path, capsys, data, extra):
    # a value of the wrong type or range is a ConfigError (exit 2), not a traceback
    cfg = tmp_path / "config.json"
    _write_config(cfg, data)
    assert cli_main(["flow", "--config", str(cfg), "--quiet", *extra]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    for removed in ("emit", "checks"):  # removed blocks are named as unknown keys
        if removed in data:
            assert removed in payload["message"]


def test_cli_flow_aborts_when_step_size_below_dt_min(tmp_path, capsys, monkeypatch):
    # at this SAFETY the accuracy term is ~1e-12 < DT_MIN: the flow aborts
    # at once instead of running ~1e12 steps
    monkeypatch.setattr(flow_module, "SAFETY", 1e-12)
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict(flow={"spectrum_every": 30, "k": 8}))
    assert cli_main(["flow", "--config", str(cfg), "--quiet"]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "FlowAbortError"


@pytest.mark.parametrize("key", ["dt_init", "dt_min", "safety", "convergence_tol", "eig_tol"])
def test_cli_flow_rejects_step_control_keys(tmp_path, capsys, key):
    # step control and the eigensolver tolerance are constants of the flow
    # and spectrum modules: a config that sets one is a ConfigError naming it
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict(flow={"spectrum_every": 30, "k": 8, key: 0.5}))
    assert cli_main(["flow", "--config", str(cfg), "--quiet"]) == 2
    [line] = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "ConfigError" and key in payload["message"]


def test_cli_flow_rejects_a_step_count_above_the_budget(tmp_path):
    # no accepted step exceeds DT_INIT, so this run would take t_max / DT_INIT
    # = 1e11 steps; the config is refused instead. The subprocess's timeout
    # fails a regression rather than hanging the suite
    cfg = tmp_path / "config.json"
    flow = {"spectrum_every": 30, "k": 8, "seed": 3, "t_max": 1e9}
    _write_config(cfg, _config_dict(flow=flow))
    code = "import sys; from ricciflow.cli import main; sys.exit(main())"
    done = _run_python(code, "flow", "--config", cfg, "--out", tmp_path / "out", "--quiet",
                       timeout=60)
    assert done.returncode == 2, done.stderr
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError" and "step budget" in payload["message"]
    assert "Traceback" not in done.stderr


def _live_session_processes(sid):
    """Pids of the processes of session ``sid`` that are not zombies, from /proc."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                state, _, _, session = fh.read().rsplit(")", 1)[1].split()[:4]
        except OSError:  # the process has ended
            continue
        if int(session) == sid and state != "Z":
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_flow_process_ends_when_its_parent_is_killed(tmp_path):
    # a killed CLI runs no `finally` that could stop its flow process; that
    # process must end by itself at its next send instead of running on, or
    # blocking for good on a pipe that nobody reads. The CLI runs in a session
    # of its own, which the test kills whole on every way out; a convergence
    # tolerance it cannot meet keeps its flow running until then
    cfg = tmp_path / "config.json"
    flow = {"spectrum_every": 20, "k": 8, "seed": 3, "t_max": 20.0}
    _write_config(cfg, _config_dict(mesh={"generator": "genus2", "level": 2}, flow=flow))
    src = os.path.dirname(os.path.dirname(os.path.abspath(flow_module.__file__)))
    code = ("import sys, ricciflow.flow; ricciflow.flow.CONVERGENCE_TOL = 1e-12; "
            "from ricciflow.cli import main; sys.exit(main())")
    cli = subprocess.Popen(
        [sys.executable, "-c", code, "flow", "--config", str(cfg)],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, start_new_session=True,
    )
    try:
        # the first progress line comes after 2000 steps: the flow is running
        assert select.select([cli.stdout], [], [], 60)[0], "no progress within 60 s"
        assert cli.stdout.readline().startswith("  t=")
        assert len(_live_session_processes(cli.pid)) >= 2  # the CLI and its flow process
        os.kill(cli.pid, signal.SIGKILL)
        cli.wait(timeout=10)
        deadline = time.monotonic() + 30
        while _live_session_processes(cli.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _live_session_processes(cli.pid) == []
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(cli.pid, signal.SIGKILL)
        cli.wait()
        cli.stdout.close()


_FLOW_KEYS = sorted(f.name for f in fields(flow_module.FlowConfig))
_MUTANTS = ["0.5", None, [0.5], {}, True, 0, 0.0, -1, -0.5,
            float("nan"), float("inf"), float("-inf"), 1e308, 1e-300]


@settings(max_examples=100, deadline=None)
@given(
    target=st.sampled_from(
        [("flow", key) for key in _FLOW_KEYS]
        + [("perturbations", key) for key in ("amplitude", "seed")]
    ),
    value=st.sampled_from(_MUTANTS),
)
def test_cli_flow_exit_contract_on_mutated_configs(tmp_path_factory, target, value):
    # one flow or perturbation value of a level-0 config replaced by a value
    # of the wrong type or range: the flow ends in exit 0 or 1, or in exit 2
    # with one JSON line naming a typed error, never in a traceback
    section, key = target
    data = _config_dict(flow={"spectrum_every": 30, "k": 8, "seed": 3, "t_max": 0.5})
    block = data["flow"] if section == "flow" else data["perturbations"][0]
    block[key] = value
    cfg = tmp_path_factory.mktemp("mutant") / "config.json"
    _write_config(cfg, data)
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("ignore")
        code = cli_main(["flow", "--config", str(cfg), "--quiet"])
    lines = out.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 2:
        assert len(lines) == 1
        error = getattr(errors_module, json.loads(lines[0])["error"])
        assert issubclass(error, errors_module.RicciFlowError)


def test_benchmark_traced_entry_points_exist(monkeypatch):
    # perfbench/tracer.py wraps each (module, attribute) of TARGETS; one that
    # a refactor renamed away must fail here, not in the traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)
    spec.loader.exec_module(tracer_module)
    assert tracer_module.TARGETS
    for module, attribute, _ in tracer_module.TARGETS:
        assert module.split(".")[0] == "ricciflow"
        assert callable(getattr(importlib.import_module(module), attribute)), (module, attribute)


def test_benchmark_tracer_records_experiment_spans(monkeypatch, tmp_path):
    # perfbench/tracer.py patches the experiment layer by module attribute;
    # the counts show that a pair builds its base surface once and still
    # calls every per-surface stage through those attributes, once per
    # surface. Every spectrum and the tracking are recorded in this process,
    # one solve per stored sample. Perturbation and flow run in the flow
    # processes, whose spans do not reach this process, so a wrapper under
    # the tracer's counts those calls in a file instead.
    import ricciflow.experiment as exp

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)
    spec.loader.exec_module(tracer_module)

    log = tmp_path / "worker_calls.txt"
    in_workers = ("perturb_metric", "run_flow")

    def counted(name, func):
        def wrapper(*args, **kwargs):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(name + "\n")
            return func(*args, **kwargs)

        return wrapper

    for name in in_workers:
        monkeypatch.setattr(exp, name, counted(name, getattr(exp, name)))
    data = _config_dict(
        perturbations=[{"amplitude": 0.02, "seed": 5}, {"amplitude": -0.02, "seed": 5}],
        output_dir=str(tmp_path / "pair"),
    )
    tracer = tracer_module.Tracer(0)
    with tracer.session():
        pair = run_pair_experiment(ExperimentConfig.from_dict(data))
    counts = Counter(s.name for s in tracer.spans)
    assert counts["mesh.generate_genus2"] == 1
    samples = sum(len(trace.samples) for _, _, trace, _ in pair.surfaces)
    assert samples > 2 and counts["spectrum.smallest_eigenpairs"] == samples
    assert counts["tracking.track_branches"] == 2
    per_surface = [
        "reporting.write_trace_csv",
        "reporting.write_spectrum_csv",
        "tracking.monotonicity_violations",
        "tracking.evolution_residual_median",
        "tracking.dual_area_rate_residuals",
        "tracking.normalization_rate_residuals",
        "tracking.pde_residual_median",
    ]
    assert {name: counts[name] for name in per_surface} == dict.fromkeys(per_surface, 2)
    assert Counter(log.read_text(encoding="ascii").split()) == dict.fromkeys(in_workers, 2)


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


def test_cli_rejects_an_area_other_than_minus_two_pi_chi(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict(area="unit"))
    assert cli_main(["flow", "--config", str(cfg), "--quiet"]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError" and "area" in payload["message"]


def test_cli_off_torus_is_a_hypothesis_error(tmp_path, capsys):
    # chi = 0: the torus has no hyperbolic area -2 pi chi to normalize to
    n = 8
    a, b = np.meshgrid(2.0 * np.pi * np.arange(n) / n, 2.0 * np.pi * np.arange(n) / n,
                       indexing="ij")
    xyz = np.stack([(3.0 + np.cos(b)) * np.cos(a), (3.0 + np.cos(b)) * np.sin(a), np.sin(b)])
    faces = flat_torus_metric(n).mesh.triangles
    off = tmp_path / "torus.off"
    off.write_text(
        f"OFF\n{n * n} {len(faces)} 0\n"
        + "".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in xyz.reshape(3, -1).T)
        + "".join(f"3 {i} {j} {k}\n" for i, j, k in faces)
    )
    cfg = tmp_path / "config.json"
    _write_config(cfg, _config_dict(mesh={"off": str(off)}, flow={"k": 4}))
    assert cli_main(["flow", "--config", str(cfg), "--quiet"]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "HypothesisError"


def test_pde_residual_median_reads_every_sample(monkeypatch):
    # a failed mid-run eigensolve leaves a sample without a spectrum; the
    # curvature-law residual needs none, so the gate and the residual must
    # both read trace.samples
    config = ExperimentConfig.from_dict(
        _config_dict(mesh={"generator": "genus2", "level": 1}, flow={"spectrum_every": 10})
    )
    metric, _ = perturb_metric(build_base_metric(config), 0.02, 11)
    trace = flow_module.run_flow(metric, config.flow)
    failing_t = trace.samples[3].t
    real = flow_module.smallest_eigenpairs

    def solver(stiffness, mass, k, tol, seed, t=0.0):
        if t == failing_t:
            raise EigensolverError("injected failure")
        return real(stiffness, mass, k, tol, seed, t=t)

    monkeypatch.setattr(flow_module, "smallest_eigenpairs", solver)
    oracles.solve_every_sample(trace)
    samples = trace.samples
    assert len(trace.snapshot_samples()) == len(samples) - 1
    assert trace.samples[3].spectrum is None
    assert trace.warnings == [f"eigensolver failed at t={failing_t:.6g}: injected failure"]
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


def _edit(name, row, **cells):
    """A corruption that sets ``cells`` of data row ``row`` (1 is the first)
    of CSV ``name`` and writes the table back as a run writes it; a callable
    value is given the row before, as a dict of column -> float."""
    def corrupt(directory):
        lines = (directory / name).read_text().splitlines()
        header = lines[0].split(",")
        table = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        previous = table[row - 2]
        table[row - 1].update({k: v(previous) if callable(v) else v for k, v in cells.items()})
        rows = [",".join(format_float(values[n]) for n in header) for values in table]
        (directory / name).write_text("\n".join([lines[0], *rows]) + "\n")

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(
            lambda d: _edit_report(d, lambda r: r["inputs"].pop("c_disc")), id="input_key"
        ),
        pytest.param(lambda d: _edit_report(d, lambda r: r.pop("inputs")), id="no_inputs"),
        pytest.param(lambda d: (d / "report.json").write_text("{not json\n"), id="not_json"),
        pytest.param(lambda d: _drop_columns(d / "trace.csv", "R_max".__eq__), id="no_R_max"),
        pytest.param(lambda d: _drop_columns(d / "trace.csv", "argmax".__eq__), id="no_argmax"),
        pytest.param(
            lambda d: _drop_columns(d / "spectrum.csv", lambda name: name.startswith("branch_")),
            id="no_branches",
        ),
        pytest.param(
            lambda d: _drop_columns(d / "spectrum.csv", lambda name: name.startswith("sorted_")),
            id="no_sorted",
        ),
        pytest.param(
            lambda d: _drop_columns(d / "spectrum.csv", lambda name: name.startswith("flag_")),
            id="no_flags",
        ),
        pytest.param(lambda d: _drop_columns(d / "trace.csv", "dt".__eq__), id="no_dt"),
        pytest.param(lambda d: (d / "spectrum.csv").unlink(), id="no_spectrum"),
        pytest.param(lambda d: write_report_json(d / "report.json", []), id="top_level_list"),
        pytest.param(lambda d: _edit_report(d, lambda r: r.update(inputs=None)), id="inputs_null"),
        # a run writes only finite numbers; a NaN or infinite cell is refused
        # before any check margin could become non-finite
        pytest.param(_edit("trace.csv", 1, R_max=np.nan), id="nan_trace"),
        pytest.param(_edit("spectrum.csv", 1, sorted_1=np.inf), id="inf_spectrum"),
        # nor any of these: a repeated time is a zero step of every finite
        # difference, the ratio checks divide by the first and the last
        # snapshot's nonzero modes, and this level-0 mesh has 32 vertices
        pytest.param(_edit("trace.csv", 3, t=lambda p: p["t"], R_max=lambda p: p["R_max"] + 0.5),
                     id="trace_t_repeated_R_max_rises"),
        pytest.param(_edit("trace.csv", 3, t=lambda p: p["t"], R_max=lambda p: p["R_max"] - 0.5),
                     id="trace_t_repeated_R_max_falls"),
        pytest.param(_edit("trace.csv", 3, t=0.0), id="trace_t_back_to_0"),
        pytest.param(_edit("spectrum.csv", 3, t=lambda p: p["t"]), id="spectrum_t_repeated"),
        pytest.param(_edit("spectrum.csv", 1, sorted_1=0.0), id="sorted_1_zero"),
        pytest.param(_edit("trace.csv", 2, argmin=7.5), id="argmin_not_integer"),
        pytest.param(_edit("trace.csv", 2, argmin=-1.0), id="argmin_negative"),
        pytest.param(_edit("trace.csv", 2, argmax=99999.0), id="argmax_99999"),
        pytest.param(_edit("trace.csv", 2, argmax=32.0), id="argmax_vertices"),
        pytest.param(_edit("spectrum.csv", 2, flag_1=2.0), id="flag_2"),
        pytest.param(_edit("spectrum.csv", 2, flag_1=0.5), id="flag_half"),
    ],
)
def test_cli_audit_malformed_artifacts(flow_dir, tmp_path, capsys, corrupt):
    broken = tmp_path / "broken"
    shutil.copytree(flow_dir, broken)
    corrupt(broken)
    assert cli_main(["audit", "--dir", str(broken), "--quiet"]) == 2
    [line] = capsys.readouterr().out.strip().splitlines()
    assert json.loads(line)["error"] == "ConfigError"


@pytest.fixture(scope="module")
def pair_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pair") / "out"
    pair = [{"amplitude": 0.02, "seed": 5}, {"amplitude": -0.02, "seed": 5}]
    run_pair_experiment(ExperimentConfig.from_dict(_config_dict(perturbations=pair,
                                                                output_dir=str(out))))
    return out


@pytest.mark.parametrize("value", [None, "0.5", [1.0]], ids=["null", "string", "list"])
@pytest.mark.parametrize(
    "kind, block, key",
    [
        ("flow", "inputs", "alpha"),
        ("flow", "inputs", "mean_edge_length"),
        ("pair", "inputs", "delta_hat"),
        ("pair", "surface_2", "beta"),
    ],
)
def test_cli_audit_wrongly_typed_input(request, tmp_path, capsys, kind, block, key, value):
    broken = tmp_path / "broken"
    shutil.copytree(request.getfixturevalue(f"{kind}_dir"), broken)

    def edit(report):
        inputs = report["inputs"] if block == "inputs" else report[block]["inputs"]
        inputs[key] = value

    _edit_report(broken, edit)
    assert cli_main(["audit", "--dir", str(broken), "--quiet"]) == 2
    [line] = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "ConfigError" and key in payload["message"]


def test_cli_audit_report_that_cannot_be_written_is_a_config_error(flow_dir, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(flow_dir, out)
    (out / "audit_report.json").mkdir()
    assert cli_main(["audit", "--dir", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith("cannot write the audit report")
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("failing", ["start", "last", "every"])
def test_missing_start_snapshot_is_typed_error(monkeypatch, tmp_path, capsys, failing):
    # the ratio and comparison checks need the spectra at t = 0 and at the
    # end of the flow; no other snapshot may stand in for them
    single = ExperimentConfig.from_dict(_config_dict())
    pair = ExperimentConfig.from_dict(_config_dict(
        perturbations=[{"amplitude": 0.02, "seed": 5}, {"amplitude": -0.02, "seed": 5}]
    ))
    # the last samples' times come from a dry run of the deterministic flows
    base = build_base_metric(single)
    last_times = {
        flow_module.run_flow(perturb_metric(base, s.amplitude, s.seed)[0], single.flow)
        .samples[-1].t
        for s in single.perturbations + pair.perturbations
    }
    real = flow_module.smallest_eigenpairs

    def solver(stiffness, mass, k, tol, seed, t=0.0):
        if {"start": t == 0.0, "last": t in last_times, "every": True}[failing]:
            raise EigensolverError("injected failure")
        return real(stiffness, mass, k, tol, seed, t=t)

    # every spectrum, the pair's included, is solved in this process
    monkeypatch.setattr(flow_module, "smallest_eigenpairs", solver)
    with pytest.raises(EigensolverError):
        run_flow_experiment(single)
    with pytest.raises(EigensolverError):
        run_pair_experiment(pair)
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
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src)
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
    # flows started from one base surface share its mesh and geometry
    # kernel, so library callers may run them in threads; with more threads
    # than cores and a short switch interval, every flow must still equal its
    # sequential run bit for bit
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


def _timemap(argv):
    """Exit status and stdout lines of ``ricciflow timemap``; warnings are errors."""
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        code = cli_main(["timemap", *argv])
    return code, out.getvalue().splitlines()


def _assert_exit_contract(code, lines):
    assert code in (0, 1, 2)
    if code == 2:
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] in ("ConfigError", "HypothesisError")


@pytest.mark.parametrize(
    "area0, tau",
    [
        ("-1", "0.1"),
        ("0", "0.1"),
        ("nan", "0.1"),
        ("inf", "0.1"),
        ("1", "-0.1"),
        ("1", "nan"),
        ("1", "0,inf"),
        ("1", "1e6"),  # the area e^{8 pi tau} overflows
        ("1e300", "30"),
        ("1", ","),  # no tau value at all
        ("1", ""),
    ],
)
def test_cli_timemap_rejects_bad_arguments(area0, tau):
    code, lines = _timemap([f"--area0={area0}", "--chi=-2", f"--tau={tau}"])
    assert code == 2
    _assert_exit_contract(code, lines)


@settings(max_examples=300, deadline=None)
@given(
    area0=st.floats(),
    chi=st.integers(),
    taus=st.lists(
        st.one_of(st.floats().map(repr), st.text(alphabet="0123456789.e-+ infa", max_size=6)),
        max_size=4,
    ),
)
def test_cli_timemap_exit_contract(area0, chi, taus):
    # argparse has typed --area0 and --chi; every value it accepts, and any
    # --tau text, ends in a table, or in exit 2 with one JSON line
    code, lines = _timemap([f"--area0={area0!r}", f"--chi={chi}", f"--tau={','.join(taus)}"])
    _assert_exit_contract(code, lines)


def test_cli_gen(tmp_path, capsys):
    assert cli_main(["gen", "--level", "0", "--out", str(tmp_path)]) == 0
    payload = read_report_json(tmp_path / "mesh.json")
    assert payload["chi"] == -2 and payload["genus"] == 2
    assert len(payload["triangles"]) == 68
    assert len(payload["base_lengths"]) == 102


def test_cli_gen_rejects_negative_level(tmp_path, capsys):
    assert cli_main(["gen", "--level", "-1", "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"
    assert not os.listdir(tmp_path)


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
