"""Acceptance suite: one test per criterion, at desk scale.

Expensive runs (the level-3 standard flow, a level-2 companion, and the
two-surface pair pipeline) are computed once as session fixtures and shared
across criteria. Each criterion prints its own PASS line; run with

    pytest tests/test_acceptance.py -v -s
"""

import numpy as np
import pytest

from ricciflow import (
    ConformalMetric,
    assemble_operators,
    generate_genus2,
    main_theorem_factor,
    measure_curvature,
    metric_area,
    normalize_area,
    perturb_metric,
    rf_nrf_time_map,
    scale_metric,
    smallest_eigenpairs,
)
from ricciflow.bounds import envelope_check
from ricciflow.experiment import ExperimentConfig, pde_residual_median, run_pair_experiment
from ricciflow.experiment import run_flow_experiment
from ricciflow.tracking import dual_area_rate_residuals, evolution_residual_median

from meshes import flat_torus_metric, icosphere_metric, tetrahedron_metric
from oracles import dense_eigenpairs


def _passed(number, label):
    print(f"[ACCEPTANCE] criterion {number:2d} ({label}): PASS")


def _experiment_config(level, every, perturbations, seed=3):
    return ExperimentConfig.from_dict(
        {
            "version": 1,
            "mesh": {"generator": "genus2", "level": level},
            "area": "minus_two_pi_chi",
            "perturbations": perturbations,
            "flow": {"spectrum_every": every, "k": 12, "seed": seed},
        }
    )


@pytest.fixture(scope="session")
def level3():
    """The standard desk-scale run: level 3, k = 12, snapshot dt ~ 0.01."""
    config = _experiment_config(3, 170, [{"amplitude": 0.02, "seed": 11}])
    return run_flow_experiment(config)


@pytest.fixture(scope="session")
def level2():
    """Companion run one mesh refinement coarser.

    Its snapshot spacing (~0.025) is 2.5x the level-3 spacing, so moving to
    the standard run refines the mesh once and at least halves the
    finite-difference time step of every derivative check.
    """
    config = _experiment_config(2, 30, [{"amplitude": 0.02, "seed": 11}])
    return run_flow_experiment(config)


@pytest.fixture(scope="session")
def pair3():
    """The +-epsilon pair pipeline at level 3."""
    config = _experiment_config(
        3,
        1000,
        [{"amplitude": 0.02, "seed": 5}, {"amplitude": -0.02, "seed": 5}],
    )
    return run_pair_experiment(config)


def test_criterion_01_gauss_bonnet():
    metrics = [
        tetrahedron_metric(),
        flat_torus_metric(16),
        icosphere_metric(2),
    ]
    for level in range(4):
        mesh, lengths = generate_genus2(level)
        metrics.append(ConformalMetric.flat(mesh, lengths))
    metrics.append(normalize_area(metrics[-1], 1.0))
    perturbed, _ = perturb_metric(normalize_area(metrics[-2], 4 * np.pi), 0.02, 3)
    metrics.append(perturbed)
    metrics.append(scale_metric(perturbed, 7.3))
    rng = np.random.default_rng(0)
    metrics.append(metrics[3].with_u(0.1 * rng.standard_normal(metrics[3].mesh.vertex_count)))
    for metric in metrics:
        fld = measure_curvature(metric)
        assert abs(fld.defect.sum() - 2.0 * np.pi * metric.mesh.chi) <= 1e-9
    _passed(1, "Gauss-Bonnet identity")


def test_criterion_02_spectral_oracles():
    # flat unit-area torus at 64 x 64: lowest nonzero eigenvalue 4 pi^2
    torus = flat_torus_metric(64)
    stiffness, mass = assemble_operators(torus)
    snap = smallest_eigenpairs(stiffness, mass, 3, tol=1e-8, seed=1)
    target = 4.0 * np.pi**2
    assert abs(snap.eigenvalues[1] - target) <= 0.02 * target

    # round unit sphere: lowest nonzero eigenvalue 2, threefold
    sphere = icosphere_metric(3)
    stiffness, mass = assemble_operators(sphere)
    snap = smallest_eigenpairs(stiffness, mass, 5, tol=1e-8, seed=1)
    assert abs(snap.eigenvalues[1] - 2.0) <= 0.02 * 2.0
    assert np.allclose(snap.eigenvalues[1:4], snap.eigenvalues[1], rtol=2e-3)

    # dense brute-force equivalence on meshes of at most 30 vertices
    small = icosphere_metric(0)
    rng = np.random.default_rng(7)
    small = small.with_u(0.1 * rng.standard_normal(12))
    stiffness, mass = assemble_operators(small)
    snap = smallest_eigenpairs(stiffness, mass, 5, tol=1e-10, seed=3)
    ref, _ = dense_eigenpairs(stiffness, mass, 5)
    assert np.abs(snap.eigenvalues[1:] / ref[1:] - 1.0).max() <= 1e-8
    assert abs(snap.eigenvalues[0] - ref[0]) <= 1e-9
    _passed(2, "spectral oracle accuracy")


def test_criterion_03_exact_scale_covariance(octagon1):
    stiffness, mass = assemble_operators(octagon1)
    base = smallest_eigenpairs(stiffness, mass, 12, tol=1e-10, seed=2)
    for c in (0.25, 1.0, 7.0):
        scaled = scale_metric(octagon1, c)
        s2, m2 = assemble_operators(scaled)
        snap = smallest_eigenpairs(s2, m2, 12, tol=1e-10, seed=2)
        rel = np.abs(snap.eigenvalues[1:] * c - base.eigenvalues[1:]) / base.eigenvalues[1:]
        assert rel.max() <= 1e-10, c
    _passed(3, "exact scale covariance")


def test_criterion_04_hamilton_convergence(level3):
    trace = level3.trace
    r = trace.r
    assert trace.converged
    assert trace.steps["max_dev"][-1] <= 1e-4 * abs(r)
    final = trace.samples[-1].curvature
    expected = 4.0 * np.pi * trace.mesh.chi / final.total_area
    assert abs(final.R_min - expected) <= 1e-3 * abs(expected)
    assert abs(final.R_max - expected) <= 1e-3 * abs(expected)
    area = trace.steps["area"]
    assert np.abs(area / area[0] - 1.0).max() <= 1e-9
    # the area column is the renormalization target; measure the real area
    measured = np.array([metric_area(trace.metric_at(j)) for j in range(len(trace.samples))])
    assert np.abs(measured / area[0] - 1.0).max() <= 1e-9
    _passed(4, "Hamilton convergence")


def test_criterion_05_spectral_evolution_formula(level3, level2):
    branches = list(range(1, 6))
    med3, n3 = evolution_residual_median(level3.trace, level3.branch_set, branches)
    assert n3 >= 20
    assert med3 <= 0.05
    med2, _ = evolution_residual_median(level2.trace, level2.branch_set, branches)
    assert med2 / med3 >= 1.5  # one mesh refinement + one time-step halving
    _passed(5, "spectral evolution formula")


def test_criterion_06_volume_form_evolution(level3):
    errors = dual_area_rate_residuals(level3.trace)
    assert np.median(errors) <= 0.05
    _passed(6, "volume form evolution")


def test_criterion_07_curvature_pde_refinement(level2, level3):
    med2 = pde_residual_median(level2.trace)
    med3 = pde_residual_median(level3.trace)
    assert med2 / med3 >= 2.0
    _passed(7, "curvature evolution law refinement")


def test_criterion_08_envelopes(level3):
    checks = {c.name: c for c in level3.report.checks}
    for name in (
        "curvature_envelope_lower",
        "curvature_envelope_upper",
        "curvature_stays_below_beta",
    ):
        assert checks[name].satisfied, name
        assert checks[name].worst_margin >= 0.0

    # the checker must flag a fabricated violating trace with a witness
    t = np.linspace(0.0, 1.0, 50)
    r = level3.trace.r
    r_max = np.full_like(t, r * 0.6)
    r_max[31] = 0.5 * level3.window[1]  # pushed far above beta
    r_min = np.full_like(t, r * 1.4)
    checks = envelope_check(
        t, r_min, r_max, r, *level3.window, tol=0.01, argmax=np.arange(50)
    )
    ceiling = [c for c in checks if c.name == "curvature_stays_below_beta"][0]
    assert not ceiling.satisfied
    assert ceiling.worst_margin < 0.0
    assert ceiling.witness["index"] == 31
    _passed(8, "maximum principle envelopes")


def test_criterion_09_log_derivative_corridor(level3):
    check = {c.name: c for c in level3.report.checks}["log_derivative_corridor"]
    assert check.satisfied
    assert check.worst_margin >= 0.0
    _passed(9, "log-derivative corridor")


def test_criterion_10_ratio_bound(level3):
    check = {c.name: c for c in level3.report.checks}["eigenvalue_ratio_window"]
    assert check.satisfied
    lo, hi = level3.report.inputs["ratio_bracket"]
    alpha, beta = level3.window
    r = level3.trace.r
    assert np.isclose(lo, np.exp(-alpha / r), rtol=1e-12)
    assert np.isclose(hi, np.exp(r / beta), rtol=1e-12)
    # documented example window
    lo_doc = np.exp(-(-30.0) / (-8.0 * np.pi))
    hi_doc = np.exp((-8.0 * np.pi) / (-20.0))
    assert abs(lo_doc - 0.30414) < 2e-3
    assert abs(hi_doc - 3.51358) < 1e-4
    _passed(10, "eigenvalue ratio window")


def test_criterion_11_main_theorem_end_to_end(pair3):
    report = pair3.report_dict
    mt = [c for c in report["pair_checks"] if c["name"] == "spectral_comparison_main"][0]
    assert mt["satisfied"]
    buser = [
        c for c in report["pair_checks"] if c["name"] == "distortion_spectral_comparison"
    ][0]
    assert buser["satisfied"]
    chain = [c for c in report["pair_checks"] if c["name"] == "consistency_chain"][0]
    assert chain["satisfied"]
    # documented example factor
    assert abs(main_theorem_factor(-30.0, -20.0, -8.0 * np.pi, 0.0) - 11.592) < 1e-3
    _passed(11, "spectral comparison end to end")


def test_criterion_12_time_map():
    t0, area0 = rf_nrf_time_map(1.0, -2, 0.0)
    assert t0 == 0.0 and area0 == 1.0
    taus = np.linspace(0.0, 1.0, 101)
    t, area = rf_nrf_time_map(1.0, -2, taus)
    assert np.abs(area / np.exp(8.0 * np.pi * taus) - 1.0).max() <= 1e-12
    assert (np.diff(t) > 0.0).all()
    _passed(12, "flow time reparametrization")


def test_criterion_13_determinism(tmp_path):
    import json

    from ricciflow.cli import main as cli_main

    config = {
        "version": 1,
        "mesh": {"generator": "genus2", "level": 1},
        "perturbations": [{"amplitude": 0.02, "seed": 11}],
        "flow": {"spectrum_every": 25, "k": 12, "seed": 9},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    texts = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert cli_main(["flow", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        lines = (out / "report.json").read_text().splitlines()
        texts.append("\n".join(ln for ln in lines if "generated_at" not in ln))
        assert any("generated_at" in ln for ln in (out / "report.json").read_text().splitlines())
    assert texts[0] == texts[1]
    assert (tmp_path / "first" / "trace.csv").read_bytes() == (
        tmp_path / "second" / "trace.csv"
    ).read_bytes()
    assert (tmp_path / "first" / "spectrum.csv").read_bytes() == (
        tmp_path / "second" / "spectrum.csv"
    ).read_bytes()
    _passed(13, "determinism")
