from dataclasses import fields

import numpy as np
import pytest

import ricciflow.flow as flow_mod
from ricciflow import (
    FlowAbortError,
    FlowConfig,
    HypothesisError,
    RicciFlowError,
    TriangleInequalityError,
    assemble_operators,
    curvature_pde_residual,
    measure_curvature,
    metric_area,
    monotonicity_violations,
    perturb_metric,
    rf_nrf_time_map,
    run_flow,
)
from ricciflow.spectrum import EIG_TOL

from oracles import dense_eigenpairs, rk4_step, solve_every_sample


def _velocity(metric):
    return metric.mesh.kernel.velocity(metric.base_lengths ** 2, metric.u)[0]


def test_velocity_zero_at_constant_curvature(tetra_metric, torus16_metric):
    assert np.abs(_velocity(tetra_metric)).max() < 1e-12
    assert np.abs(_velocity(torus16_metric)).max() < 1e-12


def test_velocity_sign(octagon1):
    metric, _ = perturb_metric(octagon1, 0.02, 3)
    fld = measure_curvature(metric)
    vel = _velocity(metric)
    # the normalization constant matches r to O(h^2), so test the sign away
    # from the hairline band around R = r
    clear = np.abs(fld.R - fld.r) > 1e-2 * fld.max_deviation()
    assert clear.sum() > metric.mesh.vertex_count // 2
    assert ((vel > 0) == (fld.R < fld.r))[clear].all()


def test_velocity_matches_gather_form(octagon1):
    # oracle: the area-preserving shift as a sum over corners, with the
    # curvature gathered to each corner and the per-corner area gradient
    # dA_T/du formed here from the kernel's faces
    mesh, kernel = octagon1.mesh, octagon1.mesh.kernel
    modes = dense_eigenpairs(*assemble_operators(octagon1), k=6)[1][:, 1:]
    base_sq = octagon1.base_lengths ** 2
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = octagon1.u + 0.05 * (modes @ rng.uniform(-1.0, 1.0, 5)) / np.abs(modes).max()
        sq = kernel.squared_lengths(base_sq, u)
        q, area, cos_terms = kernel.faces(sq)
        grad = area - (q * cos_terms) / (16.0 * area)
        assert np.allclose(grad.sum(axis=0), 2.0 * area, rtol=1e-13, atol=0.0)
        field = kernel.curvature(sq)
        corner_dev = field.r - field.R[mesh.triangles.T]
        shift = -np.sum(grad * corner_dev) / (4.0 * field.total_area)
        expected = 0.5 * (field.r - field.R) + shift
        velocity, vfield = kernel.velocity(base_sq, u)
        assert np.abs(velocity - expected).max() <= 1e-13 * np.abs(expected).max()
        for name in ("defect", "dual_area", "R", "r", "R_min", "R_max", "total_area"):
            assert np.array_equal(getattr(vfield, name), getattr(field, name)), name


def test_step_fixed_points(tetra_metric, torus16_metric):
    for metric in (tetra_metric, torus16_metric):
        out = rk4_step(metric, 0.05)
        assert np.abs(out.u - metric.u).max() < 1e-14


def test_step_first_order_consistency(octagon0):
    metric, _ = perturb_metric(octagon0, 0.02, 5)
    vel = _velocity(metric)
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        moved = rk4_step(metric, dt)
        errs.append(np.abs(moved.u - metric.u - dt * vel).max())
    # ||u(dt) - u(0) - dt v|| = O(dt^2): quartering with each halving
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.4)


def _rough_state(base, seed=2, scale=0.02):
    # rough (all-frequency) factors keep the dt^4 error term well above
    # rounding noise, which smooth perturbations do not
    rng = np.random.default_rng(seed)
    return base.with_u(base.u + scale * rng.standard_normal(base.mesh.vertex_count))


def test_step_fourth_order(octagon0):
    metric = _rough_state(octagon0)

    def advance(dt, n):
        state = metric
        for _ in range(n):
            state = rk4_step(state, dt)
        return state.u

    base_dt = 4e-3
    u1 = advance(base_dt, 4)
    u2 = advance(base_dt / 2, 8)
    u4 = advance(base_dt / 4, 16)
    d1 = np.abs(u1 - u2).max()
    d2 = np.abs(u2 - u4).max()
    assert 8.0 < d1 / d2 < 40.0  # nominal 16 for a fourth-order scheme


def test_step_preserves_area(octagon0):
    metric, _ = perturb_metric(octagon0, 0.02, 5)
    fld0 = measure_curvature(metric)
    out = rk4_step(metric, 1e-3)
    fld1 = measure_curvature(out)
    assert abs(fld1.total_area - fld0.total_area) < 1e-12 * fld0.total_area


def test_step_decreases_deviation(octagon1):
    fld0 = measure_curvature(octagon1)
    out = rk4_step(octagon1, 2e-4)
    fld1 = measure_curvature(out)
    assert fld1.max_deviation() < fld0.max_deviation()


def test_step_rejects_oversized_dt(octagon0):
    metric, _ = perturb_metric(octagon0, 0.05, 5)
    with pytest.raises(TriangleInequalityError):
        rk4_step(metric, 50.0)


def test_run_flow_converges_level0(octagon0):
    metric, _ = perturb_metric(octagon0, 0.02, 13)
    config = FlowConfig(spectrum_every=100, k=6, seed=1)
    trace = run_flow(metric, config)
    assert trace.converged
    r = trace.r
    final = trace.samples[-1].curvature
    assert final.max_deviation() <= flow_mod.CONVERGENCE_TOL * abs(r)
    assert abs(final.R_min - r) < 1e-3 * abs(r)
    assert abs(final.R_max - r) < 1e-3 * abs(r)
    area = trace.steps["area"]
    assert np.abs(area / area[0] - 1.0).max() <= 1e-9
    # the area column is the renormalization target; measure the real area
    measured = np.array([metric_area(trace.metric_at(j)) for j in range(len(trace.samples))])
    assert np.abs(measured / area[0] - 1.0).max() <= 1e-9
    assert np.abs(trace.steps["r"] / r - 1.0).max() <= 1e-9
    assert (np.diff(trace.steps["t"]) > 0).all()
    assert monotonicity_violations(trace) == []


def test_run_flow_already_converged(octagon0):
    metric, _ = perturb_metric(octagon0, 0.02, 13)
    config = FlowConfig(spectrum_every=100, k=6, seed=1)
    limit = run_flow(metric, config).limit
    again = run_flow(limit, config)
    assert again.converged
    assert len(again.samples) == 1
    assert again.steps["t"].shape == (1,)


def test_run_flow_rejects_flat_torus(torus16_metric):
    # genus 1 and R = 0: outside the hyperbolic setting of the comparison theorems
    with pytest.raises(HypothesisError, match="admissible"):
        run_flow(torus16_metric, FlowConfig(spectrum_every=50, k=4, seed=0))


def test_run_flow_abort_on_dt_underflow(octagon0, monkeypatch):
    # near the limit the accuracy term admits the oversized first step; with
    # the stability cap disabled that step is rejected, and its half leaves
    # no room above DT_MIN
    metric, _ = perturb_metric(octagon0, 0.02, 13)
    start = run_flow(metric, FlowConfig(spectrum_every=100, k=6, seed=1)).limit
    monkeypatch.setattr(flow_mod, "_stability_cap", lambda metric, seed: np.inf)
    for name, value in (("DT_INIT", 64.0), ("DT_MIN", 60.0), ("SAFETY", 0.99),
                        ("CONVERGENCE_TOL", 1e-6)):
        monkeypatch.setattr(flow_mod, name, value)
    with pytest.raises(FlowAbortError) as info:
        run_flow(start, FlowConfig(t_max=100.0, spectrum_every=10, k=4))
    assert (info.value.t, info.value.dt) == (0.0, 32.0)
    assert info.value.trace is not None
    assert info.value.trace.converged is False


def test_run_flow_abort_when_step_size_below_dt_min(octagon0, monkeypatch):
    # DT_MIN bounds every step, not only rejected ones: at this SAFETY the
    # accuracy term is ~1e-12, and the flow would need ~1e12 steps. The
    # aborted trace keeps its samples, the last accepted step included, and
    # the abort path solves no eigenproblem.
    def no_solve(*args, **kwargs):
        raise AssertionError("the abort path must not solve an eigenproblem")

    metric, _ = perturb_metric(octagon0, 0.02, 13)
    monkeypatch.setattr(flow_mod, "smallest_eigenpairs", no_solve)
    monkeypatch.setattr(flow_mod, "SAFETY", 1e-12)
    with pytest.raises(FlowAbortError) as info:
        run_flow(metric, FlowConfig(spectrum_every=10, k=4))
    assert info.value.t == 0.0 and info.value.dt < 1e-9
    assert [s.step for s in info.value.trace.samples] == [0]
    assert info.value.trace.samples[0].spectrum is None


def test_run_flow_solves_no_eigenproblem(octagon0, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("run_flow must not solve an eigenproblem")

    metric, _ = perturb_metric(octagon0, 0.02, 13)
    config = FlowConfig(spectrum_every=100, k=6, seed=1)
    with monkeypatch.context() as patch:
        patch.setattr(flow_mod, "smallest_eigenpairs", no_solve)
        trace = run_flow(metric, config)
    assert trace.converged and len(trace.samples) > 2
    assert all(s.spectrum is None for s in trace.samples) and trace.snapshots() == []
    solve_every_sample(trace)
    assert [s.spectrum.t for s in trace.samples] == [s.t for s in trace.samples]
    assert trace.snapshot_samples() == trace.samples and not trace.warnings


def test_run_flow_step_size_rule(octagon0, monkeypatch):
    # a constant stability cap that binds on most steps of a level-0 run with
    # no rejections: the accuracy candidate binds before it, t_max after it
    cap = 0.08
    monkeypatch.setattr(flow_mod, "_stability_cap", lambda metric, seed: cap)
    monkeypatch.setattr(flow_mod, "DT_INIT", 1.0)
    monkeypatch.setattr(flow_mod, "SAFETY", 0.01)
    metric, _ = perturb_metric(octagon0, 0.02, 13)
    config = FlowConfig(t_max=1.0, spectrum_every=100, k=6, seed=1)
    steps = run_flow(metric, config).steps
    dt, t, max_dev = steps["dt"], steps["t"], steps["max_dev"]
    for i in range(1, len(dt)):
        growth = 2.0 * dt[i - 1] if i > 1 else np.inf  # the first step has no growth term
        accuracy = flow_mod.SAFETY / max(max_dev[i - 1], 1e-300)
        assert dt[i] == min(growth, flow_mod.DT_INIT, accuracy, cap, config.t_max - t[i - 1]), i
    assert 0 < np.count_nonzero(dt == cap) < len(dt) - 1


def test_run_flow_rejects_non_finite_state(octagon0):
    u = octagon0.u.copy()
    u[3] = np.nan
    with pytest.raises(RicciFlowError):
        run_flow(octagon0.with_u(u), FlowConfig(spectrum_every=10, k=4))


def test_integrator_consistency_across_dt(octagon0, monkeypatch):
    metric = _rough_state(octagon0)
    t_end = 8e-3
    monkeypatch.setattr(flow_mod, "SAFETY", 0.9)
    monkeypatch.setattr(flow_mod, "CONVERGENCE_TOL", 1e-300)

    def u_at(dt_init):
        monkeypatch.setattr(flow_mod, "DT_INIT", dt_init)
        trace = run_flow(metric, FlowConfig(t_max=t_end, spectrum_every=10**6, k=4))
        assert abs(trace.steps["t"][-1] - t_end) < 1e-12
        return trace.samples[-1].u

    d1 = np.abs(u_at(2e-3) - u_at(1e-3)).max()
    d2 = np.abs(u_at(1e-3) - u_at(5e-4)).max()
    assert 8.0 < d1 / d2 < 40.0


def test_time_map_basics():
    t, area = rf_nrf_time_map(1.0, -2, 0.0)
    assert t == 0.0 and area == 1.0
    tau = np.log(2.0) / (8.0 * np.pi)
    t, area = rf_nrf_time_map(1.0, -2, tau)
    assert np.isclose(t, 1.0 / (8.0 * np.pi), rtol=1e-14)
    assert np.isclose(area, 2.0, rtol=1e-14)


def test_time_map_composition_and_monotonicity():
    taus = np.linspace(0.0, 1.0, 101)
    t, area = rf_nrf_time_map(1.0, -2, taus)
    expected = np.exp(8.0 * np.pi * taus)
    assert np.abs(area / expected - 1.0).max() < 1e-12
    assert (np.diff(t) > 0).all()


def test_time_map_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rf_nrf_time_map(1.0, 0, 0.5)
    with pytest.raises(ValueError):
        rf_nrf_time_map(1.0, 2, 0.5)
    with pytest.raises(ValueError):
        rf_nrf_time_map(1.0, -2, -0.1)
    with pytest.raises(ValueError):
        rf_nrf_time_map(-1.0, -2, 0.1)


def test_pde_residual_small_on_stationary(octagon0, monkeypatch):
    metric, _ = perturb_metric(octagon0, 0.02, 13)
    config = FlowConfig(spectrum_every=40, k=4, seed=1)
    limit = run_flow(metric, config).limit
    # restart at the fixed point; disable convergence so steps are forced
    monkeypatch.setattr(flow_mod, "CONVERGENCE_TOL", 1e-300)
    trace = run_flow(limit, FlowConfig(spectrum_every=1, k=4, seed=1, t_max=1.5e-2))
    assert len(trace.samples) >= 3
    res = curvature_pde_residual(trace, 1)
    fld = trace.samples[1].curvature
    # all three terms are O(max|R - r|) ~ convergence tolerance here
    assert np.abs(res).max() < 50.0 * abs(fld.r) * 1e-4


def test_pde_residual_zero_on_flat_torus(torus16_metric):
    from ricciflow import FlowSample, FlowTrace, measure_curvature

    # a stationary trace (checkers accept fabricated input by design)
    fld = measure_curvature(torus16_metric)
    samples = [
        FlowSample(step=i, t=0.01 * i, u=torus16_metric.u.copy(), curvature=fld, spectrum=None)
        for i in range(3)
    ]
    trace = FlowTrace(
        mesh=torus16_metric.mesh,
        base_lengths=torus16_metric.base_lengths,
        config=FlowConfig(),
        steps={},
        samples=samples,
        converged=True,
    )
    res = curvature_pde_residual(trace, 1)
    assert np.abs(res).max() < 1e-9


def test_pde_residual_index_errors(run1):
    trace = run1["trace"]
    with pytest.raises(IndexError):
        curvature_pde_residual(trace, 0)
    with pytest.raises(IndexError):
        curvature_pde_residual(trace, len(trace.samples) - 1)


def test_monotonicity_reporting_on_fabricated_series(run1):
    import copy

    trace = copy.copy(run1["trace"])
    steps = {k: np.array(v) for k, v in trace.steps.items()}
    steps["R_max"] = steps["R_max"].copy()
    steps["R_max"][10] = steps["R_max"][9] + 1.0  # fabricated jump upward
    trace.steps = steps
    events = monotonicity_violations(trace)
    assert any(which == "R_max" and step_idx == 10 for step_idx, which, _ in events)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(spectrum_every=0)
    with pytest.raises(ValueError):
        FlowConfig(t_max=float("nan"))
    with pytest.raises(ValueError, match="positive"):
        FlowConfig(t_max=0.0)
    # t_max / DT_INIT steps at least; the largest t_max the budget admits is
    # still advanced by a step of DT_MIN, so every admitted run can end
    with pytest.raises(ValueError, match="step budget"):
        FlowConfig(t_max=1e10)
    FlowConfig(t_max=1e6)
    assert 1e6 + flow_mod.DT_MIN > 1e6
    # json.load reads Infinity; a run with t_max = inf that cannot converge never ends
    with pytest.raises(ValueError, match="finite"):
        FlowConfig(t_max=float("inf"))
    # step control and the eigensolver tolerance are constants, not fields
    assert [f.name for f in fields(FlowConfig)] == ["t_max", "spectrum_every", "k", "seed"]
    assert FlowConfig().eig_tol == EIG_TOL == 1e-8
    for name in ("dt_init", "dt_min", "safety", "convergence_tol", "eig_tol"):
        with pytest.raises(TypeError):
            FlowConfig(**{name: 0.5})
