import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricciflow import bounds

from ricciflow import (
    HypothesisError,
    buser_comparison_check,
    distortion_upper_bound,
    envelope_check,
    log_derivative_corridor_check,
    main_theorem_check,
    main_theorem_factor,
    ratio_bound_check,
    rmax_ode_check,
    scale_metric,
    track_branches,
)
from ricciflow.bounds import DEFAULT_C_DISC, DEFAULT_TOL_RATIO, mean_edge_length, surface_checks
from ricciflow.reporting import canonical_json


def test_envelope_trivial_constant_curvature():
    # R identically r: both envelopes reduce to sign facts about r, alpha
    t = np.linspace(0.0, 3.0, 20)
    r = -2.0
    series = np.full_like(t, r)
    checks = envelope_check(t, series, series, r, -3.0, -1.0, tol=0.0)
    assert all(c.satisfied for c in checks)


def test_envelope_t0_reduction():
    # at t = 0 the inequalities degenerate to alpha < R < beta facts
    t = np.array([0.0])
    r = -2.0
    checks = envelope_check(t, [-2.5], [-1.5], r, -3.0, -1.0, tol=0.0)
    assert all(c.satisfied for c in checks)
    lower, upper, ceiling = checks
    assert np.isclose(lower.worst_margin, (r - (-1.5)) - r)
    assert np.isclose(upper.worst_margin, 3.0 - (r - (-2.5)))
    assert np.isclose(ceiling.worst_margin, -1.0 - (-1.5))


def test_envelope_flags_fabricated_violation():
    t = np.linspace(0.0, 1.0, 30)
    r = -2.0
    beta = -1.0
    r_max = np.full_like(t, -1.2)
    r_max[17] = -0.3  # fabricated excursion above beta
    r_min = np.full_like(t, -2.8)
    checks = envelope_check(
        t, r_min, r_max, r, -3.0, beta, tol=0.05, argmin=None, argmax=np.arange(30)
    )
    ceiling = [c for c in checks if c.name == "curvature_stays_below_beta"][0]
    assert not ceiling.satisfied
    assert ceiling.worst_margin < 0.0
    assert ceiling.witness == {"time": pytest.approx(t[17]), "index": 17}
    lower = [c for c in checks if c.name == "curvature_envelope_lower"][0]
    assert not lower.satisfied  # R-max excursion also pierces the decay means


@pytest.mark.parametrize(
    "check",
    [
        lambda a, b, r: envelope_check([0.0], [-2.0], [-2.0], r, a, b, tol=0.0),
        lambda a, b, r: log_derivative_corridor_check(
            [0.0, 0.5, 1.0], np.ones((2, 3)), np.zeros((2, 3), dtype=bool), r, a, b, h=0.0,
            branches=[1], c_disc=0.0,
        ),
        lambda a, b, r: ratio_bound_check([1.0], [1.0], a, b, r),
        lambda a, b, r: main_theorem_factor(a, b, r, 0.0),
    ],
    ids=["envelope", "corridor", "ratio", "main_theorem"],
)
def test_window_hypothesis_error_names_the_three_values(check):
    # alpha = -1.5 lies above r = -2: every curvature-window bound refuses it alike
    with pytest.raises(HypothesisError, match=r"^need alpha < r < beta < 0, got \(-1.5, -2, -1\)$"):
        check(-1.5, -1.0, -2.0)


def test_rmax_ode_trivial_and_fabricated():
    t = np.linspace(0.0, 1.0, 10)
    r = -2.0
    stationary = rmax_ode_check(t, np.full_like(t, r), r, tol=0.0)
    assert stationary.satisfied
    rising = np.linspace(-1.5, -0.5, 10)  # fabricated: R_max increasing
    bad = rmax_ode_check(t, rising, r, tol=0.0)
    assert not bad.satisfied
    assert bad.worst_margin < 0.0


def test_corridor_trivial_shapes():
    r, alpha, beta = -2.0, -3.0, -1.0
    times = np.linspace(0.0, 1.0, 9)
    values = np.vstack([np.full(9, 1e-12), 4.0 * np.ones(9), 7.0 * np.ones(9)])
    flagged = np.zeros((3, 9), dtype=bool)
    check = log_derivative_corridor_check(
        times, values, flagged, r, alpha, beta, h=0.0, branches=[1, 2], c_disc=0.0
    )
    # constant branches: derivative 0, corridor [alpha e^{rt}, -r e^{beta t}]
    # straddles zero
    assert check.satisfied
    # worst margin: smaller corridor arm at the last interior time, plus the
    # finite-difference truncation allowance
    t_last = times[-2]
    dt_loc = times[1] - times[0]
    fd_tol = (dt_loc * abs(r)) ** 2 * abs(r)
    arm = min(-alpha * np.e ** (r * t_last), -r * np.e ** (beta * t_last))
    assert np.isclose(check.worst_margin, arm + fd_tol)


def test_corridor_flags_violation():
    r, alpha, beta = -2.0, -3.0, -1.0
    times = np.linspace(0.0, 1.0, 9)
    rising = 4.0 * np.exp(3.0 * times)  # d log/dt = 3 > -r e^{beta t}
    values = np.vstack([np.full(9, 1e-12), rising])
    flagged = np.zeros((2, 9), dtype=bool)
    check = log_derivative_corridor_check(
        times, values, flagged, r, alpha, beta, h=0.0, branches=[1], c_disc=0.0
    )
    assert not check.satisfied


def test_ratio_bound_documented_example():
    alpha, beta, r = -30.0, -20.0, -8.0 * np.pi
    mu = np.ones(10)
    check, (lo, hi) = ratio_bound_check(mu, mu, alpha, beta, r)
    assert check.satisfied
    assert np.isclose(lo, np.exp(-alpha / r), rtol=1e-14)
    assert np.isclose(hi, np.exp(r / beta), rtol=1e-14)
    # documented numeric window
    assert abs(lo - 0.30414) < 2e-3
    assert abs(hi - 3.51358) < 1e-4


def test_ratio_bound_unit_ratio_always_inside():
    # -alpha/r > 0 and r/beta > 0 make the bracket contain 1
    check, (lo, hi) = ratio_bound_check(
        np.ones(5), np.ones(5), -5.0, -1.0, -2.0, tol_ratio=0.0
    )
    assert lo < 1.0 < hi
    assert check.satisfied


def test_ratio_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        ratio_bound_check([1.0, 0.0], [1.0, 1.0], -3.0, -1.0, -2.0)
    with pytest.raises(HypothesisError):
        ratio_bound_check([1.0], [1.0, 1.0], -3.0, -1.0, -2.0)
    with pytest.raises(HypothesisError):
        ratio_bound_check([1.0], [1.0], -1.0, -3.0, -2.0)


def test_ratio_bounds_reject_non_finite_factors():
    # r / beta = 1000 and alpha / r = 1e4 overflow a float's exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HypothesisError):
            ratio_bound_check(np.ones(3), np.ones(3), -2.0, -1e-3, -1.0)
        with pytest.raises(HypothesisError):
            main_theorem_factor(-1e4, -0.5, -1.0, 0.0)


def test_distortion_identity_and_scaling(octagon0):
    q, delta = distortion_upper_bound(octagon0, octagon0)
    assert q == 1.0 and delta == 0.0
    scaled = scale_metric(octagon0, 4.0)
    q, delta = distortion_upper_bound(octagon0, scaled)
    assert np.isclose(q, 2.0, rtol=1e-12)
    assert np.isclose(delta, np.log(2.0), rtol=1e-12)
    q_rev, delta_rev = distortion_upper_bound(scaled, octagon0)
    assert q == q_rev and delta == delta_rev


def test_distortion_mesh_mismatch(octagon0, tetra_metric):
    with pytest.raises(HypothesisError):
        distortion_upper_bound(octagon0, tetra_metric)


def test_buser_equal_spectra():
    spec = np.array([1.0, 2.0, 3.5])
    check = buser_comparison_check(spec, spec, 0.0, tol_ratio=0.0)
    assert check.satisfied
    assert np.isclose(check.worst_margin, 0.0, atol=1e-15)


def test_buser_scaling_consistency():
    # delta = ln 2 gives the window e^{+-4 delta} = 16x, so the exact
    # factor-4 scaling passes comfortably in both directions and a 17x
    # separation does not
    spec = np.array([1.0, 2.0, 3.5])
    delta = np.log(2.0)
    assert buser_comparison_check(spec, 4.0 * spec, delta, tol_ratio=1e-12).satisfied
    assert buser_comparison_check(4.0 * spec, spec, delta, tol_ratio=1e-12).satisfied
    assert not buser_comparison_check(17.0 * spec, spec, delta, tol_ratio=0.0).satisfied


def test_buser_length_mismatch():
    with pytest.raises(HypothesisError):
        buser_comparison_check([1.0], [1.0, 2.0], 0.0)


def test_main_theorem_factor_documented_value():
    factor = main_theorem_factor(-30.0, -20.0, -8.0 * np.pi, 0.0)
    assert abs(factor - 11.592) < 1e-3
    assert np.isclose(
        factor, np.exp(-30.0 / (-8 * np.pi) + (-8 * np.pi) / -20.0), rtol=1e-14
    )


def test_main_theorem_identical_surfaces():
    spec = np.array([2.0, 3.0, 5.0])
    check, factor = main_theorem_check(spec, spec, -3.0, -1.0, -2.0, 0.0, tol_ratio=0.0)
    assert factor > 1.0
    assert check.satisfied


def test_main_theorem_monotone_in_window_and_delta():
    rng = np.random.default_rng(5)
    spec1 = np.sort(rng.uniform(1.0, 10.0, size=8))
    spec2 = spec1 * rng.uniform(0.8, 1.25, size=8)
    r = -2.0
    cases = []
    for alpha, beta, delta in [(-3.0, -1.0, 0.1), (-4.0, -0.5, 0.1),
                               (-3.0, -1.0, 0.4), (-6.0, -0.2, 1.0)]:
        check, _ = main_theorem_check(spec1, spec2, alpha, beta, r, delta, tol_ratio=0.0)
        cases.append(((alpha, beta, delta), check.satisfied))
    # widening never turns pass into fail
    base = cases[0][1]
    if base:
        assert all(ok for _, ok in cases[1:])


def test_consistency_chain_composes_exactly():
    # sample travel ratios inside their windows and a limit comparison inside
    # its window: the end-to-end comparison is then forced
    rng = np.random.default_rng(17)
    alpha, beta, r, delta = -3.5, -1.2, -2.0, 0.25
    lo, hi = np.exp(-alpha / r), np.exp(r / beta)
    blo, bhi = np.exp(-4 * delta), np.exp(4 * delta)
    for _ in range(50):
        n = 6
        s1_end = np.sort(rng.uniform(1.0, 5.0, size=n))
        s2_end = s1_end / rng.uniform(blo, bhi, size=n)
        s1_start = s1_end / rng.uniform(lo, hi, size=n)
        s2_start = s2_end / rng.uniform(lo, hi, size=n)
        ratio1, _ = ratio_bound_check(s1_start, s1_end, alpha, beta, r, tol_ratio=1e-12)
        ratio2, _ = ratio_bound_check(s2_start, s2_end, alpha, beta, r, tol_ratio=1e-12)
        buser = buser_comparison_check(s1_end, s2_end, delta, tol_ratio=1e-12)
        assert ratio1.satisfied and ratio2.satisfied and buser.satisfied
        mt, _ = main_theorem_check(
            s1_start, s2_start, alpha, beta, r, delta, tol_ratio=1e-9
        )
        assert mt.satisfied


def test_checks_on_real_run(run1):
    trace = run1["trace"]
    alpha, beta = run1["window"]
    branches = track_branches(trace.snapshots())
    inputs = {
        "alpha": alpha,
        "beta": beta,
        "r": trace.r,
        "mean_edge_length": mean_edge_length(trace),
        "c_disc": DEFAULT_C_DISC,
        "tol_ratio": DEFAULT_TOL_RATIO,
        "k": run1["config"].k,
    }
    checks, _ = surface_checks(trace.steps, vars(branches), inputs)
    assert [c.name for c in checks] == [
        "curvature_envelope_lower",
        "curvature_envelope_upper",
        "curvature_stays_below_beta",
        "rmax_comparison_ode",
        "log_derivative_corridor",
        "eigenvalue_ratio_window",
    ]
    for check in checks:
        assert check.satisfied, check



def _times(draw, count):
    """``count`` strictly increasing times starting at 0."""
    gaps = draw(st.lists(st.floats(1e-4, 1.0), min_size=count - 1, max_size=count - 1))
    return np.concatenate([[0.0], np.cumsum(gaps)])


@st.composite
def _series(draw):
    """A fabricated series record and inputs in the shapes live runs build."""
    n_steps = draw(st.integers(1, 8))
    curv = st.floats(-50.0, 50.0)
    pairs = draw(st.lists(st.tuples(curv, curv), min_size=n_steps, max_size=n_steps))
    steps = {
        "t": _times(draw, n_steps),
        "R_min": np.array([min(p) for p in pairs]),
        "R_max": np.array([max(p) for p in pairs]),
    }
    if draw(st.booleans()):
        vertex = st.integers(0, 100)
        steps["argmin"] = np.array(draw(st.lists(vertex, min_size=n_steps, max_size=n_steps)))
        steps["argmax"] = np.array(draw(st.lists(vertex, min_size=n_steps, max_size=n_steps)))

    k = draw(st.integers(2, 12))
    n_snaps = draw(st.integers(1, 6))
    entries = k * n_snaps
    values = np.array(
        draw(st.lists(st.floats(1e-6, 1e4), min_size=entries, max_size=entries))
    ).reshape(k, n_snaps)
    flagged = np.array(
        draw(st.lists(st.booleans(), min_size=entries, max_size=entries))
    ).reshape(k, n_snaps)
    spectrum = {
        "times": _times(draw, n_snaps),
        "values": values,
        "flagged": flagged,
        "sorted_values": np.sort(values, axis=0),
    }

    window = draw(st.lists(st.floats(-100.0, -1e-3), min_size=3, max_size=3, unique=True))
    alpha, r, beta = sorted(window)
    inputs = {
        "alpha": alpha,
        "beta": beta,
        "r": r,
        "mean_edge_length": draw(st.floats(1e-3, 10.0)),
        "c_disc": draw(st.floats(0.0, 100.0)),
        "tol_ratio": draw(st.floats(0.0, 1.0)),
        "k": k,
    }
    return steps, spectrum, inputs


@settings(max_examples=300, deadline=None)
@given(_series())
def test_surface_checks_total_on_fabricated_series(series):
    # a valid series either gives finite, serializable checks or a typed
    # refusal (HypothesisError, or ValueError when no sample is checkable)
    try:
        checks, _ = surface_checks(*series)
    except (HypothesisError, ValueError):
        return
    for check in checks:
        assert np.isfinite(check.worst_margin), check
        canonical_json(check.as_dict())


def test_benchmark_tracer_records_check_spans(monkeypatch):
    # perfbench/tracer.py patches the checks by module attribute; entering its
    # session fails if a name it targets is gone, and the spans show that
    # surface_checks still calls the checks through those attributes
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)
    spec.loader.exec_module(tracer_module)

    t = np.linspace(0.0, 0.5, 6)
    steps = {"t": t, "R_min": np.full(6, -2.5), "R_max": np.full(6, -1.5)}
    values = np.outer([1e-12, 2.0, 3.0, 5.0], np.ones(4))
    spectrum = {
        "times": np.linspace(0.0, 0.5, 4),
        "values": values,
        "flagged": np.zeros(values.shape, dtype=bool),
        "sorted_values": values,
    }
    inputs = {
        "alpha": -3.0,
        "beta": -1.0,
        "r": -2.0,
        "mean_edge_length": 0.1,
        "c_disc": DEFAULT_C_DISC,
        "tol_ratio": DEFAULT_TOL_RATIO,
        "k": 4,
    }
    tracer = tracer_module.Tracer(0)
    with tracer.session():
        checks, _ = bounds.surface_checks(steps, spectrum, inputs)
    assert len(checks) == 6
    assert {s.name for s in tracer.spans} >= {
        "bounds.envelope_check",
        "bounds.rmax_ode_check",
        "bounds.log_derivative_corridor_check",
        "bounds.ratio_bound_check",
    }


def _fabricated_record(flagged):
    """Six steps and four snapshots of four constant branches; ``flagged`` (4, 4)."""
    t = np.linspace(0.0, 0.5, 6)
    steps = {"t": t, "R_min": np.full(6, -2.5), "R_max": np.full(6, -1.5)}
    values = np.outer([1e-12, 2.0, 3.0, 5.0], np.ones(4))
    spectrum = {
        "times": np.linspace(0.0, 0.5, 4),
        "values": values,
        "flagged": flagged,
        "sorted_values": values,
    }
    inputs = {
        "alpha": -3.0,
        "beta": -1.0,
        "r": -2.0,
        "mean_edge_length": 0.1,
        "c_disc": DEFAULT_C_DISC,
        "tol_ratio": DEFAULT_TOL_RATIO,
        "k": 4,
    }
    return steps, spectrum, inputs


def test_surface_checks_skip_corridor_without_checkable_stencil():
    # every stencil flagged: the corridor has nothing to check, so it is left
    # out with a warning instead of raising
    notes = []
    checks, _ = surface_checks(*_fabricated_record(np.ones((4, 4), dtype=bool)), notes)
    assert [c.name for c in checks] == [
        "curvature_envelope_lower",
        "curvature_envelope_upper",
        "curvature_stays_below_beta",
        "rmax_comparison_ode",
        "eigenvalue_ratio_window",
    ]
    assert len(notes) == 1 and notes[0].startswith("log_derivative_corridor skipped")

    # one checkable stencil brings the corridor back, with nothing to note
    flagged = np.ones((4, 4), dtype=bool)
    flagged[1, :3] = False
    checks, _ = surface_checks(*_fabricated_record(flagged), notes)
    assert "log_derivative_corridor" in [c.name for c in checks]
    assert len(notes) == 1
