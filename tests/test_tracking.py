import numpy as np
import pytest

from ricciflow import (
    BranchCrossingError,
    branch_log_derivative,
    evolution_formula_residual,
    track_branches,
)
from ricciflow.tracking import (
    DEFAULT_GAP_TOL,
    BranchSet,
    dual_area_rate_residuals,
    evolution_residual_median,
    normalization_rate_residuals,
)


def _snapshots(run):
    return run["trace"].snapshots()


def test_identical_snapshots_identity_assignment(run1):
    snap = _snapshots(run1)[0]
    pair = [snap, snap.with_time(snap.t + 0.1)]
    branches = track_branches(pair)
    assert np.array_equal(branches.values[:, 0], branches.values[:, 1])
    assert not branches.flagged[1:, :].any() or True  # flags only from tight clusters
    # overlaps are exactly 1 up to normalization error
    overlap = np.abs(
        snap.eigenvectors.T @ (snap.mass[:, None] * snap.eigenvectors)
    )
    assert np.allclose(np.diag(overlap), 1.0, atol=1e-10)


def test_tracker_follows_vectors_through_swap(run1):
    snap = _snapshots(run1)[0]
    k = snap.k
    # synthetic second snapshot: two well-separated eigenpairs swap places
    a, b = 1, 4
    perm = np.arange(k)
    perm[[a, b]] = perm[[b, a]]
    swapped = snap.__class__(
        t=snap.t + 0.1,
        eigenvalues=snap.eigenvalues[perm],
        eigenvectors=snap.eigenvectors[:, perm],
        residuals=snap.residuals[perm],
        mass=snap.mass,
    )
    branches = track_branches([snap, swapped])
    # branch a now carries the value that moved to slot b, i.e. branches cross
    assert np.isclose(branches.values[a, 1], snap.eigenvalues[a])
    assert np.isclose(branches.values[b, 1], snap.eigenvalues[b])
    # while the sorted view stays ascending (multiset unchanged)
    assert np.allclose(branches.sorted_values[:, 1], np.sort(snap.eigenvalues))


def test_multiset_and_sorted_view(run1):
    snaps = _snapshots(run1)
    branches = track_branches(snaps)
    for j, snap in enumerate(snaps):
        assert np.allclose(np.sort(branches.values[:, j]), np.sort(snap.eigenvalues))
        assert np.array_equal(
            branches.sorted_values[:, j], np.sort(branches.values[:, j])
        )


def test_branch_order_stable_when_gaps_large(run1):
    snaps = _snapshots(run1)
    branches = track_branches(snaps)
    # this run keeps its low branches separated, so branch order equals
    # sorted order throughout
    for b in range(1, 6):
        if branches.flagged[b].any():
            continue
        assert np.allclose(branches.values[b], branches.sorted_values[b])


def test_log_derivative_constant_branch():
    times = np.linspace(0.0, 1.0, 11)
    values = np.full((3, 11), 2.0)
    values[0] = 1e-12
    bs = BranchSet(
        times=times,
        values=values,
        vectors=[None] * 11,
        flagged=np.zeros((3, 11), dtype=bool),
        sorted_values=np.sort(values, axis=0),
    )
    assert abs(branch_log_derivative(bs, 1, 5)) < 1e-12
    assert abs(branch_log_derivative(bs, 1, 0, scheme="one_sided")) < 1e-12


def test_log_derivative_exponential_branch():
    c = -1.7
    times = np.linspace(0.0, 0.5, 26)
    values = np.vstack([np.full(26, 1e-12), 3.0 * np.exp(c * times)])
    bs = BranchSet(
        times=times,
        values=values,
        vectors=[None] * 26,
        flagged=np.zeros((2, 26), dtype=bool),
        sorted_values=np.sort(values, axis=0),
    )
    der = branch_log_derivative(bs, 1, 12)
    assert abs(der - c) < 1e-9  # exact exponential: only rounding remains
    one_sided = branch_log_derivative(bs, 1, 12, scheme="one_sided")
    assert abs(one_sided - c) < abs(c) * 0.02


def test_log_derivative_crossing_guard():
    times = np.linspace(0.0, 1.0, 5)
    values = np.ones((2, 5))
    flagged = np.zeros((2, 5), dtype=bool)
    flagged[1, 2] = True
    bs = BranchSet(
        times=times,
        values=values,
        vectors=[None] * 5,
        flagged=flagged,
        sorted_values=values,
    )
    with pytest.raises(BranchCrossingError):
        branch_log_derivative(bs, 1, 2)
    with pytest.raises(IndexError):
        branch_log_derivative(bs, 1, 0)


def test_converged_tail_derivative_small(run1):
    trace = run1["trace"]
    branches = track_branches(_snapshots(run1))
    j = branches.times.shape[0] - 2
    r = abs(trace.r)
    for b in range(1, 4):
        try:
            der = branch_log_derivative(branches, b, j)
        except BranchCrossingError:
            continue
        assert abs(der) < 1e-2 * r


def test_evolution_formula_on_real_run(run1):
    trace = run1["trace"]
    branches = track_branches(_snapshots(run1))
    med, count = evolution_residual_median(trace, branches, [1, 2, 3, 4, 5])
    assert count >= 10
    assert med <= 0.05


def test_evolution_formula_vanishes_at_convergence(run1):
    trace = run1["trace"]
    branches = track_branches(_snapshots(run1))
    j = branches.times.shape[0] - 2
    lam_scale = branches.values[1:, j].max()
    dev = trace.snapshot_samples()[j].curvature.max_deviation()
    for b in (1, 2):
        try:
            fd, rhs, _ = evolution_formula_residual(trace, branches, b, j)
        except BranchCrossingError:
            continue
        assert abs(rhs) <= 2.0 * lam_scale * dev
        assert abs(fd) <= 20.0 * lam_scale * dev


def test_evolution_formula_crossing_error(run1):
    trace = run1["trace"]
    branches = track_branches(_snapshots(run1))
    j = min(5, branches.times.shape[0] - 2)
    flagged = branches.flagged.copy()
    flagged[2, j] = True
    rigged = BranchSet(
        times=branches.times,
        values=branches.values,
        vectors=branches.vectors,
        flagged=flagged,
        sorted_values=branches.sorted_values,
    )
    with pytest.raises(BranchCrossingError):
        evolution_formula_residual(trace, rigged, 2, j)


def test_volume_form_rate(run1):
    errors = dual_area_rate_residuals(run1["trace"])
    assert np.median(errors) <= 0.05


def test_normalization_rate(run1):
    trace = run1["trace"]
    branches = track_branches(_snapshots(run1))
    errors = normalization_rate_residuals(trace, branches, [1, 2, 3, 4, 5])
    assert np.median(errors) <= 0.10


def test_track_requires_matching_snapshots(run1):
    snap = _snapshots(run1)[0]
    fewer_modes = snap.__class__(
        t=snap.t + 0.1,
        eigenvalues=snap.eigenvalues[:-1],
        eigenvectors=snap.eigenvectors[:, :-1],
        residuals=snap.residuals[:-1],
        mass=snap.mass,
    )
    fewer_vertices = snap.__class__(
        t=snap.t + 0.1,
        eigenvalues=snap.eigenvalues,
        eigenvectors=snap.eigenvectors[:-1],
        residuals=snap.residuals,
        mass=snap.mass[:-1],
    )
    for snaps in ([], [snap, fewer_modes], [snap, fewer_vertices]):
        with pytest.raises(ValueError):
            track_branches(snaps)


def test_track_single_snapshot(run1):
    snap = _snapshots(run1)[0]
    # the second copy puts a near-degenerate pair at values 2 and 3
    values = snap.eigenvalues.copy()
    values[3] = values[2] * (1.0 + 1e-6)
    tight = snap.__class__(snap.t, values, snap.eigenvectors, snap.residuals, snap.mass)
    for one in (snap, tight):
        branches = track_branches([one])
        assert np.array_equal(branches.times, [one.t])
        assert np.array_equal(branches.values, one.eigenvalues[:, None])
        assert np.array_equal(branches.sorted_values, branches.values)
        assert len(branches.vectors) == 1
        assert np.array_equal(branches.vectors[0], one.eigenvectors)
        # flagged exactly where another value lies within the relative gap
        vals = one.eigenvalues
        near = np.abs(vals[:, None] - vals[None, :]) < DEFAULT_GAP_TOL * vals.max()
        np.fill_diagonal(near, False)
        assert np.array_equal(branches.flagged[:, 0], near.any(axis=1))
    assert track_branches([tight]).flagged[[2, 3], 0].all()
