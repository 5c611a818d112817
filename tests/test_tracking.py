import dataclasses
import tracemalloc

import numpy as np
import pytest

from ricciflow import track_branches
from ricciflow.tracking import (
    DEFAULT_GAP_TOL,
    BranchSet,
    BranchTracker,
    dual_area_rate_residuals,
    evolution_residual_median,
    normalization_rate_residuals,
)

import oracles


def _snapshots(run):
    return run["trace"].snapshots()


def test_track_branches_keeps_columns_and_signs_not_vectors(run1):
    # a branch set holds no eigenvector data: each branch's vector at time j
    # is its column of snapshot j times its sign, continuous along the branch
    trace = run1["trace"]
    snaps = trace.snapshots()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        branches = track_branches(snaps)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    k = snaps[0].k
    assert len(snaps) > 2 and branches.branches == tuple(range(k))
    # the tracker's last permuted matrix does not outlive it
    assert kept < snaps[0].eigenvectors.nbytes // 2
    for j, snap in enumerate(snaps):
        assert np.array_equal(np.sort(branches.columns[:, j]), np.arange(k))
        for b in range(k):
            sign = branches.signs[b, j]
            assert sign in (-1.0, 1.0)
            if j and not branches.flagged[b, j - 1 : j + 1].any():
                previous = snaps[j - 1].eigenvectors[:, branches.columns[b, j - 1]]
                current = snap.eigenvectors[:, branches.columns[b, j]] * sign
                overlap = previous @ (snaps[j - 1].mass * current)
                assert branches.signs[b, j - 1] * overlap > 0.0
    # the evolution oracle reads the middle vector from the trace's snapshot
    j = next(j for j in range(1, len(snaps) - 1) if not branches.flagged[2, j - 1 : j + 2].any())
    phi = snaps[j].eigenvectors[:, branches.columns[2, j]] * branches.signs[2, j]
    fld = trace.snapshot_samples()[j].curvature
    want = branches.values[2, j] * float(np.sum((fld.R - fld.r) * phi * phi * fld.dual_area))
    assert oracles.evolution_formula(trace, branches, 2, j)[1] == want


def test_tracker_fed_one_snapshot_at_a_time_matches_batch_tracking(run1):
    # a run feeds each spectrum to a tracker as soon as it is solved; the
    # result must be batch tracking's, bit for bit, and without curvature
    # fields the tracker keeps no kept-branch rows
    snaps = _snapshots(run1)
    checked = [1, 2, 3, 4, 5]
    tracker = BranchTracker(checked)
    for snap in snaps:
        tracker.add(snap)
        assert tracker.rows == []
    streamed = track_branches(tracker)
    batch = track_branches(snaps)
    fields = ("times", "values", "columns", "signs", "flagged", "sorted_values")
    for field in fields:
        assert np.array_equal(getattr(streamed, field), getattr(batch, field)), field
    assert streamed.branches == tuple(checked)
    assert batch.branches == tuple(range(batch.k))
    assert streamed.stencil_residuals is None and batch.stencil_residuals is None


def test_tracker_fed_curvature_evaluates_the_stencils_of_list_tracking(run1):
    # given each snapshot's curvature field, the tracker evaluates each
    # residual stencil as the snapshot after it arrives and keeps only the
    # kept-branch rows the next stencil needs; the statistics read those
    # stencils and equal the vector-reading oracle's over list-based
    # tracking bit for bit, flags applied at the end
    trace = run1["trace"]
    checked = [1, 2, 3, 4, 5]
    tracker = BranchTracker(checked)
    for sample in trace.snapshot_samples():
        tracker.add(sample.spectrum, sample.curvature)
        assert len(tracker.rows) <= 2 and len(tracker.fields) <= 2
        assert all(r.shape == (len(checked), sample.spectrum.eigenvectors.shape[0])
                   for r in tracker.rows)
    streamed = track_branches(tracker)
    batch = track_branches(trace.snapshots())
    for field in ("times", "values", "columns", "signs", "flagged", "sorted_values"):
        assert np.array_equal(getattr(streamed, field), getattr(batch, field)), field
    assert batch.stencil_residuals is None
    n_times = len(streamed.times)
    assert streamed.stencil_residuals.shape == (2, len(checked), n_times)
    for j in range(1, n_times - 1):
        for i, b in enumerate(checked):
            if not batch.flagged[b, j - 1 : j + 2].any():
                want = oracles.evolution_formula(trace, batch, b, j)[2]
                assert streamed.stencil_residuals[0, i, j] == want
    rigged = batch.flagged.copy()
    rigged[2, 3:6] = True
    for flagged in (batch.flagged, rigged):
        got, want = (dataclasses.replace(bs, flagged=flagged) for bs in (streamed, batch))
        assert (evolution_residual_median(trace, got, checked)
                == oracles.evolution_residual_median(trace, want, checked))
        assert np.array_equal(normalization_rate_residuals(trace, got, checked),
                              oracles.law_residuals(trace, want, checked, 1))
    assert (evolution_residual_median(trace, dataclasses.replace(streamed, flagged=rigged), checked)
            != evolution_residual_median(trace, streamed, checked))


def test_tracker_takes_curvature_for_every_snapshot_or_none(run1):
    samples = run1["trace"].snapshot_samples()
    for first, second in ((samples[0].curvature, None), (None, samples[1].curvature)):
        tracker = BranchTracker([1, 2])
        tracker.add(samples[0].spectrum, first)
        with pytest.raises(ValueError, match="curvature field"):
            tracker.add(samples[1].spectrum, second)


def test_identical_snapshots_identity_assignment(run1):
    snap = _snapshots(run1)[0]
    pair = [snap, dataclasses.replace(snap, t=snap.t + 0.1)]
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


def _no_vectors(values):
    # branch values alone: no kept branches, identity order, no sign flips
    k, n_times = values.shape
    return {
        "branches": (),
        "columns": np.tile(np.arange(k)[:, None], n_times),
        "signs": np.ones((k, n_times)),
    }


def test_log_derivative_constant_branch():
    times = np.linspace(0.0, 1.0, 11)
    values = np.full((3, 11), 2.0)
    values[0] = 1e-12
    bs = BranchSet(
        times=times,
        values=values,
        **_no_vectors(values),
        flagged=np.zeros((3, 11), dtype=bool),
        sorted_values=np.sort(values, axis=0),
    )
    assert abs(oracles.branch_log_derivative(bs, 1, 5)) < 1e-12


def test_log_derivative_exponential_branch():
    c = -1.7
    times = np.linspace(0.0, 0.5, 26)
    values = np.vstack([np.full(26, 1e-12), 3.0 * np.exp(c * times)])
    bs = BranchSet(
        times=times,
        values=values,
        **_no_vectors(values),
        flagged=np.zeros((2, 26), dtype=bool),
        sorted_values=np.sort(values, axis=0),
    )
    der = oracles.branch_log_derivative(bs, 1, 12)
    assert abs(der - c) < 1e-9  # exact exponential: only rounding remains


def test_log_derivative_crossing_guard():
    times = np.linspace(0.0, 1.0, 5)
    values = np.ones((2, 5))
    flagged = np.zeros((2, 5), dtype=bool)
    flagged[1, 2] = True
    bs = BranchSet(
        times=times,
        values=values,
        **_no_vectors(values),
        flagged=flagged,
        sorted_values=values,
    )
    with pytest.raises(ValueError, match="flagged"):
        oracles.branch_log_derivative(bs, 1, 2)
    with pytest.raises(IndexError):
        oracles.branch_log_derivative(bs, 1, 0)


def test_converged_tail_derivative_small(run1):
    trace = run1["trace"]
    branches = track_branches(_snapshots(run1))
    j = branches.times.shape[0] - 2
    r = abs(trace.r)
    for b in range(1, 4):
        if not branches.flagged[b, j - 1 : j + 2].any():
            assert abs(oracles.branch_log_derivative(branches, b, j)) < 1e-2 * r


def test_evolution_formula_on_real_run(run1):
    med, count = evolution_residual_median(run1["trace"], run1["branch_set"], [1, 2, 3, 4, 5])
    assert count >= 10
    assert med <= 0.05


def test_evolution_formula_vanishes_at_convergence(run1):
    trace = run1["trace"]
    branches = track_branches(_snapshots(run1))
    j = branches.times.shape[0] - 2
    lam_scale = branches.values[1:, j].max()
    dev = trace.snapshot_samples()[j].curvature.max_deviation()
    for b in (1, 2):
        if branches.flagged[b, j - 1 : j + 2].any():
            continue
        fd, rhs, _ = oracles.evolution_formula(trace, branches, b, j)
        assert abs(rhs) <= 2.0 * lam_scale * dev
        assert abs(fd) <= 20.0 * lam_scale * dev


def test_evolution_formula_crossing_error(run1):
    trace = run1["trace"]
    branches = track_branches(_snapshots(run1))
    j = min(5, branches.times.shape[0] - 2)
    flagged = branches.flagged.copy()
    flagged[2, j] = True
    rigged = dataclasses.replace(branches, flagged=flagged)
    with pytest.raises(ValueError, match="flagged"):
        oracles.evolution_formula(trace, rigged, 2, j)


def test_volume_form_rate(run1):
    errors = dual_area_rate_residuals(run1["trace"])
    assert np.median(errors) <= 0.05


def test_normalization_rate(run1):
    errors = normalization_rate_residuals(run1["trace"], run1["branch_set"], [1, 2, 3, 4, 5])
    assert np.median(errors) <= 0.10


def test_statistics_need_stencil_residuals(run1):
    # a set tracked without curvature fields has no stencils to read
    branches = track_branches(_snapshots(run1))
    for statistic in (evolution_residual_median, normalization_rate_residuals):
        with pytest.raises(ValueError, match="stencil_residuals"):
            statistic(run1["trace"], branches, [1, 2])


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
    # an experiment's trace keeps its snapshots without their eigenvectors
    no_vectors = dataclasses.replace(snap, eigenvectors=None)
    for snaps in ([], [snap, fewer_modes], [snap, fewer_vertices], [no_vectors]):
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
        assert branches.branches == tuple(range(one.k))
        assert np.array_equal(branches.columns, np.arange(one.k)[:, None])
        assert np.array_equal(branches.signs, np.ones((one.k, 1)))
        # flagged exactly where another value lies within the relative gap
        vals = one.eigenvalues
        near = np.abs(vals[:, None] - vals[None, :]) < DEFAULT_GAP_TOL * vals.max()
        np.fill_diagonal(near, False)
        assert np.array_equal(branches.flagged[:, 0], near.any(axis=1))
    assert track_branches([tight]).flagged[[2, 3], 0].all()
