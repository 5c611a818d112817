import dataclasses
import tracemalloc

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
    BranchTracker,
    dual_area_rate_residuals,
    evolution_residual_median,
    normalization_rate_residuals,
)


def _snapshots(run):
    return run["trace"].snapshots()


def test_track_branches_keeps_only_the_kept_branches_vectors(run1):
    # a branch set holds no eigenvector matrix: one row per kept branch and
    # time, copied out of the snapshot, and each branch's column and sign
    snaps = _snapshots(run1)
    kept_branches = [1, 2, 3, 4, 5]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        branches = track_branches(snaps, branches=kept_branches)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n, k = snaps[0].eigenvectors.shape
    row_bytes = len(snaps) * len(kept_branches) * n * 8
    assert len(snaps) > 2 and branches.branches == tuple(kept_branches)
    assert sum(v.nbytes for v in branches.vectors) == row_bytes
    # the tracker's last permuted matrix does not outlive it
    assert kept < row_bytes + snaps[0].eigenvectors.nbytes // 2
    for j, snap in enumerate(snaps):
        assert branches.vectors[j].shape == (len(kept_branches), n)
        assert branches.vectors[j].flags.c_contiguous
        assert not np.shares_memory(branches.vectors[j], snap.eigenvectors)
        assert np.array_equal(np.sort(branches.columns[:, j]), np.arange(k))
        for b in range(k):
            sign = branches.signs[b, j]
            assert sign in (-1.0, 1.0)
            if b not in kept_branches:
                with pytest.raises(KeyError, match=r"kept branches: \[1, 2, 3, 4, 5\]"):
                    branches.vector(b, j)
                continue
            column = snap.eigenvectors[:, branches.columns[b, j]]
            assert np.array_equal(branches.vector(b, j), sign * column)
            if j and not branches.flagged[b, j - 1 : j + 1].any():
                previous = branches.vector(b, j - 1)
                assert previous @ (snaps[j - 1].mass * branches.vector(b, j)) > 0.0


def test_tracker_fed_one_snapshot_at_a_time_matches_batch_tracking(run1):
    # a run feeds each spectrum to a tracker as soon as it is solved; the
    # result must be batch tracking's, bit for bit, vectors included
    snaps = _snapshots(run1)
    checked = [1, 2, 3, 4, 5]
    tracker = BranchTracker(checked)
    for snap in snaps:
        tracker.add(snap)
    streamed = track_branches(tracker)
    batch = track_branches(snaps, branches=checked)
    every = track_branches(snaps)
    fields = ("times", "values", "columns", "signs", "flagged", "sorted_values")
    for field in fields:
        assert np.array_equal(getattr(streamed, field), getattr(batch, field)), field
        assert np.array_equal(getattr(streamed, field), getattr(every, field)), field
    assert streamed.branches == batch.branches == tuple(checked)
    assert every.branches == tuple(range(every.k))
    for j, snap in enumerate(snaps):
        assert np.array_equal(streamed.vectors[j], batch.vectors[j])
        for b in checked:
            want = snap.eigenvectors[:, streamed.columns[b, j]] * streamed.signs[b, j]
            assert np.array_equal(streamed.vector(b, j), want)
            assert np.array_equal(every.vector(b, j), want)


def test_tracker_fed_curvature_evaluates_the_stencils_of_list_tracking(run1):
    # given each snapshot's curvature field, the tracker evaluates each
    # residual stencil as the snapshot after it arrives and keeps only the
    # vectors the next stencil needs; the statistics read those stencils and
    # equal list-based tracking's bit for bit, flags applied at the end
    trace = run1["trace"]
    checked = [1, 2, 3, 4, 5]
    tracker = BranchTracker(checked)
    for sample in trace.snapshot_samples():
        tracker.add(sample.spectrum, sample.curvature)
        assert len(tracker.vectors) <= 2 and len(tracker.fields) <= 2
    streamed = track_branches(tracker)
    batch = track_branches(trace.snapshots(), branches=checked)
    for field in ("times", "values", "columns", "signs", "flagged", "sorted_values"):
        assert np.array_equal(getattr(streamed, field), getattr(batch, field)), field
    assert streamed.vectors is None and batch.stencil_residuals is None
    n_times = len(streamed.times)
    assert streamed.stencil_residuals.shape == (2, len(checked), n_times)
    for j in range(1, n_times - 1):
        for i, b in enumerate(checked):
            if not batch.flagged[b, j - 1 : j + 2].any():
                want = evolution_formula_residual(trace, batch, b, j)[2]
                assert streamed.stencil_residuals[0, i, j] == want
    rigged = batch.flagged.copy()
    rigged[2, 3:6] = True
    for flagged in (batch.flagged, rigged):
        got, want = (dataclasses.replace(bs, flagged=flagged) for bs in (streamed, batch))
        assert (evolution_residual_median(trace, got, checked)
                == evolution_residual_median(trace, want, checked))
        assert np.array_equal(normalization_rate_residuals(trace, got, checked),
                              normalization_rate_residuals(trace, want, checked))
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
    # branch values alone: no kept vectors, identity order, no sign flips
    k, n_times = values.shape
    return {
        "branches": (),
        "vectors": [np.empty((0, 0))] * n_times,
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
    assert abs(branch_log_derivative(bs, 1, 5)) < 1e-12


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
    der = branch_log_derivative(bs, 1, 12)
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
    rigged = dataclasses.replace(branches, flagged=flagged)
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
        assert branches.branches == tuple(range(one.k)) and len(branches.vectors) == 1
        assert not np.shares_memory(branches.vectors[0], one.eigenvectors)
        assert np.array_equal(branches.columns, np.arange(one.k)[:, None])
        assert np.array_equal(branches.signs, np.ones((one.k, 1)))
        for b in range(one.k):
            assert np.array_equal(branches.vector(b, 0), one.eigenvectors[:, b])
        # flagged exactly where another value lies within the relative gap
        vals = one.eigenvalues
        near = np.abs(vals[:, None] - vals[None, :]) < DEFAULT_GAP_TOL * vals.max()
        np.fill_diagonal(near, False)
        assert np.array_equal(branches.flagged[:, 0], near.any(axis=1))
    assert track_branches([tight]).flagged[[2, 3], 0].all()
