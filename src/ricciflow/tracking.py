"""Eigenvalue branches along a flow, and the residual statistics of its evolution laws.

Sorted eigenvalue labels are merely continuous in time; the quantities the
theory differentiates live on *branches*, followed here by mass-weighted
eigenvector overlap between consecutive snapshots. Crossings (or clusters
too tight to resolve) are flagged, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchCrossingError
from .flow import central_difference, curvature_pde_residual

DEFAULT_OVERLAP_MIN = 0.6
DEFAULT_GAP_TOL = 1e-3  # relative to the largest computed eigenvalue


@dataclass(frozen=True)
class BranchSet:
    """Eigenvalue branches over the snapshot times of one flow.

    ``values[b, j]`` is branch ``b`` at time ``times[j]``; ``vectors[j]`` is
    the (n, k) eigenvector matrix at time j, columns permuted into branch
    order with signs fixed along each branch. ``flagged[b, j]`` marks
    overlap failures and near-degeneracies, where branch identity (and any
    derivative along it) is unreliable. ``sorted_values`` is the ascending
    relabeling.
    """

    times: np.ndarray
    values: np.ndarray
    vectors: list
    flagged: np.ndarray
    sorted_values: np.ndarray

    @property
    def k(self):
        return self.values.shape[0]


def track_branches(snapshots, overlap_min=DEFAULT_OVERLAP_MIN, gap_tol=DEFAULT_GAP_TOL):
    """Connect eigenvalues across snapshots by eigenvector overlap.

    Consecutive snapshots are matched greedily on the overlap matrix
    ``O_ab = |phi_a(t)' M(t) phi_b(t + dt)|`` (largest entry first, ties
    broken by eigenvalue proximity then lower index). If the best remaining
    overlap drops below ``overlap_min``, the remaining pairs fall back to
    ascending-value matching and are flagged as crossings. Branches are
    additionally flagged wherever the gap to a sorted neighbor is below
    ``gap_tol`` (relative to the largest eigenvalue at that time). A single
    snapshot gives one-sample branches in eigenvalue order.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot to track branches")
    k = snapshots[0].k
    n = snapshots[0].eigenvectors.shape[0]
    for snap in snapshots:
        if snap.k != k or snap.eigenvectors.shape[0] != n:
            raise ValueError("snapshots disagree on k or mesh size")

    n_times = len(snapshots)
    values = np.empty((k, n_times))
    flagged = np.zeros((k, n_times), dtype=bool)
    vectors = []

    values[:, 0] = snapshots[0].eigenvalues
    vectors.append(snapshots[0].eigenvectors.copy())

    for j in range(1, n_times):
        prev_vecs = vectors[j - 1]
        prev_vals = values[:, j - 1]
        snap = snapshots[j]
        inner = prev_vecs.T @ (snapshots[j - 1].mass[:, None] * snap.eigenvectors)
        assignment, crossing = _greedy_assign(
            np.abs(inner), prev_vals, snap.eigenvalues, overlap_min
        )
        cols = np.array([assignment[b] for b in range(k)])
        # Keep signs continuous along each branch.
        sign = np.where(inner[np.arange(k), cols] < 0.0, -1.0, 1.0)
        values[:, j] = snap.eigenvalues[cols]
        vectors.append(snap.eigenvectors[:, cols] * sign)
        for b in crossing:
            flagged[b, j] = True
            flagged[b, j - 1] = True

    # Flag unresolvably close neighbors, where branch identity means little.
    for j in range(n_times):
        scale = max(values[:, j].max(), 1e-300)
        order = np.argsort(values[:, j], kind="stable")
        sorted_vals = values[order, j]
        gaps = np.diff(sorted_vals)
        tight = gaps < gap_tol * scale
        for pos in np.nonzero(tight)[0]:
            flagged[order[pos], j] = True
            flagged[order[pos + 1], j] = True

    times = np.array([s.t for s in snapshots])
    return BranchSet(
        times=times,
        values=values,
        vectors=vectors,
        flagged=flagged,
        sorted_values=np.sort(values, axis=0),
    )


def _greedy_assign(overlap, prev_vals, next_vals, overlap_min):
    k = overlap.shape[0]
    work = overlap.copy()
    assignment = {}
    crossing = set()
    free_rows = set(range(k))
    free_cols = set(range(k))
    for _ in range(k):
        best = -1.0
        best_pair = None
        for row in free_rows:
            for col in free_cols:
                val = work[row, col]
                if val > best + 1e-15:
                    best, best_pair = val, (row, col)
                elif abs(val - best) <= 1e-15 and best_pair is not None:
                    # tie: eigenvalue proximity, then lower index
                    cand = (abs(prev_vals[row] - next_vals[col]), row, col)
                    cur = (
                        abs(prev_vals[best_pair[0]] - next_vals[best_pair[1]]),
                        best_pair[0],
                        best_pair[1],
                    )
                    if cand < cur:
                        best, best_pair = val, (row, col)
        if best < overlap_min:
            break
        row, col = best_pair
        assignment[row] = col
        free_rows.discard(row)
        free_cols.discard(col)
    if free_rows:
        # fall back to value-order matching for everything unresolved
        rows = sorted(free_rows, key=lambda r: (prev_vals[r], r))
        cols = sorted(free_cols, key=lambda c: (next_vals[c], c))
        for row, col in zip(rows, cols):
            assignment[row] = col
            crossing.add(row)
    return assignment, crossing


def branch_log_derivative(branch_set, branch, time_index, scheme="central"):
    """Finite-difference d(log lambda)/dt along one branch.

    The central scheme needs both neighbors and an unflagged center; the
    one-sided scheme uses the forward neighbor (or backward at the end).
    """
    times = branch_set.times
    vals = branch_set.values[branch]
    n_times = times.shape[0]
    if scheme == "central":
        if not 0 < time_index < n_times - 1:
            raise IndexError("central scheme needs both time neighbors")
        if branch_set.flagged[branch, time_index - 1 : time_index + 2].any():
            raise BranchCrossingError(
                f"branch {branch} is flagged near time index {time_index}"
            )
        stencil = vals[time_index - 1 : time_index + 2]
        if np.any(stencil <= 0.0):
            raise ValueError("log derivative needs positive branch values")
        return float(central_difference(times[time_index - 1 : time_index + 2], np.log(stencil)))
    if scheme == "one_sided":
        j2 = time_index + 1 if time_index + 1 < n_times else time_index - 1
        pair = vals[[time_index, j2]]
        if np.any(pair <= 0.0):
            raise ValueError("log derivative needs positive branch values")
        return float((np.log(pair[1]) - np.log(pair[0])) / (times[j2] - times[time_index]))
    raise ValueError(f"unknown scheme {scheme!r}")


def evolution_formula_residual(trace, branch_set, branch, time_index):
    """Compare d(lambda)/dt against the first-order spectral response.

    Returns ``(fd, rhs, relative_residual)`` where ``fd`` is the central
    finite difference of the branch value and

        rhs = lambda * sum_i (R_i - r) phi_i^2 dual_i

    (the mean-zero form; the raw form subtracts ``r * lambda`` from the
    curvature integral). The residual is normalized by
    ``|lambda| * (max|R - r| + 1e-12)``, the natural magnitude of both sides;
    the 1e-12 keeps the scale positive at constant curvature.

    Raises
    ------
    BranchCrossingError
        If the branch is flagged anywhere on the stencil (no differentiable
        branch exists through a crossing).
    """
    samples = trace.snapshot_samples()
    times = branch_set.times
    if len(samples) != times.shape[0] or abs(samples[time_index].t - times[time_index]) > 1e-12:
        raise ValueError("branch set does not match the trace's snapshots")
    if not 0 < time_index < len(samples) - 1:
        raise IndexError("need both time neighbors")
    if branch_set.flagged[branch, time_index - 1 : time_index + 2].any():
        raise BranchCrossingError(
            f"branch {branch} is flagged near time index {time_index}"
        )

    lam = branch_set.values[branch, time_index]
    phi = branch_set.vectors[time_index][:, branch]
    fld = samples[time_index].curvature
    rhs = lam * float(np.sum((fld.R - fld.r) * phi * phi * fld.dual_area))

    stencil = slice(time_index - 1, time_index + 2)
    fd = float(central_difference(times[stencil], branch_set.values[branch, stencil]))
    scale = abs(lam) * fld.max_deviation() + 1e-12 * abs(lam)
    return fd, rhs, abs(fd - rhs) / scale


def active_interior(samples):
    """Interior sample indices where ``max|R - r|`` is at least 20x its last value.

    The residual statistics are normalized by that deviation; later, both
    sides of each law are numerically zero and their ratio is noise.
    """
    floor = 20.0 * samples[-1].curvature.max_deviation()
    return [
        j for j in range(1, len(samples) - 1) if samples[j].curvature.max_deviation() >= floor
    ]


def evolution_residual_median(trace, branch_set, branches):
    """Median relative evolution-formula residual over unflagged samples.

    ``branches`` lists branch ids (1 is the first nonzero mode). Samples
    are restricted to the active phase (see ``active_interior``), so the
    residual normalization stays meaningful.
    """
    residuals = []
    for j in active_interior(trace.snapshot_samples()):
        for b in branches:
            try:
                residuals.append(evolution_formula_residual(trace, branch_set, b, j)[2])
            except BranchCrossingError:
                continue
    if not residuals:
        raise ValueError("no unflagged active samples to evaluate")
    return float(np.median(residuals)), len(residuals)


def dual_area_rate_residuals(trace):
    """Relative errors of d(dual_i)/dt against (r - R_i) * dual_i.

    Evaluated by central differences across full samples, restricted to the
    active phase (see ``active_interior``) and to vertices where
    ``|R_i - r|`` is at least 0.1 times the current deviation (elsewhere
    both sides are numerically zero and their ratio is noise).
    """
    samples = trace.snapshot_samples()
    errors = []
    for j in active_interior(samples):
        mid = samples[j].curvature
        dev = mid.max_deviation()
        trio = samples[j - 1 : j + 2]
        fd = central_difference([s.t for s in trio], [s.curvature.dual_area for s in trio])
        rhs = (mid.r - mid.R) * mid.dual_area
        mask = np.abs(mid.R - mid.r) >= 0.1 * dev
        if mask.any():
            errors.append(np.abs(fd - rhs)[mask] / np.abs(rhs)[mask])
    if not errors:
        raise ValueError("no active samples to evaluate")
    return np.concatenate(errors)


def normalization_rate_residuals(trace, branch_set, branches):
    """Check the eigenfunction normalization derivative along branches.

    Differentiating mass-normalization in time gives
    ``2 * sum_i phi_i (d phi_i/dt) dual_i = sum_i phi_i^2 R_i dual_i - r``.
    Returns relative errors (scaled by ``max|R - r|``) over unflagged
    samples of the active phase (see ``active_interior``).
    """
    samples = trace.snapshot_samples()
    errors = []
    for j in active_interior(samples):
        fld = samples[j].curvature
        dev = fld.max_deviation()
        for b in branches:
            if branch_set.flagged[b, j - 1 : j + 2].any():
                continue
            phis = [v[:, b] for v in branch_set.vectors[j - 1 : j + 2]]
            dphi = central_difference(branch_set.times[j - 1 : j + 2], phis)
            phi_mid = phis[1]
            lhs = 2.0 * float(np.sum(phi_mid * dphi * fld.dual_area))
            rhs = float(np.sum(phi_mid * phi_mid * fld.R * fld.dual_area)) - fld.r
            errors.append(abs(lhs - rhs) / dev)
    if not errors:
        raise ValueError("no unflagged active samples to evaluate")
    return np.asarray(errors)


def pde_residual_median(trace):
    """Median pointwise curvature-law residual over active interior samples.

    The residual needs no spectrum, so every stored sample counts, including
    one whose eigensolve failed.
    """
    pooled = [np.abs(curvature_pde_residual(trace, j)) for j in active_interior(trace.samples)]
    if not pooled:
        raise ValueError("no active interior samples")
    return float(np.median(np.concatenate(pooled)))
