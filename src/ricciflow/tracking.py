"""Eigenvalue branches along a flow, and the residual statistics of its evolution laws.

Sorted eigenvalue labels are merely continuous in time; the quantities the
theory differentiates live on *branches*, followed here by mass-weighted
eigenvector overlap between consecutive snapshots. Crossings (or clusters
too tight to resolve) are flagged, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import central_difference, curvature_pde_residual

DEFAULT_OVERLAP_MIN = 0.6
DEFAULT_GAP_TOL = 1e-3  # relative to the largest computed eigenvalue


@dataclass(frozen=True)
class BranchSet:
    """Eigenvalue branches over the snapshot times of one flow.

    ``values[b, j]`` is branch ``b`` at time ``times[j]``, column ``columns[b, j]``
    of snapshot j, whose eigenvector times ``signs[b, j]`` (±1.0) is continuous
    along the branch; that column of the snapshot is the one stored form of
    the branch's vector. ``flagged[b, j]`` marks overlap failures and
    near-degeneracies, where branch identity (and any derivative along it) is
    unreliable. ``sorted_values`` is the ascending relabeling.

    A set tracked with each snapshot's curvature field (an experiment's, whose
    snapshots keep no eigenvectors) has ``stencil_residuals[law, i, j]``: the
    raw residual of ``law`` (0: the spectral evolution formula, 1: the
    normalization law) along branch ``branches[i]`` at the middle of the
    stencil j-1, j, j+1, NaN at the two ends. The residual statistics read
    those alone; a set tracked without fields has none.
    """

    times: np.ndarray
    values: np.ndarray
    branches: tuple
    columns: np.ndarray
    signs: np.ndarray
    flagged: np.ndarray
    sorted_values: np.ndarray
    stencil_residuals: np.ndarray | None = None

    @property
    def k(self):
        return self.values.shape[0]

    def row(self, branch):
        """Position of kept branch ``branch`` in ``branches``; KeyError for any other."""
        if branch not in self.branches:
            raise KeyError(f"branch {branch} was not kept; kept branches: {list(self.branches)}")
        return self.branches.index(branch)


class BranchTracker:
    """Branches of spectrum snapshots added one at a time, in time order.

    ``add`` matches a snapshot to the previous one (see ``track_branches``)
    and keeps no eigenvector matrix past the next ``add``, so a caller may
    drop each one once it is added. Given each snapshot's curvature field as
    well, ``add`` evaluates the residual stencil that the snapshot completes
    along ``branches`` (every branch if None), from the rows of those
    branches' vectors of the last two snapshots and the new one; it keeps no
    other rows.
    """

    def __init__(self, branches=None):
        self.branches = None if branches is None else tuple(branches)
        self.times, self.values, self.columns, self.signs = [], [], [], []
        self.crossings = []  # (branch, j): no overlap match from time j - 1 to j
        self.fields = None  # the last two curvature fields, if every snapshot came with one
        self.rows = []  # the last two snapshots' kept-branch vectors, if fields are given
        self.stencils = []  # per interior snapshot, the _branch_stencil of each kept branch
        self._prev = None  # (permuted, signed eigenvectors, mass) of the last snapshot

    def add(self, snap, curvature=None):
        """Match ``snap`` to the previous snapshot and record its branches;
        ``curvature`` is the field of the sample ``snap`` was solved from."""
        if snap.eigenvectors is None:
            raise ValueError(f"snapshot at t={snap.t:.6g} has no eigenvectors to track")
        if self.times and (curvature is None) != (self.fields is None):
            raise ValueError("give every snapshot its curvature field, or none")
        k, n = snap.k, snap.eigenvectors.shape[0]
        if self._prev is None:
            self.branches = tuple(range(k)) if self.branches is None else self.branches
            cols, sign = np.arange(k), np.ones(k)
            # C-ordered, as the next overlap's bits depend on its layout
            vecs = snap.eigenvectors.copy()
            self.fields = None if curvature is None else []
        else:
            prev_vecs, prev_mass = self._prev
            if (k, n) != (len(self.values[-1]), prev_vecs.shape[0]):
                raise ValueError("snapshots disagree on k or mesh size")
            inner = prev_vecs.T @ (prev_mass[:, None] * snap.eigenvectors)
            assignment, crossing = _greedy_assign(np.abs(inner), self.values[-1], snap.eigenvalues)
            cols = np.array([assignment[b] for b in range(k)])
            # Keep signs continuous along each branch.
            sign = np.where(inner[np.arange(k), cols] < 0.0, -1.0, 1.0)
            vecs = snap.eigenvectors[:, cols] * sign
            self.crossings += [(b, len(self.times)) for b in crossing]
        self._prev = vecs, snap.mass
        self.times.append(snap.t)
        self.values.append(snap.eigenvalues[cols])
        self.columns.append(cols)
        self.signs.append(sign)
        if self.fields is not None:
            self.fields.append(curvature)
            self.rows.append(np.ascontiguousarray(vecs[:, list(self.branches)].T))
            if len(self.times) >= 3:
                times, values, rows = self.times[-3:], self.values[-3:], self.rows
                self.stencils.append([
                    _branch_stencil(times, [v[b] for v in values], [r[i] for r in rows],
                                    self.fields[-2])
                    for i, b in enumerate(self.branches)
                ])
            del self.rows[:-2], self.fields[:-2]


def track_branches(snapshots):
    """Connect eigenvalues across snapshots by eigenvector overlap.

    Consecutive snapshots are matched greedily on the overlap matrix
    ``O_ab = |phi_a(t)' M(t) phi_b(t + dt)|`` (largest entry first, ties
    broken by eigenvalue proximity then lower index). If the best remaining
    overlap drops below ``DEFAULT_OVERLAP_MIN``, the remaining pairs fall back
    to ascending-value matching and are flagged as crossings. Branches are
    additionally flagged wherever the gap to a sorted neighbor is below
    ``DEFAULT_GAP_TOL`` (relative to the largest eigenvalue at that time). A
    single snapshot gives one-sample branches in eigenvalue order.

    ``snapshots`` is a time-ordered list, fed here to a ``BranchTracker`` of
    every branch, or a tracker already fed, as a run tracks each spectrum
    when it is solved; only a tracker fed curvature fields gives a set with
    ``stencil_residuals``, which the residual statistics need.
    """
    tracker = snapshots
    if not isinstance(tracker, BranchTracker):
        tracker = BranchTracker()
        for snap in snapshots:
            tracker.add(snap)
    if not tracker.times:
        raise ValueError("need at least one snapshot to track branches")
    values = np.stack(tracker.values, axis=1)
    stencils = None
    if tracker.fields is not None:
        stencils = np.full((2, len(tracker.branches), values.shape[1]), np.nan)
        for j, found in enumerate(tracker.stencils, start=1):
            stencils[:, :, j] = np.array(found).T
    flagged = np.zeros(values.shape, dtype=bool)
    for b, j in tracker.crossings:
        flagged[b, j - 1 : j + 1] = True

    # Flag unresolvably close neighbors, where branch identity means little.
    for j in range(values.shape[1]):
        scale = max(values[:, j].max(), 1e-300)
        order = np.argsort(values[:, j], kind="stable")
        sorted_vals = values[order, j]
        gaps = np.diff(sorted_vals)
        tight = gaps < DEFAULT_GAP_TOL * scale
        for pos in np.nonzero(tight)[0]:
            flagged[order[pos], j] = True
            flagged[order[pos + 1], j] = True

    return BranchSet(
        times=np.array(tracker.times),
        values=values,
        branches=tracker.branches,
        columns=np.stack(tracker.columns, axis=1),
        signs=np.stack(tracker.signs, axis=1),
        flagged=flagged,
        sorted_values=np.sort(values, axis=0),
        stencil_residuals=stencils,
    )


def _greedy_assign(overlap, prev_vals, next_vals):
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
        if best < DEFAULT_OVERLAP_MIN:
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


def _evolution_stencil(times, values, phi, fld):
    """Compare d(lambda)/dt with the first-order spectral response along one
    branch, from its three values and its middle vector ``phi``.

    Returns ``(fd, rhs, relative_residual)``, where ``fd`` is the central
    finite difference of the branch value and

        rhs = lambda * sum_i (R_i - r) phi_i^2 dual_i

    (the mean-zero form; the raw form subtracts ``r * lambda`` from the
    curvature integral). The residual is normalized by
    ``|lambda| * (max|R - r| + 1e-12)``, the natural magnitude of both sides;
    the 1e-12 keeps the scale positive at constant curvature.
    """
    lam = values[1]
    rhs = lam * float(np.sum((fld.R - fld.r) * phi * phi * fld.dual_area))
    fd = float(central_difference(times, values))
    scale = abs(lam) * fld.max_deviation() + 1e-12 * abs(lam)
    return fd, rhs, abs(fd - rhs) / scale


def _normalization_stencil(times, phis, fld):
    """Relative error of the normalization law (see ``normalization_rate_residuals``)
    from one branch's three vectors ``phis``."""
    dphi = central_difference(times, phis)
    phi_mid = phis[1]
    lhs = 2.0 * float(np.sum(phi_mid * dphi * fld.dual_area))
    rhs = float(np.sum(phi_mid * phi_mid * fld.R * fld.dual_area)) - fld.r
    return abs(lhs - rhs) / fld.max_deviation()


def _branch_stencil(times, values, phis, fld):
    """Both laws' raw residuals along one branch at the middle of a
    three-snapshot stencil: the evolution formula's relative residual and the
    normalization law's, from the branch's three values and vectors ``phis``
    and the middle curvature field ``fld``."""
    evolution = _evolution_stencil(times, values, phis[1], fld)[2]
    return evolution, _normalization_stencil(times, phis, fld)


def active_interior(samples):
    """Interior sample indices where ``max|R - r|`` is at least 20x its last value.

    The residual statistics are normalized by that deviation; later, both
    sides of each law are numerically zero and their ratio is noise.
    """
    floor = 20.0 * samples[-1].curvature.max_deviation()
    return [
        j for j in range(1, len(samples) - 1) if samples[j].curvature.max_deviation() >= floor
    ]


def _law_residuals(trace, branch_set, branches, law):
    """Raw residuals of ``law`` (0 or 1, as in ``_branch_stencil``) along
    ``branches`` at every unflagged stencil of the active phase, snapshot by
    snapshot, read from ``branch_set.stencil_residuals``; ``trace``'s samples
    with a spectrum must be the set's snapshots."""
    table, times = branch_set.stencil_residuals, branch_set.times
    if table is None:
        raise ValueError("branch set has no stencil_residuals: track its snapshots "
                         "with their curvature fields")
    samples = trace.snapshot_samples()
    if len(samples) != len(times) or any(abs(s.t - t) > 1e-12 for s, t in zip(samples, times)):
        raise ValueError("branch set does not match the trace's snapshots")
    found = [
        table[law, branch_set.row(b), j]
        for j in active_interior(samples)
        for b in branches
        if not branch_set.flagged[b, j - 1 : j + 2].any()
    ]
    if not found:
        raise ValueError("no unflagged active samples to evaluate")
    return found


def evolution_residual_median(trace, branch_set, branches):
    """Median relative evolution-formula residual (see ``_evolution_stencil``)
    over unflagged samples, and their count.

    ``branches`` lists branch ids (1 is the first nonzero mode). Samples
    are restricted to the active phase (see ``active_interior``), so the
    residual normalization stays meaningful.
    """
    residuals = _law_residuals(trace, branch_set, branches, 0)
    return float(np.median(residuals)), len(residuals)


def dual_area_rate_residuals(trace):
    """Relative errors of d(dual_i)/dt against (r - R_i) * dual_i.

    Evaluated by central differences across full samples, restricted to the
    active phase (see ``active_interior``) and to vertices where
    ``|R_i - r|`` is at least 0.1 times the current deviation (elsewhere
    both sides are numerically zero and their ratio is noise). The rate
    needs no spectrum, so every stored sample counts, including one whose
    eigensolve failed.
    """
    samples = trace.samples
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
    return np.asarray(_law_residuals(trace, branch_set, branches, 1))


def pde_residual_median(trace):
    """Median pointwise curvature-law residual over active interior samples.

    The residual needs no spectrum, so every stored sample counts, including
    one whose eigensolve failed.
    """
    pooled = [np.abs(curvature_pde_residual(trace, j)) for j in active_interior(trace.samples)]
    if not pooled:
        raise ValueError("no active interior samples")
    return float(np.median(np.concatenate(pooled)))
