"""Discrete Laplace and mass operators, and their smallest eigenpairs.

Sign convention: the stiffness operator realizes the Dirichlet energy,
``f' L f = ||grad f||^2 >= 0``, so the generalized eigenvalues of
``L phi = lambda M phi`` are the geometer's non-negative spectrum with a
one-dimensional constant kernel on a connected surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import EigensolverError
from .geometry import squared_lengths

# SuperLU's relaxed supernodes pad each small subtree of the elimination tree
# into one dense block. On the barycentric genus-2 meshes (vertex degrees up
# to 64 at level 3) the padded zeros cost more than the dense kernels save:
# with relax=1 (no relaxation) the level-3 factorization of S - sigma I falls
# from 85 to 18 ms and a solve from 1.25 to 0.54 ms; at level 4 (V = 44,062)
# 371 -> 95 ms and 5.0 -> 2.0 ms. Level 2 takes about 3 ms either way.
SUPERNODE_RELAX = 1
# Panel width of the column blocks. Interleaved medians of 15 factorizations
# (7 at level 4) with relax=1, against SuperLU's default (20) and against 10:
# level 2 2.24 / 2.97 / 2.46 ms, level 3 13.6 / 17.4 / 14.9 ms, level 4
# 71 / 92 / 75 ms. Solve times do not depend on it.
PANEL_SIZE = 4
EIG_TOL = 1e-8  # largest certified residual a flow's or a perturbation's eigensolve accepts


@dataclass(frozen=True)
class SpectrumSnapshot:
    """The k smallest generalized eigenpairs of one metric at flow time t.

    Eigenvalues ascend; eigenvectors are mass-orthonormal columns, and every
    pair carries the certified residual ``||L phi - lambda M phi|| / ||M phi||``.
    The mass diagonal is kept so consumers can form M-inner products. The
    eigenvector columns are the one stored form of the branch vectors that a
    ``BranchSet`` names by column and sign. ``eigenvectors`` and ``mass`` are
    None in an experiment's trace, which tracks each snapshot as it is
    solved, with its sample's curvature field, so that its ``BranchSet``
    holds the residual stencils of the checked branches instead.
    """

    t: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    mass: np.ndarray

    @property
    def k(self):
        return self.eigenvalues.shape[0]


def assemble_operators(metric):
    """Cotangent stiffness matrix and lumped (barycentric) mass diagonal.

    Returns
    -------
    (scipy.sparse.csr_matrix, numpy.ndarray)
        ``L`` with edge weights -(cot t1 + cot t2)/2 off the diagonal and
        zero row sums, and the positive dual-area vector ``mass``.
    """
    return metric.mesh.kernel.operators(squared_lengths(metric))


def smallest_eigenpairs(stiffness, mass, k, tol, seed, t=0.0):
    """The k algebraically smallest eigenpairs of ``L phi = lambda M phi``.

    Shift-invert Lanczos on the standard symmetric form
    ``S = M^{-1/2} L M^{-1/2}`` (same eigenvalues; eigenvectors map back by
    ``M^{-1/2}``), with one SuperLU factorization of ``S - sigma I`` in
    symmetric mode and a fixed start vector, so results are deterministic
    for a fixed seed. The factorization keeps SuperLU's supernodes
    unrelaxed (``SUPERNODE_RELAX``): on meshes with high-degree vertices the
    zeros that relaxed supernodes pad in cost more than their dense kernels
    save, about 5x in factorization and 2x per solve at level 3. Vectors
    are cleaned up afterwards: the kernel vector is replaced by the exact
    constant, the others are projected mass-orthogonal to it and
    re-orthonormalized, and signs are fixed by making the largest-magnitude
    entry positive.

    Raises
    ------
    EigensolverError
        If any certified residual stays above ``tol`` (the best achieved
        residual is attached to the exception).
    """
    n = stiffness.shape[0]
    k = int(k)
    if not 1 <= k < n / 2:
        raise ValueError(f"need 1 <= k < n/2, got k={k}, n={n}")
    total_area = float(mass.sum())
    sigma = -4.0 * np.pi**2 / total_area
    v0 = np.random.default_rng(seed).standard_normal(n)
    sym, inv_sqrt = _symmetric_form(stiffness, mass)
    # S - sigma I is positive definite (S is PSD, sigma < 0): no pivoting
    lu = splu(
        (sym - sigma * sparse.identity(n, format="csr")).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        relax=SUPERNODE_RELAX,
        panel_size=PANEL_SIZE,
        options={"SymmetricMode": True},
    )
    shift_inverse = LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)

    vals = vecs = None
    ncv = None
    for attempt in range(2):
        try:
            vals, vecs = eigsh(
                sym,
                k=k,
                sigma=sigma,
                OPinv=shift_inverse,
                v0=v0,
                tol=0,
                maxiter=2000,
                ncv=ncv,
            )
            break
        except ArpackNoConvergence as exc:
            if attempt == 1:
                raise EigensolverError(
                    f"eigensolver did not converge for k={k}",
                    best_residual=None,
                ) from exc
            ncv = min(n, max(4 * k + 1, 40))

    vecs = inv_sqrt[:, None] * vecs
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]

    # Exact constant kernel vector, then mass-orthonormal cleanup.
    vecs[:, 0] = 1.0 / np.sqrt(total_area)
    vals[0] = _rayleigh(stiffness, mass, vecs[:, 0])
    for a in range(1, k):
        v = vecs[:, a]
        for b in range(a):
            v -= (mass * vecs[:, b] @ v) * vecs[:, b]
        norm = np.sqrt(mass * v @ v)
        if norm == 0.0:
            raise EigensolverError("eigenvector collapsed during orthonormalization")
        vecs[:, a] = v / norm
    for a in range(k):
        lead = np.argmax(np.abs(vecs[:, a]))
        if vecs[lead, a] < 0.0:
            vecs[:, a] = -vecs[:, a]

    residuals = _residuals(stiffness, mass, vals, vecs)
    if np.any(residuals > tol):
        raise EigensolverError(
            f"residuals above tol={tol:g}", best_residual=float(residuals.max())
        )
    snap = SpectrumSnapshot(float(t), vals, vecs, residuals, np.asarray(mass, dtype=float))
    _validate_snapshot(snap)
    return snap


def operator_norm_estimate(stiffness, mass, seed=0):
    """Estimate of the largest eigenvalue of ``M^-1 L`` (for step control)."""
    n = stiffness.shape[0]
    sym, _ = _symmetric_form(stiffness, mass)
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        val = eigsh(
            sym, k=1, which="LA", v0=v0, tol=1e-3, maxiter=500, return_eigenvectors=False
        )
        return float(val[0])
    except ArpackNoConvergence:
        diag = stiffness.diagonal()
        abs_rowsum = np.asarray(np.abs(stiffness).sum(axis=1)).ravel()
        return float(((diag + abs_rowsum) / mass).max())


def _symmetric_form(stiffness, mass):
    """``S = M^{-1/2} L M^{-1/2}``, similar to ``M^-1 L``, and ``M^{-1/2}``."""
    inv_sqrt = 1.0 / np.sqrt(mass)
    return sparse.diags(inv_sqrt) @ stiffness @ sparse.diags(inv_sqrt), inv_sqrt


def _rayleigh(stiffness, mass, v):
    return float(v @ (stiffness @ v) / (mass * v @ v))


def _residuals(stiffness, mass, vals, vecs):
    lhs = stiffness @ vecs
    rhs = mass[:, None] * vecs
    num = np.linalg.norm(lhs - vals[None, :] * rhs, axis=0)
    den = np.linalg.norm(rhs, axis=0)
    return num / den


def _validate_snapshot(snap):
    vals = snap.eigenvalues
    if vals[0] < -1e-9:
        raise EigensolverError(f"operator not PSD: lambda_0 = {vals[0]:g}")
    if snap.k > 1 and vals[0] > 1e-9 * max(vals[1], 1e-300):
        raise EigensolverError("constant kernel not resolved")
    gram = snap.eigenvectors.T @ (snap.mass[:, None] * snap.eigenvectors)
    if np.abs(gram - np.eye(snap.k)).max() > 1e-8:
        raise EigensolverError("eigenvectors not mass-orthonormal")
    means = snap.mass @ snap.eigenvectors[:, 1:]
    if snap.k > 1 and np.abs(means).max() > 1e-6:
        raise EigensolverError("nonzero modes are not mean-free")
