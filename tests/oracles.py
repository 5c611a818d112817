"""Reference computations that the tests compare the package with; no run
calls them. The residual stencils here read the snapshots' eigenvectors,
which a run drops once it has tracked them."""

from dataclasses import replace

import numpy as np
from scipy import sparse
from scipy.linalg import eigh

from ricciflow.errors import EigensolverError
from ricciflow.flow import _rk4, central_difference, solve_sample
from ricciflow.tracking import _branch_stencil, _evolution_stencil, active_interior


def dense_eigenpairs(stiffness, mass, k=None):
    """Brute-force dense generalized eigensolve, for small meshes."""
    dense = stiffness.toarray() if sparse.issparse(stiffness) else np.asarray(stiffness)
    vals, vecs = eigh(dense, np.diag(mass))
    if k is not None:
        vals, vecs = vals[:k], vecs[:, :k]
    return vals, vecs


def rk4_step(metric, dt):
    """One RK4 step of size ``dt`` from ``metric``, area-renormalized; a step
    that breaks a triangle inequality raises TriangleInequalityError."""
    kernel, base_sq = metric.mesh.kernel, metric.base_lengths * metric.base_lengths
    v1, fld = kernel.velocity(base_sq, metric.u)
    u_next, _, _ = _rk4(kernel, base_sq, metric.u, v1, dt, fld.total_area)
    return metric.with_u(u_next)


def solve_every_sample(trace):
    """Fill in ``trace``'s spectra with every sample solved here, in time order.

    A failed interior solve leaves its sample without a spectrum and adds the
    warning a run adds; the first and the last samples are not meant to fail.
    """
    inputs = trace.mesh, trace.base_lengths, trace.config
    for i, s in enumerate(trace.samples):
        try:
            trace.samples[i] = replace(s, spectrum=solve_sample(*inputs, s.t, s.u))
        except EigensolverError as exc:
            trace.warnings.append(f"eigensolver failed at t={s.t:.6g}: {exc}")


def _stencil(branch_set, branch, j):
    """Snapshots j-1, j, j+1; ValueError where ``branch`` is flagged on them."""
    if not 0 < j < branch_set.times.shape[0] - 1:
        raise IndexError("central scheme needs both time neighbors")
    if branch_set.flagged[branch, j - 1 : j + 2].any():
        raise ValueError(f"branch {branch} is flagged near time index {j}")
    return slice(j - 1, j + 2)


def branch_log_derivative(branch_set, branch, j):
    """Central finite-difference d(log lambda)/dt along ``branch`` at snapshot j."""
    stencil = _stencil(branch_set, branch, j)
    return float(central_difference(branch_set.times[stencil],
                                    np.log(branch_set.values[branch, stencil])))


def branch_vector(trace, branch_set, branch, j):
    """The vector of ``branch`` at snapshot j, sign fixed, read from ``trace``."""
    snaps = trace.snapshots()
    assert np.array_equal([s.t for s in snaps], branch_set.times)
    return snaps[j].eigenvectors[:, branch_set.columns[branch, j]] * branch_set.signs[branch, j]


def evolution_formula(trace, branch_set, branch, j):
    """``(fd, rhs, relative_residual)`` of the spectral evolution formula along
    ``branch`` at snapshot j (see ``tracking._evolution_stencil``)."""
    stencil = _stencil(branch_set, branch, j)
    return _evolution_stencil(branch_set.times[stencil], branch_set.values[branch, stencil],
                              branch_vector(trace, branch_set, branch, j),
                              trace.snapshot_samples()[j].curvature)


def law_residuals(trace, branch_set, branches, law):
    """The raw residuals of ``law`` (0: the evolution formula, 1: the
    normalization law) that the residual statistics read from a tracked
    set's ``stencil_residuals``, in their order."""
    samples = trace.snapshot_samples()
    found = []
    for j in active_interior(samples):
        stencil = slice(j - 1, j + 2)
        for b in (b for b in branches if not branch_set.flagged[b, stencil].any()):
            phis = [branch_vector(trace, branch_set, b, i) for i in range(j - 1, j + 2)]
            found.append(_branch_stencil(branch_set.times[stencil], branch_set.values[b, stencil],
                                         phis, samples[j].curvature)[law])
    return found


def evolution_residual_median(trace, branch_set, branches):
    """``tracking.evolution_residual_median`` over ``law_residuals``."""
    residuals = law_residuals(trace, branch_set, branches, 0)
    return float(np.median(residuals)), len(residuals)
