"""Conformal metric state and intrinsic measurements.

A metric is a set of positive base edge lengths plus one logarithmic
conformal factor per vertex; every geometric quantity (angles, areas,
curvature) is derived from the current lengths

    l_e = exp((u_i + u_j) / 2) * l0_e,     e = (i, j).

All of it comes from one per-mesh :class:`MeshKernel` working on squared
lengths: for a face with squared side lengths ``q_k`` (side ``k`` opposite
corner ``k``) and ``s = q_0 + q_1 + q_2``, ``16 A^2 = s^2 - 2 sum q_k^2``, the
law-of-cosines term at corner ``k`` is ``s - 2 q_k = b^2 + c^2 - a^2``, the
corner angle is ``atan2(4 A, s - 2 q_k)`` and its cotangent
``(s - 2 q_k) / (4 A)``. In this stable form the three angles of a face sum
to pi at machine precision and angle defects telescope to 2 * pi * chi
combinatorially. Per-corner arrays are corner-major, shape ``(3, F)``, so
each of ``q[0]``, ``q[1]``, ``q[2]`` is contiguous; the flattened index of
corner ``k`` of face ``t`` is ``k * F + t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import PerturbationError, TriangleInequalityError
from .mesh import TriangleMesh


@dataclass(frozen=True)
class ConformalMetric:
    """Base edge lengths plus per-vertex log conformal factors.

    Value semantics: instances are never mutated; operations return new
    metrics sharing the mesh and base lengths.
    """

    mesh: TriangleMesh
    base_lengths: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        base = np.ascontiguousarray(self.base_lengths, dtype=np.float64)
        u = np.ascontiguousarray(self.u, dtype=np.float64)
        if base.shape != (self.mesh.edge_count,):
            raise ValueError("base_lengths must have one entry per edge")
        if u.shape != (self.mesh.vertex_count,):
            raise ValueError("u must have one entry per vertex")
        if np.any(base <= 0.0) or not np.all(np.isfinite(base)):
            raise ValueError("base lengths must be positive and finite")
        object.__setattr__(self, "base_lengths", base)
        object.__setattr__(self, "u", u)

    @classmethod
    def flat(cls, mesh, base_lengths):
        """Metric with u = 0, i.e. the base lengths themselves."""
        return cls(mesh, base_lengths, np.zeros(mesh.vertex_count))

    def with_u(self, u):
        return ConformalMetric(self.mesh, self.base_lengths, u)


@dataclass(frozen=True)
class CurvatureField:
    """Pointwise discrete curvature data of one metric.

    ``defect`` is the angle defect (integrated Gaussian curvature) per
    vertex, ``dual_area`` the barycentric dual area, and ``R`` the scalar
    curvature ``2 * defect / dual_area``. ``r`` is the average scalar
    curvature ``4 * pi * chi / total_area``, constant under the flow.
    """

    defect: np.ndarray
    dual_area: np.ndarray
    R: np.ndarray
    r: float
    R_min: float
    R_max: float
    total_area: float

    def max_deviation(self):
        """sup |R - r|."""
        return max(self.R_max - self.r, self.r - self.R_min)


def squared_lengths(metric):
    """Squared current edge lengths ``e^{u_i} e^{u_j} l0_e^2`` (no face check)."""
    base = metric.base_lengths
    return metric.mesh.kernel.squared_lengths(base * base, metric.u)


def current_lengths(metric):
    """Current edge lengths ``exp((u_i + u_j)/2) * base``.

    Raises :class:`TriangleInequalityError` if any face degenerates, which
    signals the caller (typically the flow driver) to shrink its step.
    """
    sq = squared_lengths(metric)
    metric.mesh.kernel.faces(sq)
    return np.sqrt(sq)


def measure_curvature(metric):
    """Angle defects, dual areas, and scalar curvature of a metric."""
    return metric.mesh.kernel.curvature(squared_lengths(metric))


def metric_area(metric):
    """Total area of the current metric."""
    _, area, _ = metric.mesh.kernel.faces(squared_lengths(metric))
    return float(area.sum())


class MeshKernel:
    """Index structures of one mesh that turn squared edge lengths into geometry.

    Built once per mesh and cached on it as :attr:`TriangleMesh.kernel`;
    read-only, so threads may share it. :meth:`faces` is the one place where
    areas and law-of-cosines terms are computed, and :meth:`velocity` the one
    place where the flow's velocity is.
    """

    def __init__(self, mesh):
        n = self.vertex_count = mesh.vertex_count
        f = mesh.triangle_count
        self.edges_by_corner = np.ascontiguousarray(mesh.triangle_edges.T)
        self.edge0 = mesh.edges[:, 0]
        self.edge1 = mesh.edges[:, 1]
        self.four_pi_chi = 4.0 * np.pi * mesh.chi
        # V x 3F corner incidence with unit data; each row lists its corners
        # in face order, so sums over a vertex's corners add in face order
        corners = mesh.triangles.reshape(-1)
        by_vertex = np.argsort(corners, kind="stable")  # face-major ids t * 3 + k
        indptr = np.concatenate([[0], np.cumsum(np.bincount(corners, minlength=n))])
        self.corner_sum = sparse.csr_matrix(
            (np.ones(3 * f), (by_vertex % 3) * f + by_vertex // 3, indptr), shape=(n, 3 * f)
        )
        self.dual_sum = sparse.csr_matrix(
            (np.full(3 * f, 1.0 / 3.0), (corners, np.repeat(np.arange(f), 3))),
            shape=(n, f),
        )
        # Fixed CSR pattern of L; csr_order puts its entries, listed as the
        # diagonal and then every edge both ways, into CSR order.
        rows = np.concatenate([np.arange(n), self.edge0, self.edge1])
        cols = np.concatenate([np.arange(n), self.edge1, self.edge0])
        self.csr_order = np.lexsort((cols, rows))
        self.csr_indices = cols[self.csr_order]
        self.csr_indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])

    def squared_lengths(self, base_sq, u):
        w = np.exp(u)
        return base_sq * w[self.edge0] * w[self.edge1]

    def faces(self, sq):
        """Per-face ``(q, area, cos_terms)`` from squared edge lengths ``sq``.

        ``q[k, t]`` is the squared length opposite corner ``k`` of face ``t``
        and ``cos_terms[k, t] = s - 2 q[k, t]`` (see the module docstring);
        both have shape ``(3, F)``. Raises :class:`TriangleInequalityError`
        if some face has ``16 A^2 <= 0`` or a non-finite value.
        """
        q = sq[self.edges_by_corner]
        q0, q1, q2 = q
        s = q0 + q1 + q2
        s16 = s * s - 2.0 * (q0 * q0 + q1 * q1 + q2 * q2)
        if not s16.min() > 0.0:  # written so that NaN fails too
            face = int(np.argmin(s16))
            raise TriangleInequalityError(
                f"triangle inequality violated in face {face}", face=face
            )
        area = 0.25 * np.sqrt(s16)
        return q, area, s - 2.0 * q

    def curvature(self, sq):
        """CurvatureField of the metric with squared edge lengths ``sq``."""
        _, area, cos_terms = self.faces(sq)
        return self._field(area, cos_terms)

    def _field(self, area, cos_terms):
        """CurvatureField from the per-face ``area`` and ``cos_terms`` of :meth:`faces`."""
        angles = np.arctan2(4.0 * area, cos_terms)
        angle_sum = self.corner_sum @ angles.reshape(-1)
        dual = self.dual_sum @ area
        defect = 2.0 * np.pi - angle_sum
        scalar = 2.0 * defect / dual
        total = float(area.sum())
        return CurvatureField(
            defect=defect,
            dual_area=dual,
            R=scalar,
            r=self.four_pi_chi / total,
            R_min=float(scalar.min()),
            R_max=float(scalar.max()),
            total_area=total,
        )

    def velocity(self, base_sq, u):
        """Area-preserving flow velocity ``(r_hat - R)/2`` of state ``u``, and its field.

        ``base_sq`` holds the squared base lengths. ``r_hat``, the
        area-gradient-weighted curvature mean, agrees with 4*pi*chi/area to
        O(h^2) and exactly at constant curvature, and makes the semidiscrete
        flow conserve the discrete area identically, so the per-step
        renormalization stays at integrator-error size.
        """
        q, area, cos_terms = self.faces(self.squared_lengths(base_sq, u))
        field = self._field(area, cos_terms)
        # per-corner area gradient dA_T/du: (adjacent squared lengths,
        # cotangent weighted) / 4, whose three corners sum to 2 A_T exactly,
        # the uniform-scaling identity
        grad = area - (q * cos_terms) / (16.0 * area)
        g = self.corner_sum @ grad.reshape(-1)  # dA/du per vertex
        shift = -(field.r * g.sum() - g @ field.R) / (4.0 * field.total_area)
        return 0.5 * (field.r - field.R) + shift, field

    def rescaled(self, field, c, target_area):
        """``field`` of a metric scaled by ``c`` (areas x c) to total area
        ``target_area``, without re-measuring: angles, hence defects, stay."""
        return CurvatureField(
            defect=field.defect,
            dual_area=field.dual_area * c,
            R=field.R / c,
            r=self.four_pi_chi / target_area,
            R_min=field.R_min / c,
            R_max=field.R_max / c,
            total_area=target_area,
        )

    def operators(self, sq):
        """``(L, mass)`` as documented in :func:`ricciflow.spectrum.assemble_operators`."""
        n = self.vertex_count
        _, area, cos_terms = self.faces(sq)
        half_cot = (cos_terms / (8.0 * area)).reshape(-1)
        weight = np.bincount(self.edges_by_corner.reshape(-1), weights=half_cot)
        diag = np.bincount(self.edge0, weight, n) + np.bincount(self.edge1, weight, n)
        entries = np.concatenate([diag, -weight, -weight])[self.csr_order]
        stiffness = sparse.csr_matrix((entries, self.csr_indices, self.csr_indptr), shape=(n, n))
        return stiffness, self.dual_sum @ area


def scale_metric(metric, c):
    """Multiply total area by ``c`` (a uniform conformal scaling).

    Adds ``ln(c) / 2`` to every conformal factor; lengths scale by
    ``sqrt(c)``, curvature by ``1 / c``.
    """
    c = float(c)
    if c <= 0.0:
        raise ValueError("scale factor must be positive")
    if c == 1.0:
        return metric
    return metric.with_u(metric.u + 0.5 * np.log(c))


def normalize_area(metric, target):
    """Uniformly rescale so the total area equals ``target`` exactly."""
    return scale_metric(metric, target / metric_area(metric))


def curvature_window(field):
    """Strict curvature bounds ``(alpha, beta)`` measured from a field.

    The margin ``1e-6 |R_min|`` keeps the bounds strict for the discrete
    minimizer/maximizer, mirroring the open bounds the comparison results
    assume.
    """
    margin = 1e-6 * abs(field.R_min)
    return field.R_min - margin, field.R_max + margin


def perturb_metric(metric, amplitude, mode_seed):
    """Deterministic smooth perturbation of a negatively curved metric.

    ``u`` is shifted by ``amplitude`` times a fixed combination of low
    Laplace eigenvectors (selected by ``mode_seed``), then the area is
    renormalized to its original value.

    Returns
    -------
    (ConformalMetric, (float, float))
        The perturbed metric and its measured curvature window
        ``(alpha, beta)`` with ``alpha < R < beta``.

    Raises
    ------
    PerturbationError
        If the base metric is not negatively curved, or the amplitude is
        large enough to push the maximum curvature to zero or above.
    """
    base_field = measure_curvature(metric)
    if base_field.R_max >= 0.0:
        raise PerturbationError("base metric must have strictly negative curvature")

    if amplitude == 0.0:
        return metric, curvature_window(base_field)

    from .spectrum import EIG_TOL, assemble_operators, smallest_eigenpairs

    n_modes = min(8, metric.mesh.vertex_count // 2 - 1)
    stiffness, mass = assemble_operators(metric)
    snap = smallest_eigenpairs(stiffness, mass, n_modes, tol=EIG_TOL, seed=mode_seed)
    rng = np.random.default_rng(mode_seed)
    coeffs = rng.standard_normal(n_modes - 1)
    shape = snap.eigenvectors[:, 1:] @ coeffs
    shape /= np.abs(shape).max()

    try:
        candidate = metric.with_u(metric.u + amplitude * shape)
        candidate = normalize_area(candidate, base_field.total_area)
        field = measure_curvature(candidate)
    except TriangleInequalityError as exc:
        raise PerturbationError(f"perturbation too large: {exc}") from exc
    if field.R_max >= 0.0:
        raise PerturbationError(
            f"perturbation produced non-negative curvature (R_max={field.R_max:.3g})"
        )
    return candidate, curvature_window(field)
