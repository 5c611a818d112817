import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricciflow import (
    ConformalMetric,
    PerturbationError,
    TriangleInequalityError,
    assemble_operators,
    current_lengths,
    generate_genus2,
    measure_curvature,
    metric_area,
    normalize_area,
    perturb_metric,
    scale_metric,
)
from ricciflow.geometry import squared_lengths

from meshes import flat_torus_metric, icosphere_metric, tetrahedron_metric
from oracles import dense_eigenpairs


def test_lengths_identity(tetra_metric):
    assert np.array_equal(current_lengths(tetra_metric), tetra_metric.base_lengths)


def test_lengths_uniform_scaling(tetra_metric):
    scaled = tetra_metric.with_u(np.full(4, np.log(4.0)))
    assert np.allclose(current_lengths(scaled), 4.0 * tetra_metric.base_lengths, rtol=1e-15)
    assert np.isclose(metric_area(scaled), 16.0 * metric_area(tetra_metric), rtol=1e-14)


def test_lengths_single_vertex_factor(tetra_metric):
    u = np.zeros(4)
    u[0] = np.log(4.0)
    lengths = current_lengths(tetra_metric.with_u(u))
    mesh = tetra_metric.mesh
    touches_0 = (mesh.edges == 0).any(axis=1)
    assert np.allclose(lengths[touches_0], 2.0, rtol=1e-15)
    assert np.allclose(lengths[~touches_0], 1.0, rtol=1e-15)


def test_tetrahedron_defects(tetra_metric):
    fld = measure_curvature(tetra_metric)
    assert np.allclose(fld.defect, np.pi, atol=1e-13)
    assert abs(fld.defect.sum() - 2.0 * np.pi * 2) < 1e-12
    assert np.isclose(fld.total_area, np.sqrt(3.0), rtol=1e-14)


def test_flat_torus_is_flat(torus16_metric):
    fld = measure_curvature(torus16_metric)
    assert np.abs(fld.defect).max() < 1e-12
    assert np.abs(fld.R).max() < 1e-9
    assert fld.r == 0.0


def test_genus2_average_curvature_unit_area():
    mesh, lengths = generate_genus2(1)
    metric = normalize_area(ConformalMetric.flat(mesh, lengths), 1.0)
    fld = measure_curvature(metric)
    assert np.isclose(fld.r, -8.0 * np.pi, rtol=1e-12)
    assert np.isclose(fld.total_area, 1.0, rtol=1e-12)


def test_area_minus_two_pi_chi_gives_r_minus_two(octagon1):
    # hyperbolic normalization: average scalar curvature -2 (Gaussian -1)
    fld = measure_curvature(octagon1)
    assert np.isclose(fld.r, -2.0, rtol=1e-12)


@pytest.mark.parametrize("factory", [tetrahedron_metric, lambda: flat_torus_metric(8),
                                     lambda: icosphere_metric(1)])
def test_gauss_bonnet_random_factors(factory):
    metric = factory()
    rng = np.random.default_rng(42)
    for _ in range(3):
        u = 0.2 * rng.standard_normal(metric.mesh.vertex_count)
        fld = measure_curvature(metric.with_u(u))
        assert abs(fld.defect.sum() - 2.0 * np.pi * metric.mesh.chi) < 1e-9
        assert np.isclose(fld.dual_area.sum(), fld.total_area, rtol=1e-12)


def test_angle_sums(octagon0):
    # the corner angles measure_curvature sums, from the kernel's face terms
    _, area, cos_terms = octagon0.mesh.kernel.faces(squared_lengths(octagon0))
    angles = np.arctan2(4.0 * area, cos_terms)  # corner-major, shape (3, F)
    assert np.abs(angles.sum(axis=0) - np.pi).max() < 1e-12


def test_scale_identity(octagon0):
    assert scale_metric(octagon0, 1.0) is octagon0


def test_scale_shifts_u_and_curvature(octagon0):
    scaled = scale_metric(octagon0, 3.0)
    assert np.allclose(scaled.u - octagon0.u, 0.5 * np.log(3.0), rtol=0, atol=0)
    f0 = measure_curvature(octagon0)
    f1 = measure_curvature(scaled)
    assert np.isclose(f1.total_area, 3.0 * f0.total_area, rtol=1e-13)
    assert np.allclose(f1.R, f0.R / 3.0, rtol=1e-12)
    assert np.isclose(f1.r, f0.r / 3.0, rtol=1e-13)


def test_scale_composition_near_exact(octagon0):
    # float addition cannot make this bit-exact for arbitrary factors, but it
    # must hold to the last couple of ulps
    twice = scale_metric(scale_metric(octagon0, 0.7), 3.1)
    once = scale_metric(octagon0, 0.7 * 3.1)
    np.testing.assert_array_max_ulp(twice.u, once.u, maxulp=4)


def test_gauge_consistency(octagon0):
    shift = 0.37
    gauged = ConformalMetric(
        octagon0.mesh,
        octagon0.base_lengths * np.exp(shift),
        octagon0.u - shift,
    )
    f0 = measure_curvature(octagon0)
    f1 = measure_curvature(gauged)
    assert np.allclose(f1.R, f0.R, rtol=1e-12)
    assert np.isclose(f1.total_area, f0.total_area, rtol=1e-12)


def test_normalize_area(octagon0):
    metric = normalize_area(octagon0, 2.5)
    assert np.isclose(metric_area(metric), 2.5, rtol=1e-13)


def test_perturb_zero_amplitude(octagon1):
    metric, (alpha, beta) = perturb_metric(octagon1, 0.0, 5)
    assert metric is octagon1 or np.array_equal(metric.u, octagon1.u)
    fld = measure_curvature(octagon1)
    assert alpha < fld.R_min and beta > fld.R_max


def test_perturb_pair_windows_overlap(octagon1):
    plus, wp = perturb_metric(octagon1, 0.02, 9)
    minus, wm = perturb_metric(octagon1, -0.02, 9)
    assert not np.array_equal(plus.u, minus.u)
    assert np.isclose(metric_area(plus), metric_area(minus), rtol=1e-12)
    assert np.isclose(metric_area(plus), metric_area(octagon1), rtol=1e-12)
    # the windows bracket the same base metric, so they overlap
    assert max(wp[0], wm[0]) < min(wp[1], wm[1])
    assert wp[1] < 0.0 and wm[1] < 0.0


@functools.lru_cache(maxsize=None)
def _hyperbolic_base(level):
    mesh, lengths = generate_genus2(level)
    return normalize_area(ConformalMetric.flat(mesh, lengths), -2.0 * np.pi * mesh.chi)


@pytest.mark.parametrize(
    "level, amplitudes, seed, alpha, beta",
    [
        (2, (0.02,), 11, -2.2642490142671234, -1.7132737651487213),
        (3, (0.02,), 11, -2.264342078149188, -1.7336423972367125),
        (3, (0.02, -0.02), 5, -2.296009545383086, -1.7215800409821642),
    ],
)
def test_perturbed_windows_pinned(level, amplitudes, seed, alpha, beta):
    # The flow experiments start from these surfaces. Eigenvectors of the
    # symmetric base have entries tied up to sign, so a last-bit change in
    # the eigensolver could flip a mode and silently change the surface.
    windows = [perturb_metric(_hyperbolic_base(level), a, seed)[1] for a in amplitudes]
    merged = (min(w[0] for w in windows), max(w[1] for w in windows))
    assert merged == pytest.approx((alpha, beta), rel=1e-9, abs=0)


@pytest.mark.parametrize("amplitude", [0.3, 2.5])
def test_perturb_excessive_amplitude(octagon1, amplitude):
    with pytest.raises(PerturbationError):
        perturb_metric(octagon1, amplitude, 9)


def test_perturb_requires_negative_curvature(torus16_metric):
    with pytest.raises(PerturbationError):
        perturb_metric(torus16_metric, 0.01, 1)


def test_triangle_inequality_violation_detected(octagon0):
    # blowing up both endpoints of one edge stretches it past the other two
    # sides of its faces (those scale by only half the exponent)
    a, b = octagon0.mesh.edges[0]
    u = octagon0.u.copy()
    u[a] += 5.0
    u[b] += 5.0
    with pytest.raises(TriangleInequalityError):
        current_lengths(octagon0.with_u(u))


def test_degenerate_triangle_detected(tetra_metric):
    # face (0, 1, 2) exactly collinear: c = a + b, so 16 A^2 = 0; the other
    # three faces are valid
    mesh = tetra_metric.mesh
    lengths = np.full(mesh.edge_count, 2.0)
    edge_ids = {tuple(edge): e for e, edge in enumerate(mesh.edges.tolist())}
    lengths[[edge_ids[(0, 1)], edge_ids[(1, 2)]]] = 1.0
    flat_face = ConformalMetric.flat(mesh, lengths)
    with pytest.raises(TriangleInequalityError):
        mesh.kernel.faces(squared_lengths(flat_face))
    with pytest.raises(TriangleInequalityError):
        measure_curvature(flat_face)


_SMALL_MESHES = {
    "tetrahedron": tetrahedron_metric,
    "torus": lambda: flat_torus_metric(6),
    "icosphere": lambda: icosphere_metric(1),
    "octagon0": lambda: normalize_area(ConformalMetric.flat(*generate_genus2(0)), 1.0),
}


@functools.lru_cache(maxsize=None)
def _smooth_modes(name):
    """A small mesh's metric and its lowest nonconstant Laplace eigenvectors."""
    metric = _SMALL_MESHES[name]()
    vecs = dense_eigenpairs(*assemble_operators(metric), k=4)[1][:, 1:]
    return metric, vecs / np.abs(vecs).max(axis=0)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_SMALL_MESHES)),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    amplitude=st.floats(-0.3, 0.3),
)
def test_kernel_identities_on_smooth_factors(name, coeffs, amplitude):
    base, modes = _smooth_modes(name)
    metric = base.with_u(amplitude * (modes @ np.array(coeffs)) / 3.0)
    fld = measure_curvature(metric)
    assert abs(fld.defect.sum() - 2.0 * np.pi * metric.mesh.chi) < 1e-9
    stiffness, mass = assemble_operators(metric)
    assert abs(stiffness - stiffness.T).max() == 0.0
    row_sums = stiffness @ np.ones(metric.mesh.vertex_count)
    assert np.abs(row_sums).max() <= 1e-12 * np.abs(stiffness.diagonal()).max()
    assert np.isclose(mass.sum(), fld.total_area, rtol=1e-12)
    assert np.array_equal(mass, fld.dual_area)  # both from one kernel
