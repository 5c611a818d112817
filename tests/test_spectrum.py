import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from ricciflow import (
    ConformalMetric,
    assemble_operators,
    generate_genus2,
    measure_curvature,
    normalize_area,
    perturb_metric,
    scale_metric,
    smallest_eigenpairs,
)

from ricciflow.spectrum import _rayleigh

from meshes import bolza_surface, flat_torus_metric, icosphere_metric
from oracles import dense_eigenpairs


def test_constant_in_kernel(octagon0):
    stiffness, mass = assemble_operators(octagon0)
    c = np.ones(octagon0.mesh.vertex_count)
    assert np.abs(stiffness @ c).max() < 1e-12
    snap = smallest_eigenpairs(stiffness, mass, 3, tol=1e-8, seed=0)
    assert snap.eigenvalues[0] > -1e-9
    assert snap.eigenvalues[0] < 1e-9 * snap.eigenvalues[1]
    phi0 = snap.eigenvectors[:, 0]
    assert np.allclose(phi0, phi0[0], rtol=0, atol=1e-14)


def test_dirichlet_energy_nonnegative(octagon0):
    stiffness, _ = assemble_operators(octagon0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = rng.standard_normal(octagon0.mesh.vertex_count)
        assert f @ (stiffness @ f) >= -1e-12


def test_flat_torus_five_point_stencil():
    # the diagonal split gives cot(90)=0 on diagonals and two cot(45)/2
    # halves on grid edges, i.e. unit weights: the classic 5-point stencil
    metric = flat_torus_metric(8)
    stiffness, mass = assemble_operators(metric)
    mesh = metric.mesh
    lengths = metric.base_lengths
    h = 1.0 / 8
    dense = stiffness.toarray()
    for e, (a, b) in enumerate(mesh.edges):
        w = -dense[a, b]
        if np.isclose(lengths[e], h):
            assert np.isclose(w, 1.0, atol=1e-12)
        else:
            assert np.isclose(w, 0.0, atol=1e-12)
    assert np.allclose(mass, h * h, rtol=1e-12)


def test_flat_torus_lowest_eigenvalue():
    metric = flat_torus_metric(32)
    stiffness, mass = assemble_operators(metric)
    snap = smallest_eigenpairs(stiffness, mass, 6, tol=1e-8, seed=1)
    lam1 = 4.0 * np.pi**2
    assert abs(snap.eigenvalues[1] - lam1) < 0.02 * lam1
    # (1,0), (-1,0), (0,1), (0,-1) modes: fourfold multiplicity
    assert np.allclose(snap.eigenvalues[1:5], snap.eigenvalues[1], rtol=1e-3)


def test_sphere_lowest_eigenvalue():
    metric = icosphere_metric(3)
    stiffness, mass = assemble_operators(metric)
    snap = smallest_eigenpairs(stiffness, mass, 5, tol=1e-8, seed=1)
    assert abs(snap.eigenvalues[1] - 2.0) < 0.02 * 2.0
    assert np.allclose(snap.eigenvalues[1:4], snap.eigenvalues[1], rtol=2e-3)


def test_dense_oracle_small_mesh(octagon0):
    rng = np.random.default_rng(7)
    for metric in (icosphere_metric(0), octagon0):  # 12 and 32 vertices
        metric = metric.with_u(metric.u + 0.1 * rng.standard_normal(metric.mesh.vertex_count))
        stiffness, mass = assemble_operators(metric)
        snap = smallest_eigenpairs(stiffness, mass, 5, tol=1e-10, seed=3)
        ref, _ = dense_eigenpairs(stiffness, mass, 5)
        assert abs(snap.eigenvalues[0] - ref[0]) < 1e-9
        assert np.allclose(snap.eigenvalues[1:], ref[1:], rtol=1e-8)


def test_matches_mass_generalized_eigsh(octagon1):
    # oracle: shift-invert ARPACK on the generalized problem, with the mass
    # matrix passed to eigsh as M
    metric, _ = perturb_metric(octagon1, 0.02, 11)
    stiffness, mass = assemble_operators(metric)
    snap = smallest_eigenpairs(stiffness, mass, 12, tol=1e-8, seed=3)
    n = mass.shape[0]
    ref = eigsh(
        stiffness.tocsc(),
        k=12,
        M=sparse.diags(mass).tocsc(),
        sigma=-4.0 * np.pi**2 / mass.sum(),
        v0=np.random.default_rng(3).standard_normal(n),
        tol=0,
        maxiter=2000,
        return_eigenvectors=False,
    )
    ref = np.sort(ref)
    assert abs(snap.eigenvalues[0]) < 1e-9 * ref[1]
    assert np.allclose(snap.eigenvalues[1:], ref[1:], rtol=1e-8, atol=0)


def _default_superlu_eigenpairs(stiffness, mass, k, seed):
    """The eigensolve with SuperLU's default supernode relaxation and panel size.

    Same standard form, shift, start vector, eigsh call and cleanup as
    ``smallest_eigenpairs``; only the factorization's tuning differs.
    """
    n = stiffness.shape[0]
    total_area = mass.sum()
    sigma = -4.0 * np.pi**2 / total_area
    inv_sqrt = 1.0 / np.sqrt(mass)
    sym = sparse.diags(inv_sqrt) @ stiffness @ sparse.diags(inv_sqrt)
    lu = splu(
        (sym - sigma * sparse.identity(n, format="csr")).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    vals, vecs = eigsh(
        sym,
        k=k,
        sigma=sigma,
        OPinv=LinearOperator((n, n), matvec=lu.solve, dtype=np.float64),
        v0=np.random.default_rng(seed).standard_normal(n),
        tol=0,
        maxiter=2000,
    )
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], inv_sqrt[:, None] * vecs[:, order]
    vecs[:, 0] = 1.0 / np.sqrt(total_area)
    vals[0] = vecs[:, 0] @ (stiffness @ vecs[:, 0]) / (mass * vecs[:, 0] @ vecs[:, 0])
    for a in range(1, k):
        v = vecs[:, a]
        for b in range(a):
            v -= (mass * vecs[:, b] @ v) * vecs[:, b]
        vecs[:, a] = v / np.sqrt(mass * v @ v)
    for a in range(k):
        if vecs[np.argmax(np.abs(vecs[:, a])), a] < 0.0:
            vecs[:, a] = -vecs[:, a]
    return vals, vecs


@pytest.mark.parametrize("level", [2, 3])
def test_matches_default_superlu_factorization(level):
    # the perturbed surfaces of the level2/level3 fixtures have simple
    # eigenvalues, so eigenvectors compare column by column
    mesh, lengths = generate_genus2(level)
    base = normalize_area(ConformalMetric.flat(mesh, lengths), -2.0 * np.pi * mesh.chi)
    metric, _ = perturb_metric(base, 0.02, 11)
    stiffness, mass = assemble_operators(metric)
    tol = 1e-8
    snap = smallest_eigenpairs(stiffness, mass, 12, tol=tol, seed=3)
    ref_vals, ref_vecs = _default_superlu_eigenpairs(stiffness, mass, 12, seed=3)
    assert abs(snap.eigenvalues[0]) < 1e-9 * ref_vals[1]
    assert np.allclose(snap.eigenvalues[1:], ref_vals[1:], rtol=1e-12, atol=0)
    assert np.abs(snap.eigenvectors - ref_vecs).max() <= 1e-9
    mass_vecs = mass[:, None] * ref_vecs
    ref_residuals = np.linalg.norm(stiffness @ ref_vecs - mass_vecs * ref_vals, axis=0)
    ref_residuals /= np.linalg.norm(mass_vecs, axis=0)
    assert (snap.residuals <= tol).all()
    assert (ref_residuals <= tol).all()


def test_scale_covariance(octagon1):
    stiffness, mass = assemble_operators(octagon1)
    snap = smallest_eigenpairs(stiffness, mass, 8, tol=1e-10, seed=2)
    for c in (0.25, 1.0, 7.0):
        scaled = scale_metric(octagon1, c)
        s2, m2 = assemble_operators(scaled)
        # angles are scale invariant: L identical, M scales by c
        assert np.abs((s2 - stiffness).toarray()).max() < 1e-12
        assert np.allclose(m2, c * mass, rtol=1e-13)
        snap_c = smallest_eigenpairs(s2, m2, 8, tol=1e-10, seed=2)
        rel = np.abs(snap_c.eigenvalues[1:] * c - snap.eigenvalues[1:]) / snap.eigenvalues[1:]
        assert rel.max() < 1e-10


def test_psd_perturbation_monotonicity(octagon0):
    # adding a PSD term can only push eigenvalues up (min-max)
    stiffness, mass = assemble_operators(octagon0)
    n = octagon0.mesh.vertex_count
    rng = np.random.default_rng(11)
    for _ in range(3):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        w = float(rng.random()) + 0.5
        rows = [i, j, i, j]
        cols = [j, i, i, j]
        vals = [-w, -w, w, w]
        bump = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
        before, _ = dense_eigenpairs(stiffness, mass, 10)
        after, _ = dense_eigenpairs(stiffness + bump, mass, 10)
        assert (after - before >= -1e-10).all()


def test_rayleigh_quotient(octagon0):
    stiffness, mass = assemble_operators(octagon0)
    assert _rayleigh(stiffness, mass, np.ones(octagon0.mesh.vertex_count)) < 1e-12
    snap = smallest_eigenpairs(stiffness, mass, 4, tol=1e-9, seed=0)
    lam1, lam2 = snap.eigenvalues[1], snap.eigenvalues[2]
    assert np.isclose(_rayleigh(stiffness, mass, snap.eigenvectors[:, 1]), lam1, rtol=1e-9)
    mix = snap.eigenvectors[:, 1] + snap.eigenvectors[:, 2]
    assert np.isclose(_rayleigh(stiffness, mass, mix), 0.5 * (lam1 + lam2), rtol=1e-9)


def test_snapshot_invariants(octagon1):
    stiffness, mass = assemble_operators(octagon1)
    snap = smallest_eigenpairs(stiffness, mass, 10, tol=1e-8, seed=4)
    assert (np.diff(snap.eigenvalues) >= -1e-12).all()
    gram = snap.eigenvectors.T @ (mass[:, None] * snap.eigenvectors)
    assert np.abs(gram - np.eye(10)).max() < 1e-8
    means = mass @ snap.eigenvectors[:, 1:]
    assert np.abs(means).max() < 1e-6
    assert (snap.residuals <= 1e-8).all()


def test_determinism(octagon1):
    stiffness, mass = assemble_operators(octagon1)
    a = smallest_eigenpairs(stiffness, mass, 6, tol=1e-8, seed=9)
    b = smallest_eigenpairs(stiffness, mass, 6, tol=1e-8, seed=9)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_k_range_validated(octagon0):
    stiffness, mass = assemble_operators(octagon0)
    with pytest.raises(ValueError):
        smallest_eigenpairs(stiffness, mass, octagon0.mesh.vertex_count // 2, tol=1e-8, seed=0)


# The first three distinct eigenvalues of the Bolza surface at curvature -1
# and their multiplicities (Strohmaier and Uski 2013, Comm. Math. Phys. 317).
BOLZA_CLUSTERS = ((3.8388872588, 3), (5.3536013412, 4), (8.2495548152, 2))


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_bolza_surface_is_hyperbolic_genus2(level):
    # bolza_surface itself requires 32 vertex classes and glued half-edges
    # that agree in length
    mesh, lengths = bolza_surface(level)
    assert mesh.chi == -2
    assert level > 0 or mesh.vertex_count == 32
    assert (measure_curvature(ConformalMetric.flat(mesh, lengths)).R < 0.0).all()


def test_bolza_spectrum_oracle():
    # lambda_1..lambda_9 of the cotangent Laplacian at area 4 pi (curvature
    # about -1) against the published values; the level-2 worst error is
    # 2.9% and the level-3 one 1.5%, so refinement must also shrink every
    # cluster's spread toward its exact multiplicity
    values, counts = zip(*BOLZA_CLUSTERS)
    want = np.repeat(values, counts)
    spreads = []
    for level, tol in ((2, 0.035), (3, 0.02)):
        mesh, lengths = bolza_surface(level)
        metric = normalize_area(ConformalMetric.flat(mesh, lengths), 4.0 * np.pi)
        stiffness, mass = assemble_operators(metric)
        lam = smallest_eigenpairs(stiffness, mass, 12, tol=1e-8, seed=3).eigenvalues[1:10]
        assert np.abs(lam / want - 1.0).max() <= tol
        spreads.append([np.ptp(c) / c.mean() for c in np.split(lam, np.cumsum(counts)[:-1])])
    assert all(fine < coarse for coarse, fine in zip(*spreads))
