import io
import os

import numpy as np
import pytest

from ricciflow import (
    BoundaryEdgeError,
    ConformalMetric,
    DisconnectedError,
    MeshFormatError,
    NonManifoldError,
    NonOrientableError,
    TriangleMesh,
    euler_genus,
    generate_genus2,
    load_off,
    measure_curvature,
)

from meshes import BOUNDARY_OFF, NON_MANIFOLD_OFF, NON_ORIENTABLE_OFF, TETRA_OFF

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_load_tetrahedron():
    mesh, lengths = load_off(io.StringIO(TETRA_OFF))
    assert (mesh.vertex_count, mesh.edge_count, mesh.triangle_count) == (4, 6, 4)
    assert euler_genus(mesh) == (2, 0)
    # unit right-corner tetrahedron: three axis edges, three sqrt(2) diagonals
    assert np.isclose(np.sort(lengths)[:3], 1.0).all()
    assert np.isclose(np.sort(lengths)[3:], np.sqrt(2.0)).all()


def test_load_accepts_bytes_and_comments():
    text = "# a comment\n" + TETRA_OFF.replace("4 4 6", "4 4 6  # counts")
    mesh, _ = load_off(text.encode("ascii"))
    assert mesh.chi == 2


def test_non_manifold_edge_rejected():
    with pytest.raises(NonManifoldError):
        load_off(io.StringIO(NON_MANIFOLD_OFF))


def test_boundary_edge_rejected():
    with pytest.raises(BoundaryEdgeError):
        load_off(io.StringIO(BOUNDARY_OFF))


def test_inconsistent_orientation_rejected():
    with pytest.raises(NonOrientableError):
        load_off(io.StringIO(NON_ORIENTABLE_OFF))


def test_disconnected_mesh_rejected():
    tets = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]
    far = [[v + 4 for v in tri] for tri in tets]
    with pytest.raises(DisconnectedError):
        TriangleMesh(8, tets + far)


def test_unreferenced_vertex_rejected():
    with pytest.raises(DisconnectedError):
        TriangleMesh(5, [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("OFF", "NOFF", 1),
        lambda t: t.replace("3 0 2 1", "4 0 2 1"),
        lambda t: "\n".join(t.splitlines()[:-2]) + "\n",
        lambda t: t.replace("1 0 0", "x 0 0"),
    ],
)
def test_parse_failures(mutation):
    with pytest.raises(MeshFormatError):
        load_off(io.StringIO(mutation(TETRA_OFF)))


def test_zero_length_edge_rejected():
    bad = TETRA_OFF.replace("1 0 0", "0 0 0")
    with pytest.raises(MeshFormatError):
        load_off(io.StringIO(bad))


def test_genus2_asset_counts():
    mesh, _ = load_off(os.path.join(DATA, "genus2.off"))
    assert mesh.vertex_count - mesh.edge_count + mesh.triangle_count == -2
    assert euler_genus(mesh) == (-2, 2)


def test_generator_base_counts():
    mesh, lengths = generate_genus2(0)
    assert (mesh.vertex_count, mesh.edge_count, mesh.triangle_count) == (32, 102, 68)
    assert euler_genus(mesh) == (-2, 2)
    assert lengths.shape == (102,)
    assert (lengths > 0).all()


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_generator_subdivision_recurrence(level):
    v, e, f = 32, 102, 68
    for _ in range(level):
        v, e, f = v + e + f, 2 * e + 6 * f, 6 * f
    mesh, _ = generate_genus2(level)
    assert (mesh.vertex_count, mesh.edge_count, mesh.triangle_count) == (v, e, f)
    assert mesh.chi == -2
    assert 3 * mesh.triangle_count == 2 * mesh.edge_count


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_generator_negative_curvature(level):
    mesh, lengths = generate_genus2(level)
    defects = measure_curvature(ConformalMetric.flat(mesh, lengths)).defect
    assert (defects < 0.0).all()
    assert abs(defects.sum() - 2.0 * np.pi * mesh.chi) < 1e-9


def test_validation_idempotent():
    mesh, _ = generate_genus2(0)
    assert mesh.validate()
    again = TriangleMesh(mesh.vertex_count, np.array(mesh.triangles))
    assert np.array_equal(again.edges, mesh.edges)
    assert np.array_equal(again.triangle_edges, mesh.triangle_edges)


def test_edges_sorted_lexicographically():
    mesh, _ = generate_genus2(0)
    keys = mesh.edges[:, 0] * mesh.vertex_count + mesh.edges[:, 1]
    assert (np.diff(keys) > 0).all()
    assert (mesh.edges[:, 0] < mesh.edges[:, 1]).all()


def test_triangle_edges_oppose_corners():
    mesh, _ = generate_genus2(0)
    for t in range(0, mesh.triangle_count, 7):
        for k in range(3):
            edge = mesh.edges[mesh.triangle_edges[t, k]]
            assert mesh.triangles[t, k] not in edge
            assert set(edge) < set(mesh.triangles[t])


def test_mesh_arrays_immutable():
    mesh, _ = generate_genus2(0)
    with pytest.raises(ValueError):
        mesh.triangles[0, 0] = 5


def test_degenerate_triangle_list_rejected():
    with pytest.raises(MeshFormatError):
        TriangleMesh(3, [[0, 1, 1]])
