import hashlib
import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricciflow import (
    BoundaryEdgeError,
    ConformalMetric,
    DisconnectedError,
    MeshError,
    MeshFormatError,
    MeshInvariantError,
    NonManifoldError,
    NonOrientableError,
    TriangleMesh,
    generate_genus2,
    load_off,
    measure_curvature,
)
from ricciflow import mesh as mesh_module

from meshes import BOUNDARY_OFF, NON_MANIFOLD_OFF, NON_ORIENTABLE_OFF, TETRA_OFF

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_load_tetrahedron():
    mesh, lengths = load_off(io.StringIO(TETRA_OFF))
    assert (mesh.vertex_count, mesh.edge_count, mesh.triangle_count) == (4, 6, 4)
    assert (mesh.chi, mesh.genus) == (2, 0)
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
        lambda t: "OFF\n-1 0 0\n",
        lambda t: t.replace("3 0 2 1", "3 0 2 99999999999999999999999"),
        lambda t: t.replace("1 0 0", "nan 0 0"),
        lambda t: t.replace("1 0 0", "1e308 0 0").replace("0 1 0", "-1e308 1 0"),
    ],
)
def test_parse_failures(mutation):
    with pytest.raises(MeshFormatError):
        load_off(io.StringIO(mutation(TETRA_OFF)))


_OFF_TOKENS = ["OFF", "0", "1", "3", "4", "-1", "1.5", "nan", "inf", "1e308", "x", "#",
               "99999999999999999999999", "\n", " "]


@st.composite
def _mutated_tetra_off(draw):
    tokens = TETRA_OFF.replace("\n", " \n ").split(" ")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens) - 1))
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "delete":
            del tokens[i]
        elif action == "replace":
            tokens[i] = draw(st.sampled_from(_OFF_TOKENS))
        else:
            tokens.insert(i, draw(st.sampled_from(_OFF_TOKENS)))
    return " ".join(tokens).encode("ascii")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=200), _mutated_tetra_off()))
def test_load_off_fuzz(data):
    # any input either loads or raises a MeshError; nothing else escapes
    try:
        mesh, lengths = load_off(data)
    except MeshError:
        return
    assert lengths.shape == (mesh.edge_count,)
    assert np.all(np.isfinite(lengths)) and np.all(lengths > 0.0)


@pytest.mark.parametrize(
    "content", [None, TETRA_OFF.encode("ascii") + b"\xff\n"], ids=["missing", "non_ascii"]
)
def test_unreadable_file_rejected(tmp_path, content):
    path = tmp_path / "mesh.off"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(MeshFormatError):
        load_off(path)


def test_zero_length_edge_rejected():
    bad = TETRA_OFF.replace("1 0 0", "0 0 0")
    with pytest.raises(MeshFormatError):
        load_off(io.StringIO(bad))


def test_genus2_asset_counts():
    mesh, _ = load_off(os.path.join(DATA, "genus2.off"))
    assert mesh.vertex_count - mesh.edge_count + mesh.triangle_count == -2
    assert (mesh.chi, mesh.genus) == (-2, 2)


def test_generator_base_counts():
    mesh, lengths = generate_genus2(0)
    assert (mesh.vertex_count, mesh.edge_count, mesh.triangle_count) == (32, 102, 68)
    assert (mesh.chi, mesh.genus) == (-2, 2)
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


# sha256 of triangles.tobytes() and edges.tobytes() (int64), then the sum of
# the base lengths and of their squares. Any change to the generator's vertex
# or edge numbering, or to its chart arithmetic, moves these.
GENERATOR_PINS = {
    0: (
        "e449a615c72c3866446b6a997a7eaeb23a3a015cacc3b414037b5804cc2fcb1b",
        "68f768b661954fcb0bc84fc04d55ee61ce7c7298e67529582e22cbb7ef78cf32",
        71.49611054757409,
        52.67562218749353,
    ),
    1: (
        "8a1d70be79cef02ab76a400afe6284f0ea8cccd1b2e34f40b08a554dac4c4541",
        "c5ea687bb3e94e49a1a2efe143518a57f00dc533ff264e24cf7fd7b29eb64f73",
        193.58130980457776,
        69.8960735307507,
    ),
    2: (
        "df39a9c261cbd984c1b65ac8068897f80e0c339a86c4f72c92c7642b23e9ce08",
        "fb5156b1171022f08f4bfc063b8807c0bea1b41e5f6f7afe87115898087a4625",
        533.357461912431,
        98.35714160136362,
    ),
    3: (
        "6e4db4dff8b66ffc212cfda4f58d871447370daba6b79957ea186fe895c91328",
        "af1badd492849054c197b90498d865eed35f9b5c2fcfe385b7c7a80103844ce1",
        1451.6782997808532,
        137.99813093119383,
    ),
}


@pytest.mark.parametrize("level", sorted(GENERATOR_PINS))
def test_generator_output_pinned(level):
    tri_sha, edge_sha, length_sum, square_sum = GENERATOR_PINS[level]
    mesh, lengths = generate_genus2(level)
    assert hashlib.sha256(mesh.triangles.tobytes()).hexdigest() == tri_sha
    assert hashlib.sha256(mesh.edges.tobytes()).hexdigest() == edge_sha
    assert lengths.sum() == pytest.approx(length_sum, rel=1e-12)
    assert (lengths**2).sum() == pytest.approx(square_sum, rel=1e-12)


def test_generator_rejects_charts_that_disagree():
    # each triangle measures its sides in its own chart, so a glued edge is
    # measured twice; moving one chart point breaks the isometry
    nv, tv, txyz = mesh_module._octagon_base()
    txyz = txyz.copy()
    txyz[0, 0] = mesh_module._geodesic_point(txyz[0, 0], txyz[0, 1], 0.01)
    with pytest.raises(MeshInvariantError):
        mesh_module._extract_mesh(nv, tv, txyz)


def test_validation_idempotent():
    mesh, _ = generate_genus2(0)
    again = TriangleMesh(mesh.vertex_count, np.array(mesh.triangles))
    assert np.array_equal(again.edges, mesh.edges)
    assert np.array_equal(again.triangle_edges, mesh.triangle_edges)


def test_edges_sorted_lexicographically():
    mesh, _ = generate_genus2(0)
    keys = mesh.edges[:, 0] * mesh.vertex_count + mesh.edges[:, 1]
    assert (np.diff(keys) > 0).all()
    assert (mesh.edges[:, 0] < mesh.edges[:, 1]).all()


def _row_unique_edges(triangles):
    """Edges, half-edge inverse and counts by ``np.unique`` over sorted rows."""
    heads = np.concatenate([triangles[:, 0], triangles[:, 1], triangles[:, 2]])
    tails = np.concatenate([triangles[:, 1], triangles[:, 2], triangles[:, 0]])
    undirected = np.sort(np.stack([heads, tails], axis=1), axis=1)
    return np.unique(undirected, axis=0, return_inverse=True, return_counts=True)


@pytest.mark.parametrize("source", [0, 1, 2, 3, "genus2.off"])
def test_edge_keys_match_row_unique(source):
    # one integer key per edge stands in for np.unique over (lo, hi) rows;
    # every edge array must come out the same, dtype included
    if source == "genus2.off":
        mesh, _ = load_off(os.path.join(DATA, source))
    else:
        mesh, _ = generate_genus2(source)
    edges, inverse, counts = _row_unique_edges(mesh.triangles)
    f_count = mesh.triangle_count
    half_edge_triangles = np.tile(np.arange(f_count, dtype=np.int64), 3)
    order = np.argsort(inverse, kind="stable")
    expected = {
        "edges": edges,
        "triangle_edges": inverse.reshape(3, f_count).T[:, [1, 2, 0]],
        "edge_triangles": half_edge_triangles[order].reshape(-1, 2),
    }
    for name, want in expected.items():
        got = getattr(mesh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (counts == 2).all()


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
