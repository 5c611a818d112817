"""Closed oriented triangle meshes: validation, OFF ingestion, genus-2 generation.

Meshes here are purely combinatorial; geometry enters only through per-edge
lengths handed to :mod:`ricciflow.geometry`. Vertex coordinates read from OFF
files are used once, to seed base edge lengths, and then discarded.
"""

from __future__ import annotations

import functools
import io

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import (
    BoundaryEdgeError,
    DisconnectedError,
    MeshFormatError,
    MeshInvariantError,
    NonManifoldError,
    NonOrientableError,
)


class TriangleMesh:
    """Combinatorial closed, oriented, connected 2-manifold triangulation.

    Parameters
    ----------
    vertex_count : int
        Number of vertices. Every index in ``[0, vertex_count)`` must be used.
    triangles : array_like of shape (F, 3)
        Oriented vertex-index triples. The two triangles meeting at each edge
        must traverse it in opposite directions.

    Attributes
    ----------
    vertex_count : int
    triangles : (F, 3) int array
    edges : (E, 2) int array
        Unordered vertex pairs ``(i, j)`` with ``i < j``, sorted
        lexicographically; the row index is the edge id used everywhere else.
    edge_triangles : (E, 2) int array
        The two triangles incident to each edge.
    triangle_edges : (F, 3) int array
        ``triangle_edges[t, k]`` is the edge opposite corner ``k`` of
        triangle ``t``.
    chi : int
        Euler characteristic V - E + F.
    genus : int
        (2 - chi) / 2.

    Raises
    ------
    MeshFormatError, NonManifoldError, BoundaryEdgeError, NonOrientableError,
    DisconnectedError, MeshInvariantError
        If the input is not a valid closed oriented connected surface.

    Notes
    -----
    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, vertex_count, triangles):
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshFormatError("triangles must be an (F, 3) index array")
        if triangles.shape[0] == 0:
            raise MeshFormatError("mesh has no triangles")
        vertex_count = int(vertex_count)
        if triangles.min() < 0 or triangles.max() >= vertex_count:
            raise MeshFormatError("triangle vertex index out of range")
        if np.any(
            (triangles[:, 0] == triangles[:, 1])
            | (triangles[:, 1] == triangles[:, 2])
            | (triangles[:, 2] == triangles[:, 0])
        ):
            raise MeshFormatError("triangle with repeated vertex")

        self.vertex_count = vertex_count
        self.triangles = triangles
        f_count = triangles.shape[0]

        # Directed half-edges: side k of a triangle joins corners k, k+1.
        heads = np.concatenate([triangles[:, 0], triangles[:, 1], triangles[:, 2]])
        tails = np.concatenate([triangles[:, 1], triangles[:, 2], triangles[:, 0]])
        he_tri = np.tile(np.arange(f_count, dtype=np.int64), 3)

        # One integer key per undirected edge; sorting keys sorts (lo, hi) rows.
        keys, inverse, counts = np.unique(
            np.minimum(heads, tails) * vertex_count + np.maximum(heads, tails),
            return_inverse=True, return_counts=True,
        )
        edges = np.stack([keys // vertex_count, keys % vertex_count], axis=1)
        if np.any(counts > 2):
            bad = edges[np.argmax(counts > 2)]
            raise NonManifoldError(
                f"edge {tuple(bad)} is incident to {counts.max()} triangles"
            )
        if np.any(counts < 2):
            bad = edges[np.argmax(counts < 2)]
            raise BoundaryEdgeError(f"edge {tuple(bad)} has only one triangle")

        # Pair up the two half-edges of each edge, in half-edge scan order.
        # With every undirected edge used twice, a pair whose half-edges share
        # a head means the two triangles traverse the edge the same way.
        pairs = np.argsort(inverse, kind="stable").reshape(-1, 2)
        same = heads[pairs[:, 0]] == heads[pairs[:, 1]]
        if same.any():
            dup = (heads * vertex_count + tails)[pairs[same, 0]].min()
            raise NonOrientableError(
                f"inconsistently oriented triangles at directed edge id {int(dup)}"
            )

        self.edges = edges
        self.edge_triangles = he_tri[pairs]
        # Side k joins corners (k, k+1); the edge opposite corner k is side k+1.
        side_edges = inverse.reshape(3, f_count).T
        self.triangle_edges = side_edges[:, [1, 2, 0]]

        if np.unique(triangles).size != vertex_count:
            raise DisconnectedError("mesh has unreferenced vertices")
        self._check_connected()

        self.chi = vertex_count - edges.shape[0] + f_count
        if (2 - self.chi) % 2 != 0 or self.chi > 2:
            raise MeshInvariantError(f"impossible Euler characteristic {self.chi}")
        self.genus = (2 - self.chi) // 2

        for arr in (self.triangles, self.edges, self.edge_triangles, self.triangle_edges):
            arr.setflags(write=False)

    def _check_connected(self):
        f_count = self.triangles.shape[0]
        t1, t2 = self.edge_triangles.T
        adjacency = sparse.coo_matrix((np.ones(t1.size), (t1, t2)), shape=(f_count, f_count))
        n_components, _ = csgraph.connected_components(adjacency, directed=False)
        if n_components != 1:
            raise DisconnectedError(
                f"triangle adjacency graph has {n_components} components"
            )

    @functools.cached_property
    def kernel(self):
        """The :class:`ricciflow.geometry.MeshKernel` of this mesh, built on first use."""
        from .geometry import MeshKernel

        return MeshKernel(self)

    @property
    def edge_count(self):
        return self.edges.shape[0]

    @property
    def triangle_count(self):
        return self.triangles.shape[0]


# ---------------------------------------------------------------------------
# OFF ingestion
# ---------------------------------------------------------------------------

def load_off(source):
    """Read an ASCII OFF file describing a closed oriented triangle mesh.

    Parameters
    ----------
    source : str | pathlib.Path | file-like | bytes
        Path to, or stream of, OFF data. Only triangular faces are accepted.

    Returns
    -------
    (TriangleMesh, numpy.ndarray)
        The validated mesh and the Euclidean edge lengths of the embedding,
        indexed by edge id, intended as candidate base lengths. Coordinates
        are not retained.
    """
    text = _read_text(source)
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        raise MeshFormatError("empty OFF file")
    if lines[0] != "OFF":
        raise MeshFormatError(f"expected 'OFF' header, got {lines[0]!r}")
    if len(lines) < 2:
        raise MeshFormatError("missing V F E count line")
    counts = lines[1].split()
    if len(counts) < 3:
        raise MeshFormatError("count line must contain V F E")
    try:
        n_vert, n_face = int(counts[0]), int(counts[1])
    except ValueError as exc:
        raise MeshFormatError(f"bad count line: {lines[1]!r}") from exc
    if n_vert < 0 or n_face < 0:
        raise MeshFormatError(f"negative count on line {lines[1]!r}")
    if len(lines) < 2 + n_vert + n_face:
        raise MeshFormatError("truncated OFF file")

    coords = np.empty((n_vert, 3))
    for i in range(n_vert):
        parts = lines[2 + i].split()
        if len(parts) < 3:
            raise MeshFormatError(f"vertex line {i} has fewer than 3 coordinates")
        try:
            coords[i] = [float(parts[0]), float(parts[1]), float(parts[2])]
        except ValueError as exc:
            raise MeshFormatError(f"bad vertex line {i}: {lines[2 + i]!r}") from exc
    if not np.all(np.isfinite(coords)):
        raise MeshFormatError("vertex coordinates must be finite")

    triangles = np.empty((n_face, 3), dtype=np.int64)
    for i in range(n_face):
        parts = lines[2 + n_vert + i].split()
        try:
            arity = int(parts[0])
        except (ValueError, IndexError) as exc:
            raise MeshFormatError(f"bad face line {i}") from exc
        if arity != 3:
            raise MeshFormatError(f"face {i} has {arity} vertices; triangles only")
        if len(parts) < 4:
            raise MeshFormatError(f"face line {i} is truncated")
        try:
            triangles[i] = [int(parts[1]), int(parts[2]), int(parts[3])]
        except (ValueError, OverflowError) as exc:
            raise MeshFormatError(f"bad face line {i}") from exc

    mesh = TriangleMesh(n_vert, triangles)
    with np.errstate(over="ignore"):
        diffs = coords[mesh.edges[:, 0]] - coords[mesh.edges[:, 1]]
        lengths = np.sqrt(np.sum(diffs * diffs, axis=1))
    if not np.all((lengths > 0.0) & (lengths < np.inf)):
        raise MeshFormatError("an edge length is zero (coincident vertices) or overflows")
    return mesh, lengths


def _read_text(source):
    try:
        if isinstance(source, bytes):
            return source.decode("ascii")
        if hasattr(source, "read"):
            data = source.read()
            return data.decode("ascii") if isinstance(data, bytes) else data
        with io.open(source, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(f"cannot read OFF data: {exc}") from exc


# ---------------------------------------------------------------------------
# Genus-2 generator
#
# The model surface is the regular hyperbolic octagon with interior angles
# 2*pi/8, its sides glued by a pairing given as data. When all eight corners
# glue to a single point with total angle 2*pi, the glued surface carries
# a smooth metric of curvature -1. Points live on the hyperboloid model, and
# every derived point is built inside the chart of one triangle, which keeps
# all geodesic lengths intrinsic.
#
# The base (level 0) triangulation clips each corner with a single flap
# triangle and fills the rest with 24 -> 12 -> 6 -> center rings. Two things
# about that layout matter downstream: boundary sides carry quarter points,
# which is exactly enough for the glued complex to be simplicial, and the
# corner class ends up with vertex degree 8. Barycentric subdivision doubles
# every vertex degree per level, so a low-degree base is what keeps deep
# levels well enough conditioned for explicit time integration.
#
# The glued complex is simplicial, and barycentric subdivision keeps it so:
# a sorted vertex pair names exactly one edge at every level, and that pair
# is the generator's only notion of edge identity. Each triangle still keeps
# its own hyperboloid chart (``txyz``), because a glued vertex has one
# position per side of the octagon.
# ---------------------------------------------------------------------------

# Interior ring radii of the base complex, tuned so that the stiffest
# curvature mode after three subdivisions stays as tame as the degree-8
# combinatorics allows.
RING_A_RADIUS = 1.00
RING_B_RADIUS = 0.52
# Each level allocates about 6x the last: level 3 peaks near 6 MB, level 4
# near 36 MB, so a level above this one is refused before anything is built.
MAX_LEVEL = 5
# Side i joins corners i and i+1; this pairing glues a b a' b' c d c' d'.
COMMUTATOR_PAIRING = ((0, 2), (1, 3), (4, 6), (5, 7))

def generate_genus2(subdivision_level):
    """Build an intrinsic genus-2 triangulation with hyperbolic edge lengths.

    Parameters
    ----------
    subdivision_level : int
        Number of barycentric refinements of the base complex, from 0
        (V=32, E=102, F=68) to ``MAX_LEVEL``.

    Returns
    -------
    (TriangleMesh, numpy.ndarray)
        Mesh of Euler characteristic -2 and per-edge geodesic base lengths.
        The induced discrete curvature is strictly negative at every vertex.
    """
    level = int(subdivision_level)
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"subdivision_level must be in [0, {MAX_LEVEL}], got {level}")
    nv, tv, txyz = _octagon_base(COMMUTATOR_PAIRING)
    for _ in range(level):
        nv, tv, txyz = _barycentric_subdivide(nv, tv, txyz)
    mesh, lengths = _extract_mesh(nv, tv, txyz)
    if mesh.chi != -2:
        raise MeshInvariantError(f"generator produced chi={mesh.chi}")

    if np.any(mesh.kernel.curvature(lengths * lengths).defect >= 0.0):
        raise MeshInvariantError("generated metric has non-negative curvature")
    return mesh, lengths


def _minkowski_dot(x, y):
    return x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2] - x[..., 0] * y[..., 0]


def _hyperboloid_normalize(v):
    return v / np.sqrt(-_minkowski_dot(v, v))[..., None]


def _hyperbolic_distance(x, y):
    return np.arccosh(np.maximum(1.0, -_minkowski_dot(x, y)))


def _geodesic_point(x, y, f):
    """Point at arclength fraction ``f`` along the geodesic from x to y."""
    d = _hyperbolic_distance(x, y)
    return (np.sinh((1.0 - f) * d) * x + np.sinh(f * d) * y) / np.sinh(d)


def _polar_point(radius, angle):
    return np.array(
        [np.cosh(radius), np.sinh(radius) * np.cos(angle), np.sinh(radius) * np.sin(angle)]
    )


def _octagon_base(pairing):
    # Circumradius of the regular octagon with angle pi/4: cosh R = cot^2(pi/8).
    circ = np.arccosh((1.0 + np.sqrt(2.0)) ** 2)
    corners = [_polar_point(circ, i * np.pi / 4.0) for i in range(8)]
    quarter = [_geodesic_point(corners[i], corners[(i + 1) % 8], 0.25) for i in range(8)]
    mid = [_geodesic_point(corners[i], corners[(i + 1) % 8], 0.50) for i in range(8)]
    threeq = [_geodesic_point(corners[i], corners[(i + 1) % 8], 0.75) for i in range(8)]

    # Vertex ids follow the order of ``coords``: the center, ring B, ring A,
    # then the corner, quarter, mid and three-quarter points of each side.
    ring_b = list(range(1, 7))
    ring_a = list(range(7, 19))
    k_ids = list(range(19, 27))
    p_ids = list(range(27, 35))
    m_ids = list(range(35, 43))
    q_ids = list(range(43, 51))

    # Outer 24-gon: the octagon boundary with corners clipped off.
    orbit = [v for i in range(8) for v in (p_ids[i], m_ids[i], q_ids[i])]
    orbit_pts = [x for i in range(8) for x in (quarter[i], mid[i], threeq[i])]
    orbit_angles = np.unwrap([np.arctan2(x[2], x[1]) for x in orbit_pts])

    a_angles = [(orbit_angles[2 * j] + orbit_angles[2 * j + 1]) / 2.0 for j in range(12)]
    a_pts = [_polar_point(RING_A_RADIUS, t) for t in a_angles]
    b_angles = [(a_angles[2 * l] + a_angles[2 * l + 1]) / 2.0 for l in range(6)]
    b_pts = [_polar_point(RING_B_RADIUS, t) for t in b_angles]
    center = np.array([1.0, 0.0, 0.0])
    coords = np.array([center] + b_pts + a_pts + corners + quarter + mid + threeq)

    tris = []
    for i in range(8):  # corner flaps: the only triangles at a corner
        tris.append((q_ids[(i - 1) % 8], k_ids[i], p_ids[i]))
    for j in range(12):  # 24-gon to ring A
        o0, o1, o2 = orbit[2 * j], orbit[(2 * j + 1) % 24], orbit[(2 * j + 2) % 24]
        tris.append((o0, o1, ring_a[j]))
        tris.append((o1, o2, ring_a[(j + 1) % 12]))
        tris.append((o1, ring_a[(j + 1) % 12], ring_a[j]))
    for l in range(6):  # ring A to ring B
        a0, a1, a2 = ring_a[2 * l], ring_a[2 * l + 1], ring_a[(2 * l + 2) % 12]
        tris.append((a0, a1, ring_b[l]))
        tris.append((a1, a2, ring_b[(l + 1) % 6]))
        tris.append((a1, ring_b[(l + 1) % 6], ring_b[l]))
    for l in range(6):  # center fan
        tris.append((ring_b[l], ring_b[(l + 1) % 6], 0))
    tris = np.array(tris, dtype=np.int64)

    # Orient everything counterclockwise in the disk chart.
    flat = coords[:, 1:] / coords[:, :1]
    a, b = flat[tris[:, 1]] - flat[tris[:, 0]], flat[tris[:, 2]] - flat[tris[:, 0]]
    clockwise = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] < 0.0
    tris[clockwise] = tris[clockwise, ::-1]

    # The gluing reverses orientation, so each side's five points zip against
    # its partner's points in reverse order.
    if sorted(side for pair in pairing for side in pair) != list(range(8)):
        raise MeshInvariantError(f"pairing {pairing} does not use each of the 8 sides once")
    parent = list(range(coords.shape[0]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def side_points(i):
        return [k_ids[i], p_ids[i], m_ids[i], q_ids[i], k_ids[(i + 1) % 8]]

    for i, j in pairing:
        for a, b in zip(side_points(i), side_points(j)[::-1]):
            parent[find(a)] = find(b)

    roots = [find(v) for v in range(coords.shape[0])]
    quotient = {root: idx for idx, root in enumerate(sorted(set(roots)))}
    nv = len(quotient)
    if nv != 32:
        raise MeshInvariantError(f"base complex has {nv} vertex classes, expected 32")
    vertex_class = np.array([quotient[root] for root in roots], dtype=np.int64)
    return nv, vertex_class[tris], coords[tris]


def _edge_of_halfedge(nv, tv):
    """Edge id of each half-edge ``(tv[t, k], tv[t, k+1])`` of a simplicial
    complex, plus the edge count.

    Edges are keyed by their sorted vertex pair and numbered in the order of
    the first half-edge (row-major over ``tv``) that names them.
    """
    heads, tails = tv, np.roll(tv, -1, axis=1)
    keys = np.minimum(heads, tails) * nv + np.maximum(heads, tails)
    _, first, inverse = np.unique(keys.reshape(-1), return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse].reshape(tv.shape), first.size


def _barycentric_subdivide(nv, tv, txyz):
    f_count = tv.shape[0]
    edge_of_he, n_edges = _edge_of_halfedge(nv, tv)

    mid_vid = nv + edge_of_he
    bary_vid = np.broadcast_to(nv + n_edges + np.arange(f_count)[:, None], tv.shape)

    corner = txyz
    mid_xyz = _hyperboloid_normalize(corner + np.roll(corner, -1, axis=1))
    # Incenter-style face point (opposite-side-length weights). Plain
    # centroids let repeated subdivision flatten triangles fast enough to
    # choke explicit time integration downstream; this keeps the worst
    # angles roughly twice as large at deep levels.
    side = _hyperbolic_distance(corner, np.roll(corner, -1, axis=1))
    opp_len = np.roll(side, -1, axis=1)
    bary_xyz = _hyperboloid_normalize((opp_len[..., None] * corner).sum(axis=1))
    bary_xyz = np.broadcast_to(bary_xyz[:, None], corner.shape)

    # Children of triangle t, in slots 6t..6t+5:
    #   slot 2k   = (v_k, m_k, b)
    #   slot 2k+1 = (m_k, v_{k+1}, b)
    # Stacking both children of side k along axis 2 puts them at 6t+2k, 6t+2k+1.
    new_tv = np.stack(
        [tv, mid_vid, bary_vid, mid_vid, np.roll(tv, -1, axis=1), bary_vid], axis=2
    ).reshape(6 * f_count, 3)
    new_xyz = np.stack(
        [corner, mid_xyz, bary_xyz, mid_xyz, np.roll(corner, -1, axis=1), bary_xyz], axis=2
    ).reshape(6 * f_count, 3, 3)
    return nv + n_edges + f_count, new_tv, new_xyz


def _extract_mesh(nv, tv, txyz):
    mesh = TriangleMesh(nv, tv)
    # half-edge k of a triangle joins corners k, k+1: the edge opposite corner k+2
    he_edge = mesh.triangle_edges[:, [2, 0, 1]].reshape(-1)
    seglen = _hyperbolic_distance(txyz, np.roll(txyz, -1, axis=1)).reshape(-1)

    # Glued half-edges live in different charts; the gluing is an isometry,
    # so both charts must report the same length.
    lo = np.full(mesh.edge_count, np.inf)
    hi = np.full(mesh.edge_count, -np.inf)
    np.minimum.at(lo, he_edge, seglen)
    np.maximum.at(hi, he_edge, seglen)
    if not np.all(hi - lo <= 1e-9):
        raise MeshInvariantError("glued half-edges disagree on length")

    _, first = np.unique(he_edge, return_index=True)
    return mesh, seglen[first]
