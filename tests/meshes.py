"""Reference meshes with known geometry, used as test oracles."""

import numpy as np

from ricciflow import ConformalMetric, TriangleMesh
from ricciflow import mesh as mesh_module


def tetrahedron_metric(edge_length=1.0):
    """Regular tetrahedron: angle defect pi at every vertex."""
    mesh = TriangleMesh(4, [[0, 1, 2], [0, 2, 3], [0, 3, 1], [3, 2, 1]])
    return ConformalMetric.flat(mesh, np.full(6, float(edge_length)))


def torus_triangles(n):
    """Triangles of the n x n torus grid, vertex ``n i + j`` at grid point
    ``(i, j)``; square ``(i, j)`` holds triangles ``2 (n i + j)`` and the next."""

    def vid(i, j):
        return (i % n) * n + (j % n)

    tris = []
    for i in range(n):
        for j in range(n):
            tris.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            tris.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return np.array(tris)


def flat_torus_metric(n):
    """Unit-square flat torus on an n x n grid, diagonal split (n >= 3).

    Grid edges have length 1/n, diagonals sqrt(2)/n; every angle defect is
    exactly zero and the genus is 1.
    """
    if n < 3:
        raise ValueError("n >= 3 keeps the triangulation simplicial")
    mesh = TriangleMesh(n * n, torus_triangles(n))

    h = 1.0 / n
    lengths = np.empty(mesh.edge_count)
    coords = np.array([(i // n, i % n) for i in range(n * n)])
    for e, (a, b) in enumerate(mesh.edges):
        di = min((coords[a, 0] - coords[b, 0]) % n, (coords[b, 0] - coords[a, 0]) % n)
        dj = min((coords[a, 1] - coords[b, 1]) % n, (coords[b, 1] - coords[a, 1]) % n)
        lengths[e] = h * np.sqrt(di * di + dj * dj)
    return ConformalMetric.flat(mesh, lengths)


# The generator's regular octagon with opposite sides glued is the Bolza
# surface, the most symmetric genus-2 surface.
BOLZA_PAIRING = ((0, 4), (1, 5), (2, 6), (3, 7))


def bolza_surface(level):
    """The Bolza surface subdivided ``level`` times: ``(mesh, base lengths)``,
    built exactly as the generator builds its own surface."""
    nv, tv, txyz = mesh_module._octagon_base(BOLZA_PAIRING)
    for _ in range(level):
        nv, tv, txyz = mesh_module._barycentric_subdivide(nv, tv, txyz)
    return mesh_module._extract_mesh(nv, tv, txyz)


_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(subdivisions=0):
    """Unit-sphere mesh: icosahedron with midpoint subdivision + projection.

    Returns ``(mesh, chordal edge lengths)``.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [np.array(v) / np.linalg.norm(v) for v in verts]
    faces = [tuple(f) for f in _ICO_FACES]

    for _ in range(subdivisions):
        midpoint = {}
        new_faces = []

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                p = verts[a] + verts[b]
                verts.append(p / np.linalg.norm(p))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces

    mesh = TriangleMesh(len(verts), np.array(faces))
    pts = np.array(verts)
    diffs = pts[mesh.edges[:, 0]] - pts[mesh.edges[:, 1]]
    return mesh, np.linalg.norm(diffs, axis=1)


def icosphere_metric(subdivisions=0):
    mesh, lengths = icosphere(subdivisions)
    return ConformalMetric.flat(mesh, lengths)


TETRA_OFF = """OFF
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""

NON_MANIFOLD_OFF = """OFF
5 3 0
0 0 0
1 0 0
0 1 0
0 0 1
0 0 -1
3 0 1 2
3 0 1 3
3 1 0 4
"""

BOUNDARY_OFF = """OFF
3 1 0
0 0 0
1 0 0
0 1 0
3 0 1 2
"""

NON_ORIENTABLE_OFF = """OFF
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 3 2 1
"""
