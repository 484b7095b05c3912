"""Conforming triangular meshes of a rectangular domain.

A mesh is stored as flat numpy arrays (struct-of-arrays): vertex
coordinates, triangle->vertex connectivity (counterclockwise), and an edge
table with adjacency and outward normals. Local edge `s` of a triangle
connects its local vertices `s` and `(s+1) % 3`; the stored edge normal
points out of `edge_left`, so the outward normal seen from a triangle is
the stored normal times `tri_edge_sign`.

Meshes are immutable after construction (arrays are write-protected) and
safe to share across workers.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError

#: Sentinel for "no neighbor" in edge/neighbor tables.
BOUNDARY = -1

#: Edges with |omega . n| at most this are tangential: neither inflow nor upwind.
EPS_N = 1e-12


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray  # (nv, 2) float
    triangles: np.ndarray  # (nt, 3) int, counterclockwise
    tri_edges: np.ndarray  # (nt, 3) int, edge id of local edge s
    tri_edge_sign: np.ndarray  # (nt, 3) +1 where triangle == edge_left
    tri_neighbors: np.ndarray  # (nt, 3) neighbor across local edge, or BOUNDARY
    tri_area: np.ndarray  # (nt,)
    tri_h: np.ndarray  # (nt,) longest edge per triangle
    edge_vertices: np.ndarray  # (ne, 2) oriented as seen from edge_left
    edge_left: np.ndarray  # (ne,)
    edge_right: np.ndarray  # (ne,) triangle id or BOUNDARY
    edge_normal: np.ndarray  # (ne, 2) unit, outward from edge_left
    edge_length: np.ndarray  # (ne,)
    h: float

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def n_edges(self):
        return self.edge_vertices.shape[0]

    def total_area(self):
        return float(self.tri_area.sum())


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def build_mesh(vertices, triangles) -> TriangleMesh:
    """Assemble the full mesh structure from vertices and triangle cells.

    Checks, in order: array shapes, at least one triangle, finite
    coordinates, integer vertex ids in 0..nv-1, no duplicate triangle (in
    any vertex order), no repeated id within a triangle, counterclockwise
    orientation with positive area, conformity (each edge shared by at most
    two triangles, with opposite orientations), nonzero edge lengths, and no
    hanging node: no boundary edge with an endpoint of a collinear boundary
    edge strictly inside it. Edges are numbered in the lexicographic order
    of their (min, max) vertex ids, independent of the order of the
    triangles. The mesh owns copies of the two inputs.
    """
    vertices = np.array(vertices, dtype=float)
    ids = np.asarray(triangles)
    with np.errstate(invalid="ignore"):  # a NaN or inf id fails the comparison below
        triangles = ids.astype(np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (nv, 2) array")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangles must be an (nt, 3) array")
    if triangles.shape[0] == 0:
        raise MeshError("mesh has no triangles")
    if not np.isfinite(vertices).all():
        raise MeshError("vertex coordinates must be finite")
    nv, nt = vertices.shape[0], triangles.shape[0]
    if (triangles != ids).any():
        raise MeshError("triangle vertex ids must be integers")
    if ((triangles < 0) | (triangles >= nv)).any():
        raise MeshError("triangle vertex id out of range")
    # sorted vertex triples in lexicographic order: a duplicate lies next to its twin
    rows = np.sort(triangles, axis=1)
    rows = rows[np.lexsort(rows.T[::-1])]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise MeshError("duplicate triangles")
    if (rows[:, :-1] == rows[:, 1:]).any():
        raise MeshError("triangle with repeated vertex ids")

    # vertices as x + iy: gathers of one complex are several times faster than of rows
    z = np.ascontiguousarray(vertices).view(complex)[:, 0]
    p = z[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area = 0.5 * (e1.real * e2.imag - e1.imag * e2.real)
    if (area <= 0).any():
        bad = int(np.argmax(area <= 0))
        raise MeshError(f"triangle {bad} is degenerate or clockwise (signed area {area[bad]:g})")

    # Edge table from the 3*nt directed local edges, keyed by (min, max) id:
    # one stable sort puts each edge's uses in a run, in local-edge order.
    pairs = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = np.minimum(*pairs.T) * nv + np.maximum(*pairs.T)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    run_start = np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
    starts = np.flatnonzero(run_start)
    counts = np.concatenate((starts[1:], [key.size])) - starts
    if (counts > 2).any():
        raise MeshError("nonconforming mesh: an edge is shared by more than two triangles")
    first = order[starts]
    edge_left = first // 3
    edge_vertices = pairs[first]
    edge_right = np.full(starts.size, BOUNDARY, dtype=np.int64)
    interior = counts == 2
    second = order[starts[interior] + 1]
    edge_right[interior] = second // 3
    if not (pairs[second] == edge_vertices[interior][:, ::-1]).all():
        raise MeshError("interior edge traversed in the same direction by both triangles")

    tri_edges = np.empty((nt, 3), dtype=np.int64)
    np.put(tri_edges, order, np.cumsum(run_start) - 1)
    tri_edge_sign = np.where(edge_left[tri_edges] == np.arange(nt)[:, None], 1, -1)
    tri_neighbors = np.where(
        tri_edge_sign == 1, edge_right[tri_edges], edge_left[tri_edges]
    )

    tvec = z[edge_vertices[:, 1]] - z[edge_vertices[:, 0]]
    edge_length = np.hypot(tvec.real, tvec.imag)
    if (edge_length <= 0).any():
        raise MeshError("zero-length edge")
    edge_normal = np.column_stack([tvec.imag, -tvec.real]) / edge_length[:, None]

    tri_h = edge_length[tri_edges].max(axis=1)

    _reject_hanging_nodes(z, edge_vertices[~interior])

    return TriangleMesh(
        vertices=_freeze(vertices),
        triangles=_freeze(triangles),
        tri_edges=_freeze(tri_edges),
        tri_edge_sign=_freeze(tri_edge_sign),
        tri_neighbors=_freeze(tri_neighbors),
        tri_area=_freeze(area),
        tri_h=_freeze(tri_h),
        edge_vertices=_freeze(edge_vertices),
        edge_left=_freeze(edge_left),
        edge_right=_freeze(edge_right),
        edge_normal=_freeze(edge_normal),
        edge_length=_freeze(edge_length),
        h=float(edge_length.max()),
    )


# Line angles are keyed in steps of 1e-9 rad; the step at pi is the step at 0.
_WRAP = np.rint(np.pi * 1e9) - 0.5


def _reject_hanging_nodes(z, bv):
    """MeshError naming a vertex that lies inside a boundary edge, and the edge.

    z holds the vertices as x + iy and bv the boundary edges' vertex ids.
    The coarse side of a hanging node has a boundary edge through it, and
    the fine side boundary edges along the same line that end at it. Each
    boundary edge gets a line key, its angle mod pi and its offset rounded
    to a tolerance, and an interval along the line. Sorted by key and
    interval, a hanging node makes some edge overlap the one before it; one
    of the two then has an endpoint inside the other. Edges that coincide
    end to end, as on a slit, have none and are left alone. O(nb log nb)
    in the nb boundary edges.
    """
    zb = z[bv]  # (nb, 2) endpoints
    d = zb[:, 1] - zb[:, 0]
    a9 = np.arctan2(d.imag, d.real) % np.pi * 1e9
    # an edge and its reverse, at either side of 0 mod pi, get one key and one w
    a9[a9 >= _WRAP] -= np.pi * 1e9
    w = zb * np.exp(-1e-9j * a9)[:, None]  # along the line + i across it
    tol = 1e-10 * abs(zb).max()
    t = np.sort(w.real, axis=1)
    line = np.rint(a9) + 1j * np.rint(w[:, 0].imag / tol)
    o = np.lexsort((t[:, 1], t[:, 0], line.imag, line.real))
    ls, ts = line[o], t[o]
    overlap = (ls[1:] == ls[:-1]) & (ts[1:, 0] < ts[:-1, 1] - tol)
    for i in np.flatnonzero(overlap):
        for e, f in ((o[i], o[i + 1]), (o[i + 1], o[i])):
            inside = (w[f].real > t[e, 0] + tol) & (w[f].real < t[e, 1] - tol)
            if inside.any():
                v = bv[f, inside.argmax()]
                x, y = z[v].real, z[v].imag
                raise MeshError(
                    f"nonconforming mesh: vertex {v} at ({x:.6g}, {y:.6g}) lies inside "
                    f"boundary edge {bv[e, 0]}-{bv[e, 1]} (a hanging node)"
                )


def build_structured_unit_square(n: int) -> TriangleMesh:
    """Crisscross mesh of (0,1)^2: n*n squares, each cut from lower-left to
    upper-right, giving 2*n^2 triangles with h = sqrt(2)/n."""
    if n < 1:
        raise ValueError(f"grid parameter must be >= 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # lower-left corner j * (n + 1) + i of square (i, j), row-major
    ll = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    lr, ur, ul = ll + 1, ll + n + 2, ll + n + 1
    tris = np.column_stack([ll, lr, ur, ll, ur, ul]).reshape(-1, 3)
    mesh = build_mesh(vertices, tris)
    if abs(mesh.total_area() - 1.0) > 1e-10:
        raise MeshError("structured mesh does not tile the unit square")
    return mesh


def refine_regular(mesh: TriangleMesh) -> TriangleMesh:
    """Split every triangle into four via edge midpoints (red refinement).

    Midpoints are shared through the edge table, so the result is conforming
    by construction and each child h is half the parent's.
    """
    nv = mesh.n_vertices
    mids = 0.5 * (
        mesh.vertices[mesh.edge_vertices[:, 0]] + mesh.vertices[mesh.edge_vertices[:, 1]]
    )
    vertices = np.vstack([mesh.vertices, mids])

    a, b, c = mesh.triangles[:, 0], mesh.triangles[:, 1], mesh.triangles[:, 2]
    mab = nv + mesh.tri_edges[:, 0]
    mbc = nv + mesh.tri_edges[:, 1]
    mca = nv + mesh.tri_edges[:, 2]
    children = np.empty((mesh.n_triangles, 4, 3), dtype=np.int64)
    children[:, 0] = np.column_stack([a, mab, mca])
    children[:, 1] = np.column_stack([mab, b, mbc])
    children[:, 2] = np.column_stack([mca, mbc, c])
    children[:, 3] = np.column_stack([mab, mbc, mca])

    fine = build_mesh(vertices, children.reshape(-1, 3))
    if abs(fine.total_area() - mesh.total_area()) > 1e-10 * mesh.total_area():
        raise MeshError("refinement changed the total area")
    return fine


def omega_dot_n(mesh: TriangleMesh, directions) -> np.ndarray:
    """Outward omega . n of every local edge for a stack of directions (nl, 2): (nl, nt, 3).

    Elementwise: a (nt, 3, 2) @ (2,) matmul runs one tiny product per block.
    One direction at a time into the result, signed last: stacked or
    pre-signed temporaries here raised a level-3 solve's peak RSS by 3-6%.
    """
    n = mesh.edge_normal[mesh.tri_edges]  # (nt, 3, 2), gathered once
    om = np.asarray(directions, dtype=float)
    dot = np.empty((len(om), *n.shape[:2]))
    for l, (ox, oy) in enumerate(om):
        np.multiply(n[..., 0] * ox + n[..., 1] * oy, mesh.tri_edge_sign, out=dot[l])
    return dot


def boundary_points(mesh: TriangleMesh, t):
    """Boundary local edges bk, bs (nb,) and their points p0 + t (p1 - p0) (nb, len(t), 2)."""
    bk, bs = np.nonzero(mesh.tri_neighbors == BOUNDARY)
    p0 = mesh.vertices[mesh.triangles[bk, bs]]
    p1 = mesh.vertices[mesh.triangles[bk, (bs + 1) % 3]]
    return bk, bs, p0[:, None] + t[:, None] * (p1 - p0)[:, None]


def opposite_local_edge(mesh: TriangleMesh):
    """For (k, s): local index of the shared edge inside the neighbor.

    Entries across boundary edges are -1. Both triangles see the same edge
    id; each records which side of it they are on via tri_edge_sign.
    """
    loc = np.full((mesh.n_edges, 2), -1, dtype=np.int64)
    for s in range(3):
        e = mesh.tri_edges[:, s]
        side = (mesh.tri_edge_sign[:, s] < 0).astype(np.int64)
        loc[e, side] = s
    own_side = (mesh.tri_edge_sign < 0).astype(np.int64)
    return loc[mesh.tri_edges, 1 - own_side]


def save_mesh(mesh: TriangleMesh, path):
    """Write the plain-text format: `nv nt`, vertex lines, triangle lines."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_triangles}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")


def load_mesh(path) -> TriangleMesh:
    """Read the plain-text format written by `save_mesh`; MeshError for a
    non-ASCII byte, a missing header, a wrong token count or a token that
    is not a number."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
        if len(tokens) < 2:
            raise MeshError(f"{path}: missing header")
        nv, nt = int(tokens[0]), int(tokens[1])
        need = 2 + 2 * nv + 3 * nt
        if len(tokens) != need:
            raise MeshError(f"{path}: expected {need} tokens, found {len(tokens)}")
        vertices = np.array(tokens[2 : 2 + 2 * nv], dtype=float).reshape(nv, 2)
        triangles = np.array(tokens[2 + 2 * nv :], dtype=np.int64).reshape(nt, 3)
    except ValueError as err:  # a non-ASCII byte, a token that is not a number, or bad counts
        raise MeshError(f"{path}: {err}") from err
    return build_mesh(vertices, triangles)
