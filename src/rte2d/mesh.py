"""Conforming triangular meshes of a rectangular domain.

A mesh is stored as flat numpy arrays (struct-of-arrays): vertex
coordinates, triangle->vertex connectivity (counterclockwise), and one
view of each local edge. Local edge `s` of a triangle runs from its local
vertex `s` to `(s+1) % 3`; the mesh stores, per triangle and local edge,
the neighbour across it, that neighbour's local index of the same edge,
the unit outward normal and the length. An interior edge is seen from
both sides: the neighbour's normal is this one negated, exactly.
`build_mesh` alone numbers the edges; the numbering serves refinement.

Meshes are immutable after construction (arrays are write-protected),
and two meshes compare equal only if they are the same object.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MeshError

#: Sentinel for "no neighbor" in edge/neighbor tables.
BOUNDARY = -1

#: Edges with |omega . n| at most this are tangential: neither inflow nor upwind.
EPS_N = 1e-12


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    vertices: np.ndarray  # (nv, 2) float
    triangles: np.ndarray  # (nt, 3) int, counterclockwise
    tri_edges: np.ndarray  # (nt, 3) int, edge id of local edge s
    tri_neighbors: np.ndarray  # (nt, 3) neighbor across local edge, or BOUNDARY
    tri_opposite: np.ndarray  # (nt, 3) the neighbor's local index of the edge, or BOUNDARY
    tri_normal: np.ndarray  # (nt, 3, 2) unit outward normal of local edge s
    tri_edge_length: np.ndarray  # (nt, 3)
    tri_area: np.ndarray  # (nt,)
    tri_h: np.ndarray  # (nt,) longest edge per triangle
    h: float

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def n_edges(self):
        return int(self.tri_edges.max()) + 1

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
    triangles; the same sort pairs each interior local edge with its twin.
    The mesh owns copies of the two inputs.
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

    # Edge ids from the 3*nt directed local edges, keyed by (min, max) id:
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
    interior = counts == 2
    a, b = first[interior], order[starts[interior] + 1]  # the two uses, 3k + s
    if not (pairs[b] == pairs[a][:, ::-1]).all():
        raise MeshError("interior edge traversed in the same direction by both triangles")
    tri_edges = np.empty((nt, 3), dtype=np.int64)
    np.put(tri_edges, order, np.cumsum(run_start) - 1)
    nbr = np.full(3 * nt, BOUNDARY, dtype=np.int64)
    opp = np.full(3 * nt, BOUNDARY, dtype=np.int64)
    nbr[a], nbr[b] = b // 3, a // 3
    opp[a], opp[b] = b % 3, a % 3

    # each triangle's own directed edges: the two sides of an edge negate exactly
    t = p[:, [1, 2, 0]] - p
    length = np.hypot(t.real, t.imag)
    if (length <= 0).any():
        raise MeshError("zero-length edge")
    normal = np.empty((nt, 3, 2))  # per component: a broadcast (..., 2) divide is slow
    np.divide(t.imag, length, out=normal[..., 0])
    np.divide(-t.real, length, out=normal[..., 1])

    _reject_hanging_nodes(z, pairs[first[~interior]])

    return TriangleMesh(
        vertices=_freeze(vertices),
        triangles=_freeze(triangles),
        tri_edges=_freeze(tri_edges),
        tri_neighbors=_freeze(nbr.reshape(nt, 3)),
        tri_opposite=_freeze(opp.reshape(nt, 3)),
        tri_normal=_freeze(normal),
        tri_edge_length=_freeze(length),
        tri_area=_freeze(area),
        tri_h=_freeze(length.max(axis=1)),
        h=float(length.max()),
    )


def _reject_hanging_nodes(z, bv):
    """MeshError naming a vertex that lies inside a boundary edge, and the edge.

    z holds the vertices as x + iy and bv the boundary edges' vertex ids.
    The coarse side of a hanging node has a boundary edge through it, and
    the fine side boundary edges along the same line that end at it. An
    angle from rounded endpoints is good to 2 tol / length, so edges whose
    angle intervals overlap, mod pi, form a run of directions, turned by its
    longest edge's angle: an endpoint shared by two edges of a run gets one
    coordinate along it. Their offsets across the run form runs the same
    way, one per line, spread by tol and by that angle's error over the
    boundary's extent. Sorted by line and interval along it, a hanging node
    makes some edge overlap the one before it; one of the two then has an
    endpoint inside the other. Edges that coincide end to end, as on a
    slit, have none and are left alone. O(nb log nb) in the nb boundary edges.
    """
    zb = z[bv]  # (nb, 2) endpoints
    # offsets from one boundary vertex: the tolerance follows the boundary's
    # extent, not its distance from the origin, and is no finer than a few ulps
    w = zb - zb[0, 0]
    extent = abs(w).max()
    tol = max(1e-10 * extent, 4 * np.spacing(abs(zb).max()))
    d = zb[:, 1] - zb[:, 0]
    length = abs(d)
    err = 2 * tol / length
    a = np.angle(d) % np.pi
    o = np.argsort(a - err)
    lo, hi = (a - err)[o], np.maximum.accumulate((a + err)[o])
    run = _runs(o, lo[1:] > hi[:-1])
    if hi[-1] - np.pi >= lo[0]:  # the run through pi is the run from 0
        run[run == run[o[-1]]] = 0
    o = np.lexsort((length, run))
    ro = run[o]
    ref = o[np.searchsorted(ro, np.arange(ro[-1] + 1), "right") - 1]  # each run's longest edge
    w *= (np.conj(d[ref]) / length[ref])[run][:, None]  # along the run + i across it
    t = np.sort(w.real, axis=1)
    off = w[:, 0].imag
    o = np.lexsort((off, run))
    ro, oo, gap = run[o], off[o], 2 * (tol + err[ref] * extent)
    line = _runs(o, (ro[1:] != ro[:-1]) | (oo[1:] - oo[:-1] > gap[ro[1:]]))
    o = np.lexsort((t[:, 1], t[:, 0], line))
    ls, ts = line[o], t[o]
    overlap = (ls[1:] == ls[:-1]) & (ts[1:, 0] < ts[:-1, 1] - tol)
    for i in np.flatnonzero(overlap):
        for e, f in ((o[i], o[i + 1]), (o[i + 1], o[i])):
            inside = (w[f].real > t[e, 0] + tol) & (w[f].real < t[e, 1] - tol)
            if inside.any():
                v = bv[f, inside.argmax()]
                x, y = float(z[v].real), float(z[v].imag)
                raise MeshError(
                    f"nonconforming mesh: vertex {v} at ({x!r}, {y!r}) lies inside "
                    f"boundary edge {bv[e, 0]}-{bv[e, 1]} (a hanging node)"
                )


def _runs(o, new):
    """Labels 0, 1, ... of runs in the order o, a new run where new (len(o) - 1) holds."""
    label = np.empty(len(o), dtype=np.int64)
    label[o[0]] = 0
    label[o[1:]] = np.cumsum(new)
    return label


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


# red children of (a, b, c) with midpoints (ab, bc, ca), by index into those six points
_RED_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])


def refine_regular(mesh: TriangleMesh) -> TriangleMesh:
    """Split every triangle into four via edge midpoints (red refinement).

    Midpoints are numbered by edge id, so the result is conforming by
    construction and each child h is half the parent's. Either side of an
    edge gives the same midpoint: a + b == b + a exactly.
    """
    nv, v, t = mesh.n_vertices, mesh.vertices, mesh.triangles
    use = np.empty(mesh.n_edges, dtype=np.int64)  # one local edge 3k + s of each edge
    use[mesh.tri_edges.ravel()] = np.arange(t.size)
    mids = 0.5 * (v[t.ravel()[use]] + v[t[:, [1, 2, 0]].ravel()[use]])
    vertices = np.vstack([v, mids])
    corners = np.concatenate([t, nv + mesh.tri_edges], axis=1)  # a, b, c, ab, bc, ca
    fine = build_mesh(vertices, corners[:, _RED_CHILDREN].reshape(-1, 3))
    if abs(fine.total_area() - mesh.total_area()) > 1e-10 * mesh.total_area():
        raise MeshError("refinement changed the total area")
    return fine


def omega_dot(v, directions) -> np.ndarray:
    """omega . v of vectors v (..., 2), such as mesh.tri_normal or basis gradients, for a
    stack of directions (nl, 2): (nl, ...), or (...) for one direction (2,).

    Elementwise from v's planes: a (..., 2) @ (2,) matmul runs one tiny product per vector
    and may round differently.
    """
    om = np.asarray(directions, dtype=float)
    return np.multiply.outer(om[..., 0], v[..., 0]) + np.multiply.outer(om[..., 1], v[..., 1])


def across_index(mesh: TriangleMesh) -> np.ndarray:
    """(3, 2, nt): across local edge s of element k, the flat index (tri_opposite + c) % 3 *
    nt + tri_neighbors into a field's rows (3, nt) of the neighbour's coefficient c, or on
    the boundary 3 nt, a zero slot put after the rows. The neighbour runs the edge the other
    way: its coefficient c sits at this element's vertex s + 1 - c."""
    nbr, opp, nt = mesh.tri_neighbors.T[:, None], mesh.tri_opposite.T[:, None], mesh.n_triangles
    return np.where(nbr != BOUNDARY, (opp + [[0], [1]]) % 3 * nt + nbr, 3 * nt)


def boundary_points(mesh: TriangleMesh, t):
    """Boundary local edges bk, bs (nb,) and their points p0 + t (p1 - p0) (nb, len(t), 2)."""
    bk, bs = np.nonzero(mesh.tri_neighbors == BOUNDARY)
    p0 = mesh.vertices[mesh.triangles[bk, bs]]
    p1 = mesh.vertices[mesh.triangles[bk, (bs + 1) % 3]]
    return bk, bs, p0[:, None] + t[:, None] * (p1 - p0)[:, None]


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
    non-ASCII byte, a missing header, a negative count, a wrong token count
    or a token that is not a number."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
        if len(tokens) < 2:
            raise MeshError(f"{path}: missing header")
        nv, nt = int(tokens[0]), int(tokens[1])
        if nv < 0 or nt < 0:  # else the slices below would read the header as data
            raise MeshError(f"{path}: negative count in the header: {nv} vertices, {nt} triangles")
        need = 2 + 2 * nv + 3 * nt
        if len(tokens) != need:
            raise MeshError(f"{path}: expected {need} tokens, found {len(tokens)}")
        vertices = np.array(tokens[2 : 2 + 2 * nv], dtype=float).reshape(nv, 2)
        triangles = np.array(tokens[2 + 2 * nv :], dtype=np.int64).reshape(nt, 3)
    except ValueError as err:  # a non-ASCII byte, a token that is not a number, or bad counts
        raise MeshError(f"{path}: {err}") from err
    return build_mesh(vertices, triangles)
