"""Element-by-element reference implementations, the oracles of the batched paths.

`build_mesh` numbers the edges with a generic `np.unique(axis=0)` of the
sorted vertex pairs, the reference of the package's single-key sort.
`classify_edges` splits the local edges into inflow and outflow from
omega . n formed one local edge at a time, and `upwind_map` names the
neighbour across each inflow edge. `assemble_local` + `solve_local` build
and solve one triangle's 3x3 system from callables; `sweep_direction` walks
a schedule element by element with them; `scattering_source` evaluates the
lagged scattering source at arbitrary points. `error_norms` is the masked
per-edge version of `rte2d.error_norms`. None of these share code with the
package's batched kernels, which is what makes them independent references.

The local system for one triangle K and one direction omega is

    A[i, j] = (omega . grad(phi_j) + sigma_t * phi_j,
               phi_i + delta * omega . grad(phi_i))_K
              + sum over inflow edges of <phi_j, phi_i |omega . n|>_e
    b[i]    = (source, phi_i + delta * omega . grad(phi_i))_K
              + sum over inflow edges of <upwind trace, phi_i |omega . n|>_e

with the known upwind trace (a solved neighbor or boundary data) moved to
the right-hand side. delta = 0 recovers the plain upwind DG scheme.
"""

import math
from dataclasses import dataclass

import numpy as np

from rte2d import (
    EPS_N,
    AngularQuadrature,
    DGSolution,
    ErrorReport,
    ManufacturedCase,
    MeshError,
    StabilityError,
    TriangleMesh,
    element_basis,
)
from rte2d.dg_core import EDGE_MASS_2, check_nonsingular
from rte2d.mesh import BOUNDARY, _freeze
from rte2d.quadrature import TriangleRule, edge_rule, triangle_rule
from rte2d.sweep import SweepSchedule


# upwind-map entry of an edge that carries no dependency (outflow/tangential)
NO_UPWIND = -2


@dataclass(frozen=True)
class EdgeClassification:
    """Per-triangle upwind classification for one transport direction."""

    omega: np.ndarray
    omega_dot_n: np.ndarray  # (nt, 3) outward-normal components
    inflow: np.ndarray  # (nt, 3) bool; complement is the outflow set

    @property
    def outflow(self):
        return ~self.inflow


def classify_edges(mesh: TriangleMesh, omega) -> EdgeClassification:
    """Split each triangle's edges into inflow and outflow for direction omega.

    omega . n is formed one local edge at a time from the outward normal of
    the triangle's own directed edge v_s -> v_{s+1}, not from the mesh's
    stored normals. An edge is inflow when omega . n < -EPS_N; tangential
    edges (|omega . n| <= EPS_N) land in the outflow set.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (2,) or abs(np.hypot(*omega) - 1.0) > 1e-12:
        raise ValueError("omega must be a unit 2-vector")
    p = mesh.vertices[mesh.triangles]
    dot = np.empty((mesh.n_triangles, 3))
    for s in range(3):
        t = p[:, (s + 1) % 3] - p[:, s]
        n = np.column_stack([t[:, 1], -t[:, 0]]) / np.hypot(t[:, 0], t[:, 1])[:, None]
        dot[:, s] = n[:, 0] * omega[0] + n[:, 1] * omega[1]
    return EdgeClassification(omega=omega, omega_dot_n=dot, inflow=dot < -EPS_N)


def upwind_map(mesh: TriangleMesh, inflow) -> np.ndarray:
    """upwind[k, s]: the neighbour across local edge s where inflow[k, s]
    (BOUNDARY on the inflow boundary), NO_UPWIND elsewhere."""
    up = np.full(np.shape(inflow), NO_UPWIND, dtype=np.int64)
    for k, s in zip(*np.nonzero(inflow)):
        up[k, s] = mesh.tri_neighbors[k, s]
    return up


@dataclass
class LocalSystem:
    A: np.ndarray  # (3, 3)
    b: np.ndarray  # (3,)


def assemble_local(
    mesh: TriangleMesh,
    basis: np.ndarray,
    k: int,
    omega,
    delta: float,
    sigma_t,
    inflow_local_edges,
    upwind_trace,
    source,
    tri_rule: TriangleRule = None,
    edge_npts: int = 3,
) -> LocalSystem:
    """Assemble the 3x3 system for triangle `k` in direction `omega`.

    `sigma_t` and `source` are callables of (x, y) arrays; `upwind_trace`
    is a callable (local_edge, x, y) giving the known upwind values on each
    local edge listed in `inflow_local_edges`.
    """
    area = mesh.tri_area[k]
    if area <= 0:
        raise MeshError(f"triangle {k} has nonpositive area")
    omega = np.asarray(omega, dtype=float)
    if tri_rule is None:
        tri_rule = triangle_rule(4)

    bary = tri_rule.points  # (nq, 3), also the phi values at the points
    wq = tri_rule.weights
    xq = bary @ mesh.vertices[mesh.triangles[k]]  # (nq, 2)
    st = np.asarray(sigma_t(xq[:, 0], xq[:, 1]), dtype=float)
    st = np.broadcast_to(st, (bary.shape[0],))
    d = basis[k] @ omega  # (3,) omega . grad(phi_j)

    test = bary + delta * d[None, :]  # (nq, 3) phi_i + delta omega.grad(phi_i)
    trial = d[None, :] + st[:, None] * bary  # (nq, 3)
    A = area * np.einsum("q,qj,qi->ij", wq, trial, test)

    src = np.broadcast_to(np.asarray(source(xq[:, 0], xq[:, 1]), dtype=float), (bary.shape[0],))
    b = area * np.einsum("q,q,qi->i", wq, src, test)

    tq, tw = edge_rule(edge_npts)
    for s in inflow_local_edges:
        a_dot = abs(float(mesh.tri_normal[k, s] @ omega))
        length = mesh.tri_edge_length[k, s]
        i0, i1 = s, (s + 1) % 3
        block = length * a_dot * EDGE_MASS_2
        A[np.ix_((i0, i1), (i0, i1))] += block.T  # rows are test, cols trial

        p0 = mesh.vertices[mesh.triangles[k, i0]]
        p1 = mesh.vertices[mesh.triangles[k, i1]]
        pts = p0[None, :] + tq[:, None] * (p1 - p0)[None, :]
        trace = np.broadcast_to(
            np.asarray(upwind_trace(s, pts[:, 0], pts[:, 1]), dtype=float), tq.shape
        )
        phi = np.column_stack([1.0 - tq, tq])  # traces of phi_{i0}, phi_{i1}
        contrib = length * a_dot * np.einsum("q,q,qi->i", tw, trace, phi)
        b[i0] += contrib[0]
        b[i1] += contrib[1]

    return LocalSystem(A=A, b=b)


def solve_local(sys: LocalSystem, element=None, direction=None) -> np.ndarray:
    """Direct 3x3 solve with partial pivoting, guarded by check_nonsingular."""
    A = np.array(sys.A, dtype=float)
    b = np.array(sys.b, dtype=float)
    check_nonsingular(A[..., None], np.linalg.det(A)[None], element=element, direction=direction)
    for col in range(3):
        p = col + int(np.argmax(np.abs(A[col:, col])))
        if p != col:
            A[[col, p]] = A[[p, col]]
            b[[col, p]] = b[[p, col]]
        for row in range(col + 1, 3):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.empty(3)
    for row in (2, 1, 0):
        x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
    return x


def sweep_direction(
    mesh: TriangleMesh,
    schedule: SweepSchedule,
    omega_l,
    delta,
    sigma_t,
    source_l,
    inflow_data,
    out=None,
    basis: np.ndarray = None,
    tri_rule: TriangleRule = None,
    edge_npts: int = 3,
):
    """Solve one direction by walking the schedule element by element.

    Reference implementation built on the per-element assembly; the batched
    SweepKernel is tested against this one. `source_l` and `inflow_data`
    are callables of (x, y). `delta` may be a scalar or a per-element
    array. Writes P1 coefficients into `out` (allocated when None) and
    returns it.
    """
    omega_l = np.asarray(omega_l, dtype=float)
    if basis is None:
        basis = element_basis(mesh)
    if out is None:
        out = np.zeros((mesh.n_triangles, 3))
    delta_k = np.broadcast_to(np.asarray(delta, dtype=float), (mesh.n_triangles,))

    def neighbor_trace(n):
        grad = basis[n]
        p0 = mesh.vertices[mesh.triangles[n, 0]]
        cn = out[n]

        def trace(_s, x, y):
            disp = np.stack([x - p0[0], y - p0[1]], axis=-1)
            lam12 = disp @ grad[1:].T
            lam = np.stack([1.0 - lam12[..., 0] - lam12[..., 1], lam12[..., 0], lam12[..., 1]], axis=-1)
            return lam @ cn

        return trace

    upwind = upwind_map(mesh, schedule.inflow)
    for li, layer in enumerate(schedule.layers):
        for k in layer:
            inflow_local = np.flatnonzero(schedule.inflow[k])
            traces = {}
            for s in inflow_local:
                n = upwind[k, s]
                if n == BOUNDARY:
                    if inflow_data is None:
                        traces[s] = lambda _s, x, y: np.zeros(np.shape(x))
                    else:
                        traces[s] = lambda _s, x, y: inflow_data(x, y)
                else:
                    traces[s] = neighbor_trace(n)

            def upwind_trace(s, x, y):
                return traces[s](s, x, y)

            sys = assemble_local(
                mesh,
                basis,
                int(k),
                omega_l,
                float(delta_k[k]),
                sigma_t,
                inflow_local,
                upwind_trace,
                source_l,
                tri_rule=tri_rule,
                edge_npts=edge_npts,
            )
            try:
                out[k] = solve_local(sys, element=int(k))
            except StabilityError as err:
                raise StabilityError(
                    f"layer {li}: {err}", element=int(k), direction=err.direction
                ) from err
    return out


def _locate(mesh: TriangleMesh, basis: np.ndarray, x, y):
    """Containing element and barycentric coords for scattered points."""
    pts = np.stack([np.ravel(x), np.ravel(y)], axis=-1)
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    disp = pts[None, :, :] - p0[:, None, :]
    lam12 = np.einsum("knt,kjt->knj", disp, basis[:, 1:])
    lam = np.concatenate([1.0 - lam12.sum(axis=2, keepdims=True), lam12], axis=2)
    k = lam.min(axis=2).argmax(axis=0)
    lam = lam[k, np.arange(pts.shape[0])]
    out = lam.min(axis=1) < -1e-12
    if out.any():
        x0, y0 = pts[np.argmax(out)]
        raise ValueError(f"point ({x0:.6g}, {y0:.6g}) lies outside the mesh")
    return k, lam


def scattering_source(sol: DGSolution, G, sigma_s, l: int):
    """x -> sigma_s(x) * sum_i G[l, i] u^i(x) for the previous iterate.

    Returns a callable of (x, y) usable at arbitrary points (each point is
    located in its containing element). The batched solver path computes the
    same quantity directly from the element moments.
    """
    mesh = sol.mesh
    basis = element_basis(mesh)
    row = np.asarray(G)[l]

    def source(x, y):
        x = np.asarray(x, dtype=float)
        k, lam = _locate(mesh, basis, x, y)
        vals = np.einsum("ipj,pj->ip", sol.coeffs[:, k, :], lam)
        out = np.asarray(sigma_s(x, y), dtype=float) * (row @ vals).reshape(x.shape)
        return out

    return source


def error_norms(
    sol: DGSolution,
    case: ManufacturedCase,
    mesh: TriangleMesh,
    quad: AngularQuadrature,
    level: int = 0,
    iterations: int = 0,
    eps_n: float = 1e-12,
) -> ErrorReport:
    """Four weighted error norms of sol against the case's exact solution.

    Volume terms use a degree-6 triangle rule, traces a 4-point Gauss rule.
    On inflow boundary edges the upwind error trace is zero (the exact
    solution satisfies the inflow data), so the jump there is the interior
    error trace.
    """
    basis = element_basis(mesh)
    rule = triangle_rule(6)
    bary = rule.points
    pts = np.einsum("qs,kst->kqt", bary, mesh.vertices[mesh.triangles])
    areaw = mesh.tri_area[:, None] * rule.weights[None, :]
    tq, tw = edge_rule(4)
    opp = mesh.tri_opposite
    interior = mesh.tri_neighbors != BOUNDARY
    elen = mesh.tri_edge_length

    s1_of = [(s + 1) % 3 for s in range(3)]
    e1 = e2 = e3 = e4 = 0.0
    for l, theta in enumerate(quad.angles):
        wl = quad.weights[l]
        omega = quad.directions[l]
        cu = sol.coeffs[l]

        u_q = np.broadcast_to(
            np.asarray(case.exact_u(pts[..., 0], pts[..., 1], theta), dtype=float),
            pts.shape[:2],
        )
        diff = u_q - cu @ bary.T
        e1 += wl * float((areaw * diff**2).sum())

        grad = case.exact_grad(pts[..., 0], pts[..., 1], theta)
        du = grad[..., 0] * omega[0] + grad[..., 1] * omega[1]
        duh = ((basis @ omega) * cu).sum(axis=1)
        e3 += wl * float(
            (mesh.tri_h[:, None] * areaw * (du - duh[:, None]) ** 2).sum()
        )

        dot = mesh.tri_normal @ omega
        for s in range(3):
            s1 = s1_of[s]

            def exact_on_edge(mask):
                p0 = mesh.vertices[mesh.triangles[mask, s]]
                p1 = mesh.vertices[mesh.triangles[mask, s1]]
                ep = p0[:, None, :] + tq[None, :, None] * (p1 - p0)[:, None, :]
                vals = np.asarray(
                    case.exact_u(ep[..., 0], ep[..., 1], theta), dtype=float
                )
                return np.broadcast_to(vals, ep.shape[:2])

            def own_trace(mask):
                return np.outer(cu[mask, s], 1.0 - tq) + np.outer(cu[mask, s1], tq)

            mo = (dot[:, s] > eps_n) & ~interior[:, s]
            if mo.any():
                err = exact_on_edge(mo) - own_trace(mo)
                w_e = elen[mo, s] * dot[mo, s]
                e2 += wl * float((w_e[:, None] * err**2 * tw[None, :]).sum())

            m_in = dot[:, s] < -eps_n
            m_ii = m_in & interior[:, s]
            if m_ii.any():
                nbr = mesh.tri_neighbors[m_ii, s]
                sp = opp[m_ii, s]
                sp1 = (sp + 1) % 3
                up = cu[nbr, sp, None] * tq[None, :] + cu[nbr, sp1, None] * (
                    1.0 - tq[None, :]
                )
                jump = up - own_trace(m_ii)
                w_e = elen[m_ii, s] * (-dot[m_ii, s])
                e4 += wl * float((w_e[:, None] * jump**2 * tw[None, :]).sum())
            m_ib = m_in & ~interior[:, s]
            if m_ib.any():
                jump = exact_on_edge(m_ib) - own_trace(m_ib)
                w_e = elen[m_ib, s] * (-dot[m_ib, s])
                e4 += wl * float((w_e[:, None] * jump**2 * tw[None, :]).sum())

    eh = math.sqrt(e1 + e2 + e3 + e4)
    return ErrorReport(
        e1=math.sqrt(e1),
        e2=math.sqrt(e2),
        e3=math.sqrt(e3),
        e4=math.sqrt(e4),
        eh=eh,
        h=mesh.h,
        level=level,
        iterations=iterations,
        n_elems=mesh.n_triangles,
    )


def build_mesh(vertices, triangles) -> TriangleMesh:
    """The edge table by `np.unique(axis=0)` of the sorted vertex pairs.

    Validates counterclockwise orientation, conformity (each edge shared by
    at most two triangles, with opposite orientations), and normal lengths.
    The local-edge view comes from a global edge table: each edge's normal
    and length once, outward from its first triangle, and each triangle's
    side of it as a sign.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (nv, 2) array")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangles must be an (nt, 3) array")
    if not np.isfinite(vertices).all():
        raise MeshError("vertex coordinates must be finite")
    nt = triangles.shape[0]
    if len({(a, b, c) for a, b, c in map(tuple, np.sort(triangles, axis=1))}) != nt:
        raise MeshError("duplicate triangles")
    if (np.sort(triangles, axis=1)[:, :-1] == np.sort(triangles, axis=1)[:, 1:]).any():
        raise MeshError("triangle with repeated vertex ids")

    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    e1 = p1 - p0
    e2 = p2 - p0
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    if (area <= 0).any():
        bad = int(np.argmax(area <= 0))
        raise MeshError(f"triangle {bad} is degenerate or clockwise (signed area {area[bad]:g})")

    # Edge table from the 3*nt directed local edges.
    pairs = np.stack(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]], axis=1
    ).reshape(-1, 2)
    sorted_pairs = np.sort(pairs, axis=1)
    _, inverse, counts = np.unique(
        sorted_pairs, axis=0, return_inverse=True, return_counts=True
    )
    if (counts > 2).any():
        raise MeshError("nonconforming mesh: an edge is shared by more than two triangles")
    ne = counts.shape[0]
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(ne))
    first = order[starts]
    edge_left = first // 3
    edge_vertices = pairs[first]
    edge_right = np.full(ne, BOUNDARY, dtype=np.int64)
    interior = counts == 2
    second = order[starts[interior] + 1]
    edge_right[interior] = second // 3
    if not (pairs[second] == edge_vertices[interior][:, ::-1]).all():
        raise MeshError("interior edge traversed in the same direction by both triangles")

    tri_edges = inverse.reshape(nt, 3)
    tri_edge_sign = np.where(edge_left[tri_edges] == np.arange(nt)[:, None], 1, -1)
    tri_neighbors = np.where(
        tri_edge_sign == 1, edge_right[tri_edges], edge_left[tri_edges]
    )
    # each edge's local index in its left and in its right triangle
    loc = np.full((ne, 2), BOUNDARY, dtype=np.int64)
    for s in range(3):
        loc[tri_edges[:, s], (tri_edge_sign[:, s] < 0).astype(np.int64)] = s
    tri_opposite = loc[tri_edges, (tri_edge_sign > 0).astype(np.int64)]

    tvec = vertices[edge_vertices[:, 1]] - vertices[edge_vertices[:, 0]]
    edge_length = np.hypot(tvec[:, 0], tvec[:, 1])
    if (edge_length <= 0).any():
        raise MeshError("zero-length edge")
    edge_normal = np.column_stack([tvec[:, 1], -tvec[:, 0]]) / edge_length[:, None]

    tri_h = edge_length[tri_edges].max(axis=1)

    return TriangleMesh(
        vertices=_freeze(vertices),
        triangles=_freeze(triangles),
        tri_edges=_freeze(tri_edges),
        tri_neighbors=_freeze(tri_neighbors),
        tri_opposite=_freeze(tri_opposite),
        tri_normal=_freeze(edge_normal[tri_edges] * tri_edge_sign[..., None]),
        tri_edge_length=_freeze(edge_length[tri_edges]),
        tri_area=_freeze(area),
        tri_h=_freeze(tri_h),
        h=float(edge_length.max()),
    )
