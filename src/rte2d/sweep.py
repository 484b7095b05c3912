"""Per-direction dependency analysis and layered transport sweeps.

For a fixed direction, interior edges with |omega . n| above a tolerance
induce an upwind -> downwind arc between the two adjacent triangles.
Peeling zero in-degree elements layer by layer yields an ordering in which
every element's upwind neighbors are solved before it; elements inside one
layer are mutually independent.
"""

from dataclasses import dataclass

import numpy as np

from .dg_core import (
    EDGE_MASS_2,
    ElementBasis,
    assemble_local,
    element_basis,
    solve_local,
)
from .errors import StabilityError, SweepCycleError
from .mesh import BOUNDARY, TriangleMesh, classify_edges, opposite_local_edge
from .quadrature import TriangleRule, edge_rule, triangle_rule

EPS_N = 1e-12

# upwind-map sentinel for edges that carry no dependency (outflow/tangential)
NO_UPWIND = -2


@dataclass(frozen=True)
class SweepSchedule:
    """Layered solve order for one direction.

    layers partition 0..nt-1; every interior inflow edge's upwind neighbor
    sits in a strictly earlier layer. upwind[k, s] is the neighbor id across
    local edge s when that edge is inflow (BOUNDARY on the inflow boundary,
    NO_UPWIND otherwise). dot[k, s] = omega . n on local edge s with the
    outward sign for k.
    """

    omega: np.ndarray
    layers: tuple
    layer_of: np.ndarray  # (nt,)
    upwind: np.ndarray  # (nt, 3)
    inflow: np.ndarray  # (nt, 3) bool
    dot: np.ndarray  # (nt, 3)

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def build_schedule(mesh: TriangleMesh, omega, eps_n: float = EPS_N) -> SweepSchedule:
    cls = classify_edges(mesh, omega, eps_n=eps_n)
    nt = mesh.n_triangles
    inflow = cls.inflow
    interior = mesh.tri_neighbors != BOUNDARY

    upwind = np.full((nt, 3), NO_UPWIND, dtype=np.int64)
    upwind[inflow] = BOUNDARY
    dep = inflow & interior
    upwind[dep] = mesh.tri_neighbors[dep]

    indeg = dep.sum(axis=1)
    outgoing = (cls.omega_dot_n > eps_n) & interior
    layer_of = np.full(nt, -1, dtype=np.int64)
    layers = []
    current = np.flatnonzero(indeg == 0)
    assigned = 0
    while current.size:
        layers.append(current)
        layer_of[current] = len(layers) - 1
        assigned += current.size
        ks, ss = np.nonzero(outgoing[current])
        targets = mesh.tri_neighbors[current[ks], ss]
        np.subtract.at(indeg, targets, 1)
        cand = np.unique(targets)
        current = cand[(indeg[cand] == 0) & (layer_of[cand] < 0)]
    if assigned != nt:
        stuck = np.flatnonzero(layer_of < 0)
        raise SweepCycleError(
            f"sweep dependency graph has a cycle touching {stuck.size} elements",
            elements=tuple(int(k) for k in stuck[:20]),
        )
    return SweepSchedule(
        omega=np.asarray(omega, dtype=float),
        layers=tuple(layers),
        layer_of=layer_of,
        upwind=upwind,
        inflow=inflow,
        dot=cls.omega_dot_n,
    )


def sweep_direction(
    mesh: TriangleMesh,
    schedule: SweepSchedule,
    omega_l,
    delta,
    sigma_t,
    source_l,
    inflow_data,
    out=None,
    basis: ElementBasis = None,
    tri_rule: TriangleRule = None,
    edge_npts: int = 3,
):
    """Solve one direction by walking the schedule element by element.

    Reference implementation built on the per-element assembly; the batched
    SweepKernel below is the production path and is tested against this
    one. `source_l` and `inflow_data` are callables of (x, y). `delta` may
    be a scalar or a per-element array. Writes P1 coefficients into `out`
    (allocated when None) and returns it.
    """
    omega_l = np.asarray(omega_l, dtype=float)
    if basis is None:
        basis = element_basis(mesh)
    if out is None:
        out = np.zeros((mesh.n_triangles, 3))
    delta_k = np.broadcast_to(np.asarray(delta, dtype=float), (mesh.n_triangles,))

    def neighbor_trace(n):
        grad = basis.grad[n]
        p0 = mesh.vertices[mesh.triangles[n, 0]]
        cn = out[n]

        def trace(_s, x, y):
            disp = np.stack([x - p0[0], y - p0[1]], axis=-1)
            lam12 = disp @ grad[1:].T
            lam = np.stack([1.0 - lam12[..., 0] - lam12[..., 1], lam12[..., 0], lam12[..., 1]], axis=-1)
            return lam @ cn

        return trace

    for li, layer in enumerate(schedule.layers):
        for k in layer:
            inflow_local = np.flatnonzero(schedule.inflow[k])
            traces = {}
            for s in inflow_local:
                n = schedule.upwind[k, s]
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


@dataclass(frozen=True)
class SpaceTables:
    """Direction-independent element data shared by all kernels on a mesh."""

    mesh: TriangleMesh
    basis: ElementBasis
    rule: TriangleRule
    points: np.ndarray  # (nt, nq, 2) physical quadrature points
    areaw: np.ndarray  # (nt, nq) area-scaled weights
    sigma_t: np.ndarray  # (nt, nq)
    opp_local: np.ndarray  # (nt, 3)
    edge_t: np.ndarray  # (ne_pts,) edge rule params
    edge_w: np.ndarray  # (ne_pts,)


def space_tables(
    mesh: TriangleMesh,
    sigma_t,
    basis: ElementBasis = None,
    tri_rule: TriangleRule = None,
    edge_npts: int = 4,
) -> SpaceTables:
    if basis is None:
        basis = element_basis(mesh)
    if tri_rule is None:
        tri_rule = triangle_rule(4)
    pts = np.einsum("qs,kst->kqt", tri_rule.points, mesh.vertices[mesh.triangles])
    st = np.asarray(sigma_t(pts[..., 0], pts[..., 1]), dtype=float)
    st = np.broadcast_to(st, pts.shape[:2])
    tq, tw = edge_rule(edge_npts)
    return SpaceTables(
        mesh=mesh,
        basis=basis,
        rule=tri_rule,
        points=pts,
        areaw=mesh.tri_area[:, None] * tri_rule.weights[None, :],
        sigma_t=st,
        opp_local=opposite_local_edge(mesh),
        edge_t=tq,
        edge_w=tw,
    )


def _volume_rhs(qw, bary, delta_k, d):
    return qw @ bary + (delta_k * qw.sum(axis=-1))[..., None] * d


@dataclass(frozen=True)
class SweepKernel:
    """Batched transport solve of a stack of directions.

    Everything fixed across source iterations is factored here; per solve
    only the scattering source comes in, as a rhs (run) or as the P1
    coefficients G @ u (run_scattered). The (direction, element) pairs sit
    in (layer, direction, element) order, so layer i of every direction is
    the slice bounds[i]:bounds[i+1]; its pairs depend only on earlier layers
    of their own direction, so one step solves the whole slice. A kernel of
    one direction is a stack of one without the leading direction axis on d
    and on the arrays its methods take and return.
    """

    schedules: tuple
    delta_k: np.ndarray  # (nt,)
    d: np.ndarray  # (nl, nt, 3) omega . grad(phi)
    bary: np.ndarray  # (nq, 3)
    order: np.ndarray  # (n,) pair index l * nt + k at each sweep position
    pos: np.ndarray  # (n,) sweep position of each pair; inverse of order
    bounds: tuple  # (max layers + 1) slice bounds into the sweep positions
    inv_a: np.ndarray  # (n, 3, 3) inverted local matrices, in sweep order
    b0: np.ndarray  # (n, 3) inv_a @ (volume source + inflow data), sweep order
    fold: np.ndarray  # (n, 3, 6) inv_a @ coupling to the 2 upwind coefficients per edge
    nbr: np.ndarray  # (n, 6) int32 flat index of those coefficients, 3n if none
    scat: np.ndarray = None  # (n, 3, 3) inv_a @ scattering moments, sweep order

    @property
    def schedule(self) -> SweepSchedule:
        """The schedule of a one-direction kernel (ValueError for a stack)."""
        (sched,) = self.schedules
        return sched

    def volume_rhs(self, qw: np.ndarray) -> np.ndarray:
        """RHS of a volume source given area-weighted point values (nl, nt, nq)."""
        return _volume_rhs(qw, self.bary, self.delta_k, self.d)

    def run(self, scatter_rhs=None) -> np.ndarray:
        """One sweep of every direction with the fixed rhs (+ scatter_rhs)."""
        return self._sweep(self.inv_a, scatter_rhs)

    def run_scattered(self, gc: np.ndarray) -> np.ndarray:
        """One sweep with the scattering source sigma_s * sum_i G[l, i] u^i,
        given gc = G @ u as P1 coefficients (nl, nt * 3); needs scatter_w."""
        return self._sweep(self.scat, gc)

    def _sweep(self, blocks, x):
        """Sweep from b0 + blocks @ x, x in pair order (nothing added if None)."""
        n = self.order.size
        c = np.zeros(3 * (n + 1))  # zero padding row: the "no neighbour" target
        cs = c.reshape(n + 1, 3)
        cs[:n] = self.b0
        if x is not None:
            cs[:n] += np.einsum("kij,kj->ki", blocks, x.reshape(n, 3).take(self.order, axis=0))
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            g = c.take(self.nbr[lo:hi])
            cs[lo:hi] += np.einsum("kij,kj->ki", self.fold[lo:hi], g)
        return cs.take(self.pos, axis=0).reshape(self.d.shape)


def inverse_3x3(a: np.ndarray, direction=None) -> np.ndarray:
    """Adjugate inverses of a (n, 3, 3) batch; StabilityError on a block
    that is near-singular relative to its largest entry."""
    r0, r1, r2 = a[:, 0], a[:, 1], a[:, 2]
    adj = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=2)
    det = (r0 * adj[:, :, 0]).sum(axis=1)
    scale = np.abs(a).reshape(-1, 9).max(axis=1)
    bad = np.abs(det) < 1e-20 * scale**3
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        msg = f"near-singular local system at element {k} (|det|={abs(det[k]):.3e})"
        raise StabilityError(msg, element=k, direction=direction)
    return adj / det[:, None, None]


def _direction_system(tables, schedule, delta_k, f_vals, inflow_data):
    """One direction's d, local matrices, neighbour coupling blocks, fixed rhs."""
    mesh = tables.mesh
    nt = mesh.n_triangles
    d = tables.basis.grad @ schedule.omega  # (nt, 3)
    bary = tables.rule.points

    test = bary[None, :, :] + delta_k[:, None, None] * d[:, None, :]  # (nt, nq, 3)
    trial = d[:, None, :] + tables.sigma_t[:, :, None] * bary[None, :, :]
    wtrial = tables.areaw[:, :, None] * trial
    a = np.matmul(test.transpose(0, 2, 1), wtrial)  # a[k, i, j] = sum_q test_i wtrial_j

    inflow = schedule.inflow
    interior = mesh.tri_neighbors != BOUNDARY
    absdot = -schedule.dot  # positive on inflow edges
    elen = mesh.edge_length[mesh.tri_edges]

    coup = np.zeros((nt, 3, 3, 2))  # [k, s, i, t]: neighbour's coefficient opp + t on edge s
    for s in range(3):
        m = inflow[:, s]
        if not m.any():
            continue
        w = elen[m, s] * absdot[m, s]
        i0, i1 = s, (s + 1) % 3
        a[m, i0, i0] += w * EDGE_MASS_2[0, 0]
        a[m, i0, i1] += w * EDGE_MASS_2[0, 1]
        a[m, i1, i0] += w * EDGE_MASS_2[1, 0]
        a[m, i1, i1] += w * EDGE_MASS_2[1, 1]

        mi = m & interior[:, s]
        if mi.any():
            k_idx = np.flatnonzero(mi)
            wi = elen[mi, s] * absdot[mi, s]
            # neighbor traces run against the edge param: phi_opp = t, phi_opp+1 = 1-t
            coup[k_idx, s, i0, 0] = wi / 6.0
            coup[k_idx, s, i0, 1] = wi / 3.0
            coup[k_idx, s, i1, 0] = wi / 3.0
            coup[k_idx, s, i1, 1] = wi / 6.0

    fixed = np.zeros((nt, 3))
    if f_vals is not None:
        fixed += _volume_rhs(tables.areaw * f_vals, bary, delta_k, d)
    if inflow_data is not None:
        bmask = inflow & ~interior
        if bmask.any():
            tq, tw = tables.edge_t, tables.edge_w
            ks, ss = np.nonzero(bmask)
            p0 = mesh.vertices[mesh.triangles[ks, ss]]
            p1 = mesh.vertices[mesh.triangles[ks, (ss + 1) % 3]]
            pts = p0[:, None, :] + tq[None, :, None] * (p1 - p0)[:, None, :]
            g = np.asarray(inflow_data(pts[..., 0], pts[..., 1]), dtype=float)
            g = np.broadcast_to(g, pts.shape[:2])
            w = elen[ks, ss] * absdot[ks, ss]
            c0 = w * ((tw * (1.0 - tq))[None, :] * g).sum(axis=1)
            c1 = w * ((tw * tq)[None, :] * g).sum(axis=1)
            np.add.at(fixed, (ks, ss), c0)
            np.add.at(fixed, (ks, (ss + 1) % 3), c1)
    return d, a, coup, fixed


def build_kernel(
    tables: SpaceTables, schedule, delta, f_vals=None, inflow_data=None, scatter_w=None
):
    """Assemble the sweep kernel of one direction or of a stack of them.

    schedule: one SweepSchedule, or a sequence of them for a stack. For one
    direction, f_vals is the fixed volume source at the table's quadrature
    points (nt, nq), or None for zero, and inflow_data a callable (x, y) for
    the inflow boundary trace, or None for homogeneous data. For a stack,
    both are per-direction sequences of those (or None for all directions).
    scatter_w, the area-weighted sigma_s at the quadrature points (nt, nq),
    enables run_scattered.
    """
    one = isinstance(schedule, SweepSchedule)
    schedules = (schedule,) if one else tuple(schedule)
    if one:
        f_vals, inflow_data = (f_vals,), (inflow_data,)
    nl = len(schedules)
    nt = tables.mesh.n_triangles
    n = nl * nt
    delta_k = np.broadcast_to(np.asarray(delta, dtype=float), (nt,)).copy()
    bary = tables.rule.points

    layer_of = np.concatenate([s.layer_of for s in schedules])
    order = np.argsort(layer_of, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    bounds = tuple(int(x) for x in np.concatenate([[0], np.cumsum(np.bincount(layer_of))]))

    # scattering moments: volume_rhs of w * (gc . phi) is (S_k + delta_k d s_k^T) gc
    if scatter_w is not None:
        s_vec = scatter_w @ bary  # (nt, 3)
        s_mat = np.matmul(bary.T * scatter_w[:, None, :], bary)  # (nt, 3, 3)

    # each direction's blocks go straight into their sweep-order slots
    d = np.empty((nl, nt, 3))
    inv_a = np.empty((n, 3, 3))
    b0 = np.empty((n, 3))
    fold = np.empty((n, 3, 6))
    nbr = np.empty((n, 6), dtype=np.int32)
    scat = None if scatter_w is None else np.empty((n, 3, 3))
    opp = tables.opp_local
    for l, sched in enumerate(schedules):
        f_l = None if f_vals is None else f_vals[l]
        g_l = None if inflow_data is None else inflow_data[l]
        d[l], a, coup, fixed = _direction_system(tables, sched, delta_k, f_l, g_l)
        slots = pos[l * nt : (l + 1) * nt]
        inv = inverse_3x3(a, direction=l)
        inv_a[slots] = inv
        b0[slots] = np.einsum("kij,kj->ki", inv, fixed)
        fold[slots] = np.matmul(inv[:, None], coup).transpose(0, 2, 1, 3).reshape(nt, 3, 6)
        up = sched.upwind
        flat = 3 * pos[l * nt + np.maximum(up, 0)][..., None] + (opp[..., None] + [0, 1]) % 3
        nbr[slots] = np.where(up[..., None] >= 0, flat, 3 * n).reshape(nt, 6)
        if scat is not None:
            m = s_mat + (delta_k[:, None] * d[l])[:, :, None] * s_vec[:, None, :]
            scat[slots] = np.matmul(inv, m)

    return SweepKernel(
        schedules=schedules,
        delta_k=delta_k,
        d=d[0] if one else d,
        bary=bary,
        order=order,
        pos=pos,
        bounds=bounds,
        inv_a=inv_a,
        b0=b0,
        fold=fold,
        nbr=nbr,
        scat=scat,
    )
