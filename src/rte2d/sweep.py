"""Per-direction dependency analysis and layered transport sweeps.

For a fixed direction, interior edges with |omega . n| above EPS_N
induce an upwind -> downwind arc between the two adjacent triangles.
Peeling zero in-degree elements layer by layer yields an ordering in which
every element's upwind neighbors are solved before it; elements inside one
layer are mutually independent. One peel serves a stack of directions, and
layer i of the stack (pairs l * nt + k) is one step of the kernel's sweep.
"""

from dataclasses import dataclass

import numpy as np

from .dg_core import (
    EDGE_MASS_2, TRACE_T, TRACE_W, check_nonsingular, element_basis, quad_points,
)
from .errors import SweepCycleError, sample
from .mesh import BOUNDARY, EPS_N, TriangleMesh, boundary_points, omega_dot_n, opposite_local_edge
from .quadrature import TriangleRule, triangle_rule


@dataclass(frozen=True)
class SweepSchedule:
    """Layered solve order of a stack of directions: what the peel decides.

    layer_of[l, k] is the layer of element k in direction l; every interior
    inflow edge's upwind neighbour sits in a strictly earlier layer.
    dot[l, k, s] = omega_l . n on local edge s with the outward sign for k.
    One direction's schedule has no leading direction axis. The inflow
    mask, the layer count and the layers are derived from these two; the
    upwind neighbour across an inflow edge is mesh.tri_neighbors there.
    """

    omega: np.ndarray  # (nl, 2), or (2,) for one direction
    layer_of: np.ndarray  # (nl, nt), or (nt,)
    dot: np.ndarray  # (nl, nt, 3), or (nt, 3)

    @property
    def inflow(self) -> np.ndarray:
        """Bool, the shape of dot: the local edges with omega . n < -EPS_N."""
        return self.dot < -EPS_N

    @property
    def n_layers(self) -> int:
        return int(self.layer_of.max()) + 1

    @property
    def layers(self) -> tuple:
        """The pair ids l * nt + k (element ids for one direction) of each layer,
        ascending: the kernel's order split at its bounds."""
        flat = self.layer_of.reshape(-1)
        order = np.argsort(flat, kind="stable")
        return tuple(np.split(order, np.cumsum(np.bincount(flat))[:-1]))


def build_schedules(mesh: TriangleMesh, directions) -> SweepSchedule:
    """The stacked SweepSchedule of the directions (nl, 2), peeled in one loop.

    The (direction, element) pairs are numbered l * nt + k, so one step of
    the loop peels layer i of every direction: max_l n_layers(l) steps in
    all. Each direction's slice equals the schedule it would get alone.
    """
    om = np.asarray(directions, dtype=float)
    # written so that a NaN component fails too
    if om.ndim != 2 or om.shape[1] != 2 or not (abs(np.hypot(*om.T) - 1.0) <= 1e-12).all():
        raise ValueError("omega must be a unit 2-vector")
    if not om.shape[0]:
        raise ValueError("need at least one direction")
    nl, nt = om.shape[0], mesh.n_triangles
    nbr = mesh.tri_neighbors
    interior = nbr != BOUNDARY
    dot = omega_dot_n(mesh, om)
    indeg = ((dot < -EPS_N) & interior).sum(axis=2).ravel()
    # the pair downwind of each edge, -1 if none
    targets = np.where((dot > EPS_N) & interior, nbr + (np.arange(nl) * nt)[:, None, None], -1)
    targets = targets.reshape(-1, 3)

    layer_of = np.full(nl * nt, -1, dtype=np.int64)
    steps = 0
    current = np.flatnonzero(indeg == 0)
    while current.size:
        layer_of[current] = steps
        steps += 1
        t = targets[current].ravel()
        t = t[t >= 0]
        np.subtract.at(indeg, t, 1)
        t = t[indeg[t] == 0]  # ready, once per upwind edge: sort, drop repeats
        t.sort()
        current = np.concatenate((t[:1], t[1:][t[1:] != t[:-1]]))
    stuck = np.flatnonzero(layer_of < 0)
    if stuck.size:
        l = int(stuck[0] // nt)
        ks = stuck[stuck // nt == l] - l * nt
        raise SweepCycleError(
            f"sweep dependency graph of direction {l}, omega = ({om[l, 0]:.6g}, "
            f"{om[l, 1]:.6g}), has a cycle touching {ks.size} elements",
            elements=tuple(int(k) for k in ks[:20]),
        )
    return SweepSchedule(omega=om, layer_of=layer_of.reshape(nl, nt), dot=dot)


def build_schedule(mesh: TriangleMesh, omega) -> SweepSchedule:
    """The schedule of one direction, from the same peel as build_schedules."""
    stack = build_schedules(mesh, [omega])
    return SweepSchedule(omega=stack.omega[0], layer_of=stack.layer_of[0], dot=stack.dot[0])


@dataclass(frozen=True)
class SpaceTables:
    """Direction-independent element data shared by all kernels on a mesh."""

    mesh: TriangleMesh
    grad: np.ndarray  # (nt, 3, 2) basis gradients
    rule: TriangleRule
    points: np.ndarray  # (nt, nq, 2) physical quadrature points
    areaw: np.ndarray  # (nt, nq) area-scaled weights
    sigma_t: np.ndarray  # (nt, nq)
    opp_local: np.ndarray  # (nt, 3)


def space_tables(mesh: TriangleMesh, sigma_t, basis: np.ndarray = None) -> SpaceTables:
    """Degree-4 volume tables of the sweep kernels, sigma_t sampled and
    checked; basis is the element_basis gradients, built here if None."""
    rule = triangle_rule(4)
    pts = quad_points(mesh, rule)
    return SpaceTables(
        mesh=mesh,
        grad=element_basis(mesh) if basis is None else basis,
        rule=rule,
        points=pts,
        areaw=mesh.tri_area[:, None] * rule.weights[None, :],
        sigma_t=sample("sigma_t", sigma_t, pts),
        opp_local=opposite_local_edge(mesh),
    )


def _volume_rhs(qw, bary, delta, d):
    return qw @ bary + (delta * qw.sum(axis=-1))[..., None] * d


@dataclass(frozen=True)
class SweepKernel:
    """Batched transport solve of a stack of directions.

    The sweep visits the (direction, element) pairs in (layer, direction,
    element) order, so layer i of every direction is the slice
    bounds[i]:bounds[i+1] of the sweep positions and one step solves it.
    Every per-pair array is stored component-major, the pair index last:
    blocks and b0 in direction order (pair l * nt + k), fold and nbr in
    sweep order. A sweep forms b0 + blocks @ x in direction order, gathers
    it once into a (3, n + 1) buffer of coefficient planes in sweep order,
    whose column n stays zero, and steps through the layers. A step gathers
    the upwind coefficients of at most two inflow edges per pair (nbr: flat
    indices into that buffer, column n if none) and applies a 3x4 block
    (fold) on contiguous rows. blocks are the inverted local matrices, for
    run(rhs), or, built with scatter_w, those times the scattering moments,
    for run_scattered(G @ u). d = omega . grad phi is derived on demand. One
    direction's kernel is a stack of one without the leading direction axis
    on omega, on the input and on the output; it keeps its schedule, and a
    stack keeps none, so the schedule can be freed once it is built."""

    schedule: SweepSchedule  # of a one-direction kernel; None for a stack
    omega: np.ndarray  # (nl, 2), or (2,) for one direction
    grad: np.ndarray  # (nt, 3, 2) basis gradients
    delta: float
    bary: np.ndarray  # (nq, 3)
    order: np.ndarray  # (n,) pair index l * nt + k at each sweep position
    pos: np.ndarray  # (n,) sweep position of each pair; inverse of order
    bounds: tuple  # (max layers + 1) slice bounds into the sweep positions
    scattering: bool  # built with scatter_w: blocks hold the scattering moments
    blocks: np.ndarray  # (3, 3, n) inverted local matrices [@ scattering moments], direction order
    b0: np.ndarray  # (3, n) inverted local matrix @ (volume source + inflow data), direction order
    fold: np.ndarray  # (3, 4, n) inverted local matrix @ coupling to 2 upwind coefficients per edge
    nbr: np.ndarray  # (4, n) int32 flat index of those coefficients in the (3, n + 1) buffer

    def volume_rhs(self, qw: np.ndarray) -> np.ndarray:
        """RHS of a volume source given area-weighted point values (nl, nt, nq)."""
        om = self.omega[..., None, None, :]  # d = omega . grad(phi), as build_kernel forms it
        d = self.grad[..., 0] * om[..., 0] + self.grad[..., 1] * om[..., 1]
        return _volume_rhs(qw, self.bary, self.delta, d)

    def run(self, scatter_rhs=None) -> np.ndarray:
        """One sweep of every direction with the fixed rhs (+ scatter_rhs);
        the rhs and the result are (nl, nt, 3), or (nt, 3) for one direction."""
        if scatter_rhs is not None and self.scattering:
            raise ValueError("a kernel built with scatter_w takes G @ u in run_scattered")
        x = None if scatter_rhs is None else np.moveaxis(scatter_rhs, -1, 0)
        return np.moveaxis(self._sweep(x), 0, -1)

    def run_scattered(self, gc: np.ndarray) -> np.ndarray:
        """One sweep with the scattering source sigma_s * sum_i G[l, i] u^i,
        given gc = G @ u as coefficient planes (3, nl, nt); returns the new
        coefficient planes (3, nl, nt). Needs scatter_w."""
        if not self.scattering:
            raise ValueError("run_scattered needs a kernel built with scatter_w")
        return self._sweep(gc)

    def _sweep(self, x):
        """Coefficient planes (3, [nl,] nt) of the sweep from b0 + blocks @ x,
        x planes of that shape (nothing added if None). The start vector is
        formed in direction order and gathered into sweep order once."""
        n = self.order.size
        c = np.zeros((3, n + 1))  # column n stays zero: the "no neighbour" target
        if x is None:
            start = self.b0
        else:
            start = np.einsum("ijk,jk->ik", self.blocks, x.reshape(3, n))
            start += self.b0
        # row by row into the buffer: take(out=) with mode="raise" would buffer
        # a whole copy first, and an in-range permutation is never clipped
        for i in range(3):
            np.take(start[i], self.order, out=c[i, :n], mode="clip")
        del start  # freed before the result is allocated
        flat, fold, nbr = c.reshape(-1), self.fold, self.nbr
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            step = c[:, lo:hi]
            step += np.einsum("ijk,jk->ik", fold[:, :, lo:hi], flat.take(nbr[:, lo:hi]))
        # from the contiguous c: a take from the strided head would copy it first
        return c.take(self.pos, axis=1).reshape((3, *self.omega.shape[:-1], self.grad.shape[0]))


def inverse_3x3(a: np.ndarray, direction=None) -> np.ndarray:
    """Adjugate inverses of 3x3 blocks stored as planes (3, 3, n), from
    explicit cofactors; StabilityError on a block that check_nonsingular
    rejects."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    check_nonsingular(a, det, direction=direction)
    adj = np.stack([
        c00, a02 * a21 - a01 * a22, a01 * a12 - a02 * a11,
        c01, a00 * a22 - a02 * a20, a02 * a10 - a00 * a12,
        c02, a01 * a20 - a00 * a21, a00 * a11 - a01 * a10,
    ])
    adj /= det
    return adj.reshape(a.shape)


# The inflow edge s as weights of its |e| |omega . n|: its edge mass in the
# local matrix (rows and columns s, s + 1), and its coupling to the upwind
# neighbour's coefficients opp, opp + 1 (columns 2s, 2s + 1 of the 3x6
# block), whose trace runs against the edge parameter. The edge index is
# last, so a product with the (3, nt) edge weights gives coefficient planes.
_EDGE_MASS = np.zeros((3, 3, 3))
_EDGE_COUPLING = np.zeros((3, 6, 3))
for _s in range(3):
    _i = [_s, (_s + 1) % 3]
    _EDGE_MASS[np.ix_(_i, _i, [_s])] = EDGE_MASS_2[..., None]
    _EDGE_COUPLING[np.ix_(_i, [2 * _s, 2 * _s + 1], [_s])] = EDGE_MASS_2[:, ::-1, None]

# Per pattern sum_s 2^s [s is an interior inflow edge]: two edges covering those (never three,
# as sum_s |e_s| omega . n_s = 0), their 4 columns of the 3x6 coupling block and flat offsets.
_UPWIND_PICK = np.array([[0, 1], [0, 1], [0, 1], [0, 1], [0, 2], [0, 2], [1, 2], [0, 1]])
_PICK_COLS = (2 * _UPWIND_PICK[:, :, None] + [0, 1]).reshape(8, 4)
_PICK_FLAT = (6 * np.arange(3)[:, None] + _PICK_COLS[:, None, :]).reshape(8, 12)


def upwind_pattern(live: np.ndarray, direction=None) -> np.ndarray:
    """The _UPWIND_PICK row (nt,) of each element's interior inflow edges live (nt, 3)."""
    pattern = live @ np.array([1, 2, 4])
    if (pattern == 7).any():
        raise ValueError(f"direction {direction}: element {pattern.argmax()} has 3 inflow edges")
    return pattern


def _inflow_rhs(dot, inflow, inflow_data, l, elen, bnd):
    """g(x, y, l) against the local basis on direction l's inflow boundary edges (nt, 3)."""
    bk, bs, bpts = bnd  # boundary_points(mesh, TRACE_T)
    inflow = inflow[bk, bs]
    ks, ss, pts = bk[inflow], bs[inflow], bpts[inflow]
    fixed = np.zeros(dot.shape)
    if ks.size:
        tq, tw = TRACE_T, TRACE_W
        g = sample(f"inflow data (direction {l})", inflow_data, pts, l)
        w = -elen[ks, ss] * dot[ks, ss]
        np.add.at(fixed, (ks, ss), w * ((tw * (1.0 - tq))[None, :] * g).sum(axis=1))
        np.add.at(fixed, (ks, (ss + 1) % 3), w * ((tw * tq)[None, :] * g).sum(axis=1))
    return fixed


def build_kernel(
    tables: SpaceTables, schedule: SweepSchedule, delta, f_vals=None, inflow_data=None,
    scatter_w=None,
):
    """Assemble the sweep kernel of a schedule's stack of directions, or of its one direction.

    delta is one number. f_vals is the fixed volume source at the table's
    quadrature points (nt, nq), a sequence of them for a stack, or None for
    zero. inflow_data is the inflow trace g(x, y, l) of
    TransportProblem.inflow, g(x, y) for one direction, or None for zero; it
    is sampled once per direction, at the inflow boundary points, and a
    non-finite sample raises AssumptionError. scatter_w, the area-weighted
    sigma_s at the quadrature points (nt, nq), folds the scattering moments
    into the blocks for run_scattered.

    With d = grad(phi) . omega, the local matrix of (omega . grad u + sigma_t
    u, v + delta omega . grad v) is M_sigma + s1 d^T + delta d (W d +
    s_sigma)^T in the element moments M_sigma = sum_q w sigma_t phi phi^T,
    s1 = sum_q w phi, W = sum_q w and s_sigma = sum_q w sigma_t phi, plus
    the inflow edge masses; only d changes between directions. Every entry
    is formed as an (nt,) row, the element index last, as the kernel stores
    it: each direction's products go into its contiguous column slice, and
    fold and nbr are then permuted into sweep order one row at a time. A
    stacked kernel keeps no reference to the schedule.
    """
    one = schedule.omega.ndim == 1
    if one:
        f_vals = (f_vals,)
        if inflow_data is not None:  # g(x, y) of the one direction
            inflow_data = lambda x, y, l, g=inflow_data: g(x, y)
    mesh, delta = tables.mesh, float(delta)
    omega = schedule.omega.reshape(-1, 2)
    nl, nt = len(omega), mesh.n_triangles
    n = nl * nt
    dot, inflow = schedule.dot.reshape(nl, nt, 3), schedule.inflow.reshape(nl, nt, 3)
    bary = tables.rule.points

    layer_of = schedule.layer_of.reshape(n)
    # stable radix sort on the narrowest integer type that holds the layers
    order = np.argsort(layer_of.astype(np.min_scalar_type(layer_of.max())), kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    bounds = tuple(int(x) for x in np.concatenate([[0], np.cumsum(np.bincount(layer_of))]))

    # element moments as planes: phi_i phi_j (3, 3, nq) and phi_i (3, nq) against weights (nq, nt)
    pp = bary.T[:, None, :] * bary.T[None, :, :]
    w = tables.areaw
    wst = w * tables.sigma_t
    m_sig = pp @ wst.T  # (3, 3, nt)
    s1, s_sig, w_sum = bary.T @ w.T, bary.T @ wst.T, w.sum(axis=1)
    # scattering moments: volume_rhs of w * (gc . phi) is (S_k + delta d s_k^T) gc
    if scatter_w is not None:
        s_vec = bary.T @ scatter_w.T  # (3, nt)
        s_mat = pp @ scatter_w.T  # (3, 3, nt)
    elen = mesh.edge_length[mesh.tri_edges]
    interior = mesh.tri_neighbors != BOUNDARY
    up = np.maximum(mesh.tri_neighbors, 0)  # the upwind neighbour across a live edge
    bnd = None if inflow_data is None else boundary_points(mesh, TRACE_T)

    blocks = np.empty((3, 3, n))
    b0 = np.empty((3, n))
    fold = np.empty((3, 4, n))
    nbr = np.empty((4, n), dtype=np.int32)
    grad = tables.grad
    gx, gy = grad.transpose(2, 1, 0).copy()  # (3, nt) each
    # row 2s + c: plane offset of the upwind neighbour's coefficient c on edge s
    coef_off = ((tables.opp_local.T[:, None, :] + np.array([0, 1])[:, None]) % 3) * (n + 1)
    # flat offsets of the picked rows of the (18, nt) coupling and the (6, nt) indices, per pattern
    pick_rows, pick_cols, elem = _PICK_FLAT.T * nt, _PICK_COLS.T * nt, np.arange(nt)
    for l, om in enumerate(omega):
        dl = gx * om[0] + gy * om[1]  # 8x faster than (nt, 3, 2) @ (2,)
        ddl = delta * dl
        live = inflow[l] & interior  # the edges with an upwind neighbour
        edge_w = np.where(inflow[l], -elen * dot[l], 0.0).T
        a = m_sig + s1[:, None] * dl
        a += ddl[:, None] * (w_sum * dl + s_sig)
        a += _EDGE_MASS @ edge_w
        fixed = np.zeros((nt, 3))
        if f_vals is not None and f_vals[l] is not None:
            fixed += _volume_rhs(w * f_vals[l], bary, delta, dl.T)
        if inflow_data is not None:
            fixed += _inflow_rhs(dot[l], inflow[l], inflow_data, l, elen, bnd)
        pattern = upwind_pattern(live, direction=l)
        coupling = _EDGE_COUPLING.reshape(18, 3) @ np.where(interior.T, edge_w, 0.0)
        coupling = coupling.take(pick_rows.take(pattern, axis=1) + elem).reshape(3, 4, nt)

        cols = slice(l * nt, (l + 1) * nt)
        inv = inverse_3x3(a, direction=l)
        np.einsum("ijk,jk->ik", inv, fixed.T, out=b0[:, cols])
        np.einsum("imk,mjk->ijk", inv, coupling, out=fold[:, :, cols])
        if scatter_w is None:
            blocks[:, :, cols] = inv
        else:
            np.einsum("imk,mjk->ijk", inv, s_mat + ddl[:, None] * s_vec, out=blocks[:, :, cols])
        # the sweep positions of the upwind neighbours, offset into the buffer
        slots = pos[cols]
        flat = (coef_off + np.where(live, slots[up], n).T[:, None]).reshape(6, nt)
        nbr[:, cols] = flat.take(pick_cols.take(pattern, axis=1) + elem)
    # a step reads contiguous fold and nbr columns: one temporary row at a time
    for row in (*fold.reshape(12, n), *nbr):
        row[:] = row[order]

    return SweepKernel(
        schedule=schedule if one else None, omega=schedule.omega, grad=grad, delta=delta,
        bary=bary, order=order, pos=pos, bounds=bounds, scattering=scatter_w is not None,
        blocks=blocks, b0=b0, fold=fold, nbr=nbr,
    )
