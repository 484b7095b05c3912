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
from .mesh import BOUNDARY, EPS_N, TriangleMesh, across_index, boundary_points, omega_dot
from .quadrature import TriangleRule, triangle_rule

try:  # np.einsum without its Python dispatch, which costs as much as a narrow step's product
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    _einsum = np.einsum


@dataclass(frozen=True)
class SweepSchedule:
    """Layered solve order of a stack of directions: what the peel decides.

    layer_of[l, k] is the layer of element k in direction l; every interior
    inflow edge's upwind neighbour sits in a strictly earlier layer. A
    mirrored direction (see build_schedules) has its own peel's layer
    count, but usually not its layers. inflow[l, k, s] is omega_l . n <
    -EPS_N with n = mesh.tri_normal[k, s], outward from k; the upwind
    neighbour across an inflow edge is mesh.tri_neighbors there. One
    direction's schedule has no leading direction axis. The layer count
    and the layers are derived from layer_of.
    """

    omega: np.ndarray  # (nl, 2), or (2,) for one direction
    layer_of: np.ndarray  # (nl, nt), or (nt,)
    inflow: np.ndarray  # bool (nl, nt, 3), or (nt, 3)

    @property
    def n_layers(self) -> int:
        return int(self.layer_of.max()) + 1

    @property
    def layers(self) -> tuple:
        """The pair ids l * nt + k (element ids for one direction) of each layer,
        ascending: the pairs of each of the kernel's steps."""
        order, bounds = _sweep_order(self.layer_of)
        return tuple(np.split(order, bounds[1:-1]))


def _sweep_order(layer_of):
    """The pair ids (n,) in (layer, pair) order and the layer bounds, a tuple of n_layers + 1."""
    flat = layer_of.reshape(-1)
    # stable radix sort on the narrowest integer type that holds the layers
    order = np.argsort(flat.astype(np.min_scalar_type(flat.max())), kind="stable")
    return order, (0, *np.cumsum(np.bincount(flat)).tolist())


def build_schedules(mesh: TriangleMesh, directions) -> SweepSchedule:
    """The stacked SweepSchedule of the directions (nl, 2), peeled in one loop.

    The (direction, element) pairs are numbered l * nt + k, so one step of
    the loop peels layer i of every peeled direction. Direction l takes
    n_layers - 1 minus the layers of its partner p, the direction nearest
    -omega_l, instead, if p < l was peeled, p's graph is consistent and l's
    interior inflow and outflow masks are p's outflow and inflow masks. Only
    a peeled slice equals its build_schedule; every slice keeps the upwind
    order and its own peel's layer count.
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
    inflow, out = np.empty((2, nl, nt, 3), dtype=bool)
    for l, o in enumerate(om):  # one direction's omega . n at a time: only the masks are kept
        dot = omega_dot(mesh.tri_normal, o)
        inflow[l], out[l] = dot < -EPS_N, dot > EPS_N
    into = inflow & interior
    out &= interior
    # p's graph is consistent if an edge is inflow here iff outflow across, on the neighbour's side
    across = np.where(interior, 3 * nbr + mesh.tri_opposite, 0)
    mirror = np.full(nl, -1)
    for l, p in enumerate((om @ om.T).argmin(axis=1)):  # p: the direction nearest -omega_l
        if p < l and mirror[p] < 0 and (into[l] == out[p]).all() and (out[l] == into[p]).all():
            if (into[p] == out[p].take(across) & interior).all():
                mirror[l] = p
    peel = np.flatnonzero(mirror < 0)
    n = peel.size * nt
    # pairs j * nt + k of the peeled directions; every edge that is not outflow points at the
    # sentinel pair n, whose in-degree no number of decrements brings to zero
    indeg = np.append(into[peel].sum(axis=2), 3 * n + 1)
    targets = np.where(out[peel], nbr + (np.arange(peel.size) * nt)[:, None, None], n)
    targets = targets.reshape(-1, 3)

    layer = np.full(n, -1, dtype=np.int64)
    steps = 0
    current = np.flatnonzero(indeg == 0)
    while current.size:
        layer[current] = steps
        steps += 1
        t = targets.take(current, axis=0).ravel()
        np.subtract.at(indeg, t, 1)
        t = t[indeg[t] == 0]  # ready, once per upwind edge: sort, drop repeats
        t.sort()
        current = np.concatenate((t[:1], t[1:][t[1:] != t[:-1]]))
    stuck = np.flatnonzero(layer < 0)
    if stuck.size:
        j = int(stuck[0] // nt)
        ks, l = stuck[stuck // nt == j] - j * nt, peel[j]
        raise SweepCycleError(
            f"sweep dependency graph of direction {l}, omega = ({om[l, 0]:.6g}, "
            f"{om[l, 1]:.6g}), has a cycle touching {ks.size} elements",
            elements=tuple(int(k) for k in ks[:20]),
        )
    layer_of = np.empty((nl, nt), dtype=np.int64)
    layer_of[peel] = layer.reshape(-1, nt)
    for l in np.flatnonzero(mirror >= 0):  # the reverse topological order of the partner's peel
        layer_of[l] = layer_of[mirror[l]].max() - layer_of[mirror[l]]
    return SweepSchedule(omega=om, layer_of=layer_of, inflow=inflow)


def build_schedule(mesh: TriangleMesh, omega) -> SweepSchedule:
    """The schedule of one direction, from the same peel as build_schedules."""
    stack = build_schedules(mesh, [omega])
    return SweepSchedule(omega=stack.omega[0], layer_of=stack.layer_of[0], inflow=stack.inflow[0])


@dataclass(frozen=True)
class SpaceTables:
    """Direction-independent element data shared by all kernels on a mesh."""

    mesh: TriangleMesh
    grad: np.ndarray  # (nt, 3, 2) basis gradients
    rule: TriangleRule
    points: np.ndarray  # (nt, nq, 2) physical quadrature points
    areaw: np.ndarray  # (nt, nq) area-scaled weights
    sigma_t: np.ndarray  # (nt, nq)


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
    )


def _volume_rhs(qw, bary, delta, d):  # planes (..., 3, nt) of qw (..., nq, nt) and d (..., 3, nt)
    return bary.T @ qw + (delta * qw.sum(axis=-2))[..., None, :] * d


@dataclass(frozen=True)
class SweepKernel:
    """Batched transport solve of a stack of directions.

    The sweep visits the (direction, element) pairs in (layer, direction,
    element) order; layer i of every direction is step i. blocks and b0 are
    planes in direction order (pair l * nt + k). A sweep scatters b0 +
    blocks @ x through slots into a (3n + 1,) coefficient buffer whose last
    slot stays zero, and a step adds fold times the upwind coefficients that
    nbr gathers (the zero slot for none), all in contiguous per-step blocks.
    blocks are the inverted local matrices, for run(rhs), or, built with
    scatter_w, those times the scattering moments, for run_scattered(G @ u).
    d = omega . grad phi is derived on demand. One direction's kernel is a
    stack of one without the leading direction axis on omega, on the input
    and on the output; it keeps its schedule, and a stack keeps none."""

    schedule: SweepSchedule  # of a one-direction kernel; None for a stack
    omega: np.ndarray  # (nl, 2), or (2,) for one direction
    grad: np.ndarray  # (nt, 3, 2) basis gradients
    delta: float
    bary: np.ndarray  # (nq, 3)
    slots: np.ndarray  # (2, n) int64 buffer offsets of coefficients 0, 1 (2: 2 slots[1] - slots[0])
    steps: tuple  # (buffer slice (3, m), fold block (4, 3, m), nbr block (4, m)) of each step
    scattering: bool  # built with scatter_w: blocks hold the scattering moments
    blocks: np.ndarray  # (3, 3, n) inverted local matrices [@ scattering moments], direction order
    b0: np.ndarray  # (3, n) inverted local matrix @ (volume source + inflow data), direction order
    fold: np.ndarray  # (12n,) inverted local matrix @ coupling to 2 upwind coefficients per edge
    nbr: np.ndarray  # (4n,) int32 buffer offsets of those coefficients

    def volume_rhs(self, qw: np.ndarray) -> np.ndarray:
        """RHS (nl, nt, 3) of a volume source given area-weighted point values (nl, nt, nq)."""
        d = omega_dot(self.grad, self.omega).swapaxes(-1, -2)
        return _volume_rhs(qw.swapaxes(-1, -2).copy(), self.bary, self.delta, d).swapaxes(-1, -2)

    def run(self, scatter_rhs=None) -> np.ndarray:
        """One sweep of every direction with the fixed rhs (+ scatter_rhs);
        the rhs and the result are (nl, nt, 3), or (nt, 3) for one direction."""
        if scatter_rhs is not None:
            if self.scattering:
                raise ValueError("a kernel built with scatter_w takes G @ u in run_scattered")
            # a new C-contiguous copy for the sweep to overwrite ("K" order keeps moved strides)
            scatter_rhs = np.array(np.moveaxis(scatter_rhs, -1, 0), dtype=float, order="C")
        return np.moveaxis(self._sweep(scatter_rhs), 0, -1)

    def run_scattered(self, gc: np.ndarray) -> np.ndarray:
        """One sweep with the scattering source sigma_s * sum_i G[l, i] u^i, given gc = G @ u
        as C-contiguous float64 coefficient planes (3, nl, nt), which it consumes: the new
        coefficient planes are written over gc and returned. Needs scatter_w."""
        if not self.scattering:
            raise ValueError("run_scattered needs a kernel built with scatter_w")
        if not (gc.flags.c_contiguous and gc.dtype == np.float64):
            raise ValueError("run_scattered writes over gc: it must be C-contiguous float64")
        return self._sweep(gc)

    def _sweep(self, x):
        """Coefficient planes (3, [nl,] nt) of the sweep from b0 + blocks @ x: from b0 in a new
        array if x is None, else written over x, C-contiguous float64 planes of that shape
        (so that its reshape is no copy); each chunk of x is read before it is written."""
        n, b0 = self.b0.shape[1], self.b0
        if x is None:
            c = b0.copy()
        else:
            c, blocks = x.reshape(3, n), self.blocks
            for lo in range(0, n, 4096):  # a chunk's product stays in a core's L2 cache
                k = slice(lo, lo + 4096)
                np.add(_einsum("ijk,jk->ik", blocks[:, :, k], c[:, k]), b0[:, k], out=c[:, k])
        buf = np.empty(3 * n + 1)  # each slot but the zero last one takes a coefficient
        buf[-1] = 0.0
        s0, s1 = self.slots
        buf[s0], buf[s1] = c[0], c[1]
        # row 0 is in the buffer now, so its memory holds row 2's offsets until the end
        s2 = np.multiply(s1, 2, out=c[0].view(np.int64))
        s2 -= s0
        buf[s2] = c[2]
        for span, fold, nbr in self.steps:
            step = buf[span].reshape(3, -1)
            step += _einsum("jik,jk->ik", fold, buf.take(nbr))
        # an in-range index is never clipped; mode="raise" would buffer out= first
        for row, off in ((2, s2), (0, s0), (1, s1)):
            buf.take(off, out=c[row], mode="clip")
        return c.reshape((3, *self.omega.shape[:-1], self.grad.shape[0]))


def inverse_3x3(a: np.ndarray, direction=None, out=None) -> np.ndarray:
    """Adjugate inverses of 3x3 blocks stored as planes (3, 3, n), from explicit cofactors,
    in out (3, 3, n) if given; StabilityError on a block that check_nonsingular rejects."""
    adj, t = np.empty_like(a) if out is None else out, np.empty_like(a[0, 0])
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN det fails the check
        for i, j in np.ndindex(3, 3):  # adj[j, i] = a[i1, j1] a[i2, j2] - a[i1, j2] a[i2, j1]
            (i1, i2), (j1, j2) = ((i + 1) % 3, (i + 2) % 3), ((j + 1) % 3, (j + 2) % 3)
            np.multiply(a[i1, j1], a[i2, j2], out=adj[j, i])
            adj[j, i] -= np.multiply(a[i1, j2], a[i2, j1], out=t)
        det = a[0, 0] * adj[0, 0] + a[0, 1] * adj[1, 0] + a[0, 2] * adj[2, 0]
        check_nonsingular(a, det, direction=direction)
    adj /= det
    return adj


# Per unit |e| |omega . n| of the inflow edge s (the last index): its edge mass's 1/3 on a's
# diagonal at s, s + 1, and C's columns 2s, 2s + 1, whose trace runs against the edge parameter.
_EDGE_DIAG = np.zeros((3, 3))
_EDGE_COUPLING = np.zeros((3, 6, 3))
for _s in range(3):
    _i = [_s, (_s + 1) % 3]
    _EDGE_DIAG[_i, _s] = EDGE_MASS_2[0, 0]
    _EDGE_COUPLING[np.ix_(_i, [2 * _s, 2 * _s + 1], [_s])] = EDGE_MASS_2[:, ::-1, None]

# Per pattern p = sum_s 2^s [s is an interior inflow edge]: two edges covering those (never
# three, as sum_s |e_s| omega . n_s = 0), and C's 4 live columns per unit edge weight, row
# 4 i + 2 j + c: _EDGE_COUPLING's column 2 e + c of edge e = _UPWIND_PICK[p, j] if in p, else 0.
_UPWIND_PICK = np.array([[0, 1], [0, 1], [0, 1], [0, 1], [0, 2], [0, 2], [1, 2], [0, 1]])
_LIVE_COUPLING = np.zeros((3, 2, 2, 8))
for (_p, _j), _e in np.ndenumerate(_UPWIND_PICK):
    _LIVE_COUPLING[:, _j, :, _p] = _EDGE_COUPLING[:, 2 * _e : 2 * _e + 2, _e] * (_p >> _e & 1)
_LIVE_COUPLING = _LIVE_COUPLING.reshape(12, 8)


def upwind_pattern(live: np.ndarray, direction=None) -> np.ndarray:
    """The _UPWIND_PICK row (nt,) of each element's interior inflow edges live (nt, 3)."""
    pattern = live[..., 0] + 2 * live[..., 1] + 4 * live[..., 2]
    if (pattern == 7).any():
        raise ValueError(f"direction {direction}: element {pattern.argmax()} has 3 inflow edges")
    return pattern


def _inflow_rhs(edge_w, inflow, inflow_data, l, bnd):
    """g(x, y, l) against the local basis on direction l's inflow boundary edges, planes (3, nt)."""
    bk, bs, bpts = bnd  # boundary_points(mesh, TRACE_T)
    inflow = inflow[bs, bk]
    ks, ss, pts = bk[inflow], bs[inflow], bpts[inflow]
    fixed = np.zeros(edge_w.shape)
    if ks.size:
        g = sample(f"inflow data (direction {l})", inflow_data, pts, l)
        w = edge_w[ss, ks]
        np.add.at(fixed, (ss, ks), w * ((TRACE_W * (1.0 - TRACE_T))[None, :] * g).sum(axis=1))
        np.add.at(fixed, ((ss + 1) % 3, ks), w * ((TRACE_W * TRACE_T)[None, :] * g).sum(axis=1))
    return fixed


def _local_forms(tables: SpaceTables, omega, delta, scatter_w):
    """The discrete DODSD/DODG operator of the directions omega (nl, 2), one at a time.

    With d = grad(phi) . omega, the local matrix of (omega . grad u + sigma_t u, v + delta
    omega . grad v) is a = M_sigma + s1 d^T + delta d (W d + s_sigma)^T in the degree-4
    element moments M_sigma = sum_q w sigma_t phi phi^T, s1 = sum_q w phi, W = sum_q w and
    s_sigma = sum_q w sigma_t phi, plus the inflow edge masses. An element solves a u_K =
    C u_up + (S + delta d s^T)(G u)_K + its fixed rhs; C weighs the upwind coefficients
    across interior inflow edges, and S and s are the moments of scatter_w, the area-weighted
    sigma_s (nt, nq). Yields per direction, as planes (..., nt): d, the inflow mask omega . n
    < -EPS_N of mesh.tri_normal, the weights |e| |omega . n| of inflow edges (else 0), a, C's
    4 live columns (3, 4, nt) and the index (4, nt) of each one's upwind coefficient in a
    field's rows (3, nt) (3 nt, a zero slot after them, for none), and S + delta d s^T or
    None; C, and a and S + delta d s^T (the halves of one (6, 3, nt) array), are buffers
    that the next direction refills."""
    bary = tables.rule.points
    # element moments as planes: phi_i phi_j (3, 3, nq) and phi_i (3, nq) against weights (nq, nt)
    pp = bary.T[:, None, :] * bary.T[None, :, :]
    w = tables.areaw
    m_sig, s_sig = (x @ (w * tables.sigma_t).T for x in (pp, bary.T))  # (3, 3, nt), (3, nt)
    s1, w_sum, mesh, nt = bary.T @ w.T, w.sum(axis=1), tables.mesh, len(w)
    ab, coupling, t = np.empty((6, 3, nt)), np.empty((12, nt)), np.empty((3, nt))
    a, scat = ab[:3], None
    if scatter_w is not None:
        s_vec, s_mat, scat = bary.T @ scatter_w.T, pp @ scatter_w.T, ab[3:]
    # the gradients and the edge data as planes (3, nt); vectors as (3, nt, 2) views of them
    grad, normal = (np.moveaxis(v.T.copy(), 0, -1) for v in (tables.grad, mesh.tri_normal))
    neg_len, interior = -mesh.tri_edge_length.T.copy(), mesh.tri_neighbors.T.copy() != BOUNDARY
    across = across_index(mesh).transpose(1, 0, 2).ravel()  # c 3 nt + s nt + k
    pick_off, elem = _UPWIND_PICK.T * nt, np.arange(nt)
    for l, om in enumerate(omega):
        dl, dot = omega_dot(grad, om), omega_dot(normal, om)
        ddl, inflow = delta * dl, dot < -EPS_N
        edge_w = np.where(inflow, np.multiply(neg_len, dot, out=dot), 0.0)
        # in place, as m_sig + s1 d^T and S + delta d s^T: a sum has the same bits either way
        np.add(np.multiply(s1[:, None], dl, out=a), m_sig, out=a)
        np.add(np.multiply(w_sum, dl, out=t), s_sig, out=t)
        for i in range(3):  # dot is spent: it holds a row of delta d (W d + s_sigma)^T
            a[i] += np.multiply(ddl[i], t, out=dot)
        # edge masses: 1/3 |e| |omega . n| on the diagonal by BLAS (its fused sums), 1/6 off it
        a.reshape(9, nt)[::4] += np.matmul(_EDGE_DIAG, edge_w, out=t)
        for s, e in enumerate(np.multiply(edge_w, EDGE_MASS_2[0, 1], out=t)):
            a[s, (s + 1) % 3] += e
            a[(s + 1) % 3, s] += e
        # the picked edges e nt + k; C's live columns and their upwind coefficients there
        live = inflow & interior
        pattern = upwind_pattern(live.T, direction=l)
        pick = np.add(pick_off.take(pattern, axis=1), elem)
        coupling = _LIVE_COUPLING.take(pattern, axis=1, out=coupling, mode="clip")
        coupling.reshape(3, 2, 2, nt)[...] *= edge_w.take(pick)[:, None]
        up = across.take(pick[:, None] + [[0], [3 * nt]])  # [j, c]
        np.copyto(up, 3 * nt, where=~live.take(pick)[:, None])
        if scat is not None:
            np.add(np.multiply(ddl[:, None], s_vec, out=scat), s_mat, out=scat)
        yield dl, inflow, edge_w, a, coupling.reshape(3, 4, nt), up.reshape(4, nt), scat


def build_kernel(
    tables: SpaceTables, schedule: SweepSchedule, delta, f_vals=None, inflow_data=None,
    scatter_w=None,
):
    """Assemble the sweep kernel of a schedule's stack of directions, or of its one direction.

    delta is one number. f_vals is the fixed volume source at the table's quadrature points
    (nt, nq), for a stack an iterable of one per direction, read once in direction order and
    each dropped once its direction is filled (ValueError on more or fewer), or None for
    zero. inflow_data is the inflow trace g(x, y, l) of TransportProblem.inflow, g(x, y) for
    one direction, or None for zero; it is sampled once per direction, at the inflow
    boundary points, and a non-finite sample raises AssumptionError. With scatter_w (see
    _local_forms) the blocks hold the scattering moments, for run_scattered. It folds each
    inverted local matrix into C's live columns and the scattering moments: blocks and b0
    into the direction's column slice, fold and nbr into the steps of its pairs. A stack
    keeps no schedule: only its directions and layers are read, and its inflow mask is freed
    before the fill if the caller passed the schedule inline (CPython 3.11+ hands such an
    argument's only reference to the callee). ValueError if the schedule's element count is
    not the tables'."""
    one, omega, layer_of = schedule.omega.ndim == 1, schedule.omega, schedule.layer_of
    if layer_of.shape[-1] != tables.mesh.n_triangles:
        raise ValueError(f"the schedule orders {layer_of.shape[-1]} elements, but the tables "
                         f"hold {tables.mesh.n_triangles}")
    kept = schedule if one else None
    del schedule
    if one:
        f_vals = (f_vals,)
        if inflow_data is not None:  # g(x, y) of the one direction
            inflow_data = lambda x, y, l, g=inflow_data: g(x, y)
    mesh, delta = tables.mesh, float(delta)
    nl, nt = omega.size // 2, mesh.n_triangles
    n = nl * nt
    f_vals, end = iter((None,) * nl if f_vals is None else f_vals), object()
    bary, areaw = tables.rule.points, tables.areaw.T

    # A pair at sweep position p of the step [lo, lo + m) keeps row r of a step-blocked array
    # of R rows per pair at R lo + (p - lo) + r m; slots holds rows 0 and 1 of the buffer's.
    order, bounds = _sweep_order(layer_of)
    lo_of, width = np.array(bounds[:-1]), np.diff(bounds)
    layer_of = layer_of.reshape(nl, nt)
    slots = np.empty((2, n), dtype=np.int64)
    slots[0, order] = np.arange(n)
    del order
    slots[0] += 2 * lo_of.take(layer_of.ravel())
    slots[1] = slots[0] + width.take(layer_of.ravel())
    bnd = None if inflow_data is None else boundary_points(mesh, TRACE_T)

    blocks, b0, fold = np.empty((3, 3, n)), np.empty((3, n)), np.empty(12 * n)
    nbr = np.empty(4 * n, dtype=np.int32)
    # one direction's work arrays: qw, inverse and buffer offsets of rows (3, nt) + zero slot
    qw, inv_l = np.empty(areaw.shape), None if scatter_w is None else np.empty((3, 3, nt))
    offs, rows = np.full(3 * nt + 1, 3 * n, dtype=np.int32), np.arange(12)[:, None]
    o0, o1, o2 = o = offs[:-1].reshape(3, nt)
    forms = _local_forms(tables, omega.reshape(-1, 2), delta, scatter_w)
    for l, (dl, inflow, edge_w, a, coupling, up, scat) in enumerate(forms):
        f = next(f_vals, end)
        if f is end:
            raise ValueError(f"f_vals ends before direction {l}")
        fixed = _volume_rhs(np.multiply(areaw, 0.0 if f is None else f.T, out=qw), bary, delta, dl)
        del f  # before the next sample is read
        if inflow_data is not None:
            fixed += _inflow_rhs(edge_w, inflow, inflow_data, l, bnd)

        cols = slice(l * nt, (l + 1) * nt)
        inv = inverse_3x3(a, direction=l, out=blocks[:, :, cols] if inv_l is None else inv_l)
        _einsum("ijk,jk->ik", inv, fixed, out=b0[:, cols])
        if scat is not None:
            _einsum("imk,mjk->ijk", inv, scat, out=blocks[:, :, cols])
        fold_l = a.base[:4]  # a and S + delta d s^T are spent: their buffer holds the fold
        _einsum("imk,mjk->jik", inv, coupling, out=fold_l)
        # coupling is spent, so it holds the positions of a pair's nbr rows, slots[0] + lo +
        # r m, then of its fold rows, slots[0] + 9 lo + r m
        pick = coupling.reshape(12, nt).view(np.int64)
        lo, m = lo_of.take(layer_of[l]), width.take(layer_of[l])
        o[:2] = slots[:, cols]
        np.add(o1, m, out=o2)
        np.add(np.multiply(rows, m, out=pick), o0 + lo, out=pick)
        nbr[pick[:4]] = offs.take(up)
        pick += 8 * lo
        fold[pick] = fold_l.reshape(12, nt)
        del fixed, lo, m  # before the next direction is formed
    if next(f_vals, end) is not end:
        raise ValueError(f"f_vals has more than {nl} samples")

    # fold is transposed: einsum would sum a contiguous (3, 4, 1) block in another order
    steps = tuple(
        (slice(3 * a, 3 * b), fold[12 * a : 12 * b].reshape(4, 3, -1),
         nbr[4 * a : 4 * b].reshape(4, -1))
        for a, b in zip(bounds[:-1], bounds[1:])
    )
    return SweepKernel(
        schedule=kept, omega=omega, grad=tables.grad, delta=delta,
        bary=bary, slots=slots, steps=steps, scattering=scatter_w is not None,
        blocks=blocks, b0=b0, fold=fold, nbr=nbr,
    )
