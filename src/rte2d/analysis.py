"""Manufactured solutions, error norms, global forms, and convergence studies.

Four test problems on the unit square, all with sigma_t = 10, sigma_s = 0.1.
Each exact solution is a spatial field times an angular factor, u = a U,
with scattering integral a_s U, so f = a (omega . grad U + sigma_t U) -
sigma_s a_s U. Cases 1-3 use the Henyey-Greenstein phase (eta = 0.2, 0.5,
0.9), U = sin(pi x) sin(pi y) and a = a_s = 1, since the normalized phase
reproduces a direction-independent field. Case 4 uses the linearly
anisotropic phase, U = exp(-a x - b y) and the factors 1 + c cos(theta)
and 1 + (c/4) cos(theta); its nonzero boundary trace supplies the inflow data.

Errors are measured in four weighted norms: elementwise L2, the outflow
boundary trace, the h_K-weighted directional derivative, and the upwind
jump on inflow edges; eh is their root-sum-square. `error_norms` reduces the
exact field once per mesh, so a direction costs O(elements + edges), and it
and the stability norm `triple_norm_stability` take each edge once; the
bilinear form `apply_ah` multiplies with the sweep kernel's operator.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .angular import AngularQuadrature, PhaseFunction, scatter_matrix, trapezoid_circle
from .dg_core import TRACE_T, TRACE_W, DGSolution, element_basis, quad_points
from .errors import AssumptionError, sample
from .mesh import (
    BOUNDARY,
    EPS_N,
    TriangleMesh,
    across_index,
    boundary_points,
    build_structured_unit_square,
    omega_dot,
    refine_regular,
)
from .quadrature import triangle_rule
from .solver import SolverConfig, TransportProblem, _mass_form, solve
from .sweep import _local_forms, space_tables

NORM_NAMES = ("e1", "e2", "e3", "e4", "eh")

_ETA = {1: 0.2, 2: 0.5, 3: 0.9}
_H_THETA = {1: math.pi / 10, 2: math.pi / 20, 3: math.pi / 30, 4: math.pi / 10}
_N0 = 10  # default structured base grid, n0 x n0, of the studies and the CLI


@dataclass(frozen=True)
class ManufacturedCase:
    """A test problem with exact solution u = a(theta) U(x, y) and scattering
    integral a_s(theta) U: exact_u, exact_grad (..., 2) and exact_su."""

    id: int
    phase: PhaseFunction
    sigma_t: float
    sigma_s: float
    h_theta: float
    n_dirs: int
    field: object  # (x, y) -> (U, grad U (..., 2)), read-only and cached in make_case
    angular: object  # theta -> (a, a_s), each shaped like theta
    exact_f: object  # (x, y, theta) -> values
    has_inflow_data: bool

    def exact_u(self, x, y, theta):
        return self.angular(theta)[0] * self.field(x, y)[0]

    def exact_grad(self, x, y, theta):
        return np.asarray(self.angular(theta)[0])[..., None] * self.field(x, y)[1]

    def exact_su(self, x, y, theta):
        return self.angular(theta)[1] * self.field(x, y)[0]


def _last_sample(field):
    """field with a one-entry cache keyed by the values of x and y.

    All directions sample one spatial field at the same points, so a repeat
    call returns the stored (U, grad U). The key is compared by value against
    stored copies, never by identity: an array edited in place since the last
    call is sampled anew. The stored arrays are shared, so they are read-only.
    """
    last = []

    def sampled(x, y):
        if last and np.array_equal(last[0], x) and np.array_equal(last[1], y):
            return last[2]
        out = tuple(np.asarray(v) for v in field(x, y))
        for v in out:
            v.flags.writeable = False
        last[:] = [np.array(x), np.array(y), out]
        return out

    return sampled


def make_case(case_id: int, eta: float = None) -> ManufacturedCase:
    """Test problems 1-4; eta overrides the tabulated anisotropy for 1-3.

    The case's field evaluates once per distinct point set (`_last_sample`),
    so exact_f at the same points for every direction pays for one field."""
    if case_id not in (1, 2, 3, 4):
        raise ValueError(f"case must be 1..4, got {case_id}")
    sigma_t, sigma_s = 10.0, 0.1
    h_theta = _H_THETA[case_id]

    if case_id in (1, 2, 3):
        phase = PhaseFunction.henyey_greenstein(_ETA[case_id] if eta is None else eta)

        def field(x, y):
            sx, cx = np.sin(np.pi * x), np.cos(np.pi * x)
            sy, cy = np.sin(np.pi * y), np.cos(np.pi * y)
            grad = np.stack(np.broadcast_arrays(np.pi * cx * sy, np.pi * sx * cy), axis=-1)
            return sx * sy, grad

        def angular(theta):  # the normalized phase reproduces a constant
            one = np.ones(np.shape(theta))
            return one, one
    else:
        if eta is not None:
            raise ValueError("case 4 uses the linearly anisotropic phase; eta does not apply")
        phase = PhaseFunction.linear_anisotropic()
        sig_a = sigma_t - sigma_s
        a = b = sig_a / 3.0
        c = sig_a / (sig_a + 6.0 * sigma_s)

        def field(x, y):
            u = np.exp(-a * x - b * y)
            return u, np.stack(np.broadcast_arrays(-a * u, -b * u), axis=-1)

        def angular(theta):
            return 1.0 + c * np.cos(theta), 1.0 + 0.25 * c * np.cos(theta)

    field = _last_sample(field)

    def exact_f(x, y, theta):
        u, grad = field(x, y)
        a_u, a_s = angular(theta)
        adv = np.cos(theta) * grad[..., 0] + np.sin(theta) * grad[..., 1]
        return a_u * (adv + sigma_t * u) - sigma_s * a_s * u

    return ManufacturedCase(
        id=case_id,
        phase=phase,
        sigma_t=sigma_t,
        sigma_s=sigma_s,
        h_theta=h_theta,
        n_dirs=int(round(2.0 * math.pi / h_theta)),
        field=field,
        angular=angular,
        exact_f=exact_f,
        has_inflow_data=case_id == 4,
    )


def case_quadrature(case: ManufacturedCase, n_dirs: int = None) -> AngularQuadrature:
    return trapezoid_circle(case.n_dirs if n_dirs is None else n_dirs)


def case_problem(case: ManufacturedCase, quad: AngularQuadrature) -> TransportProblem:
    """Wire a manufactured case into solver inputs for the given quadrature."""
    angles = quad.angles

    def sigma_t(x, y):
        return np.full(np.broadcast(x, y).shape, case.sigma_t)

    def sigma_s(x, y):
        return np.full(np.broadcast(x, y).shape, case.sigma_s)

    def f(x, y, l):
        return case.exact_f(x, y, angles[l])

    inflow = None
    if case.has_inflow_data:

        def inflow(x, y, l):
            return case.exact_u(x, y, angles[l])

    return TransportProblem(
        sigma_t=sigma_t, sigma_s=sigma_s, phase=case.phase, f=f, quad=quad, inflow=inflow
    )


@dataclass(frozen=True)
class ErrorReport:
    e1: float
    e2: float
    e3: float
    e4: float
    eh: float
    h: float
    level: int
    iterations: int
    n_elems: int = 0

    def __post_init__(self):
        expect = math.sqrt(self.e1**2 + self.e2**2 + self.e3**2 + self.e4**2)
        if abs(self.eh - expect) > 1e-12 * max(expect, 1e-300):
            raise ValueError("eh must be the root-sum-square of e1..e4")


def _rows(sol, mesh, quad):
    """sol's coefficients as each direction's rows (nl, 3, nt), the layout of the forms;
    ValueError unless sol lives on mesh and on quad's directions."""
    if sol.mesh is not mesh:
        raise ValueError("the solution must live on the given mesh")
    if not np.array_equal(sol.quad.directions, quad.directions):
        raise ValueError(f"the solution's {sol.quad.n_directions} directions are not quad's")
    return np.ascontiguousarray(sol.coeffs.transpose(0, 2, 1))


def _edge_walk(mesh):
    """Every edge once: the ni interior edges, each from its side with the lower element id,
    then the boundary edges in boundary_points' order. Returns ni; the flat indices (2, ne)
    into a direction's rows (3, nt) of the own endpoint values at t = 0, 1 and, by
    mesh.across_index, of the neighbour's at the same points, or on the boundary the zero
    slot 3 nt; the lengths (ne,) and the outward normals (ne, 2), which the neighbour sees
    negated exactly."""
    nbr, nt = mesh.tri_neighbors, mesh.n_triangles
    once = nbr > np.arange(nt)[:, None]  # BOUNDARY = -1 is below every id
    k, s = np.concatenate([np.nonzero(once), np.nonzero(nbr == BOUNDARY)], axis=1)
    own = np.stack([s * nt + k, (s + 1) % 3 * nt + k])
    up = across_index(mesh)[s, ::-1, k].T.copy()
    return int(once.sum()), own, up, mesh.tri_edge_length[k, s], mesh.tri_normal[k, s]


def _edge_flux(walk, directions, rows):
    """Per direction on the walk's edges, from the coefficient rows (nl, 3, nt): omega . n
    (nl, ne), the weights |e| |omega . n|, zero where |omega . n| <= EPS_N, the own endpoint
    values (nl, 2, ne), and the exact integrals over t in [0, 1] of the squared jumps (nl,
    ne), own minus neighbour: the own trace on the boundary."""
    _, own, up, length, normal = walk
    dot = omega_dot(normal, directions)
    ad = np.abs(dot)
    w = np.where(ad > EPS_N, length * ad, 0.0)
    flat = np.concatenate([rows.reshape(len(rows), -1), np.zeros((len(rows), 1))], axis=1)
    ends = np.take(flat, own, axis=1)
    j = ends - np.take(flat, up, axis=1)
    j0, j1 = j[:, 0], j[:, 1]
    return dot, w, ends, (j0 * (j0 + j1) + j1 * j1) / 3.0


def _streamline(rows, basis, directions):
    """omega_l . grad u_h (nl, nt) of the P1 fields rows (nl, 3, nt); basis: element_basis.T."""
    gx, gy = np.einsum("ljk,ijk->ilk", rows, basis)
    return directions[:, :1] * gx + directions[:, 1:] * gy


def error_norms(
    sol: DGSolution,
    case: ManufacturedCase,
    mesh: TriangleMesh,
    quad: AngularQuadrature,
    level: int = 0,
    iterations: int = 0,
) -> ErrorReport:
    """Four weighted error norms of sol against the case's exact solution.

    Volume terms are degree-6 rule sums reduced once per mesh: U = p . phi + r
    per element, p the P1 projection, so with diff = c_l - a_l p and rho = sum
    w phi r, e1 is diff^T M diff - 2 a_l diff . rho + a_l^2 sum w r^2 (M the P1
    mass); e3 takes grad U's h_K-weighted mean m and the moments of grad U - m.
    Jumps take each interior edge once; on the boundary a 4-point rule compares
    with the exact solution. e2 weighs the outflow boundary, e4 every inflow
    edge. Raises ValueError unless sol lives on mesh and on quad's directions.
    """
    rows = _rows(sol, mesh, quad)
    rule = triangle_rule(6)
    bary, areaw, pts = rule.points, mesh.tri_area[:, None] * rule.weights, quad_points(mesh, rule)
    bpts = boundary_points(mesh, TRACE_T)[2]
    # u = a_l U: the spatial field once per mesh, scaled per direction
    u, grad = case.field(pts[..., 0], pts[..., 1])
    u_b = case.field(bpts[..., 0], bpts[..., 1])[0]
    a = np.asarray(case.angular(quad.angles)[0], dtype=float)[:, None]
    om, nt, a12 = quad.directions, mesh.n_triangles, mesh.tri_area / 12
    # Once per mesh, as rows (3, nt); the large totals are pairwise sums on contiguous axes.
    # The rule's P1 mass 12 a12 (I + ones) has the inverse (I - ones/4) / a12.
    b = bary.T @ (areaw * u).T
    p = (b - 0.25 * b.sum(axis=0)) / a12
    r = u - (bary @ p).T
    rho, rr = (bary.T @ (areaw * r).T).ravel(), np.sum(areaw * r * r)
    hw = mesh.tri_h[:, None] * areaw
    hk = hw.sum(axis=1)
    m = np.stack([np.einsum("kq,kq->k", hw, grad[..., i]) / hk for i in (0, 1)], axis=-1)
    g = [grad[..., i] - m[:, i, None] for i in (0, 1)]
    vxx, vxy, vyy = (np.sum(hw * g[i] * g[j]) for i, j in ((0, 0), (0, 1), (1, 1)))
    walk, basis = _edge_walk(mesh), np.ascontiguousarray(element_basis(mesh).T)
    ni = walk[0]

    # blocks of about 2^12 (direction, element) pairs keep the temporaries small
    e, block = np.empty((4, len(om))), max(1, 2**12 // nt)
    for d in (slice(i, i + block) for i in range(0, len(om), block)):
        al, ox, oy, c = a[d], om[d, :1], om[d, 1:], rows[d]
        diff = c - al[..., None] * p
        e[0, d] = (_mass_form(diff.swapaxes(0, 1)) * a12).sum(axis=1)
        e[0, d] += al[:, 0] * (al[:, 0] * rr - 2 * (diff.reshape(len(c), -1) @ rho))
        t = al * omega_dot(m, om[d]) - _streamline(c, basis, om[d])
        e[2, d] = (hk * t * t).sum(axis=1)
        e[2, d] += (al * al * (ox * ox * vxx + 2 * ox * oy * vxy + oy * oy * vyy))[:, 0]
        dot, w, ends, jump2 = _edge_flux(walk, om[d], c)
        e[3, d] = (w[:, :ni] * jump2[:, :ni]).sum(axis=1)
        trace = ends[:, 0, ni:, None] * (1.0 - TRACE_T) + ends[:, 1, ni:, None] * TRACE_T
        wb = w[:, ni:] * (((al[..., None] * u_b - trace) ** 2) @ TRACE_W)
        e[1, d] = np.where(dot[:, ni:] > 0, wb, 0.0).sum(axis=1)
        e[3, d] += np.where(dot[:, ni:] < 0, wb, 0.0).sum(axis=1)
    e = e @ quad.weights
    return ErrorReport(*np.sqrt(e).tolist(), eh=math.sqrt(e.sum()), h=mesh.h, level=level,
                       iterations=iterations, n_elems=mesh.n_triangles)


def apply_ah(u: DGSolution, v: DGSolution, problem, mesh, delta) -> float:
    """sum_l w_l sum_K v_lK . (a u_lK - C u_up - (S + delta d s^T)(G u)_lK): the kernel's
    operator (sweep._local_forms), zero inflow data; test use only. delta is one number."""
    quad, dirs = problem.quad, problem.quad.directions
    uc, vc = (_rows(sol, mesh, quad) for sol in (u, v))
    delta, tables = float(delta), space_tables(mesh, problem.sigma_t)
    scatter_w = tables.areaw * sample("sigma_s", problem.sigma_s, tables.points)
    gc = (scatter_matrix(problem.phase, quad) @ uc.reshape(len(dirs), -1)).reshape(uc.shape)
    total = 0.0
    for l, (*_, a, c, up, scat) in enumerate(_local_forms(tables, dirs, delta, scatter_w)):
        r = np.einsum("ijk,jk->ik", a, uc[l]) - np.einsum("ijk,jk->ik", scat, gc[l])
        r -= np.einsum("imk,mk->ik", c, np.append(uc[l], 0.0).take(up))
        total += quad.weights[l] * np.einsum("ik,ik->", vc[l], r)
    return float(total)


def triple_norm_stability(v: DGSolution, problem, mesh, delta, c0_prime) -> float:
    """Stability norm: c0' L2 + outflow-boundary + delta gradient + inflow jump; the L2
    term is the exact P1 mass form, and the traces take error_norms' edge walk."""
    delta = float(delta)
    if not c0_prime > 0:
        raise AssumptionError(
            f"c0' = min(sigma_t - m sigma_s) must be positive, got {c0_prime:.3e}")
    quad, area = problem.quad, mesh.tri_area
    rows = _rows(v, mesh, quad)
    _, w, _, jump2 = _edge_flux(_edge_walk(mesh), quad.directions, rows)
    sd = _streamline(rows, np.ascontiguousarray(element_basis(mesh).T), quad.directions)
    l2 = _mass_form(rows.swapaxes(0, 1)) * (area / 12)
    total = (c0_prime * l2 + delta * area * sd * sd).sum(axis=1) + (w * jump2).sum(axis=1)
    return float(np.sqrt(quad.weights @ total))


# errors below this are rounding noise; rate extraction reports nan instead
RATE_FLOOR = 1e-12


def observed_rates(rows) -> dict:
    """log2 error ratios between consecutive levels, per norm."""
    rates = {}
    for name in NORM_NAMES:
        vals = [getattr(r, name) for r in rows]
        rates[name] = [float("nan") if a < RATE_FLOOR or b < RATE_FLOOR else math.log2(a / b)
                       for a, b in zip(vals, vals[1:])]
    return rates


@dataclass
class ConvergenceTable:
    case_id: int
    method: str
    n_dirs: int
    rows: list
    rates: dict

    def __post_init__(self):
        for a, b in zip(self.rows, self.rows[1:]):
            if b.level != a.level + 1 or abs(b.h - 0.5 * a.h) > 1e-12 * a.h:
                raise ValueError("rows must refine by halving, in level order")


def convergence_study(
    case: ManufacturedCase,
    levels: int,
    config: SolverConfig = None,
    n0: int = _N0,
    n_dirs: int = None,
    mesh0: TriangleMesh = None,
) -> ConvergenceTable:
    """Solve on a nested mesh hierarchy and collect errors and rates.

    The initial mesh is the structured n0 x n0 split of the unit square
    unless mesh0 is given; each level halves h by midpoint refinement.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if config is None:
        config = SolverConfig()
    quad = case_quadrature(case, n_dirs)
    problem = case_problem(case, quad)
    mesh = build_structured_unit_square(n0) if mesh0 is None else mesh0
    rows = []
    for level in range(levels):
        if level > 0:
            mesh = refine_regular(mesh)
        sol, report = solve(problem, mesh, config)
        rows.append(error_norms(sol, case, mesh, quad, level=level, iterations=report.iterations))
    return ConvergenceTable(case_id=case.id, method=config.method, n_dirs=quad.n_directions,
                            rows=rows, rates=observed_rates(rows))


@dataclass
class MethodComparison:
    case_id: int
    dodsd: ConvergenceTable
    dodg: ConvergenceTable
    eh_ratio: list  # dodsd eh / dodg eh per level


def compare_methods(
    case: ManufacturedCase,
    levels: int,
    config: SolverConfig = None,
    n0: int = _N0,
    n_dirs: int = None,
    mesh0: TriangleMesh = None,
) -> MethodComparison:
    """Run the stabilized and plain methods on identical meshes/quadratures.

    Both studies take config's c_bar, tol and max_iter; its method is set to
    dodsd, then dodg."""
    config = SolverConfig() if config is None else config
    sd, dg = [
        convergence_study(
            case, levels, replace(config, method=m), n0=n0, n_dirs=n_dirs, mesh0=mesh0
        )
        for m in ("dodsd", "dodg")
    ]
    ratio = [a.eh / b.eh if b.eh > 0 else float("nan") for a, b in zip(sd.rows, dg.rows)]
    return MethodComparison(case_id=case.id, dodsd=sd, dodg=dg, eh_ratio=ratio)
