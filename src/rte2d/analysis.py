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
jump on inflow edges; eh is their root-sum-square. They, the stability norm
`triple_norm_stability` and the bilinear form `apply_ah` share one walk over
the directions (`_form_directions`). It checks the solutions, then yields
d = grad(phi) . omega, the edge weights |e| |omega . n| and each solution's
own and upwind endpoint values on every local edge. P1 traces are linear, so
a jump j integrates exactly as j^T EDGE_MASS_2 j; only the boundary edges of
`error_norms`, against the exact solution, take the 4-point trace rule.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .angular import AngularQuadrature, PhaseFunction, scatter_matrix, trapezoid_circle
from .dg_core import EDGE_MASS_2, TRACE_T, TRACE_W, DGSolution, element_basis, quad_points
from .errors import AssumptionError, sample
from .mesh import (
    BOUNDARY,
    EPS_N,
    TriangleMesh,
    boundary_points,
    build_structured_unit_square,
    omega_dot_n,
    refine_regular,
)
from .quadrature import triangle_rule
from .solver import SolverConfig, TransportProblem, solve

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


# The shapes 1 - t, t at the trace rule's points: a trace is its endpoint values @ _EDGE_SHAPE.
_EDGE_SHAPE = np.stack([1.0 - TRACE_T, TRACE_T])


def _volume_rule(mesh):
    """Degree-6 rule of the norms and forms: bary (nq, 3), areaw (nt, nq), points (nt, nq, 2)."""
    rule = triangle_rule(6)
    return rule.points, mesh.tri_area[:, None] * rule.weights, quad_points(mesh, rule)


def _form_directions(mesh, quad, *sols):
    """The norms' and forms' one walk over the directions. ValueError, before anything
    is sampled, unless every solution lives on mesh and on quad's directions. Then per
    direction: l, w_l, d = grad(phi) . omega, the weights |e| |omega . n| of the inflow
    edges and of the outflow boundary edges (zero elsewhere), (nt, 3) each, and per
    solution (coeffs[l], own, up): the endpoint values (2, nt, 3) at t = 0, 1 of every
    local edge and of its upwind neighbour's, zero across the boundary."""
    for sol in sols:
        if sol.mesh is not mesh:
            raise ValueError("the solution must live on the given mesh")
        if not np.array_equal(sol.quad.directions, quad.directions):
            raise ValueError(f"the solution's {sol.quad.n_directions} directions are not quad's")
    grad = element_basis(mesh)
    gx, gy = np.ascontiguousarray(grad[..., 0]), np.ascontiguousarray(grad[..., 1])
    elen = mesh.tri_edge_length
    inner = mesh.tri_neighbors != BOUNDARY
    own = 3 * np.arange(mesh.n_triangles)[:, None] + np.arange(3)
    nbr = 3 * np.where(inner, mesh.tri_neighbors, 0)
    opp = np.where(inner, mesh.tri_opposite, 0)
    idx = np.stack([own, own[:, [1, 2, 0]], nbr + (opp + 1) % 3, nbr + opp])
    dots = omega_dot_n(mesh, quad.directions)

    def ends(c):
        e = c.ravel().take(idx)
        return c, e[:2], np.where(inner, e[2:], 0.0)

    def walk():
        for l, ((ox, oy), dot) in enumerate(zip(quad.directions, dots)):
            w_in = np.where(dot < -EPS_N, -elen * dot, 0.0)
            w_out = np.where((dot > EPS_N) & ~inner, elen * dot, 0.0)
            yield (l, quad.weights[l], gx * ox + gy * oy, w_in, w_out,
                   *[ends(sol.coeffs[l]) for sol in sols])

    return walk()


def _edge_mass(a, b):
    """Exact edge integrals a^T EDGE_MASS_2 b of products of linear traces, (2, nt, 3) each."""
    return (a * np.tensordot(EDGE_MASS_2, b, 1)).sum(axis=0)


def error_norms(
    sol: DGSolution,
    case: ManufacturedCase,
    mesh: TriangleMesh,
    quad: AngularQuadrature,
    level: int = 0,
    iterations: int = 0,
) -> ErrorReport:
    """Four weighted error norms of sol against the case's exact solution.

    Volume terms use a degree-6 triangle rule, traces a 4-point Gauss rule.
    Each edge has one reference trace: the upwind trace across interior
    edges, the exact solution on boundary edges. e2 weighs its difference
    from the own trace on the outflow boundary, e4 on every inflow edge;
    on the inflow boundary the exact solution is the inflow data. Raises
    ValueError unless sol lives on mesh and on quad's directions.
    """
    walk = _form_directions(mesh, quad, sol)
    bary, areaw, pts = _volume_rule(mesh)
    bk, bs, bpts = boundary_points(mesh, TRACE_T)
    # u = a_l U: the spatial field once per mesh, scaled per direction
    u, grad = case.field(pts[..., 0], pts[..., 1])
    ux, uy = np.ascontiguousarray(grad[..., 0]), np.ascontiguousarray(grad[..., 1])
    u_b = case.field(bpts[..., 0], bpts[..., 1])[0]
    a = case.angular(quad.angles)[0]
    hw = mesh.tri_h[:, None] * areaw

    e = np.zeros(4)
    for l, wl, d, w_in, w_out, (cu, own, up) in walk:
        ox, oy = a[l] * quad.directions[l]
        du = ux * ox
        du += uy * oy
        du -= np.einsum("ki,ki->k", d, cu)[:, None]
        jump2 = _edge_mass(up - own, up - own)
        jump2[bk, bs] = (a[l] * u_b - own[:, bk, bs].T @ _EDGE_SHAPE) ** 2 @ TRACE_W
        r = cu @ bary.T
        r -= a[l] * u
        e += wl * np.array([
            np.einsum("kq,kq,kq->", areaw, r, r), (w_out * jump2).sum(),
            np.einsum("kq,kq,kq->", hw, du, du), (w_in * jump2).sum(),
        ])

    return ErrorReport(*np.sqrt(e).tolist(), eh=math.sqrt(e.sum()), h=mesh.h, level=level,
                       iterations=iterations, n_elems=mesh.n_triangles)


def apply_ah(u: DGSolution, v: DGSolution, problem, mesh, delta) -> float:
    """Global bilinear form (volume + inflow jump - scattering); test use only.

    Inflow boundary traces of the upwind state are treated as zero, matching
    the homogeneous setting of the form. delta is one number.
    """
    walk = _form_directions(mesh, problem.quad, u, v)
    delta = float(delta)
    G = scatter_matrix(problem.phase, problem.quad)
    bary, areaw, pts = _volume_rule(mesh)
    st = sample("sigma_t", problem.sigma_t, pts)
    ss = sample("sigma_s", problem.sigma_s, pts)
    u_pts = np.einsum("lkj,qj->lkq", u.coeffs, bary)
    s_pts = (G @ u_pts.reshape(len(G), -1)).reshape(u_pts.shape)
    total = 0.0
    for l, wl, d, w_in, _, (cu, u_own, u_up), (cv, v_own, _) in walk:
        du = (d * cu).sum(axis=1)  # omega . grad u, constant per element
        test = cv @ bary.T + (delta * (d * cv).sum(axis=1))[:, None]
        vol = (areaw * (du[:, None] + st * u_pts[l] - ss * s_pts[l]) * test).sum()
        total += wl * (vol + (w_in * _edge_mass(u_own - u_up, v_own)).sum())
    return float(total)


def triple_norm_stability(v: DGSolution, problem, mesh, delta, c0_prime) -> float:
    """Stability norm: c0' L2 + outflow-boundary + delta gradient + inflow jump."""
    delta = float(delta)
    if not c0_prime > 0:
        raise AssumptionError(
            f"c0' = min(sigma_t - m sigma_s) must be positive, got {c0_prime:.3e}"
        )
    walk = _form_directions(mesh, problem.quad, v)
    bary, areaw, _ = _volume_rule(mesh)
    total = 0.0
    for l, wl, d, w_in, w_out, (cv, own, up) in walk:
        l2 = (areaw * (cv @ bary.T) ** 2).sum()
        grad = (delta * mesh.tri_area * (d * cv).sum(axis=1) ** 2).sum()
        # up is zero across the boundary, so an outflow boundary edge's jump is its own trace
        faces = ((w_in + w_out) * _edge_mass(own - up, own - up)).sum()
        total += wl * (c0_prime * l2 + grad + faces)
    return float(np.sqrt(total))


# errors below this are rounding noise; rate extraction reports nan instead
RATE_FLOOR = 1e-12


def observed_rates(rows) -> dict:
    """log2 error ratios between consecutive levels, per norm."""
    rates = {}
    for name in NORM_NAMES:
        vals = [getattr(r, name) for r in rows]
        seq = []
        for a, b in zip(vals, vals[1:]):
            if a < RATE_FLOOR or b < RATE_FLOOR:
                seq.append(float("nan"))
            else:
                seq.append(math.log2(a / b))
        rates[name] = seq
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
    return ConvergenceTable(
        case_id=case.id,
        method=config.method,
        n_dirs=quad.n_directions,
        rows=rows,
        rates=observed_rates(rows),
    )


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
