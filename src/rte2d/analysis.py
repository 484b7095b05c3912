"""Manufactured solutions, reporting error norms, and convergence studies.

Four test problems on the unit square, all with sigma_t = 10, sigma_s = 0.1.
Cases 1-3 use the Henyey-Greenstein phase (eta = 0.2, 0.5, 0.9) and the
direction-independent solution sin(pi x) sin(pi y); since the phase is
normalized the continuous scattering operator reproduces it, so
f = omega . grad(u) + (sigma_t - sigma_s) u. Case 4 uses the linearly
anisotropic phase with u = exp(-a x - b y)(1 + c cos(theta)), whose
scattering integral is exp(-a x - b y)(1 + (c/4) cos(theta)); its nonzero
boundary trace supplies the inflow data.

Errors are measured in four weighted norms: elementwise L2, the outflow
boundary trace, the h_K-weighted directional derivative, and the upwind
jump on inflow edges; eh is their root-sum-square.
"""

import math
from dataclasses import dataclass

import numpy as np

from .angular import AngularQuadrature, PhaseFunction, trapezoid_circle
from .dg_core import DGSolution, element_basis
from .mesh import (
    BOUNDARY,
    TriangleMesh,
    build_structured_unit_square,
    opposite_local_edge,
    refine_regular,
)
from .quadrature import edge_rule, triangle_rule
from .solver import SolverConfig, TransportProblem, solve

NORM_NAMES = ("e1", "e2", "e3", "e4", "eh")

_ETA = {1: 0.2, 2: 0.5, 3: 0.9}
_H_THETA = {1: math.pi / 10, 2: math.pi / 20, 3: math.pi / 30, 4: math.pi / 10}


@dataclass(frozen=True)
class ManufacturedCase:
    id: int
    phase: PhaseFunction
    sigma_t: float
    sigma_s: float
    h_theta: float
    n_dirs: int
    exact_u: object  # (x, y, theta) -> values
    exact_grad: object  # (x, y, theta) -> (..., 2)
    exact_su: object  # continuous scattering integral of exact_u
    exact_f: object
    has_inflow_data: bool


def make_case(case_id: int, eta: float = None) -> ManufacturedCase:
    """Test problems 1-4; eta overrides the tabulated anisotropy for 1-3."""
    if case_id not in (1, 2, 3, 4):
        raise ValueError(f"case must be 1..4, got {case_id}")
    sigma_t, sigma_s = 10.0, 0.1
    h_theta = _H_THETA[case_id]
    n_dirs = int(round(2.0 * math.pi / h_theta))

    if case_id in (1, 2, 3):
        if eta is None:
            eta = _ETA[case_id]
        phase = PhaseFunction.henyey_greenstein(eta)
        sig_a = sigma_t - sigma_s

        def exact_u(x, y, theta):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        def exact_grad(x, y, theta):
            gx = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            gy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            return np.stack(np.broadcast_arrays(gx, gy), axis=-1)

        def exact_f(x, y, theta):
            g = exact_grad(x, y, theta)
            return (
                math.cos(theta) * g[..., 0]
                + math.sin(theta) * g[..., 1]
                + sig_a * exact_u(x, y, theta)
            )

        return ManufacturedCase(
            id=case_id,
            phase=phase,
            sigma_t=sigma_t,
            sigma_s=sigma_s,
            h_theta=h_theta,
            n_dirs=n_dirs,
            exact_u=exact_u,
            exact_grad=exact_grad,
            exact_su=exact_u,
            exact_f=exact_f,
            has_inflow_data=False,
        )

    if eta is not None:
        raise ValueError("case 4 uses the linearly anisotropic phase; eta does not apply")
    phase = PhaseFunction.linear_anisotropic()
    sig_a = sigma_t - sigma_s
    a = b = sig_a / 3.0
    c = sig_a / (sig_a + 6.0 * sigma_s)

    def envelope(x, y):
        return np.exp(-a * x - b * y)

    def exact_u(x, y, theta):
        return envelope(x, y) * (1.0 + c * np.cos(theta))

    def exact_grad(x, y, theta):
        u = exact_u(x, y, theta)
        return np.stack(np.broadcast_arrays(-a * u, -b * u), axis=-1)

    def exact_su(x, y, theta):
        return envelope(x, y) * (1.0 + 0.25 * c * np.cos(theta))

    def exact_f(x, y, theta):
        u = exact_u(x, y, theta)
        adv = (-a * math.cos(theta) - b * math.sin(theta)) * u
        return adv + sigma_t * u - sigma_s * exact_su(x, y, theta)

    return ManufacturedCase(
        id=4,
        phase=phase,
        sigma_t=sigma_t,
        sigma_s=sigma_s,
        h_theta=h_theta,
        n_dirs=n_dirs,
        exact_u=exact_u,
        exact_grad=exact_grad,
        exact_su=exact_su,
        exact_f=exact_f,
        has_inflow_data=True,
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
    opp = opposite_local_edge(mesh)
    interior = mesh.tri_neighbors != BOUNDARY
    elen = mesh.edge_length[mesh.tri_edges]

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
        duh = ((basis.grad @ omega) * cu).sum(axis=1)
        e3 += wl * float(
            (mesh.tri_h[:, None] * areaw * (du - duh[:, None]) ** 2).sum()
        )

        dot = (mesh.edge_normal[mesh.tri_edges] @ omega) * mesh.tri_edge_sign
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
    n0: int = 10,
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
        rows.append(
            error_norms(
                sol, case, mesh, quad, level=level, iterations=report.iterations
            )
        )
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
    c_bar: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 1000,
    n0: int = 10,
    n_dirs: int = None,
    mesh0: TriangleMesh = None,
) -> MethodComparison:
    """Run the stabilized and plain methods on identical meshes/quadratures."""
    common = dict(tol=tol, max_iter=max_iter)
    sd = convergence_study(
        case,
        levels,
        SolverConfig(method="dodsd", c_bar=c_bar, **common),
        n0=n0,
        n_dirs=n_dirs,
        mesh0=mesh0,
    )
    dg = convergence_study(
        case,
        levels,
        SolverConfig(method="dodg", **common),
        n0=n0,
        n_dirs=n_dirs,
        mesh0=mesh0,
    )
    ratio = [a.eh / b.eh if b.eh > 0 else float("nan") for a, b in zip(sd.rows, dg.rows)]
    return MethodComparison(case_id=case.id, dodsd=sd, dodg=dg, eh_ratio=ratio)
