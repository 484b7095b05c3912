"""Source iteration over all directions, plus the global forms used in tests.

One iteration lags the scattering operator: for every direction l the
transport equation is swept with source

    sigma_s(x) * sum_i G[l, i] * u^{i, j-1}(x) + f_l(x)

and the loop stops once the relative weighted-L2 update drops below tol.
The weighted norm is ||v||_w^2 = sum_l w_l sum_K ||v^l||^2_{0,K}.
"""

from dataclasses import dataclass

import numpy as np

from .angular import AngularQuadrature, PhaseFunction, m_bound, scatter_matrix
from .dg_core import DGSolution, ElementBasis, element_basis
from .errors import AssumptionError, NonConvergenceError
from .mesh import BOUNDARY, TriangleMesh, opposite_local_edge
from .quadrature import edge_rule, triangle_rule
from .sweep import build_kernel, build_schedule, space_tables


@dataclass
class TransportProblem:
    """Coefficients and data of the transport equation.

    sigma_t, sigma_s: callables of (x, y); f and inflow: callables of
    (x, y, l) with l the direction index. inflow=None means homogeneous
    inflow data. Requires sigma_s >= 0 and sigma_t - sigma_s bounded away
    from zero (checked at quadrature points when solving).
    """

    sigma_t: object
    sigma_s: object
    phase: PhaseFunction
    f: object
    quad: AngularQuadrature
    inflow: object = None


@dataclass
class SolverConfig:
    method: str = "dodsd"
    c_bar: float = 1.0
    tol: float = 1e-10
    max_iter: int = 1000
    delta_mode: str = "global"  # or "local": delta_K = c_bar * h_K

    def __post_init__(self):
        if self.method not in ("dodsd", "dodg"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.delta_mode not in ("global", "local"):
            raise ValueError(f"unknown delta_mode {self.delta_mode!r}")
        if self.method == "dodsd" and not self.c_bar > 0:
            raise ValueError("c_bar must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveReport:
    iterations: int
    residual_history: tuple
    converged: bool
    delta_used: float


def delta_value(config: SolverConfig, mesh: TriangleMesh):
    """Streamline-diffusion parameter: 0 for the plain DG method."""
    if config.method == "dodg":
        return 0.0
    if config.delta_mode == "local":
        return config.c_bar * mesh.tri_h
    return config.c_bar * mesh.h


def weighted_norm(coeffs, quad_weights, tri_area) -> float:
    """sqrt(sum_l w_l sum_K ||v^l||^2_{0,K}) for P1 coefficients (L+1, nt, 3)."""
    # c^T M c with M = (area/12)(I + ones): sum c_i^2 + (sum c_i)^2, scaled.
    # Matmuls instead of sum(axis=2): reductions over a length-3 axis are slow.
    s = coeffs @ np.ones(3)
    c2 = np.einsum("lki,lki->lk", coeffs, coeffs) + s * s
    return float(np.sqrt(quad_weights @ (c2 @ (tri_area / 12.0))))


def _locate(mesh: TriangleMesh, basis: ElementBasis, x, y):
    """Containing element and barycentric coords for scattered points."""
    pts = np.stack([np.ravel(x), np.ravel(y)], axis=-1)
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    disp = pts[None, :, :] - p0[:, None, :]
    lam12 = np.einsum("knt,kjt->knj", disp, basis.grad[:, 1:])
    lam = np.concatenate([1.0 - lam12.sum(axis=2, keepdims=True), lam12], axis=2)
    k = lam.min(axis=2).argmax(axis=0)
    return k, lam[k, np.arange(pts.shape[0])]


def scattering_source(sol: DGSolution, G, sigma_s, l: int):
    """x -> sigma_s(x) * sum_i G[l, i] u^i(x) for the previous iterate.

    Returns a callable of (x, y) usable at arbitrary points (each point is
    located in its containing element). The batched solver path computes the
    same quantity directly at shared quadrature points.
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


def solve(problem: TransportProblem, mesh: TriangleMesh, config: SolverConfig = None):
    """Run source iteration to convergence; returns (DGSolution, SolveReport).

    Raises NonConvergenceError when max_iter is hit or an iterate is not
    finite (the residual history is attached), AssumptionError when the
    sampled coefficients violate sigma_s >= 0, sigma_t - sigma_s > 0 or,
    with scattering, the discrete coercivity c0' = min(sigma_t - m sigma_s)
    > 0, m being the row-sum bound of the scatter matrix.
    """
    if config is None:
        config = SolverConfig()
    quad = problem.quad
    nl = quad.n_directions
    nt = mesh.n_triangles
    basis = element_basis(mesh)
    tables = space_tables(mesh, problem.sigma_t, basis=basis)
    pts = tables.points

    ss = np.asarray(problem.sigma_s(pts[..., 0], pts[..., 1]), dtype=float)
    ss = np.broadcast_to(ss, pts.shape[:2])
    if (ss < 0).any():
        raise AssumptionError("sigma_s must be nonnegative")
    gap = float((tables.sigma_t - ss).min())
    if gap <= 0.0:
        raise AssumptionError(
            f"sigma_t - sigma_s must be positive (sampled minimum {gap:.3e})"
        )

    scattering = bool(ss.any())
    if scattering:
        G = scatter_matrix(problem.phase, quad)
        m = m_bound(G)
        c0p = float((tables.sigma_t - m * ss).min())
        if c0p <= 0.0:
            raise AssumptionError(
                f"c0' = min(sigma_t - m sigma_s) = {c0p:.4g} must be positive; m = {m:.4g} "
                f"is the row-sum bound of the scatter matrix of {problem.phase}, {nl} directions"
            )

    delta = delta_value(config, mesh)
    schedules = [build_schedule(mesh, omega) for omega in quad.directions]
    px, py = pts[..., 0], pts[..., 1]
    f_vals = [np.broadcast_to(np.asarray(problem.f(px, py, l), float), px.shape) for l in range(nl)]
    g = problem.inflow
    inflow = None if g is None else [lambda x, y, l=l: g(x, y, l) for l in range(nl)]
    kernel = build_kernel(
        tables, schedules, delta, f_vals=f_vals, inflow_data=inflow,
        scatter_w=tables.areaw * ss if scattering else None,
    )
    del f_vals
    delta_used = float(np.max(delta))

    coeffs = np.zeros((nl, nt, 3))
    history = []
    for j in range(1, config.max_iter + 1):
        new = kernel.run_scattered(G @ coeffs.reshape(nl, -1)) if scattering else kernel.run()
        num = weighted_norm(new - coeffs, quad.weights, mesh.tri_area)
        den = weighted_norm(new, quad.weights, mesh.tri_area)
        coeffs = new
        if not (np.isfinite(num) and np.isfinite(den)):
            history.append(float("nan"))
            raise NonConvergenceError(
                f"source iteration produced a non-finite iterate at iteration {j}",
                residual_history=tuple(history),
            )
        if not scattering:
            break  # the directions decouple and one sweep is exact
        if den == 0.0:
            if num == 0.0:
                break
            history.append(np.inf)
            continue
        r = num / den
        if r == 0.0:
            # exact fixed point; a zero entry would break the history's
            # positivity so the residual is not recorded
            break
        history.append(r)
        if r <= config.tol:
            break
    else:
        raise NonConvergenceError(
            f"source iteration did not converge in {config.max_iter} iterations "
            f"(last residual {history[-1]:.3e})",
            residual_history=tuple(history),
        )
    report = SolveReport(
        iterations=j,
        residual_history=tuple(history),
        converged=True,
        delta_used=delta_used,
    )
    return DGSolution(coeffs, mesh, quad), report


def _form_pieces(sol_u, sol_v, problem, mesh, G, edge_npts=4, tri_degree=6):
    """Per-direction ingredients shared by apply_ah and the triple norm.

    Yields (l, w_l, dict) with elementwise volume values and edge traces.
    """
    quad = sol_u.quad
    basis = element_basis(mesh)
    rule = triangle_rule(tri_degree)
    bary = rule.points
    pts = np.einsum("qs,kst->kqt", bary, mesh.vertices[mesh.triangles])
    areaw = mesh.tri_area[:, None] * rule.weights[None, :]
    st = np.broadcast_to(
        np.asarray(problem.sigma_t(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:2]
    )
    ss = np.broadcast_to(
        np.asarray(problem.sigma_s(pts[..., 0], pts[..., 1]), dtype=float), pts.shape[:2]
    )
    tq, tw = edge_rule(edge_npts)
    opp = opposite_local_edge(mesh)
    interior = mesh.tri_neighbors != BOUNDARY
    elen = mesh.edge_length[mesh.tri_edges]

    u_all = np.einsum("lkj,qj->lkq", sol_u.coeffs, bary)  # (nl, nt, nq)
    s_all = (G @ u_all.reshape(quad.n_directions, -1)).reshape(u_all.shape)

    for l in range(quad.n_directions):
        omega = quad.directions[l]
        dot = (mesh.edge_normal[mesh.tri_edges] @ omega) * mesh.tri_edge_sign
        d = basis.grad @ omega
        yield l, quad.weights[l], {
            "omega": omega,
            "dot": dot,
            "d": d,
            "bary": bary,
            "areaw": areaw,
            "st": st,
            "ss": ss,
            "tq": tq,
            "tw": tw,
            "opp": opp,
            "interior": interior,
            "elen": elen,
            "u_pts": u_all[l],
            "s_pts": s_all[l],
        }


def _edge_trace(coeffs, s, t):
    """P1 trace along local edge s at params t: (n_masked, n_t)."""
    s1 = (s + 1) % 3
    return np.outer(coeffs[:, s], 1.0 - t) + np.outer(coeffs[:, s1], t)


def apply_ah(u: DGSolution, v: DGSolution, problem, mesh, delta, eps_n=1e-12) -> float:
    """Global bilinear form (volume + inflow jump - scattering); test use only.

    Inflow boundary traces of the upwind state are treated as zero, matching
    the homogeneous setting of the form.
    """
    if u.mesh is not mesh or v.mesh is not mesh:
        raise ValueError("u, v must live on the given mesh")
    G = scatter_matrix(problem.phase, u.quad)
    delta_k = np.broadcast_to(np.asarray(delta, dtype=float), (mesh.n_triangles,))
    total = 0.0
    for l, wl, p in _form_pieces(u, v, problem, mesh, G):
        cu = u.coeffs[l]
        cv = v.coeffs[l]
        du = (p["d"] * cu).sum(axis=1)  # omega . grad u, constant per element
        dv = (p["d"] * cv).sum(axis=1)
        u_q = p["u_pts"]
        v_q = cv @ p["bary"].T
        test = v_q + delta_k[:, None] * dv[:, None]
        vol = (p["areaw"] * (du[:, None] + p["st"] * u_q) * test).sum()
        scat = (p["areaw"] * p["ss"] * p["s_pts"] * test).sum()

        jump = 0.0
        inflow = p["dot"] < -eps_n
        for s in range(3):
            m = inflow[:, s]
            if not m.any():
                continue
            w_e = p["elen"][m, s] * (-p["dot"][m, s])
            u_plus = _edge_trace(cu[m], s, p["tq"])
            v_plus = _edge_trace(cv[m], s, p["tq"])
            mi = m & p["interior"][:, s]
            if mi.any():
                nbr = mesh.tri_neighbors[mi, s]
                sp = p["opp"][mi, s]
                sp1 = (sp + 1) % 3
                # neighbor runs against the edge param: phi_sp = t
                u_minus = cu[nbr, sp, None] * p["tq"][None, :] + cu[nbr, sp1, None] * (
                    1.0 - p["tq"][None, :]
                )
                take = mi[m]  # positions of interior-inflow rows inside m
                u_jump = u_plus.copy()
                u_jump[take] -= u_minus
            else:
                u_jump = u_plus
            jump += (w_e[:, None] * u_jump * v_plus * p["tw"][None, :]).sum()
        total += wl * (vol + jump - scat)
    return float(total)


def triple_norm_stability(
    v: DGSolution, problem, mesh, delta, c0_prime, eps_n=1e-12
) -> float:
    """Stability norm: c0' L2 + outflow-boundary + delta gradient + inflow jump."""
    if not c0_prime > 0:
        raise AssumptionError(
            f"c0' = min(sigma_t - m sigma_s) must be positive, got {c0_prime:.3e}"
        )
    G = scatter_matrix(problem.phase, v.quad)
    delta_k = np.broadcast_to(np.asarray(delta, dtype=float), (mesh.n_triangles,))
    total = 0.0
    for l, wl, p in _form_pieces(v, v, problem, mesh, G):
        cv = v.coeffs[l]
        dv = (p["d"] * cv).sum(axis=1)
        v_q = p["u_pts"]
        l2 = (p["areaw"] * v_q**2).sum()
        grad = (delta_k * mesh.tri_area * dv**2).sum()

        inflow = p["dot"] < -eps_n
        outflow_b = (p["dot"] > eps_n) & ~p["interior"]
        jump = 0.0
        out_term = 0.0
        for s in range(3):
            m = inflow[:, s]
            if m.any():
                w_e = p["elen"][m, s] * (-p["dot"][m, s])
                v_jump = _edge_trace(cv[m], s, p["tq"])
                mi = m & p["interior"][:, s]
                if mi.any():
                    nbr = mesh.tri_neighbors[mi, s]
                    sp = p["opp"][mi, s]
                    sp1 = (sp + 1) % 3
                    v_minus = cv[nbr, sp, None] * p["tq"][None, :] + cv[
                        nbr, sp1, None
                    ] * (1.0 - p["tq"][None, :])
                    v_jump[mi[m]] -= v_minus
                jump += (w_e[:, None] * v_jump**2 * p["tw"][None, :]).sum()
            mo = outflow_b[:, s]
            if mo.any():
                w_e = p["elen"][mo, s] * p["dot"][mo, s]
                v_minus = _edge_trace(cv[mo], s, p["tq"])
                out_term += (w_e[:, None] * v_minus**2 * p["tw"][None, :]).sum()
        total += wl * (c0_prime * l2 + out_term + grad + jump)
    return float(np.sqrt(total))
