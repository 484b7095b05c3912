"""Source iteration over all directions.

One iteration lags the scattering operator: for every direction l the
transport equation is swept with source

    sigma_s(x) * sum_i G[l, i] * u^{i, j-1}(x) + f_l(x)

and the loop stops once the relative weighted-L2 update drops below tol.
The weighted norm is ||v||_w^2 = sum_l w_l sum_K ||v^l||^2_{0,K}.
`solve` checks and samples the data and builds the sweep kernel; `iterate`
runs the loop, one `SweepKernel.run_scattered` over all directions per
sweep after a first `run()`, the only sweep without scattering, and both
residual norms in one pass over blocks of directions. The iterate is kept
as coefficient planes (3, L+1, nt), the layout the sweep kernel works in,
and the (L+1, nt, 3) `DGSolution` is a view of them; the global forms
and error norms that measure the result live in `analysis`.
"""

import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

from .angular import AngularQuadrature, PhaseFunction, m_bound, scatter_matrix
from .dg_core import DGSolution
from .errors import AssumptionError, NonConvergenceError, sample
from .mesh import TriangleMesh
from .sweep import SweepSchedule, build_kernel, build_schedules, space_tables


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
    """Settings of one solve: the method, c_bar of DODSD's delta = c_bar h,
    and the source iteration's relative tolerance and iteration cap."""

    method: str = "dodsd"
    c_bar: float = 1.0
    tol: float = 1e-10
    max_iter: int = 1000

    def __post_init__(self):
        if self.method not in ("dodsd", "dodg"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "dodsd" and not 0 < self.c_bar < math.inf:
            raise ValueError(f"c_bar must be positive and finite, got {self.c_bar!r}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        it = self.max_iter
        if isinstance(it, bool) or not isinstance(it, numbers.Integral) or it < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class SolveReport:
    iterations: int
    residual_history: tuple
    delta_used: float


def delta_value(config: SolverConfig, mesh: TriangleMesh) -> float:
    """Streamline-diffusion parameter: c_bar h for DODSD, 0 for the plain DG method."""
    return 0.0 if config.method == "dodg" else config.c_bar * mesh.h


def weighted_norm(coeffs, quad_weights, tri_area) -> float:
    """sqrt(sum_l w_l sum_K ||v^l||^2_{0,K}) for P1 coefficients (L+1, nt, 3): the norm
    of iterate's stopping test, from the same pass."""
    return float(np.sqrt(quad_weights @ _norms_sq(np.moveaxis(coeffs, -1, 0), tri_area / 12)[0]))


def _norms_sq(new, a12, old=None, scratch=None):
    """Per direction sum_K ||v^l||^2_{0,K} (2, nl) of the planes new (3, nl, nt) and of new -
    old, or again of new if old is None, in one pass over blocks of directions sized for a
    core's L2 cache: ~2^15 pairs in 4k directions. BLAS sums q @ a12 4 rows at a time, so
    each sum keeps the bits of one product over all directions. new - old is formed in old,
    and a flat float64 scratch of at least 2 nl nt entries, if given, holds the mass form's
    block temporaries."""
    nl, nt = new.shape[1:]
    block, sq = min(nl, 4 * max(1, 2**13 // nt)), np.empty((2, nl))
    for b in range(0, nl, block):
        d = slice(b, min(b + block, nl))
        qt = () if scratch is None else scratch[: 2 * nt * (d.stop - b)].reshape(2, -1, nt)
        sq[:, d] = _mass_form(new[:, d], *qt) @ a12
        if old is not None:
            sq[1, d] = _mass_form(np.subtract(new[:, d], old[:, d], out=old[:, d]), *qt) @ a12
    return sq


def _mass_form(planes, q=None, t=None):
    """c^T M c / (area/12) = ((c0^2 + c1^2) + c2^2) + s^2, s = sum c_i, of each pair of
    the planes (3, ...), M = (area/12)(I + ones) the P1 mass matrix; formed in place, in q
    and t if given."""
    c0, c1, c2 = planes
    q, t = np.multiply(c0, c0, out=q), np.multiply(c1, c1, out=t)
    q += t
    q += np.multiply(c2, c2, out=t)
    s = np.add(c0, c1, out=t)
    s += c2
    q += np.multiply(s, s, out=s)
    return q


def solve(problem: TransportProblem, mesh: TriangleMesh, config: SolverConfig = None):
    """Run source iteration to convergence; returns (DGSolution, SolveReport).

    Raises NonConvergenceError when max_iter is hit or an iterate is not
    finite (the residual history is attached), AssumptionError before the
    sweep set-up when a sample of sigma_t, sigma_s or f is not finite, or the
    sampled coefficients violate sigma_s >= 0, sigma_t - sigma_s > 0 or,
    with scattering, the discrete coercivity c0' = min(sigma_t - m sigma_s)
    > 0, m being the row-sum bound of the scatter matrix, and before the
    iteration when a sample of the inflow data is not finite. The sweep
    schedule depends only on the mesh and the directions, so solve keeps it
    while the mesh lives, without the inflow mask that the fill never reads:
    a later solve on the same mesh and directions skips the peel.
    """
    if config is None:
        config = SolverConfig()
    quad = problem.quad
    nl = quad.n_directions
    tables = space_tables(mesh, problem.sigma_t)
    pts = tables.points
    ss = sample("sigma_s", problem.sigma_s, pts)
    f_vals = [sample(f"f (direction {l})", problem.f, pts, l) for l in range(nl)]
    if (ss < 0).any():
        raise AssumptionError("sigma_s must be nonnegative")
    gap = float((tables.sigma_t - ss).min())
    if not gap > 0.0:  # NaN fails too
        raise AssumptionError(
            f"sigma_t - sigma_s must be positive (sampled minimum {gap:.3e})"
        )

    scattering, G = bool(ss.any()), None
    if scattering:
        G = scatter_matrix(problem.phase, quad)
        m = m_bound(G)
        c0p = float((tables.sigma_t - m * ss).min())
        if not c0p > 0.0:
            raise AssumptionError(
                f"c0' = min(sigma_t - m sigma_s) = {c0p:.4g} must be positive; m = {m:.4g} "
                f"is the row-sum bound of the scatter matrix of {problem.phase}, {nl} directions"
            )

    delta = delta_value(config, mesh)
    # the samples one by one: the fill frees each spent one
    kernel = build_kernel(
        tables, _stored_schedule(mesh, quad.directions), delta,
        f_vals=(f_vals.pop(0) for _ in range(nl)),
        inflow_data=problem.inflow, scatter_w=tables.areaw * ss if scattering else None,
    )
    del tables, pts, ss  # the kernel keeps what it reads of them
    planes, history, sweeps = iterate(kernel, G, quad.weights, mesh.tri_area, config)
    report = SolveReport(iterations=sweeps, residual_history=history, delta_used=float(delta))
    return DGSolution(np.moveaxis(planes, 0, -1), mesh, quad), report


_SCHEDULES = weakref.WeakKeyDictionary()  # mesh -> {directions' bytes: SweepSchedule}


def _stored_schedule(mesh: TriangleMesh, directions) -> SweepSchedule:
    """The schedule of the directions (nl, 2) stored for mesh, peeled by build_schedules on
    first use: a read-only copy of the directions and their narrow layers, inflow None, as
    the fill reads no more. One entry per direction set solved on a mesh, freed with it."""
    omega = np.array(directions, dtype=float)  # a copy: an entry keeps the directions of its key
    key, stored = omega.tobytes(), _SCHEDULES.setdefault(mesh, {})
    sched = stored.get(key)
    if sched is None:
        omega.flags.writeable = False
        layer_of = build_schedules(mesh, omega).layer_of
        sched = stored[key] = SweepSchedule(omega, layer_of, None)
    return sched


def iterate(kernel, G, weights, area, config: SolverConfig):
    """Source iteration u_j = kernel.run_scattered(G @ u_{j-1}) from u_0 = 0.

    The iterate is kept as coefficient planes (3, nl, nt); the first sweep is kernel.run(),
    with no G @ 0, and with G None (no scattering) the only one. Each later sweep forms
    G @ u in a spare plane set that run_scattered overwrites with the new planes, then swaps
    it with u: the loop holds u, the spare set and the kernel's sweep buffer. Each later
    relative update r = ||u_j - u_{j-1}||_w / ||u_j||_w (0 for 0/0, inf for x/0, 1 at the
    first sweep) is recorded unless it is 0, an exact fixed point, and the loop stops once r
    <= config.tol. Both norms come from one weighted_norm pass, which forms u_j - u_{j-1} in
    u_{j-1}, dead after it, and borrows the sweep buffer, dead between sweeps, as its block
    scratch. Returns (planes, residual history, sweeps);
    NonConvergenceError with the history at config.max_iter sweeps or at a non-finite iterate.
    """
    a12, u, spare, history = area / 12, None, None, []
    for j in range(1, config.max_iter + 1):
        gu = None if u is None else np.matmul(G, u, out=spare)
        new = np.moveaxis(kernel.run(), -1, 0) if gu is None else kernel.run_scattered(gu)
        # per direction ||u_j||^2 and ||u_j - u_{j-1}||^2, equal for u_0 = 0
        den, num = (float(np.sqrt(weights @ s)) for s in _norms_sq(new, a12, u, kernel.buf))
        u, spare = new, u
        if not (np.isfinite(num) and np.isfinite(den)):
            history.append(float("nan"))
            raise NonConvergenceError(
                f"source iteration produced a non-finite iterate at iteration {j}",
                residual_history=tuple(history),
            )
        if G is None:
            break
        r = num / den if den else (math.inf if num else 0.0)
        if r == 0.0:
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
    return u, tuple(history), j
