import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rte2d import (
    EPS_N,
    AssumptionError,
    DGSolution,
    NonConvergenceError,
    PhaseFunction,
    SolverConfig,
    TransportProblem,
    apply_ah,
    build_kernel,
    build_schedule,
    build_schedules,
    build_structured_unit_square,
    delta_value,
    element_basis,
    m_bound,
    refine_regular,
    scatter_matrix,
    solve,
    space_tables,
    trapezoid_circle,
    triple_norm_stability,
    weighted_norm,
)
from rte2d.mesh import BOUNDARY
from rte2d.quadrature import triangle_rule
from rte2d.solver import iterate
from helpers import perturbed_mesh, project_exact, random_solution
from oracle import assemble_local, scattering_source, sweep_direction


def const(v):
    return lambda x, y: np.full(np.shape(x), v)


def isotropic_problem(quad, sigma_t=3.0, sigma_s=0.5, f=None, inflow=None):
    return TransportProblem(
        sigma_t=const(sigma_t),
        sigma_s=const(sigma_s),
        phase=PhaseFunction.henyey_greenstein(0.0),
        f=f if f is not None else (lambda x, y, l: np.ones(np.shape(x))),
        quad=quad,
        inflow=inflow,
    )


# ---------------------------------------------------------------- scattering


def test_scattering_source_zero_field():
    mesh = build_structured_unit_square(2)
    quad = trapezoid_circle(8)
    sol = DGSolution(np.zeros((8, mesh.n_triangles, 3)), mesh, quad)
    G = scatter_matrix(PhaseFunction.henyey_greenstein(0.2), quad)
    src = scattering_source(sol, G, const(0.1), 3)
    x = np.array([0.13, 0.5, 0.77])
    np.testing.assert_array_equal(src(x, x), 0.0)


def test_scattering_source_isotropic_constant():
    # g integrates to one on the circle, so Su = u for a direction-free field
    mesh = build_structured_unit_square(3)
    quad = trapezoid_circle(12)
    sol = project_exact(lambda x, y, t: np.ones(np.shape(x)), mesh, quad)
    G = scatter_matrix(PhaseFunction.henyey_greenstein(0.0), quad)
    src = scattering_source(sol, G, const(0.25), 0)
    x = np.array([0.21, 0.64])
    y = np.array([0.33, 0.9])
    np.testing.assert_allclose(src(x, y), 0.25, atol=1e-13)


def test_scattering_source_rejects_point_outside_mesh():
    mesh = build_structured_unit_square(2)
    quad = trapezoid_circle(4)
    sol = project_exact(lambda x, y, t: np.ones(np.shape(x)), mesh, quad)
    G = scatter_matrix(PhaseFunction.henyey_greenstein(0.0), quad)
    src = scattering_source(sol, G, const(1.0), 0)
    # corners and edges of the square are inside
    x, y = np.array([0.0, 1.0, 0.3]), np.array([0.0, 1.0, 0.6])
    np.testing.assert_allclose(src(x, y), 1.0, atol=1e-13)
    with pytest.raises(ValueError, match="outside the mesh"):
        src(np.array([0.5, 1.25]), np.array([0.5, 0.5]))


def test_scattering_source_matches_direct_sum():
    mesh = perturbed_mesh(3, seed=20)
    quad = trapezoid_circle(16)
    thetas = np.arctan2(quad.directions[:, 1], quad.directions[:, 0])
    sol = project_exact(lambda x, y, t: np.cos(t) * (1.0 + x), mesh, quad)
    G = scatter_matrix(PhaseFunction.linear_anisotropic(), quad)
    l = 5
    src = scattering_source(sol, G, const(2.0), l)
    rng = np.random.RandomState(0)
    x, y = rng.uniform(0.05, 0.95, size=(2, 40))
    expect = 2.0 * (1.0 + x) * float(G[l] @ np.cos(thetas))
    np.testing.assert_allclose(src(x, y), expect, atol=1e-12)
    # the direct angular sum of a first harmonic keeps only its projection
    assert float(G[l] @ np.cos(thetas)) == pytest.approx(
        0.25 * np.cos(thetas[l]), abs=1e-14
    )


# ------------------------------------------------------------------- solve


def test_solve_pure_absorption_single_sweep():
    mesh = perturbed_mesh(3, seed=21)
    quad = trapezoid_circle(6)
    problem = isotropic_problem(quad, sigma_s=0.0)
    sol, report = solve(problem, mesh)
    assert report.iterations == 1
    assert report.residual_history == ()

    # each direction is one reference transport sweep
    for l in range(quad.n_directions):
        sched = build_schedule(mesh, quad.directions[l])
        ref = sweep_direction(
            mesh, sched, quad.directions[l], mesh.h, const(3.0),
            const(1.0), None, tri_rule=triangle_rule(4), edge_npts=4,
        )
        np.testing.assert_allclose(sol.coeffs[l], ref, atol=1e-12)


def test_solve_matches_reference_source_iteration():
    mesh = perturbed_mesh(3, seed=22)
    quad = trapezoid_circle(6)
    problem = isotropic_problem(quad, inflow=lambda x, y, l: 1.0 + 0.0 * x)
    sol, report = solve(problem, mesh)
    assert 1 < report.iterations < 60

    G = scatter_matrix(problem.phase, quad)
    coeffs = np.zeros_like(sol.coeffs)
    scheds = [build_schedule(mesh, quad.directions[l]) for l in range(6)]
    for _ in range(report.iterations):
        prev = DGSolution(coeffs.copy(), mesh, quad)
        for l in range(6):
            scat = scattering_source(prev, G, problem.sigma_s, l)
            src = lambda x, y: 1.0 + scat(x, y)
            coeffs[l] = sweep_direction(
                mesh, scheds[l], quad.directions[l], mesh.h, problem.sigma_t,
                src, lambda x, y: 1.0 + 0.0 * x,
                tri_rule=triangle_rule(4), edge_npts=4,
            )
    np.testing.assert_allclose(sol.coeffs, coeffs, atol=1e-9)


def scattering_kernel(problem, mesh, cfg):
    """The stacked kernel and scatter matrix that solve builds for a scattering problem."""
    tables = space_tables(mesh, problem.sigma_t)
    px, py = tables.points[..., 0], tables.points[..., 1]
    kernel = build_kernel(
        tables, build_schedules(mesh, problem.quad.directions), delta_value(cfg, mesh),
        f_vals=[problem.f(px, py, l) for l in range(problem.quad.n_directions)],
        inflow_data=problem.inflow, scatter_w=tables.areaw * problem.sigma_s(px, py),
    )
    return kernel, scatter_matrix(problem.phase, problem.quad)


def test_iterate_is_the_iteration_of_solve():
    # a kernel built by hand from the problem's data: the same planes, bit for
    # bit, the same history and sweep count; at max_iter, the history so far
    mesh = perturbed_mesh(4, seed=27)
    quad = trapezoid_circle(8)
    problem = isotropic_problem(
        quad, f=lambda x, y, l: 1.0 + np.cos(l + x) * y, inflow=lambda x, y, l: 0.5 + 0.1 * l * x
    )
    problem.phase = PhaseFunction.henyey_greenstein(0.4)
    cfg = SolverConfig(tol=1e-12)
    sol, report = solve(problem, mesh, cfg)

    kernel, G = scattering_kernel(problem, mesh, cfg)
    planes, history, sweeps = iterate(kernel, G, quad.weights, mesh.tri_area, cfg)
    assert planes.shape == (3, quad.n_directions, mesh.n_triangles)
    np.testing.assert_array_equal(np.moveaxis(planes, 0, -1), sol.coeffs)
    assert history == report.residual_history
    assert sweeps == report.iterations > 3

    with pytest.raises(NonConvergenceError, match="did not converge in 3 iterations") as exc:
        iterate(kernel, G, quad.weights, mesh.tri_area, SolverConfig(max_iter=3))
    assert exc.value.residual_history == list(history[:3])


def test_first_sweep_is_the_kernel_run_with_residual_one():
    # u_0 = 0, so the first sweep is run() with no scattering rhs, and its update is itself
    mesh = perturbed_mesh(4, seed=28)
    quad = trapezoid_circle(8)
    problem = isotropic_problem(quad, inflow=lambda x, y, l: 0.5 + 0.1 * l * y)
    kernel, G = scattering_kernel(problem, mesh, SolverConfig())
    first = np.moveaxis(kernel.run(), -1, 0)
    with pytest.raises(NonConvergenceError, match="did not converge in 1 iterations") as exc:
        iterate(kernel, G, quad.weights, mesh.tri_area, SolverConfig(max_iter=1))
    assert exc.value.residual_history == [1.0]
    planes, history, sweeps = iterate(
        kernel, G, quad.weights, mesh.tri_area, SolverConfig(tol=1.0, max_iter=1)
    )
    np.testing.assert_array_equal(planes, first)
    assert history == (1.0,) and sweeps == 1


def test_iterate_holds_at_most_three_plane_sets():
    # the iterate, the spare set that takes G @ u and is swept in place into the new
    # planes, and the sweep's buffer; the norms' scratch is a few block rows
    mesh = refine_regular(refine_regular(build_structured_unit_square(10)))
    quad = trapezoid_circle(20)
    problem = isotropic_problem(quad)
    problem.phase = PhaseFunction.henyey_greenstein(0.5)
    kernel, G = scattering_kernel(problem, mesh, SolverConfig())
    tracemalloc.start()
    try:
        planes, _, sweeps = iterate(kernel, G, quad.weights, mesh.tri_area, SolverConfig(tol=1e-8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweeps > 2
    assert peak <= 3.2 * planes.nbytes


def test_blocked_residual_norms_are_weighted_norms():
    # 3200 elements and 20 directions: the norms run over blocks of 8, 8 and 4 directions
    mesh = refine_regular(refine_regular(build_structured_unit_square(10)))
    quad = trapezoid_circle(20)
    kernel, G = scattering_kernel(isotropic_problem(quad), mesh, SolverConfig())
    u1 = kernel.run()
    u2 = np.moveaxis(kernel.run_scattered(G @ np.moveaxis(u1, -1, 0)), 0, -1)
    want = weighted_norm(u2 - u1, quad.weights, mesh.tri_area) / weighted_norm(
        u2, quad.weights, mesh.tri_area
    )
    with pytest.raises(NonConvergenceError) as exc:
        iterate(kernel, G, quad.weights, mesh.tri_area, SolverConfig(max_iter=2))
    assert exc.value.residual_history[0] == 1.0
    assert exc.value.residual_history[1] == want


def test_solve_samples_the_inflow_data_once_per_direction():
    mesh = build_structured_unit_square(4)
    quad = trapezoid_circle(8)
    calls = []

    def inflow(x, y, l):
        calls.append(l)
        return 1.0 + 0.0 * x

    solve(isotropic_problem(quad, inflow=inflow), mesh)
    assert sorted(calls) == list(range(quad.n_directions))


def test_solve_matches_point_source_iteration():
    # the folded scattering moments against a plain source iteration that
    # evaluates sigma_s * G u at the quadrature points and sweeps direction by direction
    mesh = perturbed_mesh(4, seed=26)
    quad = trapezoid_circle(8)
    nl, nt = quad.n_directions, mesh.n_triangles
    problem = TransportProblem(
        sigma_t=lambda x, y: 4.0 + x * y,
        sigma_s=lambda x, y: 2.0 + np.sin(3.0 * x) * y,
        phase=PhaseFunction.henyey_greenstein(0.5),
        f=lambda x, y, l: 1.0 + np.cos(l + x) * y,
        quad=quad,
        inflow=lambda x, y, l: 0.5 + 0.1 * l * x,
    )
    cfg = SolverConfig(tol=1e-12)
    sol, report = solve(problem, mesh, cfg)
    assert 10 < report.iterations < 100

    tables = space_tables(mesh, problem.sigma_t)
    px, py = tables.points[..., 0], tables.points[..., 1]
    wss = tables.areaw * problem.sigma_s(px, py)
    G = scatter_matrix(problem.phase, quad)
    kernels = [
        build_kernel(
            tables, build_schedule(mesh, quad.directions[l]), mesh.h,
            f_vals=problem.f(px, py, l), inflow_data=lambda x, y, l=l: problem.inflow(x, y, l),
        )
        for l in range(nl)
    ]
    coeffs = np.zeros((nl, nt, 3))
    for j in range(1, cfg.max_iter + 1):
        s_pts = np.einsum("ij,jkq->ikq", G, np.einsum("lkj,qj->lkq", coeffs, tables.rule.points))
        new = np.stack([k.run(k.volume_rhs(wss * s_pts[l])) for l, k in enumerate(kernels)])
        r = weighted_norm(new - coeffs, quad.weights, mesh.tri_area) / weighted_norm(
            new, quad.weights, mesh.tri_area
        )
        coeffs = new
        if r <= cfg.tol:
            break
    assert j == report.iterations
    np.testing.assert_allclose(sol.coeffs, coeffs, rtol=0, atol=1e-12 * np.abs(coeffs).max())


@settings(max_examples=12, deadline=None, database=None)
@given(st.data())
def test_solve_is_linear_in_the_sources(data):
    # solve(a (f1, g1) + b (f2, g2)) = a u1 + b u2 on drawn meshes, sigma fields
    # and phases. (f2, g2) manufacture an affine, direction-independent u2:
    # the method reproduces it exactly, so the sum is checked against an
    # exact field, not only against two runs of the same sweep.
    draw = data.draw
    mesh = perturbed_mesh(draw(st.integers(3, 4), label="n"), seed=draw(st.integers(0, 999)))
    quad = trapezoid_circle(draw(st.sampled_from([4, 6, 8]), label="n_dirs"))
    unit = st.floats(-1.0, 1.0).map(lambda v: round(v, 3))  # no subnormal data
    t0, t1, t2 = draw(st.floats(1.0, 5.0)), draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    ratio = draw(st.floats(0.0, 0.6), label="sigma_s / sigma_t")
    eta = draw(st.one_of(st.none(), st.floats(-0.7, 0.7)), label="eta (None: linear)")
    phase = PhaseFunction.linear_anisotropic() if eta is None else PhaseFunction.henyey_greenstein(eta)
    sigma_t = lambda x, y: t0 + t1 * x + t2 * y
    sigma_s = lambda x, y: ratio * t0 * (0.5 + 0.5 * x * y)
    c = [draw(unit) for _ in range(6)]
    f1 = lambda x, y, l: c[0] + c[1] * np.cos(l + 3.0 * x) * y + c[2] * x * x
    g1 = lambda x, y, l: c[3] + c[4] * x - c[5] * l * y
    p0, p1, p2 = draw(unit), draw(unit), draw(unit)
    u_exact = lambda x, y: p0 + p1 * x + p2 * y
    # the scattering of a direction-independent u is sigma_s (sum_i G[l, i]) u
    rows = scatter_matrix(phase, quad).sum(axis=1)
    om = quad.directions
    f2 = lambda x, y, l: (
        om[l, 0] * p1 + om[l, 1] * p2 + (sigma_t(x, y) - sigma_s(x, y) * rows[l]) * u_exact(x, y)
    )
    g2 = lambda x, y, l: u_exact(x, y)
    a, b = draw(unit, label="a"), draw(unit, label="b")
    config = SolverConfig(method=draw(st.sampled_from(["dodsd", "dodg"])), tol=1e-13)

    def run(f, g):
        problem = TransportProblem(sigma_t, sigma_s, phase, f, quad, inflow=g)
        return solve(problem, mesh, config)[0].coeffs

    u1, u2 = run(f1, g1), run(f2, g2)
    verts = mesh.vertices[mesh.triangles]
    exact = u_exact(verts[..., 0], verts[..., 1])
    np.testing.assert_allclose(u2, np.broadcast_to(exact, u2.shape), rtol=0, atol=1e-11)
    u = run(
        lambda x, y, l: a * f1(x, y, l) + b * f2(x, y, l),
        lambda x, y, l: a * g1(x, y, l) + b * g2(x, y, l),
    )
    scale = abs(a) * np.abs(u1).max() + abs(b) * np.abs(u2).max()
    np.testing.assert_allclose(u, a * u1 + b * u2, rtol=0, atol=1e-11 * scale)


def test_solve_residual_history_properties():
    mesh = build_structured_unit_square(4)
    quad = trapezoid_circle(8)
    sol, report = solve(isotropic_problem(quad), mesh)
    hist = np.asarray(report.residual_history)
    assert hist.size == report.iterations
    assert (hist > 0).all()
    assert hist[-1] <= 1e-10
    # strongly absorbing regime contracts fast
    assert report.iterations < 25


def test_solve_dodg_is_delta_zero():
    mesh = perturbed_mesh(3, seed=23)
    quad = trapezoid_circle(4)
    problem = isotropic_problem(quad, sigma_s=0.0)
    sol, report = solve(problem, mesh, SolverConfig(method="dodg"))
    assert report.delta_used == 0.0
    for l in range(quad.n_directions):
        sched = build_schedule(mesh, quad.directions[l])
        ref = sweep_direction(
            mesh, sched, quad.directions[l], 0.0, const(3.0), const(1.0), None,
            tri_rule=triangle_rule(4), edge_npts=4,
        )
        np.testing.assert_allclose(sol.coeffs[l], ref, atol=1e-12)


def test_dodsd_tends_to_dodg_as_c_bar_vanishes():
    # delta = c_bar h enters the local matrices and sources smoothly, so the
    # DODSD solution differs from DODG's by a term linear in c_bar
    mesh = perturbed_mesh(4, seed=31)
    quad = trapezoid_circle(8)
    problem = TransportProblem(
        sigma_t=lambda x, y: 2.0 + x,
        sigma_s=lambda x, y: 0.5 + 0.3 * y,
        phase=PhaseFunction.henyey_greenstein(0.4),
        f=lambda x, y, l: 1.0 + x * y + 0.1 * l * x,
        quad=quad,
        inflow=lambda x, y, l: 0.5 + x - 0.2 * y,
    )
    dodg = solve(problem, mesh, SolverConfig(method="dodg", tol=1e-13))[0].coeffs
    gaps = [
        np.abs(solve(problem, mesh, SolverConfig(c_bar=eps, tol=1e-13))[0].coeffs - dodg).max()
        for eps in (1e-4, 1e-6, 1e-8)
    ]
    assert 0.0 < gaps[0] < 1e-3 * np.abs(dodg).max()
    assert gaps[0] / gaps[1] == pytest.approx(100.0, rel=0.01)
    assert gaps[1] / gaps[2] == pytest.approx(100.0, rel=0.01)


def test_delta_value_modes():
    mesh = build_structured_unit_square(5)
    assert delta_value(SolverConfig(method="dodg"), mesh) == 0.0
    assert delta_value(SolverConfig(c_bar=2.0), mesh) == pytest.approx(2.0 * mesh.h)


def test_solve_nonconvergence_raises():
    mesh = build_structured_unit_square(2)
    quad = trapezoid_circle(4)
    with pytest.raises(NonConvergenceError) as exc:
        solve(isotropic_problem(quad), mesh, SolverConfig(max_iter=1))
    assert len(exc.value.residual_history) == 1
    assert exc.value.residual_history[0] == pytest.approx(1.0)


# finite data whose solution overflows: the iterate guard's only way in,
# now that non-finite samples are rejected before any set-up
OVERFLOWING_F = lambda x, y, l: np.where(x < 0.5, 1e308, 1.0)


def test_solve_stops_at_non_finite_iterate():
    mesh = build_structured_unit_square(4)
    quad = trapezoid_circle(4)
    f = OVERFLOWING_F
    with pytest.raises(NonConvergenceError, match="non-finite") as exc, np.errstate(all="ignore"):
        solve(isotropic_problem(quad, f=f), mesh)
    hist = exc.value.residual_history
    assert 1 <= len(hist) <= 2
    assert np.isnan(hist[-1])


def test_solve_without_scattering_rejects_non_finite_sweep():
    mesh = build_structured_unit_square(4)
    quad = trapezoid_circle(20)
    f = OVERFLOWING_F
    with pytest.raises(NonConvergenceError, match="non-finite") as exc, np.errstate(all="ignore"):
        solve(isotropic_problem(quad, sigma_s=0.0, f=f), mesh)
    hist = exc.value.residual_history
    assert len(hist) == 1 and np.isnan(hist[0])


def nan_left(v):
    return lambda x, y, *l: np.where(x < 0.5, np.nan, v)


@pytest.mark.parametrize("name,field", [
    ("sigma_t", "sigma_t"),  # NaN slips past sigma_t - sigma_s > 0 and c0' > 0
    ("sigma_s", "sigma_s"),
    ("f (direction 0)", "f"),
    ("inflow data (direction 0)", "inflow"),
])
def test_solve_rejects_non_finite_samples_before_set_up(monkeypatch, name, field):
    mesh = build_structured_unit_square(4)
    quad = trapezoid_circle(4)  # direction 0 = +x enters at x = 0
    problem = isotropic_problem(quad, inflow=lambda x, y, l: np.ones(np.shape(x)))
    setattr(problem, field, nan_left({"sigma_t": 3.0, "sigma_s": 0.5}.get(field, 1.0)))

    def no_set_up(*args, **kwargs):
        raise AssertionError("set-up ran on non-finite input")

    # the kernel build samples the inflow data: it is rejected there, before the iteration
    stages = ["iterate"] if field == "inflow" else ["build_schedules", "build_kernel"]
    for stage in stages:
        monkeypatch.setattr(f"rte2d.solver.{stage}", no_set_up)
    with pytest.raises(AssumptionError, match=rf"^{re.escape(name)} has \d+ non-finite"):
        solve(problem, mesh)


def test_solve_ignores_non_finite_inflow_data_on_outflow_edges():
    mesh = build_structured_unit_square(4)
    inputs = [
        # +x and -x; NaN only where each one leaves
        (trapezoid_circle(2), lambda x, y, l: np.where((x > 0.5) == (l == 0), np.nan, 1.0)),
        # +x, +y, -x, -y; NaN only on the sides tangential to each, |omega . n| <= EPS_N
        (trapezoid_circle(4), lambda x, y, l: np.where(np.isin((y, x)[l % 2], (0.0, 1.0)), np.nan, 1.0)),
    ]
    for quad, inflow in inputs:
        sol, report = solve(isotropic_problem(quad, sigma_s=0.0, inflow=inflow), mesh)
        assert np.isfinite(sol.coeffs).all()


def test_solve_rejects_discrete_coercivity_violation():
    # sigma_t - sigma_s > 0, but m ~ 9.98 makes sigma_t - m sigma_s negative
    mesh = build_structured_unit_square(2)
    quad = trapezoid_circle(20)
    problem = isotropic_problem(quad, sigma_t=10.0, sigma_s=5.0)
    problem.phase = PhaseFunction.henyey_greenstein(0.99)
    m = m_bound(scatter_matrix(problem.phase, quad))
    assert m == pytest.approx(9.983, abs=1e-3)
    with pytest.raises(AssumptionError, match="c0'") as exc:
        solve(problem, mesh, SolverConfig(max_iter=5))
    msg = str(exc.value)
    assert f"m = {m:.4g}" in msg
    assert f"= {10.0 - 5.0 * m:.4g} must be positive" in msg


def test_solve_rejects_nan_coercivity_bound(monkeypatch):
    # a phase whose eta bypassed the constructor's check gives m = nan: the
    # coercivity check must fail on it, not let the iteration run into NaN
    mesh = build_structured_unit_square(2)
    problem = isotropic_problem(trapezoid_circle(4))
    object.__setattr__(problem.phase, "eta", float("nan"))
    monkeypatch.setattr("rte2d.solver.build_kernel", lambda *a, **k: pytest.fail("set-up ran"))
    with pytest.raises(AssumptionError, match="c0' = min\\(sigma_t - m sigma_s\\) = nan"):
        solve(problem, mesh)


def test_solve_rejects_bad_coefficients():
    mesh = build_structured_unit_square(2)
    quad = trapezoid_circle(4)
    with pytest.raises(AssumptionError):
        solve(isotropic_problem(quad, sigma_s=-0.1), mesh)
    with pytest.raises(AssumptionError):
        solve(isotropic_problem(quad, sigma_t=1.0, sigma_s=1.0), mesh)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="upwind")
    with pytest.raises(ValueError):
        SolverConfig(c_bar=0.0)
    for bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            SolverConfig(tol=bad)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    # a bool is an Integral, but max_iter=True would run one sweep
    for bad in (2.5, float("nan"), "10", True, False):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverConfig(max_iter=bad)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="c_bar must be positive and finite"):
            SolverConfig(c_bar=bad)
    # c_bar is unused by the plain method
    SolverConfig(method="dodg", c_bar=0.0)
    SolverConfig(max_iter=np.int64(5))


def test_weighted_norm_against_mass_matrix():
    mesh = perturbed_mesh(3, seed=25)
    quad = trapezoid_circle(5)
    sol = random_solution(mesh, quad, seed=1)
    total = 0.0
    M_unit = (np.ones((3, 3)) + np.eye(3)) / 12.0
    for l in range(quad.n_directions):
        for k in range(mesh.n_triangles):
            c = sol.coeffs[l, k]
            total += quad.weights[l] * mesh.tri_area[k] * (c @ M_unit @ c)
    got = weighted_norm(sol.coeffs, quad.weights, mesh.tri_area)
    assert got == pytest.approx(np.sqrt(total), rel=1e-13)


def test_weighted_norm_same_bits_for_pairs_and_planes():
    # solve's iterate is stored as planes (3, nl, nt), the replay's as (nl, nt, 3)
    mesh = perturbed_mesh(5, seed=27)
    quad = trapezoid_circle(12)
    coeffs = random_solution(mesh, quad, seed=2).coeffs
    planes = np.moveaxis(coeffs, -1, 0).copy()
    a = weighted_norm(coeffs, quad.weights, mesh.tri_area)
    b = weighted_norm(np.moveaxis(planes, 0, -1), quad.weights, mesh.tri_area)
    assert a == b


# -------------------------------------------------------------- weak form


def edge_sq_integral(j0, j1):
    # exact integral of a linear trace squared over a unit parameter range
    return (j0 * j0 + j0 * j1 + j1 * j1) / 3.0


def quadratic_form_oracle(coeffs, mesh, quad, sigma_t, eps_n=1e-12):
    """a_h(v, v) for delta=0, sigma_s=0 via the integrated-by-parts form:
    (sigma_t v, v) + half the squared inflow jumps + half the boundary flux.
    """
    opp = mesh.tri_opposite
    elen = mesh.tri_edge_length
    M_unit = (np.ones((3, 3)) + np.eye(3)) / 12.0
    total = 0.0
    for l in range(quad.n_directions):
        omega = quad.directions[l]
        dot = mesh.tri_normal @ omega
        acc = 0.0
        for k in range(mesh.n_triangles):
            c = coeffs[l, k]
            acc += sigma_t * mesh.tri_area[k] * (c @ M_unit @ c)
            for s in range(3):
                if abs(dot[k, s]) <= eps_n:
                    continue
                n = mesh.tri_neighbors[k, s]
                s1 = (s + 1) % 3
                if n == BOUNDARY:
                    acc += 0.5 * elen[k, s] * abs(dot[k, s]) * edge_sq_integral(
                        c[s], c[s1]
                    )
                elif dot[k, s] < 0.0:
                    cn = coeffs[l, n]
                    sp = opp[k, s]
                    sp1 = (sp + 1) % 3
                    j0 = c[s] - cn[sp1]
                    j1 = c[s1] - cn[sp]
                    acc += 0.5 * elen[k, s] * (-dot[k, s]) * edge_sq_integral(j0, j1)
        total += quad.weights[l] * acc
    return total


def p1_trace(mesh, c, n, x, y):
    """The P1 field c (nt, 3) of element n at the points (x, y), from its vertices."""
    corners = np.vstack([mesh.vertices[mesh.triangles[n]].T, np.ones(3)])
    return c[n] @ np.linalg.solve(corners, np.vstack([x, y, np.ones(np.shape(x))]))


def weak_forms_oracle(u, v, problem, mesh, delta):
    """(a_h(u, v), l(v)) element by element from the per-element assembly: a_h with the
    neighbour's trace of u upwind (zero on the boundary) and the scattering of u as the
    source; l(v) = (f, v + delta omega . grad v) + sum |e| |omega . n| <g, v> over the
    inflow boundary edges. The oracle's default degree-4 rule is the kernel's."""
    quad = problem.quad
    G = scatter_matrix(problem.phase, quad)
    basis = element_basis(mesh)
    zero = const(0.0)
    a_h = l_v = 0.0
    for l, omega in enumerate(quad.directions):
        source = scattering_source(u, G, problem.sigma_s, l)
        f = lambda x, y: problem.f(x, y, l)
        dot = mesh.tri_normal @ omega
        for k in range(mesh.n_triangles):
            inflow = np.flatnonzero(dot[k] < -EPS_N)

            def upwind(s, x, y):
                n = mesh.tri_neighbors[k, s]
                return zero(x, y) if n == BOUNDARY else p1_trace(mesh, u.coeffs[l], n, x, y)

            def data(s, x, y):
                on_boundary = mesh.tri_neighbors[k, s] == BOUNDARY
                return problem.inflow(x, y, l) if on_boundary and problem.inflow else zero(x, y)

            args = (mesh, basis, k, omega, delta, problem.sigma_t, inflow)
            form = assemble_local(*args, upwind, source)
            rhs = assemble_local(*args, data, f)
            a_h += quad.weights[l] * (v.coeffs[l, k] @ (form.A @ u.coeffs[l, k] - form.b))
            l_v += quad.weights[l] * (v.coeffs[l, k] @ rhs.b)
    return a_h, l_v


def test_apply_ah_matches_the_element_assembly():
    # every integrand has degree <= 2, so both sides are exact
    mesh = perturbed_mesh(3, seed=31)
    quad = trapezoid_circle(6)
    problem = TransportProblem(
        sigma_t=const(4.0), sigma_s=const(1.5), phase=PhaseFunction.henyey_greenstein(0.5),
        f=lambda x, y, l: np.ones(np.shape(x)), quad=quad,
    )
    u = random_solution(mesh, quad, seed=11)
    v = random_solution(mesh, quad, seed=12)
    delta = 0.7 * mesh.h
    assert (mesh.tri_neighbors == BOUNDARY).any()
    expect, _ = weak_forms_oracle(u, v, problem, mesh, delta)
    assert apply_ah(u, v, problem, mesh, delta) == pytest.approx(expect, rel=1e-11)


def test_apply_ah_integrates_with_the_kernels_rule():
    # for a non-polynomial sigma, apply_ah is the discrete operator solve inverts
    mesh = perturbed_mesh(3, seed=34)
    quad = trapezoid_circle(6)
    problem = TransportProblem(
        sigma_t=lambda x, y: 4.0 + np.sin(3.0 * x) * np.cos(2.0 * y),
        sigma_s=lambda x, y: 1.0 + 0.5 * np.exp(-x * y),
        phase=PhaseFunction.henyey_greenstein(0.5), f=lambda x, y, l: np.ones(np.shape(x)),
        quad=quad,
    )
    u = random_solution(mesh, quad, seed=17)
    v = random_solution(mesh, quad, seed=18)
    delta = 0.7 * mesh.h
    expect, _ = weak_forms_oracle(u, v, problem, mesh, delta)
    assert apply_ah(u, v, problem, mesh, delta) == pytest.approx(expect, rel=1e-11)


@pytest.mark.parametrize("method", ["dodsd", "dodg"])
@pytest.mark.parametrize("perturbed", [False, True], ids=["structured", "perturbed"])
def test_solution_satisfies_the_weak_equations(method, perturbed):
    # a_h(u_h, v) = l(v) for random v, up to the iteration's tolerance; sigma_t, f and g
    # are polynomial, so the kernel's rules and the oracle's integrate them exactly
    mesh = perturbed_mesh(4, seed=33) if perturbed else build_structured_unit_square(4)
    quad = trapezoid_circle(8)
    problem = TransportProblem(
        sigma_t=lambda x, y: 1.0 + 0.5 * x, sigma_s=const(0.5),
        phase=PhaseFunction.henyey_greenstein(0.5),
        f=lambda x, y, l: 1.0 + (l + 1) * x - 0.3 * y**2 + x * y, quad=quad,
        inflow=lambda x, y, l: 1.0 + 0.5 * x - 0.25 * y + 0.1 * l * x * y,
    )
    config = SolverConfig(method=method, tol=1e-12)
    sol, report = solve(problem, mesh, config)
    v = random_solution(mesh, quad, seed=16)
    a_h, l_v = weak_forms_oracle(sol, v, problem, mesh, report.delta_used)
    assert abs(a_h - l_v) <= 10 * config.tol * abs(l_v)


def triple_norm_oracle(coeffs, mesh, quad, delta, c0p):
    """The stability norm element by element: c0' L2, delta times the squared
    streamline derivative, and |omega . n| times the squared jump on inflow edges
    (the own trace on the boundary) and the squared own trace on outflow boundary
    edges. The upwind end of an endpoint is the neighbour's value at the same vertex."""
    basis = element_basis(mesh)
    M_unit = (np.ones((3, 3)) + np.eye(3)) / 12.0
    total = 0.0
    for l, omega in enumerate(quad.directions):
        dot = mesh.tri_normal @ omega
        acc = 0.0
        for k in range(mesh.n_triangles):
            c, area = coeffs[l, k], mesh.tri_area[k]
            acc += c0p * area * (c @ M_unit @ c) + delta * area * ((basis[k] @ omega) @ c) ** 2
            for s in range(3):
                n, inflow = mesh.tri_neighbors[k, s], dot[k, s] < -EPS_N
                if not (inflow or (dot[k, s] > EPS_N and n == BOUNDARY)):
                    continue
                ends = mesh.triangles[k, [s, (s + 1) % 3]]
                jump = c[[s, (s + 1) % 3]]
                if inflow and n != BOUNDARY:
                    jump = jump - coeffs[l, n, [list(mesh.triangles[n]).index(i) for i in ends]]
                acc += mesh.tri_edge_length[k, s] * abs(dot[k, s]) * edge_sq_integral(*jump)
        total += quad.weights[l] * acc
    return np.sqrt(total)


def test_triple_norm_matches_an_element_loop():
    mesh = perturbed_mesh(4, seed=32)
    quad = trapezoid_circle(8)
    problem = isotropic_problem(quad)
    v = random_solution(mesh, quad, seed=13)
    delta = 0.6 * mesh.h
    expect = triple_norm_oracle(v.coeffs, mesh, quad, delta, 2.5)
    assert triple_norm_stability(v, problem, mesh, delta, 2.5) == pytest.approx(expect, rel=1e-11)


def test_apply_ah_checks_the_solutions_before_sampling():
    # a solution on another mesh is named before the NaN in sigma_t is found
    mesh = build_structured_unit_square(4)
    quad = trapezoid_circle(4)
    problem = isotropic_problem(quad)
    problem.sigma_t = nan_left(1.0)
    u = random_solution(mesh, quad, seed=14)
    other = random_solution(perturbed_mesh(4, seed=5), quad, seed=15)
    with pytest.raises(ValueError, match="mesh"):
        apply_ah(u, other, problem, mesh, mesh.h)
    with pytest.raises(AssumptionError, match="sigma_t"):
        apply_ah(u, u, problem, mesh, mesh.h)


def test_apply_ah_integrated_by_parts_identity():
    mesh = perturbed_mesh(4, seed=26)
    quad = trapezoid_circle(6)
    problem = isotropic_problem(quad, sigma_t=2.0, sigma_s=0.0)
    v = random_solution(mesh, quad, seed=2)
    got = apply_ah(v, v, problem, mesh, 0.0)
    expect = quadratic_form_oracle(v.coeffs, mesh, quad, 2.0)
    assert got == pytest.approx(expect, rel=1e-11)


def test_apply_ah_bilinear():
    mesh = perturbed_mesh(3, seed=27)
    quad = trapezoid_circle(6)
    problem = isotropic_problem(quad, sigma_t=10.0, sigma_s=0.1)
    u1 = random_solution(mesh, quad, seed=3)
    u2 = random_solution(mesh, quad, seed=4)
    v = random_solution(mesh, quad, seed=5)
    delta = mesh.h
    a = apply_ah(u1, v, problem, mesh, delta)
    b = apply_ah(u2, v, problem, mesh, delta)
    u_comb = DGSolution(2.0 * u1.coeffs - 0.5 * u2.coeffs, mesh, quad)
    got = apply_ah(u_comb, v, problem, mesh, delta)
    assert got == pytest.approx(2.0 * a - 0.5 * b, rel=1e-11, abs=1e-12)
    got_v = apply_ah(u1, DGSolution(3.0 * v.coeffs, mesh, quad), problem, mesh, delta)
    assert got_v == pytest.approx(3.0 * a, rel=1e-11, abs=1e-12)


def test_stability_bound_random_fields():
    mesh = perturbed_mesh(4, seed=28)
    quad = trapezoid_circle(8)
    problem = isotropic_problem(quad, sigma_t=10.0, sigma_s=0.1)
    G = scatter_matrix(problem.phase, quad)
    c0p = 10.0 - 0.1 * m_bound(G)
    delta = mesh.h
    for seed in range(5):
        v = random_solution(mesh, quad, seed=seed)
        lhs = triple_norm_stability(v, problem, mesh, delta, c0p) ** 2
        rhs = 3.0 * apply_ah(v, v, problem, mesh, delta)
        assert lhs <= rhs * (1.0 + 1e-10)


@pytest.mark.parametrize("form", ["build_kernel", "apply_ah", "triple_norm_stability"])
def test_delta_is_one_number(form):
    mesh = perturbed_mesh(3, seed=29)
    quad = trapezoid_circle(4)
    problem = isotropic_problem(quad)
    v = random_solution(mesh, quad, seed=6)
    call = {
        "build_kernel": lambda d: build_kernel(
            space_tables(mesh, problem.sigma_t), build_schedules(mesh, quad.directions), d
        ),
        "apply_ah": lambda d: apply_ah(v, v, problem, mesh, d),
        "triple_norm_stability": lambda d: triple_norm_stability(v, problem, mesh, d, 1.0),
    }[form]
    call(np.float64(0.8 * mesh.h))
    with pytest.raises(TypeError):
        call(0.8 * mesh.tri_h)  # a per-element delta


@pytest.mark.parametrize("field", ["sigma_t", "sigma_s"])
def test_tables_and_forms_reject_non_finite_coefficients(field):
    # space_tables samples sigma_t; apply_ah samples sigma_t and sigma_s
    mesh = build_structured_unit_square(4)
    quad = trapezoid_circle(4)
    problem = isotropic_problem(quad)
    setattr(problem, field, nan_left(1.0))
    v = random_solution(mesh, quad, seed=7)
    msg = rf"^{field} has \d+ non-finite samples, the first at \("
    if field == "sigma_t":
        with pytest.raises(AssumptionError, match=msg):
            space_tables(mesh, problem.sigma_t)
    with pytest.raises(AssumptionError, match=msg):
        apply_ah(v, v, problem, mesh, mesh.h)


def test_triple_norm_basics():
    mesh = build_structured_unit_square(3)
    quad = trapezoid_circle(8)
    problem = isotropic_problem(quad, sigma_t=10.0, sigma_s=0.1)
    zero = DGSolution(np.zeros((8, mesh.n_triangles, 3)), mesh, quad)
    assert triple_norm_stability(zero, problem, mesh, mesh.h, 9.8) == 0.0

    ones = DGSolution(np.ones((8, mesh.n_triangles, 3)), mesh, quad)
    got = triple_norm_stability(ones, problem, mesh, mesh.h, 9.8)
    absdirs = np.abs(quad.directions).sum(axis=1)
    expect = np.sqrt(9.8 * quad.weights.sum() + 2.0 * float(quad.weights @ absdirs))
    assert got == pytest.approx(expect, rel=1e-12)

    v = random_solution(mesh, quad, seed=9)
    n1 = triple_norm_stability(v, problem, mesh, mesh.h, 9.8)
    v3 = DGSolution(-3.0 * v.coeffs, mesh, quad)
    assert triple_norm_stability(v3, problem, mesh, mesh.h, 9.8) == pytest.approx(
        3.0 * n1, rel=1e-12
    )
    with pytest.raises(AssumptionError):
        triple_norm_stability(v, problem, mesh, mesh.h, 0.0)
