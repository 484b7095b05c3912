import dataclasses
import math

import numpy as np
import pytest

from rte2d import (
    ConvergenceTable,
    ErrorReport,
    ManufacturedCase,
    MethodComparison,
    PhaseFunction,
    SolverConfig,
    build_schedules,
    build_structured_unit_square,
    case_problem,
    case_quadrature,
    compare_methods,
    convergence_study,
    error_norms,
    make_case,
    phase_eval,
    refine_regular,
    solve,
    trapezoid_circle,
    triple_norm_stability,
)
from rte2d.analysis import NORM_NAMES, RATE_FLOOR, _edge_flux, _edge_walk, observed_rates
from rte2d.dg_core import element_basis, quad_points
from rte2d.mesh import BOUNDARY, EPS_N, across_index, omega_dot
from rte2d.quadrature import triangle_rule
from helpers import perturbed_mesh, project_exact, random_solution
from test_acceptance import RATE_BANDS
import oracle


def angular_integral(case, u, x, y, theta, n=4096):
    """Reference scattering integral by a dense trapezoid sum."""
    phi = 2.0 * np.pi * np.arange(n) / n
    g = phase_eval(case.phase, np.cos(theta - phi))
    vals = np.broadcast_to(np.asarray(u(x, y, phi), dtype=float), phi.shape)
    return (2.0 * np.pi / n) * float(g @ vals)


def test_case_constants():
    for cid, eta, nd in [(1, 0.2, 20), (2, 0.5, 40), (3, 0.9, 60)]:
        case = make_case(cid)
        assert case.sigma_t == 10.0
        assert case.sigma_s == 0.1
        assert case.phase.kind == "hg"
        assert case.phase.eta == eta
        assert case.n_dirs == nd
        assert not case.has_inflow_data
        # gradient vanishes at the center, so f there is 9.9 u for any angle
        assert case.exact_u(0.5, 0.5, 1.2) == pytest.approx(1.0)
        assert case.exact_f(0.5, 0.5, 1.2) == pytest.approx(9.9)
        np.testing.assert_allclose(case.exact_grad(0.5, 0.5, 0.3), 0.0, atol=1e-15)

    case4 = make_case(4)
    assert case4.phase.kind == "linear"
    assert case4.n_dirs == 20
    assert case4.has_inflow_data
    # peak-to-mean anisotropy of the exact field
    c = 9.9 / 10.5
    assert case4.exact_u(0.0, 0.0, 0.0) == pytest.approx(1.0 + c)
    assert case4.exact_u(1.0, 1.0, np.pi / 2) == pytest.approx(math.exp(-6.6))


def test_make_case_validation():
    with pytest.raises(ValueError):
        make_case(5)
    with pytest.raises(ValueError):
        make_case(4, eta=0.3)
    assert make_case(2, eta=0.7).phase.eta == 0.7


def test_case_quadrature_counts():
    case = make_case(3)
    assert case_quadrature(case).n_directions == 60
    assert case_quadrature(case, 16).n_directions == 16
    # tabulated angular spacings match the direction counts
    assert case.h_theta == pytest.approx(2.0 * np.pi / 60)


@pytest.mark.parametrize("cid", [1, 2, 3, 4])
def test_exact_su_matches_dense_quadrature(cid):
    # the exact scattering integral S u of u = a U is a_s U
    case = make_case(cid)
    rng = np.random.RandomState(cid)
    for _ in range(5):
        x, y = rng.uniform(0.0, 1.0, 2)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        ref = angular_integral(case, case.exact_u, x, y, theta)
        su = case.angular(theta)[1] * case.field(x, y)[0]
        assert su == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("cid", [1, 2, 3, 4])
def test_source_closes_the_equation(cid):
    # f == omega . grad u + sigma_t u - sigma_s Su pointwise
    case = make_case(cid)
    rng = np.random.RandomState(10 + cid)
    for _ in range(20):
        x, y = rng.uniform(0.0, 1.0, 2)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        omega = np.array([np.cos(theta), np.sin(theta)])
        gu = np.asarray(case.exact_grad(x, y, theta), dtype=float)
        su = angular_integral(case, case.exact_u, x, y, theta)
        lhs = float(omega @ gu) + case.sigma_t * case.exact_u(x, y, theta) - case.sigma_s * su
        assert case.exact_f(x, y, theta) == pytest.approx(lhs, abs=1e-8)


def test_case_problem_wiring():
    case = make_case(4)
    quad = case_quadrature(case, 8)
    problem = case_problem(case, quad)
    x, y = 0.3, 0.8
    theta3 = quad.angles[3]
    assert problem.f(x, y, 3) == pytest.approx(case.exact_f(x, y, theta3))
    assert problem.inflow(x, y, 3) == pytest.approx(case.exact_u(x, y, theta3))
    assert problem.sigma_t(x, y) == 10.0
    assert case_problem(make_case(1), quad).inflow is None


def test_case_field_is_sampled_once_per_point_set():
    case = make_case(1)
    x, y = np.random.default_rng(5).uniform(size=(2, 7, 6))
    u, grad = case.field(x, y)
    # equal values in distinct arrays: the stored samples come back
    again = case.field(x.copy(), y.copy())
    assert again[0] is u and again[1] is grad
    # an in-place edit makes a new point set; an identity-keyed cache would miss it
    x[0, 0] = 0.25
    u2, grad2 = case.field(x, y)
    fresh = make_case(1).field(x.copy(), y.copy())
    np.testing.assert_array_equal(u2, fresh[0])
    np.testing.assert_array_equal(grad2, fresh[1])
    assert u2[0, 0] != u[0, 0]
    # every caller shares the stored samples, so they are read-only
    with pytest.raises(ValueError, match="read-only"):
        u2[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        grad2[...] = 0.0


@pytest.mark.parametrize("cid", [1, 4])
def test_problem_source_matches_a_field_sampled_per_direction(cid):
    # f of every direction from one cached field sample equals f from a field
    # sampled for that direction alone, bit for bit
    case = make_case(cid)
    quad = case_quadrature(case)
    problem = case_problem(case, quad)
    x, y = np.random.default_rng(cid).uniform(size=(2, 30, 6))
    for l, theta in enumerate(quad.angles):
        np.testing.assert_array_equal(problem.f(x, y, l), make_case(cid).exact_f(x, y, theta))


def linear_case(quad_dirs=6):
    """Synthetic exactly-representable problem for zero-error checks."""

    def field(x, y):
        shape = np.broadcast(x, y).shape
        g = np.empty(shape + (2,))
        g[..., 0] = 2.0
        g[..., 1] = -1.0
        return 2.0 * x - y + 0.5, g

    def angular(t):  # isotropic kernel integrates to one: Su = u
        one = np.ones(np.shape(t))
        return one, one

    f = lambda x, y, t: 2.0 * np.cos(t) - np.sin(t) + 9.9 * (2.0 * x - y + 0.5)
    return ManufacturedCase(
        id=1,
        phase=PhaseFunction.henyey_greenstein(0.0),
        sigma_t=10.0,
        sigma_s=0.1,
        h_theta=2.0 * math.pi / quad_dirs,
        n_dirs=quad_dirs,
        field=field,
        angular=angular,
        exact_f=f,
        has_inflow_data=True,
    )


def test_error_norms_vanish_for_representable_exact():
    case = linear_case()
    quad = case_quadrature(case)
    mesh = perturbed_mesh(4, seed=30)
    sol = project_exact(case.exact_u, mesh, quad)
    rep = error_norms(sol, case, mesh, quad, level=2, iterations=7)
    for name in NORM_NAMES:
        assert getattr(rep, name) <= 1e-11
    assert rep.level == 2
    assert rep.iterations == 7
    assert rep.n_elems == mesh.n_triangles
    assert rep.h == mesh.h


def test_error_norms_solution_of_linear_case():
    # solving the representable problem reproduces it to solver tolerance
    case = linear_case()
    quad = case_quadrature(case)
    mesh = build_structured_unit_square(4)
    sol, report = solve(case_problem(case, quad), mesh)
    rep = error_norms(sol, case, mesh, quad, iterations=report.iterations)
    assert rep.eh <= 5e-9


def test_error_norms_rejects_a_solution_of_another_mesh_or_quadrature():
    case = make_case(1)
    quad = case_quadrature(case)
    mesh = build_structured_unit_square(4)
    sol, _ = solve(case_problem(case, quad), mesh)
    other = perturbed_mesh(4, seed=5)  # same element count, other vertices
    assert other.n_triangles == mesh.n_triangles
    with pytest.raises(ValueError, match="mesh"):
        error_norms(sol, case, other, quad)
    with pytest.raises(ValueError, match="20 directions"):
        error_norms(sol, case, mesh, case_quadrature(case, 10))
    # an equal rule built anew is the same quadrature
    assert error_norms(sol, case, mesh, trapezoid_circle(20)) == error_norms(sol, case, mesh, quad)

    with pytest.raises(ValueError, match="mesh"):
        triple_norm_stability(sol, case_problem(case, quad), other, other.h, 9.8)
    ten = case_problem(case, case_quadrature(case, 10))
    with pytest.raises(ValueError, match="20 directions"):
        triple_norm_stability(sol, ten, mesh, mesh.h, 9.8)


def test_error_norms_evaluates_the_field_once_per_point_set():
    base = make_case(4)
    calls = []

    def field(x, y):
        calls.append(np.shape(x))
        return base.field(x, y)

    case = dataclasses.replace(base, field=field)
    quad = case_quadrature(case)
    mesh = perturbed_mesh(3, seed=4)
    sol = random_solution(mesh, quad, seed=6)
    rep = error_norms(sol, case, mesh, quad)
    assert len(calls) == 2  # volume points, boundary trace points
    assert rep == error_norms(sol, base, mesh, quad)


@pytest.mark.parametrize("cid", [1, 2, 3, 4])
def test_exact_grad_matches_central_differences(cid):
    case = make_case(cid)
    rng = np.random.RandomState(20 + cid)
    x, y = rng.uniform(0.05, 0.95, (2, 30))
    theta = rng.uniform(0.0, 2.0 * np.pi, 30)
    step = 1e-6
    fd = np.stack([
        (case.exact_u(x + step, y, theta) - case.exact_u(x - step, y, theta)) / (2 * step),
        (case.exact_u(x, y + step, theta) - case.exact_u(x, y - step, theta)) / (2 * step),
    ], axis=-1)
    grad = case.exact_grad(x, y, theta)
    assert grad.shape == (30, 2)
    np.testing.assert_allclose(grad, fd, rtol=1e-7, atol=1e-7)
    # one point, many angles: the derived callables broadcast theta
    assert case.exact_grad(x[0], y[0], theta).shape == (30, 2)
    assert np.shape(case.exact_u(x[0], y[0], theta)) == (30,)
    assert np.shape(case.angular(theta)[1] * case.field(x[0], y[0])[0]) == (30,)


def oracle_setting(name):
    """case, mesh and field of one comparison against the per-edge oracle."""
    case = make_case(1 if name.startswith("case1") else 4)
    quad = case_quadrature(case)
    if name == "case1-perturbed":
        mesh = perturbed_mesh(6, seed=3)
        return case, mesh, random_solution(mesh, quad, seed=1)
    if name == "case4-solved":  # inflow data: the boundary parts of e2, e4 are nonzero
        mesh = perturbed_mesh(4, seed=8)
        return case, mesh, solve(case_problem(case, quad), mesh)[0]
    if name == "case4-one-square":  # two elements, each with two boundary edges
        mesh = build_structured_unit_square(1)
        assert (mesh.tri_neighbors == BOUNDARY).any(axis=1).all()
        return case, mesh, random_solution(mesh, quad, seed=4)
    if name == "case1-dodg-refined":
        mesh = refine_regular(perturbed_mesh(3, seed=6))
        return case, mesh, solve(case_problem(case, quad), mesh, SolverConfig(method="dodg"))[0]
    mesh = build_structured_unit_square(5)  # axis directions meet tangential edges
    assert (abs(omega_dot(mesh.tri_normal, quad.directions)) <= EPS_N).any()
    return case, mesh, random_solution(mesh, quad, seed=2)


@pytest.mark.parametrize(
    "name",
    ["case1-perturbed", "case4-solved", "case4-structured", "case4-one-square",
     "case1-dodg-refined"],
)
def test_error_norms_match_per_edge_oracle(name):
    # the oracle loops over local edges with masks; the package uses one
    # reference trace per edge (upwind inside, exact on the boundary)
    case, mesh, sol = oracle_setting(name)
    got = error_norms(sol, case, mesh, sol.quad, level=1, iterations=3)
    ref = oracle.error_norms(sol, case, mesh, sol.quad, level=1, iterations=3)
    for norm in NORM_NAMES:
        assert getattr(got, norm) == pytest.approx(getattr(ref, norm), rel=1e-13, abs=0.0), norm
    assert (got.level, got.iterations, got.n_elems, got.h) == (1, 3, mesh.n_triangles, mesh.h)


def volume_sums_longdouble(sol, case, mesh, quad):
    """e1^2 and e3^2 as the pointwise degree-6 sums, accumulated in np.longdouble: sum_l w_l
    sum_K sum_q w (c . phi - a U)^2 and sum_l w_l sum_K h_K sum_q w (a omega . grad U -
    d . c)^2, d = grad(phi) . omega. The field and the geometry come in as float64."""
    ld = np.longdouble
    rule = triangle_rule(6)
    pts = quad_points(mesh, rule)
    u, grad = (np.asarray(v, dtype=ld) for v in case.field(pts[..., 0], pts[..., 1]))
    bary, basis = rule.points.astype(ld), element_basis(mesh).astype(ld)
    areaw = mesh.tri_area.astype(ld)[:, None] * rule.weights.astype(ld)
    hw = mesh.tri_h.astype(ld)[:, None] * areaw
    a = np.asarray(case.angular(quad.angles)[0], dtype=ld)
    e1 = e3 = ld(0)
    for l, (ox, oy) in enumerate(quad.directions.astype(ld)):
        c = sol.coeffs[l].astype(ld)
        r = c @ bary.T - a[l] * u
        dc = ((basis[..., 0] * ox + basis[..., 1] * oy) * c).sum(axis=1)
        s = a[l] * (grad[..., 0] * ox + grad[..., 1] * oy) - dc[:, None]
        e1 += ld(quad.weights[l]) * (areaw * r * r).sum()
        e3 += ld(quad.weights[l]) * (hw * s * s).sum()
    return e1, e3


@pytest.mark.parametrize("cid", [1, 4])
def test_error_norms_volume_terms_to_full_precision(cid):
    # a field within 1e-3 of the exact one on 3200 elements: without the projection
    # defect rho, e1 is off by about 1.6e-12 relative
    case = make_case(cid)
    quad = case_quadrature(case)
    mesh = refine_regular(refine_regular(build_structured_unit_square(10)))
    assert mesh.n_triangles == 3200

    def u(x, y, theta):
        return (1.0 + 1e-3 * np.sin(3.0 * x + 2.0 * y)) * case.exact_u(x, y, theta)

    sol = project_exact(u, mesh, quad)
    rep = error_norms(sol, case, mesh, quad)
    e1, e3 = volume_sums_longdouble(sol, case, mesh, quad)
    assert rep.e1 == pytest.approx(float(np.sqrt(e1)), rel=1e-13, abs=0.0)
    assert rep.e3 == pytest.approx(float(np.sqrt(e3)), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("kind", ["structured", "perturbed"])
def test_edge_walk_takes_each_interior_edge_once(kind):
    mesh = build_structured_unit_square(6) if kind == "structured" else perturbed_mesh(6, seed=11)
    nt, nbr = mesh.n_triangles, mesh.tri_neighbors
    ni, own, up, length, normal = _edge_walk(mesh)
    n_boundary = int((nbr == BOUNDARY).sum())
    assert (up[:, ni:] == 3 * nt).all()  # the zero slot after the rows
    up = up[:, :ni]
    assert 2 * ni == 3 * nt - n_boundary
    assert own.shape[1] == ni + n_boundary
    # flat indices into the rows (3, nt): local edge s of element k starts at s nt + k
    k, s = own[0] % nt, own[0] // nt
    assert np.array_equal(own[1], (s + 1) % 3 * nt + k)
    inner = nbr[k[:ni], s[:ni]]
    assert (inner > k[:ni]).all() and (nbr[k[ni:], s[ni:]] == BOUNDARY).all()
    assert len({(min(a, b), max(a, b)) for a, b in zip(k[:ni], inner)}) == ni  # no edge twice
    assert np.array_equal(up[0] % nt, inner) and np.array_equal(up[1] % nt, inner)
    # the neighbour's values sit at the same vertices, and its normal is the exact negation
    verts = mesh.triangles.ravel(order="F")
    assert np.array_equal(verts[own[:, :ni]], verts[up])
    s_up = up[1] // nt
    assert np.array_equal(mesh.tri_normal[inner, s_up], -normal[:ni])
    assert np.array_equal(mesh.tri_edge_length[inner, s_up], length[:ni])


def test_error_report_invariant():
    r = ErrorReport(e1=3.0, e2=4.0, e3=0.0, e4=0.0, h=0.1, level=0, iterations=1)
    assert r.eh == 5.0
    with pytest.raises(TypeError):
        ErrorReport(e1=3.0, e2=4.0, e3=0.0, e4=0.0, eh=6.0, h=0.1, level=0, iterations=1)


def rows_with_errors(errs):
    rows = []
    for i, e in enumerate(errs):
        rows.append(
            ErrorReport(e1=e, e2=e, e3=e, e4=e, h=0.2 / 2**i, level=i, iterations=1)
        )
    return rows


def test_observed_rates_and_floor():
    rows = rows_with_errors([1.0e-2, 0.25e-2, 0.0625e-2])
    rates = observed_rates(rows)
    for name in NORM_NAMES:
        np.testing.assert_allclose(rates[name], [2.0, 2.0], atol=1e-12)
    rows = rows_with_errors([1.0e-2, 1e-15])
    assert math.isnan(observed_rates(rows)["e1"][0])


def test_convergence_table_checks_refinement():
    rows = rows_with_errors([1.0, 0.5])
    ConvergenceTable(case_id=1, method="dodsd", n_dirs=8, rows=rows)
    bad = [rows[0], rows_with_errors([1.0, 0.5, 0.25])[2]]
    with pytest.raises(ValueError):
        ConvergenceTable(case_id=1, method="dodsd", n_dirs=8, rows=bad)


def test_reported_values_are_derived_from_their_rows():
    sd = ConvergenceTable(case_id=1, method="dodsd", n_dirs=8, rows=rows_with_errors([1.0, 0.5]))
    dg = ConvergenceTable(case_id=1, method="dodg", n_dirs=8, rows=rows_with_errors([2.0, 0.25]))
    cmp = MethodComparison(case_id=1, dodsd=sd, dodg=dg)
    assert sd.rates == observed_rates(sd.rows)
    assert cmp.eh_ratio == [0.5, 2.0]
    with pytest.raises(TypeError):
        ConvergenceTable(case_id=1, method="dodsd", n_dirs=8, rows=sd.rows, rates={})
    with pytest.raises(TypeError):
        MethodComparison(case_id=1, dodsd=sd, dodg=dg, eh_ratio=[1.0, 1.0])
    for obj, name in ((sd.rows[0], "eh"), (sd, "rates"), (cmp, "eh_ratio")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1.0)
    # one spelling of the scattering integral: angular()[1] * field()[0]
    assert not hasattr(make_case(1), "exact_su")


def test_convergence_study_small():
    table = convergence_study(make_case(1), 2, n0=4, n_dirs=8)
    assert table.case_id == 1
    assert table.method == "dodsd"
    assert table.n_dirs == 8
    assert [r.level for r in table.rows] == [0, 1]
    assert table.rows[1].h == pytest.approx(0.5 * table.rows[0].h)
    assert table.rows[1].n_elems == 4 * table.rows[0].n_elems
    assert all(r.iterations >= 1 for r in table.rows)
    assert table.rows[1].eh < table.rows[0].eh
    assert set(table.rates) == set(NORM_NAMES)
    assert len(table.rates["eh"]) == 1


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("cid", [1, 4])
def test_rates_on_a_perturbed_base_mesh(cid, seed):
    # the acceptance bands hold off the structured grid too: the finest-pair rates of
    # levels 1-2 of a perturbed base mesh, for both methods
    cmp = compare_methods(make_case(cid), 3, mesh0=perturbed_mesh(10, seed=seed))
    for table in (cmp.dodsd, cmp.dodg):
        for name, (lo, hi) in RATE_BANDS.items():
            assert lo <= table.rates[name][-1] <= hi, (table.method, name, table.rates[name])


@pytest.mark.parametrize("kind, n_dirs", [("structured", 8), ("structured", 20), ("perturbed", 20)])
def test_norms_and_sweep_classify_edges_alike(kind, n_dirs):
    # the norms' walk sees each edge as the sweep does: the same omega . n, bit for bit, as
    # the kernel fill forms, so the same inflow, outflow and tangential edges as the peel's
    # inflow mask, and the kernel's upwind neighbour values
    mesh = build_structured_unit_square(5) if kind == "structured" else perturbed_mesh(5, seed=12)
    dirs, nt = trapezoid_circle(n_dirs).directions, mesh.n_triangles
    walk = _edge_walk(mesh)
    ni, own, up, _, _ = walk
    k, s = own[0] % nt, own[0] // nt
    dot = _edge_flux(walk, dirs, np.zeros((n_dirs, 3, nt)))[0]
    assert np.array_equal(dot, np.array([omega_dot(mesh.tri_normal, om)[k, s] for om in dirs]))
    assert np.array_equal(dot < -EPS_N, build_schedules(mesh, dirs).inflow[:, k, s])
    if kind == "structured":  # axis directions run along interior edges
        assert (abs(dot[:, :ni]) <= EPS_N).any()
    # the neighbour runs the edge the other way: its coefficient c sits at own vertex 1 - c
    across = across_index(mesh)
    assert np.array_equal(up[0], across[s, 1, k]) and np.array_equal(up[1], across[s, 0, k])
