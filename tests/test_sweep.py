import dataclasses
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rte2d import (
    EPS_N,
    AssumptionError,
    PhaseFunction,
    StabilityError,
    SweepCycleError,
    build_mesh,
    build_schedule,
    build_schedules,
    build_kernel,
    build_structured_unit_square,
    refine_regular,
    scatter_matrix,
    space_tables,
    trapezoid_circle,
)
from rte2d.mesh import BOUNDARY, omega_dot
from rte2d.quadrature import triangle_rule
from rte2d.sweep import (
    _EDGE_COUPLING, _LIVE_COUPLING, _UPWIND_PICK, inverse_3x3, upwind_pattern,
)
from helpers import perturbed_mesh, random_solution, unit_direction
from oracle import NO_UPWIND, classify_edges, scattering_source, sweep_direction, upwind_map

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TWO_TRIANGLES = np.array([[0, 1, 2], [0, 2, 3]])


def brute_force_layers(mesh, omega):
    """Scan repeatedly for solvable elements; independent of the Kahn path."""
    cls = classify_edges(mesh, omega)
    nt = mesh.n_triangles
    interior = mesh.tri_neighbors != BOUNDARY
    dep = cls.inflow & interior
    layer_of = np.full(nt, -1)
    layer = 0
    while (layer_of < 0).any():
        ready = []
        for k in np.flatnonzero(layer_of < 0):
            ok = True
            for s in range(3):
                if dep[k, s] and layer_of[mesh.tri_neighbors[k, s]] < 0:
                    ok = False
                    break
            if ok:
                ready.append(k)
        if not ready:
            raise AssertionError("stuck: cyclic dependencies")
        layer_of[ready] = layer
        layer += 1
    return layer_of


def mirrored_layers(mesh, quad, l):
    """The brute-force layers of direction l of an even trapezoid set, or, for the
    second half, n_layers - 1 minus those of its opposite direction l - nl / 2."""
    half = quad.n_directions // 2
    if l < half:
        return brute_force_layers(mesh, quad.directions[l])
    partner = brute_force_layers(mesh, quad.directions[l - half])
    return partner.max() - partner


@pytest.mark.parametrize("theta", [0.1, 1.3, 2.9, 4.4, np.pi / 4])
def test_schedule_matches_brute_force(theta):
    mesh = perturbed_mesh(6, seed=int(theta * 10))
    omega = unit_direction(theta)
    sched = build_schedule(mesh, omega)
    np.testing.assert_array_equal(sched.layer_of, brute_force_layers(mesh, omega))


def test_build_schedules_match_brute_force_for_every_direction():
    mesh = perturbed_mesh(6, seed=16)
    quad = trapezoid_circle(20)
    stack = build_schedules(mesh, quad.directions)
    nl, nt = quad.n_directions, mesh.n_triangles
    assert stack.omega.shape == (nl, 2) and stack.layer_of.shape == (nl, nt)
    assert stack.inflow.shape == (nl, nt, 3) and stack.inflow.dtype == bool
    dots = omega_dot(mesh.tri_normal, quad.directions)
    interior, differs = mesh.tri_neighbors != BOUNDARY, []
    for l, omega in enumerate(quad.directions):
        sched = build_schedule(mesh, omega)
        np.testing.assert_array_equal(stack.omega[l], sched.omega)
        np.testing.assert_array_equal(dots[l], omega_dot(mesh.tri_normal, omega))
        np.testing.assert_array_equal(stack.inflow[l], sched.inflow)
        layer_of = brute_force_layers(mesh, omega)
        np.testing.assert_array_equal(sched.layer_of, layer_of)
        # the first of each opposite pair l, l + 10 is peeled, and its slice is the schedule
        # it gets alone; the second takes the mirror of the first's layers
        np.testing.assert_array_equal(stack.layer_of[l], mirrored_layers(mesh, quad, l))
        differs.append((stack.layer_of[l] != layer_of).any())
        assert len(sched.layers) == layer_of.max() + 1
        for i, layer in enumerate(sched.layers):
            np.testing.assert_array_equal(layer, np.flatnonzero(layer_of == i))
        cls = classify_edges(mesh, omega)
        upwind = upwind_map(mesh, sched.inflow)
        for k in range(mesh.n_triangles):
            for s in range(3):
                want = NO_UPWIND
                if cls.inflow[k, s]:
                    want = mesh.tri_neighbors[k, s] if interior[k, s] else BOUNDARY
                assert upwind[k, s] == want
        np.testing.assert_array_equal(sched.inflow, cls.inflow)
        np.testing.assert_array_equal(dots[l], cls.omega_dot_n)
        np.testing.assert_array_equal(sched.omega, omega)
    # a mirrored slice is a valid layering, but not always the one its own peel finds
    assert not any(differs[:10]) and any(differs[10:])


@settings(max_examples=50, deadline=None, database=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**16), n_dirs=st.integers(2, 11))
def test_mirrored_slices_keep_the_upwind_order_and_the_layer_count(n, seed, n_dirs):
    # trapezoid sets of odd size have no exact opposites: there a direction takes the mirror
    # of its partner, the direction nearest -omega, only if its interior inflow and outflow
    # edges are the partner's outflow and inflow edges (a real mesh's graphs are consistent)
    mesh = perturbed_mesh(n, seed=seed)
    om = trapezoid_circle(n_dirs).directions
    stack = build_schedules(mesh, om)
    nbr, dot = mesh.tri_neighbors, omega_dot(mesh.tri_normal, om)
    np.testing.assert_array_equal(stack.inflow, dot < -EPS_N)
    into = stack.inflow & (nbr != BOUNDARY)
    out = (dot > EPS_N) & (nbr != BOUNDARY)
    partner, peeled = (om @ om.T).argmin(axis=1), set()
    for l, layer_of in enumerate(stack.layer_of):
        sched = build_schedule(mesh, om[l])
        k, s = np.nonzero(into[l])
        assert (layer_of[nbr[k, s]] < layer_of[k]).all()
        assert layer_of.min() == 0 and layer_of.max() + 1 == sched.n_layers
        p = partner[l]
        if p in peeled and p < l and (into[l] == out[p]).all() and (out[l] == into[p]).all():
            np.testing.assert_array_equal(layer_of, stack.layer_of[p].max() - stack.layer_of[p])
        else:
            peeled.add(l)
            np.testing.assert_array_equal(layer_of, sched.layer_of)


def test_build_schedules_names_the_cyclic_direction():
    # flipping one side's normal of the shared diagonal makes both triangles
    # see it as inflow (a 2-cycle) or both as outflow, by direction
    mesh = build_mesh(SQUARE, TWO_TRIANGLES)
    s = int(np.flatnonzero(mesh.tri_neighbors[0] == 1)[0])
    normal = mesh.tri_normal.copy()
    normal[0, s] *= -1
    bad = dataclasses.replace(mesh, tri_normal=normal)
    ok, cyc = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    assert [list(l) for l in build_schedules(bad, [ok]).layers] == [[0, 1]]
    with pytest.raises(SweepCycleError, match="direction 1, omega = \\(-1, 0\\)") as exc:
        build_schedules(bad, [ok, cyc])
    assert sorted(exc.value.elements) == [0, 1]


def test_schedule_layers_partition_and_order():
    mesh = perturbed_mesh(8, seed=2)
    omega = unit_direction(0.7)
    sched = build_schedule(mesh, omega)
    allids = np.concatenate(sched.layers)
    assert allids.size == mesh.n_triangles
    np.testing.assert_array_equal(np.sort(allids), np.arange(mesh.n_triangles))
    for layer in sched.layers:
        assert (np.diff(layer) > 0).all()  # sorted, no duplicates
    upwind = upwind_map(mesh, sched.inflow)
    for k in range(mesh.n_triangles):
        assert sched.layer_of[k] >= 0
        for s in range(3):
            n = upwind[k, s]
            if n >= 0:
                assert sched.layer_of[n] < sched.layer_of[k]


def test_schedule_deterministic():
    mesh = perturbed_mesh(5, seed=3)
    omega = unit_direction(2.2)
    a = build_schedule(mesh, omega)
    b = build_schedule(mesh, omega)
    assert a.n_layers == b.n_layers
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la, lb)


def test_schedule_two_triangle_order():
    mesh = build_mesh(SQUARE, TWO_TRIANGLES)
    sched = build_schedule(mesh, np.array([1.0, 0.0]))
    assert [list(l) for l in sched.layers] == [[1], [0]]
    # the diagonal feeds triangle 0 from triangle 1
    s = int(np.flatnonzero(upwind_map(mesh, sched.inflow)[0] == 1)[0])
    assert sched.inflow[0, s]
    # reversing the direction reverses the order
    rev = build_schedule(mesh, np.array([-1.0, 0.0]))
    assert [list(l) for l in rev.layers] == [[0], [1]]


def test_schedule_tangential_edges_ignored():
    # axis-aligned direction grazes the horizontal grid lines
    mesh = build_structured_unit_square(4)
    sched = build_schedule(mesh, np.array([1.0, 0.0]))
    graze = np.abs(omega_dot(mesh.tri_normal, sched.omega)) <= 1e-12
    assert graze.any() and not sched.inflow[graze].any()
    assert (upwind_map(mesh, sched.inflow)[graze] == NO_UPWIND).all()
    np.testing.assert_array_equal(sched.layer_of, brute_force_layers(mesh, (1.0, 0.0)))


def test_schedule_requires_unit_direction():
    mesh = build_structured_unit_square(2)
    with pytest.raises(ValueError):
        build_schedule(mesh, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="unit 2-vector"):
        build_schedules(mesh, [[1.0, 0.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="at least one direction"):
        build_schedules(mesh, np.zeros((0, 2)))


def test_cycle_error_carries_elements():
    err = SweepCycleError("cycle found", elements=(3, 1, 4))
    assert tuple(err.elements) == (3, 1, 4)
    assert "cycle" in str(err)


def const(v):
    return lambda x, y: np.full(np.shape(x), v)


def test_sweep_constant_patch():
    mesh = perturbed_mesh(5, seed=4)
    omega = unit_direction(0.9)
    sched = build_schedule(mesh, omega)
    out = sweep_direction(mesh, sched, omega, 0.1, const(1.0), const(1.0), const(1.0))
    np.testing.assert_allclose(out, 1.0, atol=1e-12)


def test_sweep_linear_patch():
    mesh = perturbed_mesh(6, seed=5)
    omega = unit_direction(3.7)
    sched = build_schedule(mesh, omega)
    a, b, c = 1.5, -0.75, 2.0
    u = lambda x, y: a * x + b * y + c
    src = lambda x, y: a * omega[0] + b * omega[1] + 2.0 * u(x, y)
    out = sweep_direction(mesh, sched, omega, 0.05, const(2.0), src, u)
    verts = mesh.vertices[mesh.triangles]
    np.testing.assert_allclose(out, u(verts[..., 0], verts[..., 1]), atol=1e-11)


def test_sweep_zero_data_zero_solution():
    mesh = perturbed_mesh(4, seed=6)
    omega = unit_direction(1.1)
    sched = build_schedule(mesh, omega)
    out = sweep_direction(mesh, sched, omega, 0.2, const(1.0), const(0.0), None)
    assert (out == 0.0).all()


@pytest.mark.parametrize("theta,use_delta", [
    (0.35, False),
    (0.35, True),
    (2.1, True),
    (5.0, True),
    (np.pi, True),  # axis-aligned with grazing edges
])
def test_kernel_matches_reference_sweep(theta, use_delta):
    mesh = perturbed_mesh(5, seed=11)
    omega = unit_direction(theta)
    sched = build_schedule(mesh, omega)
    delta = 1.0 * mesh.h if use_delta else 0.0

    sigma_t = lambda x, y: 3.0 + x + 0.5 * y
    f = lambda x, y: 1.0 + np.sin(2.0 * x) * y
    g = lambda x, y: 0.5 + x - 0.25 * y

    ref = sweep_direction(
        mesh, sched, omega, delta, sigma_t, f, g,
        tri_rule=triangle_rule(4), edge_npts=4,
    )
    tables = space_tables(mesh, sigma_t)
    f_vals = f(tables.points[..., 0], tables.points[..., 1])
    kern = build_kernel(tables, sched, delta, f_vals=f_vals, inflow_data=g)
    got = kern.run()
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_one_direction_kernel_rejects_non_finite_inflow_data():
    # the form of the traced replay: one schedule, g(x, y); NaN on the lower half
    # of the inflow side x = 0 (two edges, 4 points each) and on the outflow
    # side x = 1, which the kernel does not sample
    mesh = build_structured_unit_square(4)
    sched = build_schedule(mesh, (1.0, 0.0))
    tables = space_tables(mesh, const(2.0))
    g = lambda x, y: np.where((y < 0.5) | (x > 0.5), np.nan, 1.0)
    msg = r"^inflow data \(direction 0\) has 8 non-finite samples, the first at \(0, "
    with pytest.raises(AssumptionError, match=msg):
        build_kernel(tables, sched, 0.1, f_vals=np.ones(tables.points.shape[:2]), inflow_data=g)


def test_kernel_scatter_rhs_additivity():
    # run(fixed + scatter) == solve with the scattering source folded in
    mesh = perturbed_mesh(4, seed=13)
    omega = unit_direction(0.6)
    sched = build_schedule(mesh, omega)
    tables = space_tables(mesh, const(2.0))
    kern = build_kernel(tables, sched, 0.05, inflow_data=const(1.0))
    s_pts = 1.0 + tables.points[..., 0] * tables.points[..., 1]
    got = kern.run(kern.volume_rhs(tables.areaw * s_pts))
    ref = sweep_direction(
        mesh, sched, omega, 0.05, const(2.0),
        lambda x, y: 1.0 + x * y, const(1.0),
        tri_rule=triangle_rule(4), edge_npts=4,
    )
    np.testing.assert_allclose(got, ref, atol=1e-12)


@pytest.mark.parametrize("structured,delta_kind,with_inflow", [
    (True, "global", True),  # directions share dependency graphs
    (False, "zero", True),  # every direction has its own graph
    (False, "local", False),
])
def test_stacked_kernel_matches_per_direction_and_reference(structured, delta_kind, with_inflow):
    mesh = build_structured_unit_square(4) if structured else perturbed_mesh(4, seed=14)
    quad = trapezoid_circle(12 if structured else 8)
    nl = quad.n_directions
    scheds = [build_schedule(mesh, quad.directions[l]) for l in range(nl)]
    n_graphs = len({s.inflow.tobytes() for s in scheds})
    assert (n_graphs < nl) if structured else (n_graphs == nl)
    delta = {"global": mesh.h, "zero": 0.0, "local": 0.7 * mesh.h}[delta_kind]

    # sigma_t varies within and between elements, with a jump across x + y = 1:
    # the kernel sees it only through the moments sum_q w sigma_t phi (phi^T)
    sigma_t = lambda x, y: 3.0 + x + 0.5 * y + np.where(x + y > 1.0, 2.0 + np.sin(7.0 * x * y), 0.0)
    sigma_s = lambda x, y: 0.5 + x * (1.0 - y)
    fs = [lambda x, y, l=l: 1.0 + np.sin(2.0 * x + l) * y for l in range(nl)]
    g = (lambda x, y, l: 0.5 + x - 0.25 * l * y) if with_inflow else None
    # the one-direction kernels and the reference take direction l's g(x, y)
    gs = [None if g is None else (lambda x, y, l=l: g(x, y, l)) for l in range(nl)]

    tables = space_tables(mesh, sigma_t)
    px, py = tables.points[..., 0], tables.points[..., 1]
    f_vals = [f(px, py) for f in fs]
    scatter_w = tables.areaw * sigma_s(px, py)
    fixed = dict(f_vals=f_vals, inflow_data=g)
    stacked = build_schedules(mesh, quad.directions)
    plain = build_kernel(tables, stacked, delta, **fixed)
    stack = build_kernel(tables, stacked, delta, **fixed, scatter_w=scatter_w)
    np.testing.assert_array_equal(stack.run(), plain.run())

    # "points": a per-direction volume source; "moments": the lagged scattering
    # sigma_s * sum_i G[l, i] u^i of a random field, fed to run_scattered as G @ u
    u = random_solution(mesh, quad, seed=5)
    G = scatter_matrix(PhaseFunction.henyey_greenstein(0.4), quad)
    gu_pts = np.einsum("ij,jkq->ikq", G, np.einsum("lkj,qj->lkq", u.coeffs, tables.rule.points))
    sources = {
        None: (None, None),
        "points": (
            [lambda x, y, l=l: 1.0 + np.cos(l) * x * y for l in range(nl)],
            np.stack([1.0 + np.cos(l) * px * py for l in range(nl)]),
        ),
        "moments": (
            [scattering_source(u, G, sigma_s, l) for l in range(nl)],
            sigma_s(px, py) * gu_pts,
        ),
    }
    for kind, (scats, s_vals) in sources.items():
        got = plain.run(None if kind is None else plain.volume_rhs(tables.areaw * s_vals))
        if kind == "moments":
            planes = np.matmul(G, np.moveaxis(u.coeffs, -1, 0))  # G @ u as (3, nl, nt)
            folded = np.moveaxis(stack.run_scattered(planes), 0, -1)
            np.testing.assert_allclose(folded, got, atol=1e-12)
            got = folded
        assert got.shape == (nl, mesh.n_triangles, 3)
        for l in range(nl):
            kern = build_kernel(tables, scheds[l], delta, f_vals=f_vals[l], inflow_data=gs[l])
            one = kern.run(None if kind is None else kern.volume_rhs(tables.areaw * s_vals[l]))
            np.testing.assert_allclose(got[l], one, atol=1e-12)
            src = fs[l]
            if kind is not None:
                src = lambda x, y, f=fs[l], s=scats[l]: f(x, y) + s(x, y)
            ref = sweep_direction(
                mesh, scheds[l], quad.directions[l], delta, sigma_t, src, gs[l],
                tri_rule=triangle_rule(4), edge_npts=4,
            )
            np.testing.assert_allclose(got[l], ref, atol=1e-12)


def test_kernel_takes_the_source_its_blocks_were_built_for():
    mesh = perturbed_mesh(3, seed=19)
    quad = trapezoid_circle(4)
    sched = build_schedules(mesh, quad.directions)
    tables = space_tables(mesh, const(2.0))
    plain = build_kernel(tables, sched, 0.1)
    scattering = build_kernel(tables, sched, 0.1, scatter_w=0.5 * tables.areaw)
    rhs = plain.volume_rhs(tables.areaw * np.ones((quad.n_directions, *tables.areaw.shape)))
    with pytest.raises(ValueError, match="run_scattered"):
        scattering.run(rhs)
    with pytest.raises(ValueError, match="scatter_w"):
        plain.run_scattered(np.zeros((3, quad.n_directions, mesh.n_triangles)))
    # the result is written over gc, so gc must be planes that can take it
    with pytest.raises(ValueError, match="C-contiguous"):
        scattering.run_scattered(np.zeros((quad.n_directions, mesh.n_triangles, 3)).T)


def test_kernel_takes_one_sample_per_direction():
    mesh = perturbed_mesh(3, seed=19)
    quad = trapezoid_circle(4)
    nl = quad.n_directions
    sched = build_schedules(mesh, quad.directions)
    tables = space_tables(mesh, const(2.0))
    f = np.ones(tables.points.shape[:2])
    with pytest.raises(ValueError, match="ends before direction 3"):
        build_kernel(tables, sched, 0.1, f_vals=iter([f] * (nl - 1)))
    with pytest.raises(ValueError, match=f"more than {nl} samples"):
        build_kernel(tables, sched, 0.1, f_vals=[f] * (nl + 1))


def test_kernel_rejects_a_schedule_of_another_size():
    # a 5 x 5 mesh's 50 elements against a 4 x 4 mesh's 32, for a stack and for one direction
    quad = trapezoid_circle(8)
    tables = space_tables(build_structured_unit_square(4), const(2.0))
    big = build_structured_unit_square(5)
    for sched in (build_schedules(big, quad.directions), build_schedule(big, quad.directions[1])):
        with pytest.raises(ValueError, match="orders 50 elements, but the tables hold 32"):
            build_kernel(tables, sched, 0.1)


def test_upwind_pick_covers_every_live_edge():
    live = (np.arange(7)[:, None] >> np.arange(3)) & 1 == 1  # the 7 patterns an element can have
    pick = _UPWIND_PICK[upwind_pattern(live)]
    for p in range(7):
        assert pick[p, 0] != pick[p, 1]
        assert set(np.flatnonzero(live[p])) <= set(pick[p].tolist())
    with pytest.raises(ValueError, match="direction 4: element 1 has 3 inflow edges"):
        upwind_pattern(np.array([[True, False, True], [True, True, True]]), direction=4)


def test_live_coupling_table_is_the_picked_columns_of_the_edge_coupling():
    # per pattern, C's 4 live columns per unit weight are the picked edges' columns of the
    # dense 3x6 block with weight 1 on the pattern's edges and 0 on the others
    for p in range(8):
        weights = (p >> np.arange(3)) & 1
        dense = _EDGE_COUPLING @ weights  # (3, 6): column 2 s + c
        cols = (2 * _UPWIND_PICK[p][:, None] + [0, 1]).ravel()
        np.testing.assert_array_equal(_LIVE_COUPLING[:, p].reshape(3, 4), dense[:, cols])


@pytest.mark.parametrize("structured", [False, True], ids=["perturbed", "structured-axis"])
def test_run_scattered_matches_reference_over_two_upwind_edges(structured):
    # trapezoid_circle(8) holds the axis-aligned and diagonal directions: on
    # the structured mesh they graze its edges, so tangential edges are dead
    mesh = build_structured_unit_square(4) if structured else perturbed_mesh(4, seed=17)
    quad = trapezoid_circle(8)
    nl, nt = quad.n_directions, mesh.n_triangles
    sched = build_schedules(mesh, quad.directions)
    live = np.stack([upwind_map(mesh, inflow) >= 0 for inflow in sched.inflow])
    patterns = set((live @ [1, 2, 4]).ravel().tolist())
    if structured:  # two-edge patterns next to tangential edges
        assert {3, 6} <= patterns
        assert (np.abs(omega_dot(mesh.tri_normal, quad.directions)) <= 1e-12).any()
    else:  # every pattern but 0 and 7: each pair of edges is picked
        assert patterns == {0, 1, 2, 3, 4, 5, 6}

    sigma_t = lambda x, y: 3.0 + x * y
    sigma_s = lambda x, y: 1.0 + 0.5 * x
    g = lambda x, y, l: 1.0 + 0.2 * l * x - y
    tables = space_tables(mesh, sigma_t)
    px, py = tables.points[..., 0], tables.points[..., 1]
    kern = build_kernel(
        tables, sched, 0.8 * mesh.h, f_vals=[np.cos(px + l) for l in range(nl)],
        inflow_data=g, scatter_w=tables.areaw * sigma_s(px, py),
    )
    # the edge padding a pattern leaves over has zero weight: its offset is the
    # zero last slot 3n of the (3n + 1,) coefficient buffer
    n = nl * nt
    padding = 0
    for _, fold, nbr in kern.steps:
        assert (fold.transpose(1, 0, 2)[:, nbr == 3 * n] == 0.0).all()
        padding += (nbr == 3 * n).sum()
    assert padding > 0
    u = random_solution(mesh, quad, seed=8)
    G = scatter_matrix(PhaseFunction.henyey_greenstein(0.3), quad)
    got = np.moveaxis(kern.run_scattered(np.matmul(G, np.moveaxis(u.coeffs, -1, 0))), 0, -1)
    for l in range(nl):
        scat = scattering_source(u, G, sigma_s, l)
        omega = quad.directions[l]
        ref = sweep_direction(
            mesh, build_schedule(mesh, omega), omega, 0.8 * mesh.h, sigma_t,
            lambda x, y: np.cos(x + l) + scat(x, y), lambda x, y: g(x, y, l),
            tri_rule=triangle_rule(4), edge_npts=4,
        )
        np.testing.assert_allclose(got[l], ref, atol=1e-12)


def test_stacked_scattering_kernel_holds_224_bytes_per_pair():
    # blocks 72, b0 24, fold 96, nbr 16, slots 16; a second 3x3 block array,
    # a 3x6 fold, a third slots row or a stored (nl, nt, 3) d would break it
    mesh = perturbed_mesh(6, seed=18)
    quad = trapezoid_circle(20)
    nt = mesh.n_triangles
    tables = space_tables(mesh, const(2.0))
    kern = build_kernel(
        tables, build_schedules(mesh, quad.directions), 0.1, scatter_w=0.5 * tables.areaw
    )
    n = kern.b0.shape[1]
    assert n == quad.n_directions * nt
    fields = [getattr(kern, f.name) for f in dataclasses.fields(kern) if f.name != "schedule"]
    arrays = [a for a in fields if isinstance(a, np.ndarray)]
    # per-pair arrays, planes or step-blocked flat arrays, hold a multiple of n entries
    per_pair = sum(a.nbytes for a in arrays if a.size % n == 0)
    assert per_pair <= 224 * n
    # per element only grad (3x2); bary and omega are a few rows
    rest = sum(a.nbytes for a in arrays if a.size % n != 0)
    assert rest <= 48 * nt + kern.bary.nbytes + kern.omega.nbytes
    # the step views share the flat arrays' memory
    assert all(f.base is kern.fold and b.base is kern.nbr for _, f, b in kern.steps)


def test_run_scattered_allocates_one_plane_set_beyond_its_result():
    # Beyond the planes it returns, a sweep holds one plane set (3n floats):
    # the (3, n + 1) coefficient buffer, as the gathered input is freed before
    # the result is allocated. One more (3, n) temporary would double that,
    # and peak RSS follows it.
    mesh = refine_regular(refine_regular(build_structured_unit_square(10)))
    quad = trapezoid_circle(20)
    nl, nt = quad.n_directions, mesh.n_triangles
    tables = space_tables(mesh, const(2.0))
    kern = build_kernel(
        tables, build_schedules(mesh, quad.directions), mesh.h, scatter_w=0.5 * tables.areaw
    )
    gc = np.ones((3, nl, nt))
    kern.run_scattered(gc)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = kern.run_scattered(gc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane_set = 3 * nl * nt * 8
    assert out.nbytes == plane_set
    assert peak - base - out.nbytes <= 1.1 * plane_set


def test_kernel_fill_holds_few_planes_beyond_its_inputs_and_the_kernel():
    # Beyond its inputs and the kernel's own arrays, the fill holds one direction's work
    # arrays, about 45 (3, nt) float planes: the moments, a, C's live columns, the scattering
    # block, the inverse, the fold and their temporaries. A dense 18-row C beside the live
    # columns would add 6 planes.
    mesh = refine_regular(refine_regular(build_structured_unit_square(10)))
    quad = trapezoid_circle(4)
    nl, nt = quad.n_directions, mesh.n_triangles
    tables = space_tables(mesh, lambda x, y: 2.0 + x * y)
    px = tables.points[..., 0]
    f_vals = [np.cos(px + l) for l in range(nl)]
    sched, scatter_w = build_schedules(mesh, quad.directions), 0.5 * tables.areaw
    g = lambda x, y, l: 1.0 + x - y
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kern = build_kernel(tables, sched, mesh.h, f_vals=f_vals, inflow_data=g, scatter_w=scatter_w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(x.nbytes for x in (kern.blocks, kern.b0, kern.fold, kern.nbr, kern.slots))
    assert (peak - base - own) / (3 * nt * 8) <= 47


def test_run_scattered_writes_over_its_input():
    # 12 directions x 800 elements = 9600 pairs: three start chunks of 4096, the last short
    mesh = perturbed_mesh(20, seed=31)
    quad = trapezoid_circle(12)
    nl, nt = quad.n_directions, mesh.n_triangles
    assert nl * nt > 2 * 4096 and nl * nt % 4096
    tables = space_tables(mesh, lambda x, y: 2.0 + x * y)
    kern = build_kernel(
        tables, build_schedules(mesh, quad.directions), 0.6 * mesh.h,
        f_vals=[np.cos(tables.points[..., 0] + l) for l in range(nl)],
        scatter_w=(0.5 + 0.2 * tables.points[..., 1]) * tables.areaw,
    )
    gc = np.random.default_rng(5).standard_normal((3, nl, nt))
    want = kern.run_scattered(gc.copy())
    got = kern.run_scattered(gc)
    assert np.shares_memory(got, gc)
    np.testing.assert_array_equal(gc, want)
    np.testing.assert_array_equal(got, want)


def test_run_sweeps_a_copy_of_its_rhs():
    # planes moved to (nl, nt, 3) move back to C-contiguous planes that the sweep could write
    # over; run sweeps a new copy and leaves the caller's array alone
    mesh = perturbed_mesh(20, seed=31)
    quad = trapezoid_circle(12)
    nl, nt = quad.n_directions, mesh.n_triangles
    tables = space_tables(mesh, lambda x, y: 2.0 + x * y)
    kern = build_kernel(
        tables, build_schedules(mesh, quad.directions), 0.6 * mesh.h,
        f_vals=[np.cos(tables.points[..., 0] + l) for l in range(nl)],
    )
    planes = np.random.default_rng(6).standard_normal((3, nl, nt))
    kept = planes.copy()
    got = kern.run(np.moveaxis(planes, 0, -1))
    np.testing.assert_array_equal(planes, kept)
    assert not np.shares_memory(got, planes)
    np.testing.assert_array_equal(np.moveaxis(got, -1, 0), kern._sweep(kept))
    np.testing.assert_array_equal(got, kern.run(np.moveaxis(planes, 0, -1).copy()))


def test_kernel_fill_frees_the_inline_schedule_and_each_spent_sample():
    # when the fill asks for direction l's sample, direction l - 1's and the
    # schedule passed inline, whose inflow mask the fill never reads, are gone;
    # before 3.11 the caller's frame keeps an inline argument until the call returns
    inline_freed = sys.version_info >= (3, 11)
    mesh = perturbed_mesh(4, seed=32)
    quad = trapezoid_circle(6)
    nl = quad.n_directions
    tables = space_tables(mesh, const(2.0))
    px = tables.points[..., 0]
    dead, asked = [], []

    def tracked(obj):
        dead.append(weakref.ref(obj))
        return obj

    def samples():
        for l in range(nl):
            asked.append(l)
            assert dead[0]() is None or not inline_freed, "the schedule outlived the set-up"
            if l:
                assert dead[l]() is None, f"sample {l - 1} outlived its direction"
            yield tracked(np.cos(px + l))

    kern = build_kernel(
        tables, tracked(build_schedules(mesh, quad.directions)), 0.1, f_vals=samples(),
        scatter_w=0.5 * tables.areaw,
    )
    assert asked == list(range(nl))
    assert kern.schedule is None
    want = build_kernel(
        tables, build_schedules(mesh, quad.directions), 0.1,
        f_vals=[np.cos(px + l) for l in range(nl)], scatter_w=0.5 * tables.areaw,
    )
    np.testing.assert_array_equal(kern.b0, want.b0)
    np.testing.assert_array_equal(kern.blocks, want.blocks)


def test_stacked_kernel_stores_blocks_in_direction_order():
    # a one-direction kernel's blocks and b0 are the stack's columns of that
    # direction, bit for bit
    mesh = perturbed_mesh(4, seed=21)
    quad = trapezoid_circle(6)
    nt = mesh.n_triangles
    tables = space_tables(mesh, lambda x, y: 3.0 + x * y)
    px, py = tables.points[..., 0], tables.points[..., 1]
    fv = [np.cos(px + l) * py for l in range(quad.n_directions)]
    g = lambda x, y, l: 1.0 + 0.3 * l * x - y
    sw = tables.areaw * (1.0 + 0.5 * px)
    delta = 0.7 * mesh.h
    stacked = build_schedules(mesh, quad.directions)
    stack = build_kernel(tables, stacked, delta, f_vals=fv, inflow_data=g, scatter_w=sw)
    for l, omega in enumerate(quad.directions):
        sched = build_schedule(mesh, omega)
        gl = lambda x, y: g(x, y, l)  # a one-direction kernel takes g(x, y)
        one = build_kernel(tables, sched, delta, f_vals=fv[l], inflow_data=gl, scatter_w=sw)
        cols = slice(l * nt, (l + 1) * nt)
        np.testing.assert_array_equal(one.blocks, stack.blocks[:, :, cols])
        np.testing.assert_array_equal(one.b0, stack.b0[:, cols])


def test_stack_and_one_direction_kernels_give_the_same_bits():
    # solve sweeps the stack and the traced replay one-direction kernels: with
    # sigma_s = 0 each direction's coefficients agree bit for bit, although its
    # pairs sit at other positions of other step blocks
    mesh = perturbed_mesh(6, seed=24)
    quad = trapezoid_circle(12)
    tables = space_tables(mesh, lambda x, y: 2.0 + x * y)
    px, py = tables.points[..., 0], tables.points[..., 1]
    fv = [1.0 + np.sin(px + l) * py for l in range(quad.n_directions)]
    g = lambda x, y, l: 1.0 + 0.1 * l * x - y
    delta = 0.8 * mesh.h
    stacked = build_schedules(mesh, quad.directions)
    got = build_kernel(tables, stacked, delta, f_vals=fv, inflow_data=g).run()
    one_pair_steps = 0
    for l, omega in enumerate(quad.directions):
        gl = lambda x, y: g(x, y, l)
        one = build_kernel(tables, build_schedule(mesh, omega), delta, f_vals=fv[l], inflow_data=gl)
        np.testing.assert_array_equal(one.run(), got[l])
        one_pair_steps += sum(nbr.shape[1] == 1 for _, _, nbr in one.steps)
    assert one_pair_steps > 0  # einsum sums a contiguous one-pair block in another order


def test_stacked_kernel_releases_its_schedules():
    mesh = perturbed_mesh(3, seed=22)
    quad = trapezoid_circle(4)
    tables = space_tables(mesh, const(2.0))
    stack = build_schedules(mesh, quad.directions)
    dead = weakref.ref(stack)
    kern = build_kernel(tables, stack, 0.1, scatter_w=0.5 * tables.areaw)
    del stack
    assert dead() is None
    assert kern.schedule is None
    sched = build_schedule(mesh, quad.directions[0])
    assert build_kernel(tables, sched, 0.1).schedule is sched


def test_stacked_sweep_steps_are_global_layers():
    mesh = perturbed_mesh(5, seed=15)
    quad = trapezoid_circle(6)
    nt = mesh.n_triangles
    scheds = [build_schedule(mesh, omega) for omega in quad.directions]
    want_layer_of = [mirrored_layers(mesh, quad, l) for l in range(quad.n_directions)]
    stack = build_schedules(mesh, quad.directions)
    kern = build_kernel(space_tables(mesh, const(1.0)), stack, 0.1)
    n_steps = len(kern.steps)
    assert n_steps == stack.n_layers == max(s.n_layers for s in scheds)
    assert n_steps < sum(s.n_layers for s in scheds)
    # step i is layer i of every direction, in (direction, element) order:
    # the stack's layers, the pair ids of each step, whose coefficient 0
    # fills the first row of the step's buffer block
    assert len(stack.layers) == n_steps
    first = kern.slots[0]
    for i, (span, _, _) in enumerate(kern.steps):
        want = [l * nt + np.flatnonzero(lo == i) for l, lo in enumerate(want_layer_of)]
        m = (span.stop - span.start) // 3
        step = np.flatnonzero((first >= span.start) & (first < span.start + m))
        np.testing.assert_array_equal(first[step], span.start + np.arange(m))
        np.testing.assert_array_equal(step, np.concatenate(want))
        np.testing.assert_array_equal(stack.layers[i], step)
    one = build_kernel(space_tables(mesh, const(1.0)), scheds[0], 0.1)
    assert len(one.steps) == one.schedule.n_layers == scheds[0].n_layers
    assert kern.schedule is None


def test_every_step_reads_and_writes_contiguous_blocks():
    # step i owns the (3, m) block 3 lo:3 hi of the (3n + 1,) buffer and the
    # (4, 3, m) and (4, m) blocks 12 lo:12 hi of fold and 4 lo:4 hi of nbr:
    # C-contiguous views, one after another; nbr points into earlier steps'
    # blocks or at the zero last slot; slots is a bijection onto the blocks
    mesh = perturbed_mesh(5, seed=23)
    quad = trapezoid_circle(8)
    tables = space_tables(mesh, const(2.0))
    kern = build_kernel(
        tables, build_schedules(mesh, quad.directions), 0.1, scatter_w=0.5 * tables.areaw
    )
    n = quad.n_directions * mesh.n_triangles
    buf = np.zeros(3 * n + 1)
    lo = 0
    for span, fold, nbr in kern.steps:
        step = buf[span].reshape(3, -1)
        m = step.shape[1]
        assert span.start == 3 * lo and fold.shape == (4, 3, m) and nbr.shape == (4, m)
        for block, flat, width in ((step, buf, 3), (fold, kern.fold, 12), (nbr, kern.nbr, 4)):
            assert block.flags.c_contiguous and np.shares_memory(block, flat)
            assert block.ctypes.data == flat.ctypes.data + width * lo * flat.itemsize
        assert ((nbr < 3 * lo) | (nbr == 3 * n)).all()
        lo += m
    assert lo == n and kern.fold.size == 12 * n and kern.nbr.size == 4 * n
    s0, s1 = kern.slots
    offsets = np.concatenate((s0, s1, 2 * s1 - s0))
    np.testing.assert_array_equal(np.sort(offsets), np.arange(3 * n))


def test_inverse_3x3_matches_linalg():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((500, 3, 3)) + 4.0 * np.eye(3)
    got = inverse_3x3(a.transpose(1, 2, 0))  # blocks stored as planes (3, 3, n)
    np.testing.assert_allclose(got, np.linalg.inv(a).transpose(1, 2, 0), rtol=1e-12, atol=1e-14)


def test_inverse_3x3_rejects_singular_block():
    a = np.tile(np.eye(3), (4, 1, 1))
    a[2, 2] = a[2, 0] + a[2, 1]  # rank 2
    with pytest.raises(StabilityError) as exc:
        inverse_3x3(a.transpose(1, 2, 0), direction=7)
    assert exc.value.element == 2
    assert exc.value.direction == 7


def test_inverse_3x3_rejects_an_overflowing_block():
    # I + J is regular, but at 1e160 its cofactors overflow: the NaN det fails, with no warning
    a = np.repeat(1e160 * (np.eye(3) + 1.0)[..., None], 2, axis=2)
    with pytest.raises(StabilityError) as exc:
        inverse_3x3(a)
    assert exc.value.element == 0
