import math

import numpy as np
import pytest

from rte2d import (
    StabilityError,
    build_mesh,
    build_structured_unit_square,
    element_basis,
    trapezoid_circle,
)
from rte2d.dg_core import quad_points
from rte2d.quadrature import triangle_rule
from helpers import const, perturbed_mesh, project_exact, unit_direction
from oracle import LocalSystem, assemble_local, classify_edges, solve_local

ONE_TRI_VERTS = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])


def one_triangle():
    return build_mesh(ONE_TRI_VERTS, np.array([[0, 1, 2]]))


def gradient_oracle(verts):
    """P1 gradients by solving the Vandermonde system directly."""
    V = np.column_stack([np.ones(3), verts])
    coeffs = np.linalg.solve(V, np.eye(3))  # columns: (a, b, c) per basis fn
    return coeffs[1:, :].T  # (3, 2)


def test_element_basis_matches_vandermonde_oracle():
    mesh = perturbed_mesh(4, seed=7)
    basis = element_basis(mesh)
    for k in (0, 5, 11, mesh.n_triangles - 1):
        expect = gradient_oracle(mesh.vertices[mesh.triangles[k]])
        np.testing.assert_allclose(basis[k], expect, atol=1e-12)
    np.testing.assert_allclose(basis.sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("degree", [4, 6])
def test_quad_points_are_the_barycentric_sums(degree):
    mesh = perturbed_mesh(5, seed=11)
    rule = triangle_rule(degree)
    pts = quad_points(mesh, rule)
    verts = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    assert pts.shape == (mesh.n_triangles, len(rule.points), 2)
    for q, b in enumerate(rule.points):
        ref = b[0] * verts[:, 0] + b[1] * verts[:, 1] + b[2] * verts[:, 2]
        np.testing.assert_allclose(pts[:, q], ref, rtol=0, atol=1e-15)


def test_green_identity_per_element():
    # (omega . grad phi_i) * area equals the boundary integral of phi_i omega.n
    mesh = perturbed_mesh(3, seed=8)
    basis = element_basis(mesh)
    omega = unit_direction(0.81)
    cls = classify_edges(mesh, omega)
    elen = mesh.tri_edge_length
    for k in range(mesh.n_triangles):
        lhs = basis[k] @ omega * mesh.tri_area[k]
        rhs = np.zeros(3)
        for s in range(3):
            # P1 trace integral: half the edge length for each endpoint dof
            w = 0.5 * elen[k, s] * cls.omega_dot_n[k, s]
            rhs[s] += w
            rhs[(s + 1) % 3] += w
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_assemble_local_matches_closed_form():
    mesh = one_triangle()
    basis = element_basis(mesh)
    area = mesh.tri_area[0]
    omega = unit_direction(0.3)
    sig, delta = 2.5, 0.07
    d = gradient_oracle(ONE_TRI_VERTS) @ omega
    M = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    expect = (
        np.outer(np.full(3, area / 3.0), d)
        + sig * M
        + delta * area * np.outer(d, d)
        + delta * sig * (area / 3.0) * np.outer(d, np.ones(3))
    )
    sys = assemble_local(
        mesh, basis, 0, omega, delta, const(sig), (), lambda s, x, y: 0.0, const(0.0)
    )
    np.testing.assert_allclose(sys.A, expect, atol=1e-13)
    np.testing.assert_allclose(sys.b, 0.0, atol=1e-15)


def test_assemble_local_constant_source_rhs():
    mesh = one_triangle()
    basis = element_basis(mesh)
    area = mesh.tri_area[0]
    omega = unit_direction(1.2)
    delta = 0.3
    d = gradient_oracle(ONE_TRI_VERTS) @ omega
    sys = assemble_local(
        mesh, basis, 0, omega, delta, const(1.0), (), lambda s, x, y: 0.0, const(4.0)
    )
    np.testing.assert_allclose(sys.b, 4.0 * (area / 3.0 + delta * d * area), atol=1e-13)


def test_assemble_local_inflow_edge_block():
    mesh = one_triangle()
    basis = element_basis(mesh)
    omega = -mesh.tri_normal[0, 0]  # straight into edge 0
    cls = classify_edges(mesh, omega)
    assert cls.inflow[0, 0]
    bare = assemble_local(
        mesh, basis, 0, omega, 0.0, const(1.0), (), lambda s, x, y: 0.0, const(0.0)
    )
    with_edge = assemble_local(
        mesh, basis, 0, omega, 0.0, const(1.0), (0,), lambda s, x, y: 1.0, const(0.0)
    )
    L = mesh.tri_edge_length[0, 0]
    block = np.zeros((3, 3))
    block[np.ix_((0, 1), (0, 1))] = L * np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    np.testing.assert_allclose(with_edge.A - bare.A, block, atol=1e-13)
    rhs = np.zeros(3)
    rhs[0] = rhs[1] = L / 2.0
    np.testing.assert_allclose(with_edge.b - bare.b, rhs, atol=1e-13)


def test_assemble_affine_in_delta():
    mesh = one_triangle()
    basis = element_basis(mesh)
    omega = unit_direction(2.0)
    args = (const(3.0), (0, 2), lambda s, x, y: 0.5, const(1.0))
    sys0 = assemble_local(mesh, basis, 0, omega, 0.0, *args)
    sys1 = assemble_local(mesh, basis, 0, omega, 1.0, *args)
    sys_mid = assemble_local(mesh, basis, 0, omega, 0.4, *args)
    np.testing.assert_allclose(sys_mid.A, 0.6 * sys0.A + 0.4 * sys1.A, atol=1e-13)
    np.testing.assert_allclose(sys_mid.b, 0.6 * sys0.b + 0.4 * sys1.b, atol=1e-13)


def test_assemble_stable_under_quadrature_refinement():
    # polynomial data is integrated exactly by both rules
    mesh = one_triangle()
    basis = element_basis(mesh)
    omega = unit_direction(0.4)

    def sigma(x, y):
        return 1.0 + 0.5 * x + 0.25 * y * y

    def src(x, y):
        return 2.0 - x * y

    a4 = assemble_local(
        mesh, basis, 0, omega, 0.1, sigma, (1,), lambda s, x, y: x, src,
        tri_rule=triangle_rule(4), edge_npts=3,
    )
    a6 = assemble_local(
        mesh, basis, 0, omega, 0.1, sigma, (1,), lambda s, x, y: x, src,
        tri_rule=triangle_rule(6), edge_npts=5,
    )
    np.testing.assert_allclose(a4.A, a6.A, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(a4.b, a6.b, rtol=1e-13, atol=1e-14)


def test_local_patch_constant_and_linear():
    # exact P1 solutions are reproduced through assemble + solve
    mesh = one_triangle()
    basis = element_basis(mesh)
    omega = unit_direction(5.1)
    cls = classify_edges(mesh, omega)
    inflow = tuple(np.flatnonzero(cls.inflow[0]))

    for a, b, c in [(0.0, 0.0, 1.0), (2.0, -1.0, 0.5)]:
        u = lambda x, y: a * x + b * y + c
        src = lambda x, y: a * omega[0] + b * omega[1] + 1.0 * u(x, y)
        sys = assemble_local(
            mesh, basis, 0, omega, 0.2, const(1.0), inflow,
            lambda s, x, y: u(x, y), src,
        )
        got = solve_local(sys, element=0)
        expect = [u(*v) for v in ONE_TRI_VERTS]
        np.testing.assert_allclose(got, expect, atol=1e-11)


def test_solve_local_residual_small():
    rng = np.random.RandomState(3)
    for _ in range(20):
        A = rng.standard_normal((3, 3)) + 4.0 * np.eye(3)
        b = rng.standard_normal(3)
        x = solve_local(LocalSystem(A=A, b=b))
        assert np.abs(A @ x - b).max() < 1e-12 * max(np.abs(A).max(), 1.0)


def test_solve_local_raises_on_singular():
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]])
    with pytest.raises(StabilityError) as exc:
        solve_local(LocalSystem(A=A, b=np.ones(3)), element=17, direction=2)
    assert exc.value.element == 17
    assert exc.value.direction == 2
    assert "17" in str(exc.value)


def test_projection_reproduces_linears():
    mesh = perturbed_mesh(4, seed=10)
    quad = trapezoid_circle(4)
    sol = project_exact(lambda x, y, t: 2.0 * x - y + 0.25, mesh, quad)
    for k in (0, 7, 19):
        verts = mesh.vertices[mesh.triangles[k]]
        expect = 2.0 * verts[:, 0] - verts[:, 1] + 0.25
        np.testing.assert_allclose(sol.coeffs[0, k], expect, atol=1e-12)
    # direction-independent field projects identically in every direction
    for l in range(1, sol.coeffs.shape[0]):
        np.testing.assert_allclose(sol.coeffs[l], sol.coeffs[0], atol=1e-14)


def l2_error(sol, u, l=0):
    mesh = sol.mesh
    rule = triangle_rule(6)
    pts = np.einsum("qs,kst->kqt", rule.points, mesh.vertices[mesh.triangles])
    areaw = mesh.tri_area[:, None] * rule.weights[None, :]
    diff = u(pts[..., 0], pts[..., 1]) - sol.coeffs[l] @ rule.points.T
    return math.sqrt(float((areaw * diff**2).sum()))


def test_projection_second_order():
    quad = trapezoid_circle(2)
    u = lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y)
    errs = []
    for n in (4, 8, 16):
        mesh = build_structured_unit_square(n)
        sol = project_exact(u, mesh, quad)
        errs.append(l2_error(sol, lambda x, y: u(x, y, 0.0)))
    rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.9 < r < 2.1 for r in rates)
