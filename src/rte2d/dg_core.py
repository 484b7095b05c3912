"""P1 discontinuous elements: basis data, local assembly, and projections.

The local system for one triangle K and one direction omega is

    A[i, j] = (omega . grad(phi_j) + sigma_t * phi_j,
               phi_i + delta * omega . grad(phi_i))_K
              + sum over inflow edges of <phi_j, phi_i |omega . n|>_e
    b[i]    = (source, phi_i + delta * omega . grad(phi_i))_K
              + sum over inflow edges of <upwind trace, phi_i |omega . n|>_e

with the known upwind trace (a solved neighbor or boundary data) moved to
the right-hand side. delta = 0 recovers the plain upwind DG scheme.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MeshError, StabilityError
from .mesh import TriangleMesh
from .quadrature import TriangleRule, edge_rule, triangle_rule


@dataclass(frozen=True)
class ElementBasis:
    """Barycentric P1 basis: constant gradients per triangle."""

    mesh: TriangleMesh
    grad: np.ndarray  # (nt, 3, 2)


def element_basis(mesh: TriangleMesh) -> ElementBasis:
    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    two_a = (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])[:, None]
    grad = np.empty((mesh.n_triangles, 3, 2))
    grad[:, 1] = np.column_stack([e2[:, 1], -e2[:, 0]]) / two_a
    grad[:, 2] = np.column_stack([-e1[:, 1], e1[:, 0]]) / two_a
    grad[:, 0] = -grad[:, 1] - grad[:, 2]
    return ElementBasis(mesh=mesh, grad=grad)


def quad_points(mesh: TriangleMesh, rule: TriangleRule):
    """Physical coordinates of the rule's points on every triangle: (nt, nq, 2)."""
    return np.einsum("qs,kst->kqt", rule.points, mesh.vertices[mesh.triangles])


@dataclass
class LocalSystem:
    A: np.ndarray  # (3, 3)
    b: np.ndarray  # (3,)


@dataclass
class DGSolution:
    """Per-direction P1 coefficient fields: coeffs[l, K, j]."""

    coeffs: np.ndarray  # (L+1, nt, 3)
    mesh: TriangleMesh
    quad: object  # AngularQuadrature

    def copy(self):
        return DGSolution(self.coeffs.copy(), self.mesh, self.quad)


def zero_solution(mesh, quad) -> DGSolution:
    return DGSolution(np.zeros((quad.n_directions, mesh.n_triangles, 3)), mesh, quad)


# Edge mass on the (1-t, t) parametrization: integrals of products of the
# two nonvanishing P1 traces, exact.
EDGE_MASS_2 = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])


def assemble_local(
    mesh: TriangleMesh,
    basis: ElementBasis,
    k: int,
    omega,
    delta: float,
    sigma_t,
    inflow_local_edges,
    upwind_trace,
    source,
    tri_rule: TriangleRule = None,
    edge_npts: int = 3,
) -> LocalSystem:
    """Assemble the 3x3 system for triangle `k` in direction `omega`.

    `sigma_t` and `source` are callables of (x, y) arrays; `upwind_trace`
    is a callable (local_edge, x, y) giving the known upwind values on each
    local edge listed in `inflow_local_edges`.
    """
    area = mesh.tri_area[k]
    if area <= 0:
        raise MeshError(f"triangle {k} has nonpositive area")
    omega = np.asarray(omega, dtype=float)
    if tri_rule is None:
        tri_rule = triangle_rule(4)

    bary = tri_rule.points  # (nq, 3), also the phi values at the points
    wq = tri_rule.weights
    xq = bary @ mesh.vertices[mesh.triangles[k]]  # (nq, 2)
    st = np.asarray(sigma_t(xq[:, 0], xq[:, 1]), dtype=float)
    st = np.broadcast_to(st, (bary.shape[0],))
    d = basis.grad[k] @ omega  # (3,) omega . grad(phi_j)

    test = bary + delta * d[None, :]  # (nq, 3) phi_i + delta omega.grad(phi_i)
    trial = d[None, :] + st[:, None] * bary  # (nq, 3)
    A = area * np.einsum("q,qj,qi->ij", wq, trial, test)

    src = np.broadcast_to(np.asarray(source(xq[:, 0], xq[:, 1]), dtype=float), (bary.shape[0],))
    b = area * np.einsum("q,q,qi->i", wq, src, test)

    tq, tw = edge_rule(edge_npts)
    for s in inflow_local_edges:
        e = mesh.tri_edges[k, s]
        a_dot = abs(float(mesh.edge_normal[e] @ omega))
        length = mesh.edge_length[e]
        i0, i1 = s, (s + 1) % 3
        block = length * a_dot * EDGE_MASS_2
        A[np.ix_((i0, i1), (i0, i1))] += block.T  # rows are test, cols trial

        p0 = mesh.vertices[mesh.triangles[k, i0]]
        p1 = mesh.vertices[mesh.triangles[k, i1]]
        pts = p0[None, :] + tq[:, None] * (p1 - p0)[None, :]
        trace = np.broadcast_to(
            np.asarray(upwind_trace(s, pts[:, 0], pts[:, 1]), dtype=float), tq.shape
        )
        phi = np.column_stack([1.0 - tq, tq])  # traces of phi_{i0}, phi_{i1}
        contrib = length * a_dot * np.einsum("q,q,qi->i", tw, trace, phi)
        b[i0] += contrib[0]
        b[i1] += contrib[1]

    return LocalSystem(A=A, b=b)


# One singularity criterion for every local 3x3 system: a block is singular
# unless |det| > SINGULAR_RTOL * s^3, s being its largest absolute entry.
SINGULAR_RTOL = 1e-20


def check_nonsingular(a: np.ndarray, det: np.ndarray, element=None, direction=None):
    """StabilityError at the first (n, 3, 3) block of a whose determinant
    det fails the criterion; element names it (default: its batch index)."""
    scale = np.abs(a).reshape(-1, 9).max(axis=1)
    bad = ~(np.abs(det) > SINGULAR_RTOL * scale**3)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        k = i if element is None else element
        where = f"element {k}" + ("" if direction is None else f", direction {direction}")
        raise StabilityError(
            f"near-singular local system at {where} (|det| {abs(det[i]):.3e}, "
            f"scale {scale[i]:.3e})",
            element=k,
            direction=direction,
        )


def solve_local(sys: LocalSystem, element=None, direction=None) -> np.ndarray:
    """Direct 3x3 solve with partial pivoting, guarded by check_nonsingular."""
    A = np.array(sys.A, dtype=float)
    b = np.array(sys.b, dtype=float)
    check_nonsingular(A[None], np.linalg.det(A)[None], element=element, direction=direction)
    for col in range(3):
        p = col + int(np.argmax(np.abs(A[col:, col])))
        if p != col:
            A[[col, p]] = A[[p, col]]
            b[[col, p]] = b[[p, col]]
        for row in range(col + 1, 3):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.empty(3)
    for row in (2, 1, 0):
        x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
    return x


def eval_field(sol: DGSolution, l: int, k: int, bary) -> float:
    """Value of the direction-l field on triangle k at barycentric coords."""
    bary = np.asarray(bary, dtype=float)
    return float(sol.coeffs[l, k] @ bary)


def project_exact(u, mesh: TriangleMesh, quad, rule: TriangleRule = None) -> DGSolution:
    """Elementwise L2 projection of u(x, y, theta) onto P1, per direction.

    Uses the closed-form inverse of the P1 mass matrix; intended for tests
    and error studies.
    """
    if quad.angles is None:
        raise ValueError("projection needs a 2D angular quadrature with angles")
    if rule is None:
        rule = triangle_rule(6)
    pts = quad_points(mesh, rule)  # (nt, nq, 2)
    coeffs = np.empty((quad.n_directions, mesh.n_triangles, 3))
    for l, theta in enumerate(quad.angles):
        vals = np.asarray(u(pts[..., 0], pts[..., 1], theta), dtype=float)
        vals = np.broadcast_to(vals, pts.shape[:2])
        rhs = np.einsum("q,kq,qi->ki", rule.weights, vals, rule.points)
        # (M/area)^-1 = 12 I - 3 J for the P1 mass matrix M.
        coeffs[l] = 12.0 * rhs - 3.0 * rhs.sum(axis=1, keepdims=True)
    return DGSolution(coeffs=coeffs, mesh=mesh, quad=quad)
