"""P1 discontinuous elements: basis data and solution fields.

The batched assembly of the local systems lives in the sweep kernel
(`sweep.build_kernel`); this module holds what it shares with the rest of
the package: the basis gradients, quadrature points, the edge trace rule,
the P1 edge mass and the one singularity criterion for a local 3x3 block.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StabilityError
from .mesh import TriangleMesh
from .quadrature import TriangleRule, edge_rule


def element_basis(mesh: TriangleMesh) -> np.ndarray:
    """Barycentric P1 basis: the constant gradients (nt, 3, 2) of the three
    basis functions on every triangle."""
    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    two_a = (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])[:, None]
    grad = np.empty((mesh.n_triangles, 3, 2))
    grad[:, 1] = np.column_stack([e2[:, 1], -e2[:, 0]]) / two_a
    grad[:, 2] = np.column_stack([-e1[:, 1], e1[:, 0]]) / two_a
    grad[:, 0] = -grad[:, 1] - grad[:, 2]
    return grad


def quad_points(mesh: TriangleMesh, rule: TriangleRule):
    """Physical coordinates of the rule's points on every triangle: (nt, nq, 2)."""
    return np.stack([mesh.vertices[:, i][mesh.triangles] @ rule.points.T for i in (0, 1)], axis=-1)


@dataclass(eq=False)
class DGSolution:
    """Per-direction P1 coefficient fields: coeffs[l, K, j]."""

    coeffs: np.ndarray  # (L+1, nt, 3)
    mesh: TriangleMesh
    quad: object  # AngularQuadrature


# The one edge trace rule, 4-point Gauss on the edge parameter t in [0, 1]:
# inflow data in the sweep kernels, the inflow check of solve, and the
# error norms and global forms all integrate traces with it.
TRACE_T, TRACE_W = edge_rule(4)

# Edge mass on the (1-t, t) parametrization: integrals of products of the
# two nonvanishing P1 traces, exact.
EDGE_MASS_2 = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])


# One singularity criterion for every local 3x3 system: a block is singular
# unless |det| > SINGULAR_RTOL * s^3, s being its largest absolute entry.
SINGULAR_RTOL = 1e-20


def check_nonsingular(a: np.ndarray, det: np.ndarray, element=None, direction=None):
    """StabilityError at the first of the 3x3 blocks a, stored as planes
    (3, 3, n), whose determinant det fails the criterion; element names it
    (default: its batch index)."""
    scale = np.abs(a).reshape(9, -1).max(axis=0)
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
