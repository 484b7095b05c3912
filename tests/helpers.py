"""Shared builders and readers for the test suite."""

import csv

import numpy as np

from rte2d import DGSolution, build_mesh, build_structured_unit_square
from rte2d.dg_core import quad_points
from rte2d.quadrature import triangle_rule


def perturbed_mesh(n, seed=0, amp=0.25):
    """Structured mesh with interior vertices jiggled; stays conforming/CCW.

    amp is the displacement as a fraction of the grid spacing (keep < 0.3).
    """
    base = build_structured_unit_square(n)
    rng = np.random.RandomState(seed)
    verts = base.vertices.copy()
    inner = (
        (verts[:, 0] > 1e-12)
        & (verts[:, 0] < 1 - 1e-12)
        & (verts[:, 1] > 1e-12)
        & (verts[:, 1] < 1 - 1e-12)
    )
    verts[inner] += rng.uniform(-amp / n, amp / n, size=(inner.sum(), 2))
    return build_mesh(verts, np.asarray(base.triangles))


def random_solution(mesh, quad, seed=0, scale=1.0):
    rng = np.random.RandomState(seed)
    coeffs = scale * rng.standard_normal((quad.n_directions, mesh.n_triangles, 3))
    return DGSolution(coeffs, mesh, quad)


def unit_direction(theta):
    return np.array([np.cos(theta), np.sin(theta)])


def project_exact(u, mesh, quad, rule=None) -> DGSolution:
    """Elementwise L2 projection of u(x, y, theta) onto P1, per direction.

    Uses the closed-form inverse of the P1 mass matrix.
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


def read_table_csv(path):
    """Parse a table.csv back into plain (header, value rows) form."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        rows = []
        for row in reader:
            rows.append(
                tuple(
                    int(v) if name in ("level", "n_elems", "n_dirs", "iters") else float(v)
                    for name, v in zip(header, row)
                )
            )
    return header, rows
