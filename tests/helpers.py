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


def grid_cells(x0, x1, nx, ny):
    """Vertices and crisscross triangles of nx x ny squares on [x0, x1] x [0, 1]."""
    xx, yy = np.meshgrid(np.linspace(x0, x1, nx + 1), np.linspace(0.0, 1.0, ny + 1))
    ll = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    lr, ur, ul = ll + 1, ll + nx + 2, ll + nx + 1
    tris = np.column_stack([ll, lr, ur, ll, ur, ul]).reshape(-1, 3)
    return np.column_stack([xx.ravel(), yy.ravel()]), tris


def hanging_node_cells(shared_seam=True):
    """An 8x16-square strip on [0, 0.5] beside a 4x8-square strip on [0.5, 1]:
    320 triangles, every other seam vertex of the fine side hanging on a
    coarse edge. shared_seam: the seam vertices both sides have are one vertex."""
    (va, ta), (vb, tb) = grid_cells(0.0, 0.5, 8, 16), grid_cells(0.5, 1.0, 4, 8)
    verts, tris = np.vstack([va, vb]), np.vstack([ta, tb + len(va)])
    if shared_seam:
        verts, inv = np.unique(verts, axis=0, return_inverse=True)
        tris = inv.ravel()[tris]
    return verts, tris


def write_mesh_text(path, verts, tris):
    """A mesh file in save_mesh's format, written without building the mesh."""
    rows = [f"{len(verts)} {len(tris)}"] + [f"{x!r} {y!r}" for x, y in verts.tolist()]
    path.write_text("\n".join(rows + [f"{i} {j} {k}" for i, j, k in tris.tolist()]) + "\n")


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
