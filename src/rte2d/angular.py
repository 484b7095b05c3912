"""Direction sets on the unit circle/sphere and scattering kernels.

The discrete scattering operator couples directions through the matrix
G[l, i] = w_i * g(omega_l . omega_i); its maximal row sum `m` controls the
effective absorption sigma_t - m * sigma_s that the solver relies on.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class AngularQuadrature:
    directions: np.ndarray  # (L+1, dim) unit vectors
    weights: np.ndarray  # (L+1,) positive
    angles: Optional[np.ndarray] = None  # (L+1,) polar angles, 2D only

    def __post_init__(self):
        w = self.weights
        if not (w > 0).all():  # NaN fails too
            raise ValueError("quadrature weights must be positive")
        norms = np.linalg.norm(self.directions, axis=1)
        if not np.abs(norms - 1.0).max() <= 1e-12:
            raise ValueError("directions must be unit vectors")
        full = 2.0 * np.pi if self.dim == 2 else 4.0 * np.pi
        tol = 1e-12 if self.dim == 2 else 1e-10
        if abs(w.sum() - full) > tol * full:
            raise ValueError(f"weights sum to {w.sum()!r}, expected {full!r}")

    @property
    def dim(self):
        return self.directions.shape[1]

    @property
    def n_directions(self):
        return self.weights.shape[0]


def trapezoid_circle(n_dirs: int) -> AngularQuadrature:
    """Composite trapezoid rule on the circle with n_dirs equispaced angles.

    The two half-weight endpoints at 0 and 2*pi are the same physical
    direction, so they are merged into a single node of full weight; for a
    periodic integrand the rule is unchanged.
    """
    if n_dirs < 2:
        raise ValueError(f"need at least 2 directions, got {n_dirs}")
    h_theta = 2.0 * np.pi / n_dirs
    angles = h_theta * np.arange(n_dirs)
    directions = np.column_stack([np.cos(angles), np.sin(angles)])
    weights = np.full(n_dirs, h_theta)
    return AngularQuadrature(directions, weights, angles=angles)


def gauss_legendre_sphere(m: int) -> AngularQuadrature:
    """Product rule on the sphere: Gauss-Legendre in cos(theta) (m nodes)
    times 2m equispaced azimuths, 2*m^2 nodes in total."""
    if m < 1:
        raise ValueError(f"need at least 1 polar node, got {m}")
    ct, wbar = np.polynomial.legendre.leggauss(m)
    st = np.sqrt(1.0 - ct**2)
    psi = (np.pi / m) * np.arange(2 * m)
    cp, sp = np.cos(psi), np.sin(psi)
    directions = np.column_stack(
        [
            np.outer(st, cp).ravel(),
            np.outer(st, sp).ravel(),
            np.repeat(ct, 2 * m),
        ]
    )
    weights = np.repeat((np.pi / m) * wbar, 2 * m)
    return AngularQuadrature(directions, weights)


@dataclass(frozen=True)
class PhaseFunction:
    """Normalized scattering kernel g(t) with t = omega . omega_hat."""

    kind: str  # "hg" or "linear"
    eta: float = 0.0
    dim: int = 2

    def __post_init__(self):
        if self.kind not in ("hg", "linear"):
            raise ValueError(f"unknown phase function kind {self.kind!r}")
        if self.kind == "hg" and not abs(self.eta) < 1.0:  # NaN fails too
            raise ValueError(f"anisotropy factor must satisfy |eta| < 1, got {self.eta}")
        if self.kind == "linear" and self.dim != 2:
            raise ValueError("linear-anisotropic kernel is defined on the circle")
        if self.kind == "linear" and not self.eta == 0:  # NaN fails too
            raise ValueError(f"linear-anisotropic kernel takes no eta, got {self.eta}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")

    @classmethod
    def henyey_greenstein(cls, eta: float, dim: int = 2) -> "PhaseFunction":
        return cls(kind="hg", eta=eta, dim=dim)

    @classmethod
    def linear_anisotropic(cls) -> "PhaseFunction":
        return cls(kind="linear")


def phase_eval(pf: PhaseFunction, t):
    """Evaluate g(t); t may be a scalar or array and is clamped to [-1, 1]."""
    t = np.asarray(t, dtype=float)
    if (np.abs(t) > 1.0 + 1e-12).any():
        raise ValueError("cosine argument outside [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    if pf.kind == "linear":
        return (1.0 + 0.5 * t) / (2.0 * np.pi)
    eta = pf.eta
    denom = 1.0 + eta**2 - 2.0 * eta * t
    if pf.dim == 2:
        return (1.0 - eta**2) / (2.0 * np.pi * denom)
    return (1.0 - eta**2) / (4.0 * np.pi * denom**1.5)


def scatter_matrix(pf: PhaseFunction, quad: AngularQuadrature) -> np.ndarray:
    """G[l, i] = w_i * g(omega_l . omega_i) over all direction pairs."""
    if pf.dim != quad.dim:
        raise ValueError(f"phase function is {pf.dim}D but quadrature is {quad.dim}D")
    cos_angles = quad.directions @ quad.directions.T
    return phase_eval(pf, cos_angles) * quad.weights[None, :]


def m_bound(G: np.ndarray) -> float:
    """Maximal row sum of the scatter matrix (the constant m for x-free g)."""
    return float(G.sum(axis=1).max())
