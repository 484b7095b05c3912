"""Exception types shared across the solver, and the finiteness check of sampled data."""

import numpy as np


class MeshError(Exception):
    """Invalid mesh topology or geometry (nonconforming, degenerate element, ...)."""


class StabilityError(Exception):
    """A local element system is singular or too ill-conditioned to solve."""

    def __init__(self, message, element=None, direction=None):
        super().__init__(message)
        self.element = element
        self.direction = direction


class SweepCycleError(Exception):
    """Dependency cycle found while ordering elements for a transport sweep."""

    def __init__(self, message, elements=()):
        super().__init__(message)
        self.elements = list(elements)


class NonConvergenceError(Exception):
    """Source iteration failed to reach the requested tolerance."""

    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = list(residual_history)


class AssumptionError(Exception):
    """A hypothesis on the data is violated: coercive cross sections, or finite samples."""


def require_finite(name, vals, pts):
    """AssumptionError naming the quantity if a sample vals (at pts) is not finite."""
    bad = ~np.isfinite(vals)
    if bad.any():
        x, y = pts[np.unravel_index(np.argmax(bad), bad.shape)]
        raise AssumptionError(
            f"{name} has {int(bad.sum())} non-finite samples, the first at ({x:.6g}, {y:.6g})"
        )
