"""Exception types shared across the solver, and the checked sampler of the data callables."""

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


def sample(name, fn, pts, *args):
    """fn(x, y, *args) at pts (..., 2) as floats of shape pts.shape[:-1];
    AssumptionError naming the quantity if a sample is not finite."""
    vals = np.asarray(fn(pts[..., 0], pts[..., 1], *args), dtype=float)
    vals = np.broadcast_to(vals, pts.shape[:-1])
    bad = ~np.isfinite(vals)
    if bad.any():
        x, y = pts[np.unravel_index(np.argmax(bad), bad.shape)]
        raise AssumptionError(
            f"{name} has {int(bad.sum())} non-finite samples, the first at ({x:.6g}, {y:.6g})"
        )
    return vals
