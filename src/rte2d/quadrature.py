"""Reference quadrature rules on the triangle and the unit interval.

Triangle rules are stored in barycentric coordinates with weights that sum
to one, so integrating f over an element K is `area(K) * sum(w_q * f(x_q))`.
Edge rules live on [0, 1] with weights summing to one.
"""

from dataclasses import dataclass

import numpy as np

# Symmetric 6-point rule, exact through total degree 4.
_DEG4_ORBITS = [
    (0.223381589678011, 0.445948490915965),
    (0.109951743655322, 0.091576213509771),
]

# Symmetric 12-point rule, exact through total degree 6.
_DEG6_3ORBITS = [
    (0.116786275726379, 0.249286745170910),
    (0.050844906370207, 0.063089014491502),
]
_DEG6_6ORBIT = (0.082851075618374, 0.310352451033785, 0.636502499121399)


@dataclass(frozen=True, eq=False)
class TriangleRule:
    """Quadrature points in barycentric coordinates; weights sum to 1."""

    points: np.ndarray  # (nq, 3)
    weights: np.ndarray  # (nq,)
    degree: int


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def triangle_rule(degree: int) -> TriangleRule:
    """The tabulated positive-weight rule exact up to `degree`: the 6-point
    degree-4 rule for degree <= 4, the 12-point degree-6 rule for 5 and 6.
    Raises ValueError for a degree above 6."""
    if degree > 6:
        raise ValueError(f"triangle rules are tabulated for degrees 4 and 6, not {degree}")
    exact = 4 if degree <= 4 else 6
    pts, wts = [], []
    for w, a in _DEG4_ORBITS if exact == 4 else _DEG6_3ORBITS:
        pts += _orbit3(a)
        wts += [w] * 3
    if exact == 6:
        w, a, b = _DEG6_6ORBIT
        pts += _orbit6(a, b)
        wts += [w] * 6
    return TriangleRule(np.array(pts), np.array(wts), exact)


def edge_rule(npts: int):
    """Gauss rule on [0, 1]: (points, weights) with weights summing to 1."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w
