import math

import numpy as np
import pytest

from rte2d.quadrature import edge_rule, triangle_rule


def exact_bary(a, b, c):
    # closed form for the integral of lam0^a lam1^b lam2^c over a unit-area triangle
    return 2.0 * math.factorial(a) * math.factorial(b) * math.factorial(c) / math.factorial(a + b + c + 2)


@pytest.mark.parametrize("degree", range(1, 7))
def test_triangle_rule_exact_on_barycentric_monomials(degree):
    rule = triangle_rule(degree)
    for total in range(degree + 1):
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                mono = rule.points[:, 0] ** a * rule.points[:, 1] ** b * rule.points[:, 2] ** c
                got = float(rule.weights @ mono)
                assert got == pytest.approx(exact_bary(a, b, c), abs=5e-15)


def test_triangle_rule_basic_shape():
    rule = triangle_rule(4)
    assert rule.points.shape[1] == 3
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert (rule.weights > 0).all()
    assert rule.points.min() >= 0.0
    np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


def test_triangle_rule_rejects_untabulated_degree():
    assert [triangle_rule(d).degree for d in range(1, 7)] == [4, 4, 4, 4, 6, 6]
    with pytest.raises(ValueError, match="tabulated for degrees 4 and 6, not 7"):
        triangle_rule(7)


@pytest.mark.parametrize("npts", range(1, 7))
def test_edge_rule_gauss_exactness(npts):
    t, w = edge_rule(npts)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    for k in range(2 * npts):
        assert float(w @ t**k) == pytest.approx(1.0 / (k + 1), abs=1e-14)


def test_edge_rule_symmetric_about_midpoint():
    t, w = edge_rule(4)
    np.testing.assert_allclose(np.sort(t), np.sort(1.0 - t), atol=1e-15)
    np.testing.assert_allclose(w, w[::-1], atol=1e-15)
