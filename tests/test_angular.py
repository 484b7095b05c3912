import math

import numpy as np
import pytest
from scipy import integrate

from rte2d import (
    AngularQuadrature,
    PhaseFunction,
    gauss_legendre_sphere,
    m_bound,
    phase_eval,
    scatter_matrix,
    trapezoid_circle,
)


def test_trapezoid_weights_and_angles():
    q = trapezoid_circle(20)
    assert q.n_directions == 20
    assert q.weights.sum() == pytest.approx(2 * math.pi, rel=1e-14, abs=0.0)
    np.testing.assert_allclose(q.angles, np.arange(20) * (math.pi / 10), atol=1e-15)
    np.testing.assert_allclose(
        np.hypot(q.directions[:, 0], q.directions[:, 1]), 1.0, atol=1e-14
    )


@pytest.mark.parametrize("k", [1, 2, 3, 7, 19])
def test_trapezoid_kills_low_harmonics(k):
    # periodic trapezoid sums integrate cos(k t), sin(k t) to zero for k < n
    q = trapezoid_circle(20)
    if k < 20:
        assert abs(q.weights @ np.cos(k * q.angles)) < 1e-12
        assert abs(q.weights @ np.sin(k * q.angles)) < 1e-12


def test_trapezoid_cos_squared():
    q = trapezoid_circle(20)
    assert q.weights @ np.cos(q.angles) ** 2 == pytest.approx(math.pi, rel=1e-14, abs=0.0)


def test_trapezoid_rejects_tiny_counts():
    with pytest.raises(ValueError):
        trapezoid_circle(1)


def test_quadrature_dim_is_the_directions_width():
    assert trapezoid_circle(4).dim == 2
    assert gauss_legendre_sphere(2).dim == 3
    q = trapezoid_circle(4)
    with pytest.raises(TypeError):
        AngularQuadrature(q.directions, q.weights, dim=3, angles=q.angles)
    with pytest.raises(AttributeError):
        q.dim = 3


def test_phase_function_is_evaluated_by_phase_eval_only():
    assert not callable(PhaseFunction.henyey_greenstein(0.5))


@pytest.mark.parametrize("bad", ["zero weight", "nan weight", "long direction", "nan direction"])
def test_quadrature_rejects_bad_weights_and_directions(bad):
    q = trapezoid_circle(4)
    w, d = q.weights.copy(), q.directions.copy()
    if bad == "zero weight":
        w[0], w[1] = 0.0, w[0] + w[1]
    elif bad == "nan weight":
        w[0] = np.nan
    elif bad == "long direction":
        d[0] *= 1.0 + 1e-9
    else:
        d[0] = np.nan
    match = "weights must be positive" if "weight" in bad else "unit vectors"
    with pytest.raises(ValueError, match=match):
        AngularQuadrature(d, w, angles=q.angles)


def test_sphere_rule_normalization_and_moments():
    q = gauss_legendre_sphere(4)
    assert q.n_directions == 32
    assert q.weights.sum() == pytest.approx(4 * math.pi, rel=1e-12)
    for c in range(3):
        assert q.weights @ q.directions[:, c] == pytest.approx(0.0, abs=1e-12)
        assert q.weights @ q.directions[:, c] ** 2 == pytest.approx(
            4 * math.pi / 3, rel=1e-12
        )
    assert q.weights @ (q.directions[:, 0] * q.directions[:, 1]) == pytest.approx(
        0.0, abs=1e-12
    )


def test_hg_point_values():
    hg = PhaseFunction.henyey_greenstein(0.5)
    # forward peak: (1 - eta^2) / (2 pi (1 + eta^2 - 2 eta)) = 3/(2 pi)
    assert phase_eval(hg, 1.0) == pytest.approx(3.0 / (2 * math.pi), rel=1e-14, abs=0.0)
    iso = PhaseFunction.henyey_greenstein(0.0)
    assert phase_eval(iso, 0.3) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14, abs=0.0)
    hg3 = PhaseFunction.henyey_greenstein(0.5, dim=3)
    assert phase_eval(hg3, 1.0) == pytest.approx(3.0 / (2 * math.pi), rel=1e-14, abs=0.0)


def test_linear_phase_values():
    lin = PhaseFunction.linear_anisotropic()
    assert phase_eval(lin, 1.0) == pytest.approx(1.5 / (2 * math.pi), rel=1e-14, abs=0.0)
    assert phase_eval(lin, -1.0) == pytest.approx(0.5 / (2 * math.pi), rel=1e-14, abs=0.0)


def test_phase_eval_clamps_roundoff_but_rejects_garbage():
    hg = PhaseFunction.henyey_greenstein(0.3)
    assert phase_eval(hg, 1.0 + 5e-13) == pytest.approx(phase_eval(hg, 1.0), rel=1e-9)
    with pytest.raises(ValueError):
        phase_eval(hg, 1.5)


@pytest.mark.parametrize("eta", [0.2, 0.5, 0.9])
def test_hg_2d_normalization_oracle(eta):
    # independent check of the 1/(2 pi) constant with adaptive quadrature
    hg = PhaseFunction.henyey_greenstein(eta)
    val, err = integrate.quad(lambda a: phase_eval(hg, math.cos(a)), 0.0, 2 * math.pi, limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_hg_3d_normalization_oracle():
    hg = PhaseFunction.henyey_greenstein(0.7, dim=3)
    val, err = integrate.quad(
        lambda t: 2 * math.pi * phase_eval(hg, math.cos(t)) * math.sin(t), 0.0, math.pi, limit=200
    )
    assert val == pytest.approx(1.0, abs=1e-10)


def test_linear_phase_normalization_oracle():
    lin = PhaseFunction.linear_anisotropic()
    val, _ = integrate.quad(lambda a: phase_eval(lin, math.cos(a)), 0.0, 2 * math.pi)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_linear_phase_is_2d_only():
    with pytest.raises(ValueError):
        PhaseFunction(kind="linear", dim=3)


def test_linear_phase_takes_no_eta():
    assert PhaseFunction("linear", 0.0) == PhaseFunction.linear_anisotropic()
    for eta in (0.7, -0.2, float("nan")):
        with pytest.raises(ValueError, match="eta"):
            PhaseFunction("linear", eta)


def test_hg_requires_subunit_eta():
    with pytest.raises(ValueError):
        PhaseFunction.henyey_greenstein(1.0)
    with pytest.raises(ValueError, match="eta"):
        PhaseFunction.henyey_greenstein(float("nan"))


def test_scatter_matrix_row_sums():
    cases = [
        (0.0, 20, 1e-14),
        (0.2, 20, 1e-12),
        (0.5, 40, 1e-6),
        (0.9, 60, 0.05),
    ]
    for eta, n, tol in cases:
        G = scatter_matrix(PhaseFunction.henyey_greenstein(eta), trapezoid_circle(n))
        assert np.abs(G.sum(axis=1) - 1.0).max() <= tol
        assert abs(m_bound(G) - 1.0) <= tol


def test_scatter_matrix_nonnegative_and_circulant():
    q = trapezoid_circle(30)
    G = scatter_matrix(PhaseFunction.henyey_greenstein(0.6), q)
    assert (G >= 0).all()
    # equal weights and g depending on the angle difference only
    np.testing.assert_allclose(G[1, 1:], G[0, :-1], rtol=1e-12)


def test_c0_prime_stays_positive_for_test_coefficients():
    # sigma_t=10, sigma_s=0.1: c0' = 10 - 0.1 m must stay near 9.9
    for eta, n in [(0.2, 20), (0.5, 40), (0.9, 60)]:
        G = scatter_matrix(PhaseFunction.henyey_greenstein(eta), trapezoid_circle(n))
        assert 10.0 - 0.1 * m_bound(G) > 9.8
    G = scatter_matrix(PhaseFunction.linear_anisotropic(), trapezoid_circle(20))
    assert 10.0 - 0.1 * m_bound(G) > 9.8


def test_scatter_matrix_dim_mismatch():
    with pytest.raises(ValueError):
        scatter_matrix(PhaseFunction.henyey_greenstein(0.5, dim=3), trapezoid_circle(8))
