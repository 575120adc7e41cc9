"""Adaptive Gauss-Jacobi quadrature with endpoint power weights."""

import math

import numpy as np
import pytest

from fracbessel.errors import AccuracyError, DomainError
from fracbessel.gammafns import beta_fn
from fracbessel.quadrature import QuadratureResult, integrate_jacobi, integrate_log_jacobi


def test_plain_polynomial():
    r = integrate_jacobi(lambda u: u**2, 0.0, 1.0, tol=1e-12)
    assert r.value == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_both_endpoints_singular_arcsine_weight():
    # integral of u^(-1/2) (1-u)^(-1/2) du over (0,1) = pi
    r = integrate_jacobi(lambda u: np.ones_like(u), 0.0, 1.0,
                         exp_lo=-0.5, exp_hi=-0.5, tol=1e-13)
    assert r.value == pytest.approx(math.pi, rel=1e-13)
    assert r.error_estimate <= 1e-10


@pytest.mark.parametrize("a,b", [(0.3, 0.7), (1.5, 0.2), (0.05, 2.4)])
def test_beta_integral_with_general_weights(a, b):
    r = integrate_jacobi(lambda u: np.ones_like(u), 0.0, 1.0,
                         exp_lo=a - 1.0, exp_hi=b - 1.0, tol=1e-12)
    assert r.value == pytest.approx(beta_fn(a, b), rel=1e-12)


def test_oscillatory_smooth_factor_needs_refinement():
    r = integrate_jacobi(lambda u: np.cos(40.0 * u), 0.0, 1.0, tol=1e-12, order=8)
    assert r.value == pytest.approx(math.sin(40.0) / 40.0, rel=1e-9, abs=1e-12)
    assert r.evaluations > 16  # adaptive bisection had to split


def test_singular_weight_with_smooth_factor():
    # integral of u^(-0.4) cos(u) du on (0,1); reference from series
    # integral u^(-0.4) u^(2n) / (2n)! -> sum (-1)^n / ((2n)! (2n + 0.6))
    ref = sum((-1) ** n / (math.factorial(2 * n) * (2 * n + 0.6)) for n in range(12))
    r = integrate_jacobi(lambda u: np.cos(u), 0.0, 1.0, exp_lo=-0.4, tol=1e-12)
    assert r.value == pytest.approx(ref, rel=1e-12)


def test_general_interval_and_shifted_weights():
    # integral of (t-2)^0.5 dt on (2, 5) = (2/3) 3^1.5
    r = integrate_jacobi(lambda t: np.ones_like(t), 2.0, 5.0, exp_lo=0.5, tol=1e-12)
    assert r.value == pytest.approx((2.0 / 3.0) * 3.0**1.5, rel=1e-13)


def test_error_estimate_is_honest():
    cases = [
        (lambda u: np.exp(u), 0.0, 1.0, 0.0, 0.0, math.e - 1.0),
        (lambda u: np.ones_like(u), 0.0, 1.0, -0.5, -0.5, math.pi),
        (lambda u: np.cos(40.0 * u), 0.0, 1.0, 0.0, 0.0, math.sin(40.0) / 40.0),
    ]
    for g, lo, hi, el, eh, truth in cases:
        r = integrate_jacobi(g, lo, hi, exp_lo=el, exp_hi=eh, tol=1e-11)
        assert abs(r.value - truth) <= max(10.0 * r.error_estimate, 1e-12)


def test_nonintegrable_exponent_rejected():
    with pytest.raises(DomainError):
        integrate_jacobi(lambda u: np.ones_like(u), 0.0, 1.0, exp_lo=-1.0)
    with pytest.raises(DomainError):
        integrate_jacobi(lambda u: np.ones_like(u), 0.0, 1.0, exp_hi=-1.2)


def test_budget_exhaustion_raises_with_partial_value():
    seen = []

    def g(u):
        seen.append(u.size)
        return np.cos(300.0 * u)

    with pytest.raises(AccuracyError) as info:
        integrate_jacobi(g, 0.0, 1.0, tol=1e-14, order=2, max_intervals=3)
    err = info.value
    assert err.value is not None
    assert err.error_estimate is not None and err.error_estimate > 0
    # 5 pieces (the whole interval, then two bisections), each an order-2
    # and an order-4 rule
    assert err.evaluations == sum(seen) == 5 * (2 + 4)

    seen.clear()
    with pytest.raises(AccuracyError) as info:
        integrate_log_jacobi(g, 1.0, 0.0, tol=1e-14, order=3, max_pieces=4)
    # 4 dyadic pieces, each 3 nodes plus the tail probe in one call
    assert info.value.evaluations == sum(seen) == 4 * (3 + 1)
    assert len(seen) == 4


def test_result_is_immutable_record():
    r = integrate_jacobi(lambda u: u, 0.0, 1.0, tol=1e-12)
    assert isinstance(r, QuadratureResult)
    with pytest.raises(AttributeError):
        r.value = 0.0


# ------------------------------------------------- log-weight dyadic rule


@pytest.mark.parametrize("q", [0.0, -0.5, -0.94, 2.0])
def test_log_weight_moments_match_closed_form(q):
    # int_0^1 u^q log(u) du = -1/(q+1)^2
    r = integrate_log_jacobi(lambda u: np.ones_like(u), 1.0, q, tol=1e-13)
    exact = -1.0 / (q + 1.0) ** 2
    assert abs(r.value - exact) <= max(10.0 * r.error_estimate, 1e-13 * abs(exact))


def test_log_weight_with_smooth_factor():
    # int_0^(1/2) u^(-0.9) log(u) cos(u) du, series-computed reference
    r = integrate_log_jacobi(lambda u: np.cos(u), 0.5, -0.9, tol=1e-13)
    assert r.value == pytest.approx(-99.7062012155334995527, rel=1e-12)
    assert abs(r.value - -99.7062012155334995527) <= 10.0 * r.error_estimate


def test_log_weight_estimate_is_honest_near_slow_exponent():
    # q+1 = 0.06 makes the dyadic tail decay slowly; the bound must still cover
    r = integrate_log_jacobi(lambda u: 1.0 / (1.0 + u), 0.5, -0.94, tol=1e-10)
    # reference by the same closed-form moments against the geometric series
    exact = sum(
        (-1.0) ** k
        * (0.5 ** (k + 0.06) * (math.log(0.5) / (k + 0.06) - 1.0 / (k + 0.06) ** 2))
        for k in range(60)
    )
    assert abs(r.value - exact) <= max(10.0 * r.error_estimate, 1e-12)


def test_log_weight_domain_validation():
    with pytest.raises(DomainError):
        integrate_log_jacobi(lambda u: u, 0.5, -1.0)
    with pytest.raises(DomainError):
        integrate_log_jacobi(lambda u: u, 0.0, -0.5)
    with pytest.raises(DomainError):
        integrate_log_jacobi(lambda u: u, 2.0, -0.5)
    with pytest.raises(DomainError):
        integrate_log_jacobi(lambda u: u, 0.5, -0.5, tol=0.0)
