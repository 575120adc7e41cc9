"""Scalar gamma-family kernels: log-gamma, sign tracking, ratios,
k-deformation, Pochhammer, beta."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbessel.errors import DomainError
from fracbessel.gammafns import (
    beta_fn,
    digamma,
    gamma_ratio,
    gamma_sign,
    is_pole,
    k_gamma,
    log_gamma,
    pochhammer,
)

from _oracles import lgamma_oracle, pochhammer_oracle


@pytest.mark.parametrize(
    "x", [0.05, 0.1, 0.5, 1.0, 1.5, 2.7, 5.0, 10.3, 31.9, 32.5, 100.1, 500.0]
)
def test_log_gamma_matches_stirling_oracle(x):
    got = log_gamma(x)
    assert got.sign == 1
    assert got.log_abs == pytest.approx(lgamma_oracle(x), rel=1e-13, abs=1e-13)
    if x <= 100.1:
        assert got.value == pytest.approx(math.exp(lgamma_oracle(x)), rel=1e-12)


def test_log_gamma_negative_argument_magnitude_and_sign():
    # Gamma(-0.5) = -2 sqrt(pi)
    got = log_gamma(-0.5)
    assert got.log_abs == pytest.approx(math.log(2 * math.sqrt(math.pi)), rel=1e-14)
    assert got.sign == -1
    assert gamma_sign(-0.5) == -1
    # Gamma(-1.5) = 4 sqrt(pi) / 3
    got = log_gamma(-1.5)
    assert got.log_abs == pytest.approx(math.log(4 * math.sqrt(math.pi) / 3), rel=1e-14)
    assert got.sign == 1
    assert gamma_sign(-1.5) == 1
    assert gamma_sign(2.3) == 1


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
def test_log_gamma_raises_at_poles(x):
    assert is_pole(x)
    with pytest.raises(DomainError):
        log_gamma(x)


def test_is_pole_discriminates_near_misses():
    assert not is_pole(-1.5)
    assert not is_pole(-2.0 + 1e-6)
    assert is_pole(-2.0 + 1e-12)
    assert not is_pole(0.5)
    assert not is_pole(3.0)


def test_gamma_ratio_plain_values():
    log_r, sign = gamma_ratio([5.0], [3.0])
    assert sign == 1
    assert math.exp(log_r) == pytest.approx(12.0, rel=1e-14)


def test_gamma_ratio_denominator_pole_gives_zero_sign():
    log_r, sign = gamma_ratio([1.0], [-2.0])
    assert sign == 0
    assert log_r == -math.inf


@pytest.mark.parametrize("delta", [1e-10, -1e-12])
def test_gamma_ratio_near_pole_denominator_is_small_not_zero(delta):
    # 1/Gamma(-2 + d) = 2 d (1 + O(d)): only an exact pole gives zero
    log_r, sign = gamma_ratio([1.0], [-2.0 + delta])
    assert sign * math.exp(log_r) == pytest.approx(2.0 * delta, rel=1e-8)


def test_gamma_ratio_numerator_pole_raises():
    with pytest.raises(DomainError):
        gamma_ratio([-3.0], [1.0])


def test_gamma_ratio_tracks_negative_signs():
    # Gamma(-0.5)/Gamma(0.5) = -2
    log_r, sign = gamma_ratio([-0.5], [0.5])
    assert sign == -1
    assert math.exp(log_r) == pytest.approx(2.0, rel=1e-14)


def test_k_gamma_frozen_value():
    assert k_gamma(2.5, 2.0) == pytest.approx(1.0779002747704639725, rel=1e-14)


def test_k_gamma_reduces_to_gamma_at_k_one():
    for z in (0.3, 1.0, 2.5, 7.1):
        assert k_gamma(z, 1.0) == pytest.approx(math.gamma(z), rel=1e-14)


def test_k_gamma_normalization_at_z_equals_k():
    for k in (0.5, 1.0, 1.7, 2.5):
        assert k_gamma(k, k) == pytest.approx(1.0, rel=1e-14)


@given(
    z=st.floats(min_value=0.1, max_value=5.0),
    k=st.floats(min_value=0.3, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_k_gamma_recurrence(z, k):
    assert k_gamma(z + k, k) == pytest.approx(z * k_gamma(z, k), rel=1e-12)


def test_pochhammer_basic_values():
    assert pochhammer(3.0, 4) == pytest.approx(360.0)
    assert pochhammer(2.7, 0) == 1.0
    assert pochhammer(1.0, 5) == pytest.approx(120.0)


def test_pochhammer_hits_exact_zero_inside_product():
    assert pochhammer(-2.0, 4) == 0.0
    assert pochhammer(0.0, 3) == 0.0


def test_pochhammer_negative_start_without_zero_factor():
    assert pochhammer(-2.5, 3) == pytest.approx((-2.5) * (-1.5) * (-0.5), rel=1e-13)
    assert pochhammer(-2.0, 2) == pytest.approx(2.0, rel=1e-13)


@given(
    a=st.floats(min_value=0.05, max_value=20.0),
    n=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_pochhammer_matches_explicit_product(a, n):
    assert pochhammer(a, n) == pytest.approx(pochhammer_oracle(a, n), rel=1e-11)


def test_pochhammer_large_order_matches_gamma_ratio():
    # a long product agrees with Gamma(z+n)/Gamma(z)
    assert pochhammer(1.5, 129) == pytest.approx(
        math.exp(lgamma_oracle(130.5) - lgamma_oracle(1.5)), rel=1e-11
    )


def test_pochhammer_zero_factor_after_the_product_overflows():
    # the factors before the zero one already overflow the float range
    assert pochhammer(-400.0, 1000) == 0.0
    assert pochhammer(-200.0, 300) == 0.0
    assert pochhammer(-200.0, 201) == 0.0


@pytest.mark.parametrize(
    "z, n, expected",
    [
        (1e300, 200, math.inf),  # z + j rounds to z, yet the product overflows
        (0.5, 10**12, math.inf),  # stops within a few hundred factors
        (-1000.5, 200, math.inf),  # 200 negative factors
        (-1000.5, 201, -math.inf),  # 201 negative factors
        (-300.5, 400, -math.inf),  # overflows with negative factors to come, 301 in all
        (-200.0, 200, math.inf),  # no zero factor: (-200)(-199)...(-1) = 200!
    ],
)
def test_pochhammer_out_of_range_is_signed_infinity(z, n, expected):
    assert pochhammer(z, n) == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda: pochhammer(math.nan, 3),
        lambda: pochhammer(math.inf, 3),
        lambda: pochhammer(2.0, math.nan),
        lambda: beta_fn(math.inf, 1.0),
        lambda: beta_fn(1.0, math.inf),
    ],
    ids=["pochhammer-z-nan", "pochhammer-z-inf", "pochhammer-n-nan", "beta-x-inf", "beta-y-inf"],
)
def test_pochhammer_and_beta_reject_nonfinite_arguments(call):
    with pytest.raises(DomainError, match="must be finite"):
        call()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: k_gamma(2.0, 0.0), "k must be positive"),
        (lambda: k_gamma(2.0, -1.5), "k must be positive"),
        (lambda: pochhammer(2.0, -1), "nonnegative integer"),
        (lambda: pochhammer(2.0, 2.5), "nonnegative integer"),
        (lambda: beta_fn(0.0, 1.0), "must be positive"),
        (lambda: beta_fn(1.0, -0.5), "must be positive"),
    ],
    ids=["k-gamma-k-0", "k-gamma-k-negative", "pochhammer-n-negative",
         "pochhammer-n-fraction", "beta-x-0", "beta-y-negative"],
)
def test_gamma_primitives_refuse_arguments_outside_their_domain(call, match):
    with pytest.raises(DomainError, match=match):
        call()


def test_beta_fn_values_and_symmetry():
    assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)
    assert beta_fn(1.7, 0.4) == pytest.approx(beta_fn(0.4, 1.7), rel=1e-14)


# frozen 50-digit arbitrary-precision references; the near-pole entries are
# the ones plain reflection formulas miss by ~eps/delta**2 in absolute terms
_DIGAMMA_REFERENCES = [
    (1.0, -0.577215664901532860607),
    (0.5, -1.96351002602142347944),
    (-2.3, 3.31732315756182273911),
    (-0.99999, -99999.5771896706836904),
    (-1.00001, 100000.422757230617188),
    (-4.9999999, -9999998.26583888853153),
    (1e-8, -100000000.57721564636),
]


@pytest.mark.parametrize("x, expected", _DIGAMMA_REFERENCES)
def test_digamma_accurate_including_near_poles(x, expected):
    assert digamma(x) == pytest.approx(expected, rel=5e-15)


def _psi_ulps(got, want):
    """|got - want| in units of eps * max(|want|, 1)."""
    return abs(got - want) / (sys.float_info.epsilon * max(abs(want), 1.0))


@pytest.mark.parametrize("x, expected", _DIGAMMA_REFERENCES)
def test_digamma_within_a_few_ulps_near_poles(x, expected):
    assert _psi_ulps(digamma(x), expected) <= 4.0


def test_digamma_within_a_few_ulps_of_scipy_on_the_positive_axis():
    scipy_digamma = pytest.importorskip("scipy.special").digamma
    # [0.5, 1e6] log-spaced, plus the positive root near 1.4616 where psi
    # vanishes and only the absolute (ulp of 1) form of the bound holds
    xs = np.concatenate((np.geomspace(0.5, 1e6, 2001), np.linspace(1.3, 1.6, 601)))
    worst = max(_psi_ulps(digamma(x), float(scipy_digamma(x))) for x in xs.tolist())
    assert worst <= 4.0


def test_digamma_recurrence_and_reflection():
    for x in (0.3, 1.9, 4.2, -0.7, -3.4):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12)
    for x in (0.2, 0.4, 1.3, 2.6):
        assert digamma(1.0 - x) - digamma(x) == pytest.approx(
            math.pi / math.tan(math.pi * x), rel=1e-11, abs=1e-11
        )


# -24999999.75 is off the poles but would take 2.5e7 shifts up to 0.5
@pytest.mark.parametrize("x", [0.0, -1.0, -6.0, math.nan, math.inf, -24999999.75])
def test_digamma_rejects_poles_and_nonfinite(x):
    with pytest.raises(DomainError):
        digamma(x)
