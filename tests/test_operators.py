"""Fractional integral operators: quadrature vs exact monomial images,
family reductions, and parameter validation."""

import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracbessel import (
    HypergeomSpec,
    KBesselParams,
    TheoremParams,
    WrightSpec,
    eval_k_bessel,
    eval_pfq,
    eval_wright,
    evaluate_closed_form,
    theorem21_spec,
)
from fracbessel import operators
from fracbessel.errors import AccuracyError, DomainError
from fracbessel.gammafns import gamma_ratio
from fracbessel.integrands import Integrand, kbessel_integrand, monomial
from fracbessel.operators import (
    Family,
    SaigoParams,
    ek_left,
    ek_left_monomial,
    ek_right,
    ek_right_monomial,
    rl_left,
    rl_left_monomial,
    rl_right,
    rl_right_monomial,
    saigo_left,
    saigo_left_monomial,
    saigo_right,
    saigo_right_monomial,
)

from _oracles import gamma_ratio_oracle


def _ratio(numerators, denominators):
    log_r, sign = gamma_ratio(numerators, denominators)
    return sign * math.exp(log_r)


# ------------------------------------------------------- parameter records


def test_params_riemann_liouville_forces_beta():
    p = SaigoParams(alpha=0.7, family=Family.RIEMANN_LIOUVILLE)
    assert p.beta == pytest.approx(-0.7)
    with pytest.raises(DomainError):
        SaigoParams(alpha=0.7, beta=0.3, family=Family.RIEMANN_LIOUVILLE)


def test_params_erdelyi_kober_forces_beta_zero():
    p = SaigoParams(alpha=0.7, eta=1.1, family=Family.ERDELYI_KOBER)
    assert p.beta == 0.0
    with pytest.raises(DomainError):
        SaigoParams(alpha=0.7, beta=0.5, family=Family.ERDELYI_KOBER)


def test_params_general_family_requires_beta():
    with pytest.raises(DomainError):
        SaigoParams(alpha=0.7, family=Family.SAIGO)


def test_params_alpha_must_be_positive():
    with pytest.raises(DomainError):
        SaigoParams(alpha=0.0, beta=0.1)
    with pytest.raises(DomainError):
        SaigoParams(alpha=-0.3, beta=0.1)


_P_FINITE = SaigoParams(alpha=0.8, beta=0.2, eta=1.0)
_T_FINITE = dict(alpha=0.8, beta=0.2, eta=1.0, lam=1.4, v=0.5, c=1.0, k=1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SaigoParams(alpha=0.8, beta=math.nan, eta=1.0),
        lambda: SaigoParams(alpha=0.8, beta=0.2, eta=math.inf),
        lambda: SaigoParams(alpha=math.inf, family=Family.RIEMANN_LIOUVILLE),
        lambda: KBesselParams(v=0.5, c=math.nan, k=1.0),
        lambda: KBesselParams(v=0.5, c=1.0, k=math.inf),
        lambda: TheoremParams(**{**_T_FINITE, "c": math.nan}),
        lambda: TheoremParams(**{**_T_FINITE, "lam": -math.inf}),
        lambda: HypergeomSpec(upper=(math.nan,), lower=(2.0,)),
        lambda: WrightSpec(upper=((1.0, math.inf),), lower=()),
        lambda: WrightSpec(upper=(), lower=((math.nan, 1.0),)),
        lambda: saigo_left(monomial(1.4), _P_FINITE, math.inf),
        lambda: saigo_right(monomial(0.3), _P_FINITE, math.nan),
        lambda: evaluate_closed_form(theorem21_spec(TheoremParams(**_T_FINITE)), math.inf),
        lambda: eval_pfq(HypergeomSpec(upper=(1.0,), lower=(2.0,)), math.nan),
        lambda: eval_pfq(HypergeomSpec(upper=(), lower=(2.0,)), -math.inf),
        lambda: eval_wright(WrightSpec(upper=((2.0, 1.0),), lower=((3.0, 1.0),)), math.inf),
        lambda: eval_wright(WrightSpec(upper=(), lower=((3.0, 1.0),)), math.nan),
        lambda: eval_k_bessel(KBesselParams(v=0.5, c=1.0, k=1.0), math.nan),
        lambda: eval_k_bessel(KBesselParams(v=0.5, c=1.0, k=1.0), math.inf),
        lambda: ek_left_monomial(math.nan, 0.5, 1.0),
        lambda: ek_right_monomial(math.inf, 0.5, 0.2),
    ],
    ids=[
        "saigo-beta-nan", "saigo-eta-inf", "saigo-alpha-inf", "kbessel-c-nan",
        "kbessel-k-inf", "theorem-c-nan", "theorem-lam-inf", "pfq-upper-nan",
        "wright-step-inf", "wright-coeff-nan",
        "saigo-left-x-inf", "saigo-right-x-nan", "closed-form-x-inf",
        "pfq-z-nan", "pfq-z-minus-inf", "wright-z-inf", "wright-z-nan",
        "kbessel-z-nan", "kbessel-z-inf", "ek-left-monomial-alpha-nan",
        "ek-right-monomial-alpha-inf",
    ],
)
def test_non_finite_input_raises_domain_error(build):
    with pytest.raises(DomainError):
        build()


def test_ek_monomial_images_check_the_operator_orders():
    # the images refuse exactly the orders their operators refuse
    for image, op, lam in ((ek_left_monomial, ek_left, 1.5), (ek_right_monomial, ek_right, 0.2)):
        with pytest.raises(DomainError, match="alpha must be positive"):
            op(monomial(lam), -1.0, 0.5, 1.0)
        with pytest.raises(DomainError, match="alpha must be positive"):
            image(-1.0, 0.5, lam)


_WRIGHT_1 = WrightSpec(upper=((1.0, 1.0),), lower=((2.0, 1.0),))
_PFQ_1 = HypergeomSpec(upper=(1.0,), lower=(2.0,))
_KB = KBesselParams(v=0.5, c=1.0, k=1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_wright(_WRIGHT_1, 0.5, math.nan),
        lambda: eval_pfq(_PFQ_1, 0.5, math.nan),
        lambda: eval_pfq(_PFQ_1, 0.5, 0.0),
        lambda: eval_k_bessel(_KB, 1.0, -1.0),
        lambda: eval_k_bessel(_KB, 1.0, math.inf),
        lambda: evaluate_closed_form(theorem21_spec(TheoremParams(**_T_FINITE)), 1.0, math.nan),
        lambda: kbessel_integrand(_KB, 1.0, series_tol=math.nan),
        lambda: kbessel_integrand(_KB, 1.0, reciprocal=True, series_tol=0.0),
    ],
    ids=[
        "wright-nan", "pfq-nan", "pfq-zero", "kbessel-negative", "kbessel-inf",
        "closed-form-nan", "integrand-nan", "integrand-reciprocal-zero",
    ],
)
def test_series_tolerance_must_be_positive_and_finite(call):
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        call()


# ------------------------------------------------------- frozen references


def test_left_transform_monomial_frozen_value():
    p = SaigoParams(alpha=0.8, beta=0.2, eta=1.0)
    x = 1.3
    coeff, exponent = saigo_left_monomial(p, 1.4)
    closed = coeff * x**exponent
    assert closed == pytest.approx(0.46290967438941740851, rel=1e-13)
    r = saigo_left(monomial(1.4), p, x, tol=1e-11)
    assert r.value == pytest.approx(closed, rel=1e-12)


def test_right_transform_monomial_frozen_value():
    p = SaigoParams(alpha=0.8, beta=0.2, eta=1.0)
    x = 1.3
    coeff, exponent = saigo_right_monomial(p, 0.3)
    closed = coeff * x**exponent
    assert closed == pytest.approx(0.38241567945758278676, rel=1e-13)
    r = saigo_right(monomial(0.3), p, x, tol=1e-11)
    assert r.value == pytest.approx(closed, rel=1e-12)


def test_left_transform_of_constant_is_identityish_special_case():
    # alpha=1, beta=0, eta=0 turns the left transform into the averaging map
    # that sends the constant 1 to 1 at every x
    p = SaigoParams(alpha=1.0, beta=0.0, eta=0.0)
    for x in (0.5, 2.0):
        r = saigo_left(monomial(1.0), p, x, tol=1e-12)
        assert r.value == pytest.approx(1.0, rel=1e-12)


def test_right_transform_of_inverse_power_special_case():
    # alpha=1, beta=0, eta=0: the right transform of t^(-3/2) is x^(-3/2)/1.5
    p = SaigoParams(alpha=1.0, beta=0.0, eta=0.0)
    x = 2.0
    r = saigo_right(monomial(-0.5), p, x, tol=1e-12)
    assert r.value == pytest.approx(x ** (-1.5) / 1.5, rel=1e-11)


# ------------------------------------------------------- family reductions


def test_riemann_liouville_left_power_rule():
    # with order alpha, t^(lam-1) maps to G(lam)/G(lam+alpha) x^(lam+alpha-1)
    alpha, lam, x = 0.6, 1.7, 1.9
    coeff, exponent = rl_left_monomial(alpha, lam)
    assert coeff == pytest.approx(_ratio([lam], [lam + alpha]), rel=1e-13)
    assert exponent == pytest.approx(lam + alpha - 1.0)
    r = rl_left(monomial(lam), alpha, x, tol=1e-11)
    assert r.value == pytest.approx(coeff * x**exponent, rel=1e-11)


def test_riemann_liouville_integer_order_is_iterated_integral():
    # alpha=2 applied to 1: double integral of 1 is x^2/2
    r = rl_left(monomial(1.0), 2.0, 2.0, tol=1e-12)
    assert r.value == pytest.approx(2.0, rel=1e-12)


def test_riemann_liouville_right_power_rule():
    alpha, lam, x = 0.9, -0.8, 1.4
    coeff, exponent = rl_right_monomial(alpha, lam)
    assert coeff == pytest.approx(_ratio([1.0 - lam - alpha], [1.0 - lam]), rel=1e-12)
    r = rl_right(monomial(lam), alpha, x, tol=1e-11)
    assert r.value == pytest.approx(coeff * x**exponent, rel=1e-11)


def test_erdelyi_kober_left_power_rule():
    alpha, eta, lam, x = 0.8, 1.2, 1.5, 0.7
    coeff, exponent = ek_left_monomial(alpha, eta, lam)
    assert coeff == pytest.approx(_ratio([lam + eta], [lam + alpha + eta]), rel=1e-13)
    assert exponent == pytest.approx(lam - 1.0)
    r = ek_left(monomial(lam), alpha, eta, x, tol=1e-11)
    assert r.value == pytest.approx(coeff * x**exponent, rel=1e-11)


def test_erdelyi_kober_right_power_rule():
    alpha, eta, lam, x = 0.5, 0.9, 0.4, 1.6
    coeff, exponent = ek_right_monomial(alpha, eta, lam)
    assert coeff == pytest.approx(
        _ratio([eta - lam + 1.0], [alpha + eta - lam + 1.0]), rel=1e-13
    )
    r = ek_right(monomial(lam), alpha, eta, x, tol=1e-11)
    assert r.value == pytest.approx(coeff * x**exponent, rel=1e-11)


def test_general_family_collapses_to_reductions():
    # beta=-alpha reproduces Riemann-Liouville; beta=0 reproduces
    # Erdelyi-Kober (up to its power normalization), checked numerically
    alpha, eta, lam, x = 0.7, 1.3, 1.2, 1.1
    rl_params = SaigoParams(alpha=alpha, family=Family.RIEMANN_LIOUVILLE)
    direct = rl_left(monomial(lam), alpha, x, tol=1e-11)
    via_general = saigo_left(monomial(lam), rl_params, x, tol=1e-11)
    assert via_general.value == pytest.approx(direct.value, rel=1e-12)

    ek_params = SaigoParams(alpha=alpha, eta=eta, family=Family.ERDELYI_KOBER)
    direct = ek_left(monomial(lam), alpha, eta, x, tol=1e-11)
    via_general = saigo_left(monomial(lam), ek_params, x, tol=1e-11)
    assert via_general.value == pytest.approx(direct.value, rel=1e-12)


# ------------------------------------------------------- property sweeps


@given(
    alpha=st.floats(min_value=0.3, max_value=1.8),
    beta=st.floats(min_value=-1.0, max_value=1.0),
    eta=st.floats(min_value=0.0, max_value=2.0),
    shift=st.floats(min_value=0.06, max_value=2.0),
    x=st.sampled_from([0.5, 1.0, 2.0]),
)
# doubly degenerate pin: beta == eta puts the kernel on its logarithmic
# branch with digamma coefficients a hair from their poles, while lam - beta
# shrinks the image by 1e5 through a near-pole gamma; exposes any absolute
# error in the kernel's series coefficients
@example(alpha=1.0, beta=0.99999, eta=0.99999, shift=1.0, x=0.5)
# eta - beta = -1e-5 puts the kernel connection coefficients one rounding
# away from the gamma poles at 0 and c-a exactly on the pole at -1; exposes
# composite-parameter rounding amplified by pole derivatives
@example(alpha=0.99999, beta=1.0, eta=0.99999, shift=1.0, x=0.5)
# beta 1e-9 from the pole of 1/Gamma(-beta): the kernel's analytic branch
# has a coefficient of order beta, small but not zero
@example(alpha=1.0, beta=1e-9, eta=0.00390625, shift=1.0, x=0.5)
# b = -eta a subnormal hair from 0: the kernel is 1 to rounding, while the
# connection coefficients lose eta in b-1 = -1 and come out exactly zero
@example(alpha=1.0, beta=1.0, eta=1.1125369292536007e-308, shift=1.0, x=0.5)
@settings(max_examples=60, deadline=None)
def test_left_quadrature_matches_image_under_random_valid_draws(
    alpha, beta, eta, shift, x
):
    lam = max(0.0, beta - eta) + shift
    p = SaigoParams(alpha=alpha, beta=beta, eta=eta)
    coeff, exponent = saigo_left_monomial(p, lam)
    # estimate-aware rule: degenerate draws (e.g. lam == beta exactly) have an
    # exactly-zero image reached by cancellation, where the requested relative
    # tolerance is unattainable and only the honest error bound is fair
    try:
        r = saigo_left(monomial(lam), p, x, tol=1e-10)
        value, est = r.value, r.error_estimate
    except AccuracyError as exc:
        value, est = exc.value, exc.error_estimate
    expected = coeff * x**exponent
    assert abs(value - expected) <= max(1e-7 * abs(expected), 10.0 * est, 1e-12)


@given(
    alpha=st.floats(min_value=0.3, max_value=1.8),
    beta=st.floats(min_value=-1.0, max_value=1.0),
    eta=st.floats(min_value=0.0, max_value=2.0),
    shift=st.floats(min_value=0.06, max_value=2.0),
    x=st.sampled_from([0.5, 1.0, 2.0]),
)
# mirrors of the left-sided degenerate pins: lam lands exactly on beta and
# 1 - lam sits 1e-5 from a gamma pole; second pin stresses the near-integer
# connection coefficients
@example(alpha=1.0, beta=0.99999, eta=0.99999, shift=1.0, x=0.5)
@example(alpha=0.99999, beta=1.0, eta=0.99999, shift=1.0, x=0.5)
@example(alpha=1.0, beta=1e-9, eta=0.00390625, shift=1.0, x=0.5)
@example(alpha=1.0, beta=1.0, eta=1.1125369292536007e-308, shift=1.0, x=0.5)
@settings(max_examples=60, deadline=None)
def test_right_quadrature_matches_image_under_random_valid_draws(
    alpha, beta, eta, shift, x
):
    lam = 1.0 + min(beta, eta) - shift
    p = SaigoParams(alpha=alpha, beta=beta, eta=eta)
    coeff, exponent = saigo_right_monomial(p, lam)
    try:
        r = saigo_right(monomial(lam), p, x, tol=1e-10)
        value, est = r.value, r.error_estimate
    except AccuracyError as exc:
        value, est = exc.value, exc.error_estimate
    expected = coeff * x**exponent
    assert abs(value - expected) <= max(1e-7 * abs(expected), 10.0 * est, 1e-12)


def _off_integer(v):
    return abs(v - round(v))


def _beta_near(alpha):
    """beta within 1e-12 to 1e-6 of -alpha, 0 or +-1, on either side."""
    return st.tuples(
        st.sampled_from([-alpha, 0.0, 1.0, -1.0]),
        st.floats(min_value=-12.0, max_value=-6.0),  # log10 of the hair
        st.sampled_from([1.0, -1.0]),
    ).map(lambda t: t[0] + t[2] * 10.0 ** t[1])


def _decimal_image(side, alpha, beta, eta, lam, x):
    """The Saigo image of t^(lam-1) at x, in 40 digits from the exact float
    inputs: a double image misses it by up to 20 eps (an lgamma ulp, a
    rounded exponent times log x), which is what a transform's estimate
    may allow."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a, b, e, lam = map(decimal.Decimal, (alpha, beta, eta, lam))
        if side == "left":
            ratio = gamma_ratio_oracle([lam, lam + e - b], [lam - b, lam + a + e])
        else:
            ratio = gamma_ratio_oracle([e - lam + 1, b - lam + 1], [1 - lam, a + b + e - lam + 1])
        return float(ratio * decimal.Decimal(x) ** (lam - b - 1))


@pytest.mark.parametrize("side", ["left", "right"])
@given(
    data=st.data(),
    alpha=st.floats(min_value=0.3, max_value=1.8),
    eta=st.floats(min_value=0.0, max_value=2.0),
    shift=st.floats(min_value=0.06, max_value=2.0),
    log_x=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_saigo_monomial_error_within_estimate(side, data, alpha, eta, shift, log_x):
    """Saigo transforms of t^(lam-1) at x log-uniform on [1e-3, 1e3], beta
    free or a hair off a value where a kernel branch or a gamma pair
    degenerates: the error against the exact image is within the estimate,
    which is within tol wherever the transform returns.

    A refusal must keep that promise too: its value is within its estimate.
    At these ranges' edges tol, absolute where |value| < 1, can sit below
    what a prefactor near 1e3 leaves of the parts' rounding.

    eta-beta stays 1e-3 or more off the integers, and 3e-2 or more while
    beta is within 5e-2 of 0 or 1.  That region is item 4's: nearer, a
    connection coefficient's rounding next to its gamma pole, about eps
    over the distance, exceeds the estimate.  Elsewhere the combination
    allowance covers it, since the two connection branches then cancel at
    that scale; with beta near 0 or 1, 1/Gamma(-beta) shrinks one branch
    and nothing cancels.  The strict xfails of
    test_near_integer_eta_minus_beta_error_within_estimate and
    test_near_integer_eta_minus_beta_at_beta_near_zero_error_within_estimate
    pin it.  The examples are derandomized, so every run sees the same ones.
    """
    beta = data.draw(st.one_of(st.floats(min_value=-1.0, max_value=1.0), _beta_near(alpha)))
    gap = _off_integer(eta - beta)
    assume(gap >= 1e-3)
    assume(gap >= 3e-2 or round(beta) < 0 or _off_integer(beta) >= 5e-2)
    p = SaigoParams(alpha=alpha, beta=beta, eta=eta)
    x = 10.0**log_x
    transform, lam = {
        "left": (saigo_left, max(0.0, beta - eta) + shift),
        "right": (saigo_right, 1.0 + min(beta, eta) - shift),
    }[side]
    try:
        r = transform(monomial(lam), p, x, tol=1e-10)
        value, est = r.value, r.error_estimate
        assert est <= 1e-10 * max(1.0, abs(value))
    except AccuracyError as exc:
        value, est = exc.value, exc.error_estimate
    assert abs(value - _decimal_image(side, alpha, beta, eta, lam, x)) <= est


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("beta", [1e-9, -1e-9, 5e-10, 1e-10])
@pytest.mark.parametrize("eta", [2.0**-8, 0.3])
def test_beta_near_zero_keeps_the_small_kernel_branch(side, beta, eta):
    # 1/Gamma(-beta) is about -beta, not zero: dropping the branch it scales
    # costs up to 2e-7 relative while the estimate stays near 1e-15
    p = SaigoParams(alpha=1.0, beta=beta, eta=eta)
    if side == "left":
        lam = max(0.0, beta - eta) + 1.0
        coeff, exponent = saigo_left_monomial(p, lam)
        value = saigo_left(monomial(lam), p, 0.5, tol=1e-10).value
    else:
        lam = min(beta, eta)
        coeff, exponent = saigo_right_monomial(p, lam)
        value = saigo_right(monomial(lam), p, 0.5, tol=1e-10).value
    expected = coeff * 0.5**exponent
    assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("delta", [1e-10, -1e-10, 5e-10, 1e-9])
def test_beta_near_minus_alpha_does_not_terminate_the_kernel(side, delta):
    # a = alpha + beta 1e-10 or more from 0 is not a terminating kernel:
    # the polynomial 2F1 = 1 is off by about delta
    p = SaigoParams(alpha=0.5, beta=-0.5 + delta, eta=0.7)
    if side == "left":
        lam = 1.3
        coeff, exponent = saigo_left_monomial(p, lam)
        value = saigo_left(monomial(lam), p, 0.5, tol=1e-12).value
    else:
        lam = 0.3
        coeff, exponent = saigo_right_monomial(p, lam)
        value = saigo_right(monomial(lam), p, 0.5, tol=1e-12).value
    expected = coeff * 0.5**exponent
    assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.xfail(
    reason="eta-beta near an integer: the integer branch ignores the offset "
    "(1e-9 here) and the connection branches cancel (1e-8 here), and neither "
    "loss is in the estimate",
)
@pytest.mark.parametrize("lam,eta", [(1.3, 2.000000001), (2.3, 0.99999999)])
def test_near_integer_eta_minus_beta_error_within_estimate(lam, eta):
    # 8.2e-9 and 2.4e-8 relative off the image, with estimates of 3.2e-15
    # and 7.4e-15 relative
    p = SaigoParams(alpha=1.0, beta=2.0, eta=eta)
    r = saigo_left(monomial(lam), p, 0.7, tol=1e-10)
    coeff, exponent = saigo_left_monomial(p, lam)
    assert abs(r.value - coeff * 0.7**exponent) <= r.error_estimate


@pytest.mark.xfail(
    reason="eta-beta 1e-3 off an integer with beta 1e-6 off 0: the rounding of "
    "the surviving connection coefficient, next to the pole of Gamma(beta-eta), "
    "is not in the estimate",
)
@pytest.mark.parametrize("side, lam", [("left", 0.7), ("right", 0.3)])
def test_near_integer_eta_minus_beta_at_beta_near_zero_error_within_estimate(side, lam):
    # about 5.9 times the estimate off the image on both sides; the image
    # itself is within 4 eps of a 40-digit one
    p = SaigoParams(alpha=1.0, beta=1e-6, eta=1.001)
    transform, image = {
        "left": (saigo_left, saigo_left_monomial),
        "right": (saigo_right, saigo_right_monomial),
    }[side]
    r = transform(monomial(lam), p, 0.7, tol=1e-10)
    coeff, exponent = image(p, lam)
    assert abs(r.value - coeff * 0.7**exponent) <= r.error_estimate


def test_transform_meets_tol_where_its_parts_outweigh_its_value():
    # lam = beta: the image is exactly 0, and the prefactor x^(lam-beta-1) is
    # 1e3; the parts at tol/4 of their own size leave an estimate of 1.6e-10
    # after 93 evaluations, and the second pass integrates them to their
    # share of tol, above the 2e-11 or so of rounding bisection cannot shrink
    r = saigo_left(monomial(0.5), SaigoParams(alpha=1.0, beta=0.5, eta=0.65), 1e-3, tol=1e-10)
    assert abs(r.value) <= r.error_estimate <= 1e-10


def test_refused_transform_and_soft_pieces_report_their_evaluations(monkeypatch):
    # relative targets of 1e-17 and 1e-15 are below every piece's rounding
    # bound, 16 eps of its weighted sum, so neither can be certified; 1e-15
    # leaves room beside the combination's rounding allowance, so a second
    # pass runs, and it replays the first pass's pieces, whose smooth values
    # the transform already holds.  Either refusal counts every node the
    # integrand was sampled at once (kernel 1: one lower-half branch, so no
    # node set is shared between branches)
    seen, calls = [], []

    def ones(t):
        seen.append(t.size)
        return np.ones_like(t)

    def counted(*args, integrate=operators.integrate_jacobi):
        calls.append(args[-1])
        return integrate(*args)

    monkeypatch.setattr(operators, "integrate_jacobi", counted)
    f = Integrand(fn=lambda t: np.power(t, -0.75), exponent_at_zero=-0.75, smooth_at_zero=ones)
    for tol, passes in ((1e-17, 1), (1e-15, 2)):
        seen.clear()
        calls.clear()
        with pytest.raises(AccuracyError) as info:
            saigo_left(f, SaigoParams(alpha=1.0, family=Family.RIEMANN_LIOUVILLE), 0.5, tol=tol)
        assert info.value.evaluations == sum(seen) > 0
        assert len(calls) == 2 * passes

    # a part whose integrator raises AccuracyError still contributes its
    # value, its estimate and its evaluations, and is not run again though
    # it misses its share of tol: it would give up the same way
    def refuse(*args):
        calls.append(args[-1])
        raise AccuracyError("budget spent", value=1.0, error_estimate=0.5, evaluations=42)

    monkeypatch.setattr(operators, "integrate_jacobi", refuse)
    calls.clear()
    # kernel 1 and t^0 at x = 0.5: two parts of coefficient 1, prefactor 0.5
    with pytest.raises(AccuracyError) as info:
        saigo_left(monomial(1.0), SaigoParams(alpha=1.0, family=Family.RIEMANN_LIOUVILLE), 0.5)
    assert (info.value.value, info.value.evaluations) == (1.0, 84)
    # the estimate adds the combination's rounding allowance, 4 eps per unit
    assert 0.5 < info.value.error_estimate <= 0.5 + 8 * 2.0**-52
    assert calls == [1e-9 / 4] * 2


# ------------------------------------------- integer eta-beta: the log branch


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("beta", [-0.3, 0.25, 0.8])
@pytest.mark.parametrize("alpha", [0.7, 1.6])
def test_snapped_transforms_reach_their_images_within_their_estimates(alpha, beta, m):
    # eta = beta + m puts a log(u) branch in the kernel, which the log-moment
    # rule integrates on the lower half's own nodes, to near rounding
    p = SaigoParams(alpha, beta, beta + m)
    cases = [
        (saigo_left, saigo_left_monomial, max(0.0, -m) + 0.9),
        (saigo_right, saigo_right_monomial, 1.0 + min(beta, beta + m) - 0.9),
    ]
    for transform, image, lam in cases:
        coeff, exponent = image(p, lam)
        for x in (0.5, 1.0, 2.0):
            r = transform(monomial(lam), p, x)
            err = abs(r.value - coeff * x**exponent)
            assert err <= r.error_estimate, (transform.__name__, x)
            assert err <= 1e-12 * abs(coeff * x**exponent), (transform.__name__, x)


# ------------------------------------------------ quadrature nodes are interior

# a two-branch connection kernel, and an integer eta-beta (the log rule)
_NODE_CASES = [
    ("left", 1.3, SaigoParams(0.8, 0.2, 1.1)),
    ("right", 0.6, SaigoParams(0.8, 0.2, 1.1)),
    ("left", 1.3, SaigoParams(1.3, 0.25, 1.25)),
    ("right", 0.6, SaigoParams(1.3, 0.25, 1.25)),
]


def _exact_image(side, lam, p, x):
    image = saigo_left_monomial if side == "left" else saigo_right_monomial
    coeff, exponent = image(p, lam)
    return coeff * x**exponent


@pytest.mark.parametrize("side,lam,p", _NODE_CASES)
def test_transforms_never_evaluate_the_integrand_at_a_piece_end(side, lam, p):
    # u = 0, 1/2 and 1 are t = 0, x/2 and x on the left, and t = x/0, 2x
    # and x on the right
    x = 0.7
    ends = [0.0, x / 2.0, x] if side == "left" else [2.0 * x, x, math.inf]

    def ones(t):
        assert not np.any(np.isin(t, ends)), f"integrand evaluated at {ends}"
        return np.ones_like(t)

    e = lam - 1.0
    f = Integrand(fn=lambda t: np.power(t, e), exponent_at_zero=e, exponent_at_infinity=e,
                  smooth_at_zero=ones, smooth_at_infinity=ones)
    transform = saigo_left if side == "left" else saigo_right
    r = transform(f, p, x, tol=1e-12)
    assert r.value == pytest.approx(_exact_image(side, lam, p, x), rel=1e-11)


@pytest.mark.parametrize("side,lam,p", _NODE_CASES)
def test_transforms_of_an_integrand_without_smooth_parts(side, lam, p):
    # the reduced integrand is then fn(t) * t^(-e), which is inf * 0 at
    # t = x/0 and 0 * inf at t = 0
    e = lam - 1.0
    f = Integrand(fn=lambda t: np.power(t, e), exponent_at_zero=e, exponent_at_infinity=e)
    transform = saigo_left if side == "left" else saigo_right
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        r = transform(f, p, 0.7, tol=1e-12)
    assert r.value == pytest.approx(_exact_image(side, lam, p, 0.7), rel=1e-11)


# ------------------------------------------- non-finite integrands are refused

# a connection kernel, and an integer eta-beta (the log rule)
_NON_FINITE_PARAMS = [SaigoParams(1.3, 0.4, 0.9), SaigoParams(1.3, 0.5, 1.5)]
_NON_FINITE_SMOOTH = {
    "nan": lambda t: np.full_like(t, math.nan),
    "inf": lambda t: np.full_like(t, math.inf),
    "-inf": lambda t: np.full_like(t, -math.inf),
    "inf-past-0.9": lambda t: np.where(t > 0.9, math.inf, 1.0),
    # finite on the upper half, so the lower half's rules meet it
    "nan-near-the-lower-end": lambda t: np.where((t < 0.01) | (t > 100.0), math.nan, 1.0),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("p", _NON_FINITE_PARAMS, ids=["connection", "log"])
@pytest.mark.parametrize("name", sorted(_NON_FINITE_SMOOTH))
def test_non_finite_smooth_part_raises_domain_error(side, p, name):
    # these bisected to float resolution and returned value and estimate
    # NaN, which the transform's own tolerance test let through
    bad = _NON_FINITE_SMOOTH[name]
    seen = []

    def smooth(t):
        seen.append(t.size)
        return bad(t)

    f = Integrand(fn=lambda t: t * smooth(t), exponent_at_zero=0.2, exponent_at_infinity=0.2,
                  smooth_at_zero=smooth, smooth_at_infinity=smooth)
    transform = saigo_left if side == "left" else saigo_right
    with pytest.raises(DomainError, match="not finite"):
        transform(f, p, 1.0)
    # refused at the first non-finite piece: the upper half's one piece, or
    # the lower half's first piece, whose nodes every branch shares
    assert len(seen) <= 2 and sum(seen) <= 2 * 31


# ------------------------------------------------------- validity guards


def test_left_image_precondition_enforced():
    p = SaigoParams(alpha=0.8, beta=0.9, eta=0.1)
    # needs lam > beta - eta = 0.8
    with pytest.raises(DomainError):
        saigo_left_monomial(p, 0.5)


def test_right_image_precondition_enforced():
    p = SaigoParams(alpha=0.8, beta=-0.5, eta=1.0)
    # needs lam < 1 + min(beta, eta) = 0.5
    with pytest.raises(DomainError):
        saigo_right_monomial(p, 0.9)


def test_right_transform_divergent_tail_rejected():
    # integrand decays too slowly at infinity for the declared beta
    p = SaigoParams(alpha=0.8, beta=-0.5, eta=1.0)
    with pytest.raises(DomainError):
        saigo_right(monomial(0.9), p, 1.0, tol=1e-9)
    # refused before any quadrature: on the upper half's nodes its weight
    # u^(beta-lam) = u^-1999.8 would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            saigo_right(monomial(2000.0), SaigoParams(0.8, 0.2, 1.0), 1.0)


# (operator orders, lam at the edge of the left window, at the edge of the
# right window): the transform of t^(lam-1) converges on one side of each
_DOMAIN_EDGES = {
    "rl": (SaigoParams(0.8, family=Family.RIEMANN_LIOUVILLE), 0.0, 0.2),
    "ek": (SaigoParams(0.8, eta=0.5, family=Family.ERDELYI_KOBER), -0.5, 1.5),
    "saigo": (SaigoParams(0.8, 0.3, 0.9), 0.0, 1.3),
    "saigo-beta-above-eta": (SaigoParams(0.7, 0.9, 0.2), 0.7, 1.2),
    "saigo-beta-0": (SaigoParams(0.8, 0.0, 0.5), -0.5, 1.5),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("family", list(_DOMAIN_EDGES))
def test_transform_and_monomial_image_share_their_domain(family, side):
    # the transform and its exact image accept exactly the same lam, and
    # agree within the transform's estimate wherever they do
    p, left_edge, right_edge = _DOMAIN_EDGES[family]
    transform, image, edge, inward = {
        "left": (saigo_left, saigo_left_monomial, left_edge, 1.0),
        "right": (saigo_right, saigo_right_monomial, right_edge, -1.0),
    }[side]
    x = 1.3
    for offset in (-0.3, -0.05, 0.05, 0.3):
        lam = edge + inward * offset
        if offset < 0:
            with pytest.raises(DomainError):
                transform(monomial(lam), p, x)
            with pytest.raises(DomainError):
                image(p, lam)
            continue
        r = transform(monomial(lam), p, x)
        coeff, exponent = image(p, lam)
        assert abs(r.value - coeff * x**exponent) <= r.error_estimate, lam


def test_left_transform_nonintegrable_origin_rejected():
    # at beta = 0 the kernel is (t/x)^eta: t^(lam-1) is integrable at 0 for
    # lam > -eta, where the transform is the Erdelyi-Kober image
    p = SaigoParams(alpha=0.8, beta=0.0, eta=0.5)
    r = saigo_left(monomial(-0.2), p, 1.0, tol=1e-9)
    coeff, _ = ek_left_monomial(0.8, 0.5, -0.2)
    assert abs(r.value - coeff) <= r.error_estimate
    with pytest.raises(DomainError, match="does not converge"):
        saigo_left(monomial(-0.6), p, 1.0, tol=1e-9)
    with pytest.raises(DomainError, match="must be positive"):
        saigo_left_monomial(p, -0.6)


@pytest.mark.parametrize("transform", [saigo_left, saigo_right])
@pytest.mark.parametrize("tol", [-1.0, 0.0, math.inf, math.nan])
def test_transform_tol_checked_under_its_own_name(transform, tol):
    with pytest.raises(DomainError, match=f"^{transform.__name__}: tol"):
        transform(monomial(-0.5), _P_FINITE, 1.0, tol=tol)


def test_transform_refuses_an_integrand_without_its_sides_exponent():
    only_right = Integrand(fn=lambda t: t**-1.5, exponent_at_infinity=-1.5)
    only_left = Integrand(fn=lambda t: t**0.5, exponent_at_zero=0.5)
    p = SaigoParams(alpha=0.8, beta=0.2, eta=1.0)
    with pytest.raises(DomainError, match="t->0 power exponent"):
        saigo_left(only_right, p, 1.0)
    with pytest.raises(DomainError, match="t->inf power exponent"):
        saigo_right(only_left, p, 1.0)


def test_ek_monomial_images_refuse_exponents_outside_their_range():
    # lam + eta and eta - lam + 1 are the images' one numerator argument
    with pytest.raises(DomainError, match="numerator gamma argument .* must be positive"):
        ek_left_monomial(0.5, 0.3, -0.5)
    with pytest.raises(DomainError, match="numerator gamma argument .* must be positive"):
        ek_right_monomial(0.5, 0.3, 1.5)


# what overflows at each eta: b = -3000 terminates the kernel and its
# polynomial's terms overflow; at eta-beta = 3000 the log branch's coefficient
_KERNEL_OVERFLOW = {
    3000.0: "sum_series: the terms at z[*]",
    3000.5: r"coefficient of 2F1\(1.5, -3000.5; 1.0\)",
}


@pytest.mark.parametrize("eta", [3000.0, 3000.5])
@pytest.mark.parametrize("side", ["left", "right"])
def test_kernel_out_of_float_range_raises_overflow_error(side, eta):
    # the kernel's terms or a branch coefficient pass 1e308: an
    # OverflowError that names what overflowed, not a NaN piece
    transform, lam = (saigo_left, 1.5) if side == "left" else (saigo_right, 0.6)
    with pytest.raises(OverflowError, match=_KERNEL_OVERFLOW[eta]):
        transform(monomial(lam), SaigoParams(alpha=1.0, beta=0.5, eta=eta), 1.0)


@pytest.mark.parametrize(
    "transform, lam, x",
    [(rl_left, 3.0, 1e300), (rl_right, -1.0, 1e-300)],
    ids=["left", "right"],
)
def test_prefactor_out_of_float_range_refused_before_quadrature(monkeypatch, transform, lam, x):
    # x^(x_power - beta) passes 1e308: an OverflowError that names the
    # prefactor, raised before any part is integrated
    def integrate(*args):
        raise AssertionError("a part was integrated")

    monkeypatch.setattr(operators, "integrate_jacobi", integrate)
    monkeypatch.setattr(operators, "integrate_log_jacobi", integrate)
    with pytest.raises(OverflowError, match=r"transform prefactor x\^.*/Gamma\(0\.5\)"):
        transform(monomial(lam), 0.5, x)


def test_transform_requires_positive_x():
    p = SaigoParams(alpha=0.8, beta=0.2, eta=1.0)
    with pytest.raises(DomainError):
        saigo_left(monomial(1.0), p, 0.0, tol=1e-9)
    with pytest.raises(DomainError):
        saigo_right(monomial(0.3), p, -1.0, tol=1e-9)
