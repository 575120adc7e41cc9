"""Fractional integral operators: quadrature vs exact monomial images,
family reductions, and parameter validation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from fracbessel.errors import AccuracyError, DomainError
from fracbessel.gammafns import gamma_ratio
from fracbessel.integrands import Integrand, monomial
from fracbessel.operators import (
    Family,
    SaigoParams,
    _integrate_soft,
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
        lambda: HypergeomSpec(upper=(1.0,), lower=(2.0,), prefactor=math.inf),
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
    ],
    ids=[
        "saigo-beta-nan", "saigo-eta-inf", "saigo-alpha-inf", "kbessel-c-nan",
        "kbessel-k-inf", "theorem-c-nan", "theorem-lam-inf", "pfq-upper-nan",
        "pfq-prefactor-inf", "wright-step-inf", "wright-coeff-nan",
        "saigo-left-x-inf", "saigo-right-x-nan", "closed-form-x-inf",
        "pfq-z-nan", "pfq-z-minus-inf", "wright-z-inf", "wright-z-nan",
        "kbessel-z-nan", "kbessel-z-inf",
    ],
)
def test_non_finite_input_raises_domain_error(build):
    with pytest.raises(DomainError):
        build()


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


def test_refused_transform_and_soft_pieces_report_their_evaluations():
    # lam == beta: the exact image is zero by cancellation, so a 1e-10
    # relative target cannot be certified; the refusal still counts every
    # node the integrand was sampled at
    seen = []

    def ones(t):
        seen.append(t.size)
        return np.ones_like(t)

    f = Integrand(fn=lambda t: np.power(t, -0.75), exponent_at_zero=-0.75, smooth_at_zero=ones)
    with pytest.raises(AccuracyError) as info:
        saigo_left(f, SaigoParams(alpha=1.0, beta=0.25, eta=0.25), 0.5, tol=1e-10)
    assert info.value.evaluations == sum(seen) > 0

    def refuse(*args):
        raise AccuracyError("budget spent", value=1.0, error_estimate=0.5, evaluations=42)

    r = _integrate_soft(refuse)
    assert (r.value, r.error_estimate, r.evaluations) == (1.0, 0.5, 42)


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


def test_left_transform_nonintegrable_origin_rejected():
    p = SaigoParams(alpha=0.8, beta=0.0, eta=0.5)
    with pytest.raises(DomainError):
        saigo_left(monomial(-0.2), p, 1.0, tol=1e-9)


def test_transform_requires_positive_x():
    p = SaigoParams(alpha=0.8, beta=0.2, eta=1.0)
    with pytest.raises(DomainError):
        saigo_left(monomial(1.0), p, 0.0, tol=1e-9)
    with pytest.raises(DomainError):
        saigo_right(monomial(0.3), p, -1.0, tol=1e-9)
