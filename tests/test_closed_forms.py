"""Closed-form transform images: builders, reductions, and evaluation.

Frozen reference values were computed from the Fox-Wright sums in 50-digit
arbitrary-precision arithmetic and independently reproduced by the
brute-force oracle in _oracles.py and by adaptive quadrature of the
defining integrals.
"""

import math

import pytest

from fracbessel import (
    HypergeomSpec,
    SaigoParams,
    TheoremParams,
    WrightSpec,
    corollary_pfq_spec,
    corollary_wright_spec,
    duplication_reduce,
    evaluate_closed_form,
    eval_pfq,
    kbessel_integrand,
    saigo_left,
    saigo_right,
    theorem21_spec,
    theorem24_spec,
    theorem31_spec,
    theorem34_spec,
)
from fracbessel.errors import DomainError
from fracbessel.series import KBesselParams, wright_convergence_index

from _oracles import wright_oracle

# Canonical parameter sets used throughout: one exercising every generic
# knob on the left side, one on the right side, and one Erdelyi-Kober case.
P_LEFT = TheoremParams(alpha=0.8, beta=0.2, eta=1.0, lam=1.4, v=0.5, c=1.0, k=1.0)
P_RIGHT = TheoremParams(alpha=0.6, beta=0.3, eta=1.2, lam=0.1, v=0.4, c=1.0, k=1.5)
P_EK = TheoremParams(alpha=0.5, beta=0.0, eta=1.5, lam=1.2, v=0.3, c=1.0, k=1.0)

# 50-digit reference values at the canonical parameters.
LEFT_AT_1 = 0.27819926662308190994
RIGHT_AT_2 = 0.12701369261985231047
EK_LEFT_AT_08 = 0.44279005408593802851


def _evaluate(cf, x, tol=1e-13):
    sv = evaluate_closed_form(cf, x, tol)
    assert sv.converged
    return sv.value


# ---------------------------------------------------------------- parameters


def test_params_validation():
    with pytest.raises(DomainError):
        TheoremParams(alpha=0.0, beta=0.0, eta=0.0, lam=1.0, v=0.0, c=1.0, k=1.0)
    with pytest.raises(DomainError):
        TheoremParams(alpha=1.0, beta=0.0, eta=0.0, lam=1.0, v=-1.0, c=1.0, k=1.0)
    with pytest.raises(DomainError):
        TheoremParams(alpha=1.0, beta=0.0, eta=0.0, lam=1.0, v=0.0, c=1.0, k=0.0)


def test_params_indices():
    assert P_LEFT.big_l == pytest.approx(1.9)
    assert P_RIGHT.big_m == pytest.approx(1.2)


def test_left_validity_condition():
    # (lam+v)/k must exceed max(0, beta-eta)
    bad = TheoremParams(alpha=0.5, beta=1.5, eta=0.2, lam=0.4, v=0.3, c=1.0, k=1.0)
    assert bad.big_l == pytest.approx(0.7)  # <= beta - eta = 1.3
    # the upper coefficient L + eta - beta is negative; the twin is refused too
    for spec in (theorem21_spec, theorem31_spec):
        with pytest.raises(DomainError, match="need positive coefficients"):
            spec(bad)


def test_right_validity_condition():
    # M + beta and M + eta must both be positive
    bad = TheoremParams(alpha=0.5, beta=-1.5, eta=0.2, lam=2.0, v=0.0, c=1.0, k=1.0)
    assert bad.big_m + bad.beta == pytest.approx(-2.5)
    for spec in (theorem24_spec, theorem34_spec):
        with pytest.raises(DomainError, match="need positive coefficients"):
            spec(bad)


# ---------------------------------------------------------------- frozen values


def test_left_transform_frozen_value():
    assert _evaluate(theorem21_spec(P_LEFT), 1.0) == pytest.approx(LEFT_AT_1, rel=5e-14)


def test_right_transform_frozen_value():
    assert _evaluate(theorem24_spec(P_RIGHT), 2.0) == pytest.approx(RIGHT_AT_2, rel=5e-14)


def test_ek_left_corollary_frozen_value():
    assert _evaluate(corollary_wright_spec("ek_left", P_EK), 0.8) == pytest.approx(
        EK_LEFT_AT_08, rel=5e-14
    )
    assert _evaluate(corollary_pfq_spec("ek_left", P_EK), 0.8) == pytest.approx(
        EK_LEFT_AT_08, rel=5e-14
    )


def test_left_form_matches_brute_force_sum():
    cf = theorem21_spec(P_LEFT)
    x = 1.3
    z = cf.argument(x)
    series = wright_oracle(cf.series.upper, cf.series.lower, z, 80)
    expected = math.exp(cf.prefactor_log) * x**cf.power_of_x * series
    assert _evaluate(cf, x) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- shapes


def _assert_pairs(pairs, expected):
    assert len(pairs) == len(expected)
    for (coeff, step), (want_coeff, want_step) in zip(pairs, expected):
        assert coeff == pytest.approx(want_coeff, rel=1e-14)
        assert step == want_step


def test_left_form_series_layout():
    cf = theorem21_spec(P_LEFT)
    big_l = P_LEFT.big_l
    assert isinstance(cf.series, WrightSpec)
    _assert_pairs(cf.series.upper, [(big_l, 2.0), (big_l + 0.8, 2.0)])
    _assert_pairs(
        cf.series.lower, [(big_l - 0.2, 2.0), (big_l + 1.8, 2.0), (1.5, 1.0)]
    )
    assert wright_convergence_index(cf.series) == pytest.approx(2.0)
    assert cf.argument_scale == pytest.approx(-0.25)
    assert cf.argument_power == 2.0
    assert cf.power_of_x == pytest.approx(big_l - 0.2 - 1.0)
    assert math.exp(cf.prefactor_log) == pytest.approx(2.0**-0.5, rel=1e-15)


def test_right_form_series_layout():
    cf = theorem24_spec(P_RIGHT)
    m = P_RIGHT.big_m
    vk1 = 0.4 / 1.5 + 1.0
    _assert_pairs(cf.series.upper, [(m + 0.3, 2.0), (m + 1.2, 2.0)])
    _assert_pairs(cf.series.lower, [(m, 2.0), (m + 2.1, 2.0), (vk1, 1.0)])
    assert wright_convergence_index(cf.series) == pytest.approx(2.0)
    assert cf.argument_scale == pytest.approx(-1.0 / 6.0)
    assert cf.argument_power == -2.0
    assert cf.power_of_x == pytest.approx((0.1 - 0.4) / 1.5 - 0.3 - 1.0)


@pytest.mark.parametrize(
    "variant,v,upper,lower",
    [
        # beta = -alpha: the eta-bearing upper/lower pairs coincide and cancel
        ("rl_left", 0.5, lambda L, M: [(L, 2.0)], lambda L, M: [(L + 0.7, 2.0), (1.5, 1.0)]),
        # beta = 0: the bare (L, 2) pair cancels
        ("ek_left", 0.5, lambda L, M: [(L + 0.9, 2.0)], lambda L, M: [(L + 1.6, 2.0), (1.5, 1.0)]),
        ("rl_right", 0.5, lambda L, M: [(M - 0.7, 2.0)], lambda L, M: [(M, 2.0), (1.5, 1.0)]),
        # v=0, k=1 puts the plain factorial pair (1, 1) in the lower list
        ("ek_right", 0.0, lambda L, M: [(M + 0.9, 2.0)], lambda L, M: [(M + 1.6, 2.0), (1.0, 1.0)]),
    ],
    ids=["rl_left", "ek_left", "rl_right", "ek_right"],
)
def test_corollary_series_layout(variant, v, upper, lower):
    # the given beta is replaced by the variant's pinned one
    p = TheoremParams(alpha=0.7, beta=0.1, eta=0.9, lam=0.3, v=v, c=1.0, k=1.0)
    cf = corollary_wright_spec(variant, p)
    _assert_pairs(cf.series.upper, upper(p.big_l, p.big_m))
    _assert_pairs(cf.series.lower, lower(p.big_l, p.big_m))


def test_left_hypergeometric_twin_layout():
    cf = theorem31_spec(P_LEFT)
    big_l = P_LEFT.big_l
    up = {round(a, 12) for a in cf.series.upper}
    low = {round(b, 12) for b in cf.series.lower}
    assert up == {
        round(v, 12)
        for v in (big_l / 2, (big_l + 1) / 2, (big_l + 0.8) / 2, (big_l + 1.8) / 2)
    }
    assert low == {
        round(v, 12)
        for v in (
            1.5,
            (big_l - 0.2) / 2,
            (big_l + 0.8) / 2,
            (big_l + 1.8) / 2,
            (big_l + 2.8) / 2,
        )
    }
    # the collected gamma normalization lives in the log prefactor
    base = theorem21_spec(P_LEFT)
    expected = (
        math.lgamma(big_l)
        + math.lgamma(big_l + 0.8)
        - math.lgamma(big_l - 0.2)
        - math.lgamma(big_l + 1.8)
        - math.lgamma(1.5)
    )
    assert cf.prefactor_log - base.prefactor_log == pytest.approx(expected, rel=1e-14)
    assert cf.prefactor_sign == 1
    # two step-2 pairs upstairs vs two downstairs: the argument is unscaled
    assert cf.argument_scale == base.argument_scale


def test_right_hypergeometric_twin_layout():
    cf = theorem34_spec(P_RIGHT)
    m = P_RIGHT.big_m
    up = {round(a, 12) for a in cf.series.upper}
    assert up == {
        round(v, 12)
        for v in ((m + 0.3) / 2, (m + 1.3) / 2, (m + 1.2) / 2, (m + 2.2) / 2)
    }


# ---------------------------------------------------------------- twins agree


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_left_twin_values_agree(x):
    a = _evaluate(theorem21_spec(P_LEFT), x)
    b = _evaluate(theorem31_spec(P_LEFT), x)
    assert abs(a - b) <= 1e-12 * abs(a)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_right_twin_values_agree(x):
    a = _evaluate(theorem24_spec(P_RIGHT), x)
    b = _evaluate(theorem34_spec(P_RIGHT), x)
    assert abs(a - b) <= 1e-12 * abs(a)


_SUBSTITUTED_BETA = {"rl": lambda p: -p.alpha, "ek": lambda p: 0.0}


@pytest.mark.parametrize("variant", ["rl_left", "ek_left", "rl_right", "ek_right"])
def test_corollaries_match_parent_with_substituted_beta(variant):
    base = TheoremParams(alpha=0.7, beta=0.1, eta=0.9, lam=0.3, v=0.5, c=1.0, k=1.0)
    beta = _SUBSTITUTED_BETA[variant[:2]](base)
    p = TheoremParams(base.alpha, beta, base.eta, base.lam, base.v, base.c, base.k)
    parent_w = theorem21_spec(p) if variant.endswith("left") else theorem24_spec(p)
    parent_f = theorem31_spec(p) if variant.endswith("left") else theorem34_spec(p)
    for x in (0.5, 1.0, 2.0):
        want = _evaluate(parent_w, x)
        got_w = _evaluate(corollary_wright_spec(variant, base), x)
        got_f = _evaluate(corollary_pfq_spec(variant, base), x)
        assert abs(got_w - want) <= 1e-12 * abs(want)
        assert abs(got_f - want) <= 1e-12 * abs(want)
        assert abs(_evaluate(parent_f, x) - want) <= 1e-12 * abs(want)


def test_unknown_corollary_variant_rejected():
    with pytest.raises(DomainError, match="variant"):
        corollary_wright_spec("rl_up", P_LEFT)
    with pytest.raises(DomainError, match="variant"):
        corollary_pfq_spec("sideways", P_LEFT)


# ---------------------------------------------------------------- quadrature


def test_left_form_matches_quadrature():
    kb = KBesselParams(v=P_LEFT.v, c=P_LEFT.c, k=P_LEFT.k)
    f = kbessel_integrand(kb, P_LEFT.lam, series_tol=1e-12)
    sp = SaigoParams(alpha=P_LEFT.alpha, beta=P_LEFT.beta, eta=P_LEFT.eta)
    lhs = saigo_left(f, sp, 1.0, tol=1e-10).value
    rhs = _evaluate(theorem21_spec(P_LEFT), 1.0)
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_right_form_matches_quadrature():
    kb = KBesselParams(v=P_RIGHT.v, c=P_RIGHT.c, k=P_RIGHT.k)
    f = kbessel_integrand(kb, P_RIGHT.lam, reciprocal=True, series_tol=1e-12)
    sp = SaigoParams(alpha=P_RIGHT.alpha, beta=P_RIGHT.beta, eta=P_RIGHT.eta)
    lhs = saigo_right(f, sp, 2.0, tol=1e-10).value
    rhs = _evaluate(theorem24_spec(P_RIGHT), 2.0)
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_ek_left_corollary_matches_quadrature():
    kb = KBesselParams(v=P_EK.v, c=P_EK.c, k=P_EK.k)
    f = kbessel_integrand(kb, P_EK.lam, series_tol=1e-12)
    sp = SaigoParams(alpha=P_EK.alpha, eta=P_EK.eta, family="erdelyi_kober")
    lhs = saigo_left(f, sp, 0.8, tol=1e-10).value
    rhs = _evaluate(corollary_pfq_spec("ek_left", P_EK), 0.8)
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("index", [-0.85, -0.5, -0.1, 0.0])
@pytest.mark.parametrize("c", [1.0, -1.0])
def test_ek_corollaries_hold_where_their_transforms_converge(side, index, c):
    # at beta = 0 the bare (L, 2) or (M, 2) pair cancels, so the corollaries
    # hold for L > -eta (left) and M > -eta (right), as the transforms do;
    # index is L or M
    alpha, eta, v, k = 0.7, 0.9, 0.3, 1.2
    kb = KBesselParams(v=v, c=c, k=k)
    sp = SaigoParams(alpha, eta=eta, family="erdelyi_kober")
    if side == "left":
        lam = index * k - v
        f = kbessel_integrand(kb, lam, series_tol=1e-13)
        transform = lambda x: saigo_left(f, sp, x, tol=1e-10)
    else:
        lam = k + v - index * k
        f = kbessel_integrand(kb, lam, reciprocal=True, series_tol=1e-13)
        transform = lambda x: saigo_right(f, sp, x, tol=1e-10)
    p = TheoremParams(alpha=alpha, beta=0.0, eta=eta, lam=lam, v=v, c=c, k=k)
    assert (p.big_l if side == "left" else p.big_m) == pytest.approx(index, abs=1e-15)
    variant = "ek_" + side
    for x in (0.5, 1.0, 2.0):
        qr = transform(x)
        for build in (corollary_wright_spec, corollary_pfq_spec):
            sv = evaluate_closed_form(build(variant, p), x, 1e-13)
            assert abs(sv.value - qr.value) <= qr.error_estimate + sv.trunc_estimate


# ---------------------------------------------------------------- reduction


def test_duplication_reduce_splits_step_two_pairs():
    w = WrightSpec(upper=((1.9, 2.0),), lower=((2.7, 2.0), (1.5, 1.0)))
    spec, arg_scale = duplication_reduce(w)
    assert spec.upper == (0.95, 1.45)
    assert spec.lower == (1.35, 1.85, 1.5)
    assert arg_scale == 1.0
    # the spec is the series alone: the duplication's gamma normalization
    # stays in front of it
    expected = math.gamma(1.9) / (math.gamma(2.7) * math.gamma(1.5))
    z = 0.3
    value = eval_pfq(spec, arg_scale * z, 1e-14).value
    assert expected * value == pytest.approx(wright_oracle(w.upper, w.lower, z, 60), rel=1e-13)


def test_duplication_reduce_step_one_passthrough():
    w = WrightSpec(upper=((0.7, 1.0), (1.3, 1.0)), lower=((2.2, 1.0), (1.0, 1.0)))
    spec, arg_scale = duplication_reduce(w)
    assert spec.upper == (0.7, 1.3)
    assert spec.lower == (2.2, 1.0)
    assert arg_scale == 1.0
    expected = math.gamma(0.7) * math.gamma(1.3) / math.gamma(2.2)
    z = 0.3
    value = eval_pfq(spec, arg_scale * z, 1e-14).value
    assert expected * value == pytest.approx(wright_oracle(w.upper, w.lower, z, 60), rel=1e-13)


def test_duplication_reduce_unbalanced_counts_scale_argument():
    # one step-2 pair upstairs, none downstairs: central-binomial series
    # sum_n Gamma(1+2n)/Gamma(1+n) z^n/n! = (1-4z)^(-1/2)
    w = WrightSpec(upper=((1.0, 2.0),), lower=((1.0, 1.0),))
    spec, arg_scale = duplication_reduce(w)
    assert arg_scale == 4.0
    z = 0.1
    value = eval_pfq(spec, arg_scale * z, 1e-14).value
    assert value == pytest.approx((1.0 - 4.0 * z) ** -0.5, rel=1e-13)
    brute = wright_oracle(w.upper, w.lower, z, 60)
    assert value == pytest.approx(brute, rel=1e-12)


def test_duplication_reduce_rejects_other_steps():
    w = WrightSpec(upper=((1.0, 3.0),), lower=((1.0, 1.0),))
    with pytest.raises(DomainError, match="step"):
        duplication_reduce(w)


def test_duplication_reduce_splits_pole_coefficients():
    # the split needs no gamma of a coefficient; the pole refusal belongs to
    # the normalization (test_hypergeometric_twin_rejects_degenerate_normalization)
    w = WrightSpec(upper=((-1.0, 2.0),), lower=((1.0, 1.0),))
    spec, arg_scale = duplication_reduce(w)
    assert spec.upper == (-0.5, 0.0)
    assert spec.lower == (1.0,)
    assert arg_scale == 4.0


def test_hypergeometric_twin_rejects_degenerate_normalization():
    # lam + v = beta * k puts a lower coefficient on the gamma pole lattice:
    # the Fox-Wright form stays finite but its pFq twin degenerates
    p = TheoremParams(alpha=0.5, beta=0.5, eta=1.0, lam=0.3, v=0.2, c=1.0, k=1.0)
    assert math.isfinite(_evaluate(theorem21_spec(p), 1.0))
    with pytest.raises(DomainError, match="nonpositive integer|pole"):
        theorem31_spec(p)


# ---------------------------------------------------------------- evaluation


def test_evaluate_requires_positive_x():
    cf = theorem21_spec(P_LEFT)
    with pytest.raises(DomainError):
        evaluate_closed_form(cf, 0.0)
    with pytest.raises(DomainError):
        evaluate_closed_form(cf, -1.0)


def test_argument_rule_and_sign():
    cf = theorem21_spec(P_LEFT)
    assert cf.argument(2.0) == pytest.approx(-1.0)  # -c x^2 / (4k)
    rcf = theorem24_spec(P_RIGHT)
    assert rcf.argument(2.0) == pytest.approx(-1.0 / 24.0)
    # for c > 0 the argument is negative and, near zero, the leading term
    # dominates: positive prefactor means a positive value
    assert cf.argument(0.01) < 0.0
    assert _evaluate(cf, 0.01) > 0.0


def test_closed_form_serialization_shape():
    cf = theorem21_spec(P_LEFT)
    assert isinstance(cf.series, WrightSpec)
    assert cf.argument_power == 2.0
    cf2 = theorem34_spec(P_RIGHT)
    assert isinstance(cf2.series, HypergeomSpec)
    assert len(cf2.series.upper) == 4
    assert len(cf2.series.lower) == 5
