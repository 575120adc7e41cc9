"""Series engines: generalized hypergeometric, Fox-Wright, k-Bessel."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbessel.errors import ConvergenceError, DomainError
from fracbessel.series import (
    _kbessel_sum,
    MAX_TERMS,
    HypergeomSpec,
    KBesselParams,
    SeriesValue,
    WrightSpec,
    eval_k_bessel,
    eval_pfq,
    eval_wright,
    gauss_2f1_at_1,
    kbessel_reduced_series,
    sum_series,
    wright_convergence_index,
)

from _oracles import bessel_j_oracle, kbessel_reduced_oracle, pfq_oracle, wright_oracle


# ---------------------------------------------------------------- pFq


def test_pfq_gauss_2f1_frozen_value():
    spec = HypergeomSpec(upper=(1.0, 1.0), lower=(2.0,))
    sv = eval_pfq(spec, 0.5, 1e-14)
    assert sv.converged
    assert sv.value == pytest.approx(1.3862943611198906188, rel=1e-13)


def test_pfq_binomial_1f0():
    spec = HypergeomSpec(upper=(2.0,), lower=())
    assert eval_pfq(spec, 0.5, 1e-13).value == pytest.approx(4.0, rel=1e-12)


def test_pfq_exponential_0f0():
    spec = HypergeomSpec(upper=(), lower=())
    assert eval_pfq(spec, 1.3, 1e-14).value == pytest.approx(math.exp(1.3), rel=1e-13)


def test_pfq_at_zero_is_one():
    spec = HypergeomSpec(upper=(0.7, 1.9), lower=(2.2,))
    sv = eval_pfq(spec, 0.0, 1e-14)
    assert sv.value == 1.0
    assert sv.converged


@pytest.mark.parametrize(
    "upper, lower",
    [
        # p > q+1 diverges only off z = 0
        ((0.7, 1.9, 3.0), ()),
        # the first term ratio overflows to inf, and inf * 0 is NaN: summed
        # as a series, this 1 would come out NaN after MAX_TERMS terms
        ((1e200, 1e200), (1.0,)),
    ],
    ids=["3F0", "ratio-overflow"],
)
def test_pfq_at_zero_is_one_without_summing(upper, lower):
    sv = eval_pfq(HypergeomSpec(upper=upper, lower=lower), 0.0, 1e-14)
    assert sv == SeriesValue(1.0, 1, 0.0, True)


def test_pfq_terminating_matches_brute_sum():
    spec = HypergeomSpec(upper=(-3.0, 2.0), lower=(4.0,))
    sv = eval_pfq(spec, 0.3, 1e-14)
    assert sv.value == pytest.approx(pfq_oracle((-3.0, 2.0), (4.0,), 0.3, 10), rel=1e-13)
    assert sv.trunc_estimate == 0.0


def test_pfq_matches_brute_sum_generic():
    upper, lower, z = (0.6, 1.4), (2.3, 0.9), -0.8
    sv = eval_pfq(HypergeomSpec(upper=upper, lower=lower), z, 1e-13)
    assert sv.value == pytest.approx(pfq_oracle(upper, lower, z, 80), rel=1e-12)


def test_pfq_too_many_upper_parameters_rejected():
    spec = HypergeomSpec(upper=(1.0, 1.0, 1.0), lower=(2.0,))
    with pytest.raises(ConvergenceError):
        eval_pfq(spec, 0.5, 1e-12)


def test_pfq_unit_disc_boundary_rejected_without_gauss_route():
    spec = HypergeomSpec(upper=(1.0, 1.0), lower=(2.0,))
    with pytest.raises(ConvergenceError):
        eval_pfq(spec, 1.5, 1e-12)
    # divergent-at-1 parameter set (c-a-b < 0) is also rejected
    spec2 = HypergeomSpec(upper=(2.0, 2.0), lower=(1.5,))
    with pytest.raises(ConvergenceError):
        eval_pfq(spec2, 1.0, 1e-12)


def test_pfq_gauss_route_at_unit_argument():
    # 2F1(a, b; c; 1) with c-a-b > 0 sums in closed form; frozen: 4/pi
    spec = HypergeomSpec(upper=(0.5, 0.5), lower=(2.0,))
    sv = eval_pfq(spec, 1.0, 1e-12)
    assert sv.value == pytest.approx(1.2732395447351626862, rel=1e-13)
    assert gauss_2f1_at_1(0.5, 0.5, 2.0) == pytest.approx(1.2732395447351626862, rel=1e-13)


@pytest.mark.parametrize("a, b, c", [(0.5, 0.5, 1.0), (1.0, 1.5, 2.0)], ids=["zero", "negative"])
def test_gauss_2f1_at_1_needs_positive_c_minus_a_minus_b(a, b, c):
    with pytest.raises(DomainError, match="needs c-a-b > 0"):
        gauss_2f1_at_1(a, b, c)


def test_pfq_lower_parameter_pole_rejected_at_construction():
    with pytest.raises(DomainError):
        HypergeomSpec(upper=(1.0,), lower=(-2.0,))


@pytest.mark.parametrize("z", [0.3, -0.6, 0.85])
def test_pfq_truncation_estimate_bounds_refinement(z):
    spec = HypergeomSpec(upper=(0.8, 1.7), lower=(2.4,))
    coarse = eval_pfq(spec, z, 1e-6)
    fine = eval_pfq(spec, z, 1e-8)
    assert abs(coarse.value - fine.value) <= coarse.trunc_estimate + 1e-15 * abs(fine.value)


# ---------------------------------------------------------------- Fox-Wright


def test_wright_frozen_value():
    spec = WrightSpec(upper=((2.0, 1.0),), lower=((3.0, 1.0),))
    sv = eval_wright(spec, 0.7, 1e-14)
    assert sv.converged
    assert sv.value == pytest.approx(0.80790650563032049696, rel=1e-13)


def test_wright_matches_brute_sum_with_step_two():
    spec = WrightSpec(upper=((1.5, 2.0),), lower=((2.5, 2.0), (1.0, 1.0)))
    for z in (0.4, -0.3, 2.0):
        sv = eval_wright(spec, z, 1e-13)
        assert sv.value == pytest.approx(wright_oracle(spec.upper, spec.lower, z, 60), rel=1e-12)


def test_wright_zero_argument_single_term():
    spec = WrightSpec(upper=((1.7, 2.0),), lower=((2.2, 2.0), (1.3, 1.0)))
    sv = eval_wright(spec, 0.0, 1e-14)
    expected = math.gamma(1.7) / (math.gamma(2.2) * math.gamma(1.3))
    assert sv.value == pytest.approx(expected, rel=1e-14)
    assert sv.terms_used == 1


def test_wright_negative_convergence_index_rejected():
    spec = WrightSpec(upper=((1.0, 3.0),), lower=((1.0, 1.0),))
    assert wright_convergence_index(spec) < 0
    with pytest.raises(ConvergenceError):
        eval_wright(spec, 0.5, 1e-12)


def test_wright_boundary_index_respects_radius():
    # delta = 0 with radius rho = 1: accepted well inside, rejected outside 0.9*rho
    spec = WrightSpec(upper=((1.0, 1.0), (1.0, 1.0)), lower=((1.0, 1.0),))
    assert wright_convergence_index(spec) == pytest.approx(0.0)
    value = eval_wright(spec, 0.5, 1e-12).value
    # sum_n z^n = 1/(1-z)
    assert value == pytest.approx(2.0, rel=1e-10)
    with pytest.raises(ConvergenceError):
        eval_wright(spec, 0.95, 1e-12)


def test_wright_numerator_pole_names_offending_term():
    spec = WrightSpec(upper=((-2.0, 1.0),), lower=((1.0, 1.0),))
    with pytest.raises(DomainError, match="n=0"):
        eval_wright(spec, 0.4, 1e-12)


def test_wright_denominator_poles_annihilate_leading_terms():
    # lower pair (-1, 1): reciprocal gamma vanishes at n=0,1, so the sum
    # starts at n=2 and equals z^2 e^z when the upper pair is (1, 1)
    spec = WrightSpec(upper=((1.0, 1.0),), lower=((-1.0, 1.0),))
    z = 0.8
    sv = eval_wright(spec, z, 1e-13)
    assert sv.value == pytest.approx(z**2 * math.exp(z), rel=1e-12)


def test_wright_denominator_near_pole_is_not_a_pole():
    # lower pair (-1 + 1e-10, 1): 1/Gamma(-1 + d) is about -d, and
    # 1/Gamma(d) about d, small but not zero; 1Psi1 with upper (1, 1) sums
    # z^n / Gamma(n - 1 + d)
    d, z = 1e-10, 0.5
    spec = WrightSpec(upper=((1.0, 1.0),), lower=((-1.0 + d, 1.0),))
    sv = eval_wright(spec, z, 1e-14)
    direct = math.fsum(z**n / math.gamma(n - 1.0 + d) for n in range(60))
    assert abs(sv.value - direct) <= 1e-14 * abs(direct)


def test_wright_spec_requires_positive_steps():
    with pytest.raises(DomainError):
        WrightSpec(upper=((1.0, 0.0),), lower=())
    with pytest.raises(DomainError):
        WrightSpec(upper=(), lower=((1.0, -2.0),))


@pytest.mark.parametrize("z", [0.5, -1.2])
def test_wright_truncation_estimate_bounds_refinement(z):
    spec = WrightSpec(upper=((1.2, 2.0),), lower=((1.9, 2.0), (1.1, 1.0)))
    coarse = eval_wright(spec, z, 1e-6)
    fine = eval_wright(spec, z, 1e-9)
    assert abs(coarse.value - fine.value) <= coarse.trunc_estimate + 1e-15 * abs(fine.value)


def test_sum_series_vectorized_tail_estimate_bounds_refinement():
    # 2F1(1.5, 2.5; 1.2; w) over an array of nodes: one estimate, made at
    # the largest node, covers the truncation error of every node
    ratio = lambda n: (1.5 + n) * (2.5 + n) / ((1.2 + n) * (n + 1.0))
    for w_max in (0.6, 0.85):
        w = np.linspace(0.05, w_max, 12)
        coarse = sum_series(1.0, ratio, w, 1e-6)
        fine = sum_series(1.0, ratio, w, 1e-13)
        assert coarse.converged and fine.converged
        assert np.all(coarse.trunc_estimate >= np.abs(coarse.value - fine.value))


def _tol_stopping_after(n_terms, ratio, z, weights=lambda: None):
    # the first tol, on a fine geometric grid, at which the sum takes n_terms
    for k in range(1, 2000):
        tol = 10.0 ** (-k / 50)
        if sum_series(1.0, ratio, z, tol, weights()).terms_used == n_terms:
            return tol
    raise AssertionError(f"no tol stops after {n_terms} terms")


def _kernel_ratio(a, b, c):
    return lambda n: (a + n) * (b + n) / ((c + n) * (n + 1.0))


def _abs_terms(t0, ratio, z, weights, n_terms):
    # sum of |w_n t_n| over the first n_terms terms, by the plain recurrence
    total, term = 0.0, t0
    for n, w in zip(range(n_terms), weights or itertools.repeat(1.0)):
        if n:
            term *= ratio(n - 1) * z
        total += abs(w * term)
    return total


_SLOW = lambda n: (n + 1.5) / (n + 2.0)
_EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "case",
    [
        # stops by the contract after few and after many terms
        *[("stop", n, None) for n in (5, 63, 64, 65, 129)],
        # a negative node
        ("negative", 40, None),
        # terminating polynomial: capped by max_terms, and with room for
        # the exactly-zero term that ends it
        ("poly", 6, None),
        ("poly", 7, None),
        # an exactly-zero term early and late
        ("zero", 10, -9.0),
        ("zero", 74, -73.0),
        # zero weights, which do not count toward the run
        ("weights", 69, None),
    ],
    ids=lambda case: f"{case[0]}-{case[1]}",
)
def test_sum_series_one_node_array_matches_scalar(case):
    kind, n, a = case
    weights = lambda: None
    max_terms = MAX_TERMS
    if kind == "stop":
        ratio, z, tol = _SLOW, 0.6, _tol_stopping_after(n, _SLOW, 0.6)
    elif kind == "negative":
        ratio, z, tol = _SLOW, -0.6, _tol_stopping_after(n, _SLOW, -0.6)
    elif kind == "poly":
        ratio, z, tol, max_terms = _kernel_ratio(-5.0, 1.5, 2.5), 0.7, 1e-15, n
    elif kind == "zero":
        ratio, z, tol = _kernel_ratio(a, 1.5, 2.5), 0.9, 1e-15
    else:
        zeros = {2, 63, 64}
        weights = lambda: (0.0 if k in zeros else 1.0 + 1.0 / (k + 1.0) for k in itertools.count())
        ratio, z, tol = _SLOW, 0.6, _tol_stopping_after(n, _SLOW, 0.6, weights)
    ref = sum_series(0.7, ratio, z, tol, weights(), max_terms)
    arr = sum_series(0.7, ratio, np.array([z]), tol, weights(), max_terms)
    assert arr.value.shape == (1,)
    # the array path runs the scalar contract at its one node, then sums the
    # same terms in another order
    assert (arr.terms_used, arr.converged, arr.trunc_estimate) == (
        ref.terms_used, ref.converged, ref.trunc_estimate
    )
    scale = _abs_terms(0.7, ratio, z, weights(), ref.terms_used)
    assert abs(arr.value[0] - ref.value) <= 4 * _EPS * scale
    if kind == "poly":
        assert (ref.terms_used, ref.converged) == ((6, False) if n == 6 else (6, True))
    elif kind == "zero":
        assert (ref.terms_used, ref.trunc_estimate) == (n, 0.0)
    else:
        assert ref.terms_used == n and ref.converged


_COS = lambda n: -1.0 / ((2.0 * n + 1.0) * (2.0 * n + 2.0))  # cos(sqrt(y)) in powers of y


@pytest.mark.parametrize(
    "kind",
    ["mixed-sign", "all-zero", "zero-weights", "capped", "near-zero-sum"],
)
def test_sum_series_array_runs_contract_at_largest_node(kind):
    weights = lambda: None
    max_terms, tol, t0 = MAX_TERMS, 1e-14, 0.7
    if kind == "mixed-sign":
        # the largest |z| is negative
        ratio, z = _kernel_ratio(1.1, -0.65, 0.8), np.array([0.3, -0.55, -0.1, 0.5])
    elif kind == "all-zero":
        ratio, z = _SLOW, np.zeros(3)
    elif kind == "zero-weights":
        weights = lambda: (0.0 if k % 3 == 1 else 1.0 for k in itertools.count())
        ratio, z = _SLOW, np.array([0.2, 0.6, -0.4])
    elif kind == "capped":
        # a degree-5 polynomial cut off at its last nonzero term
        ratio, z, max_terms = _kernel_ratio(-5.0, 1.5, 2.5), np.array([0.7, -0.3, 0.95]), 6
    else:
        # cos(sqrt(y)) vanishes at the largest node, y = (pi/2)^2
        ratio, z, t0 = _COS, np.array([0.3, 1.0, 2.0, (math.pi / 2) ** 2]), 1.0
    arr = sum_series(t0, ratio, z, tol, weights(), max_terms)
    star = float(z[np.argmax(np.abs(z))])
    ref = sum_series(t0, ratio, star, tol, weights(), max_terms)
    assert arr.value.shape == z.shape
    assert (arr.terms_used, arr.converged, arr.trunc_estimate) == (
        ref.terms_used, ref.converged, ref.trunc_estimate
    )
    scale = _abs_terms(t0, ratio, star, weights(), arr.terms_used)
    for zi, vi in zip(z, arr.value):
        # each node's own scalar sum stops no later; the difference is its
        # own truncation plus rounding
        own = sum_series(t0, ratio, float(zi), tol, weights(), max_terms)
        assert own.terms_used <= arr.terms_used
        assert abs(vi - own.value) <= own.trunc_estimate + 16 * _EPS * scale
    if kind == "all-zero":
        assert np.array_equal(arr.value, np.full(3, t0)) and arr.terms_used == 1
    elif kind == "capped":
        assert not arr.converged
        poly = [t0 * pfq_oracle((-5.0, 1.5), (2.5,), zi, 6) for zi in z]
        np.testing.assert_allclose(arr.value, poly, rtol=1e-14)
    elif kind == "near-zero-sum":
        assert arr.converged
        np.testing.assert_allclose(arr.value, np.cos(np.sqrt(z)), rtol=0, atol=1e-15)


# ---------------------------------------------------------------- k-Bessel


@pytest.mark.parametrize("z", [0.7, 3.0])
@pytest.mark.parametrize("c", [1.0, -1.0])
def test_k_bessel_truncation_estimate_bounds_refinement(z, c):
    p = KBesselParams(v=0.4, c=c, k=1.3)
    coarse = eval_k_bessel(p, z, 1e-6)
    fine = eval_k_bessel(p, z, 1e-13)
    assert abs(coarse.value - fine.value) <= coarse.trunc_estimate + 1e-15 * abs(fine.value)


@pytest.mark.parametrize("v,k,n0", [(-0.5, 0.5, 1), (-0.9, 0.45, 2)])
@pytest.mark.parametrize("c", [1.0, -1.0])
def test_k_bessel_reduced_series_starts_past_pole_lattice(v, k, n0, c):
    # 1 + v/k is a nonpositive integer: the first n0 terms vanish
    kb = KBesselParams(v=v, c=c, k=k)
    z = np.array([1e-3, 0.1, 0.8, 1.7, 3.0])
    arr = kbessel_reduced_series(kb, z, 1e-13)
    per_node = [_kbessel_sum(kb, float(zi), 1e-13).value for zi in z]
    np.testing.assert_allclose(arr, per_node, rtol=1e-12)
    oracle = [kbessel_reduced_oracle(v, c, k, float(zi)) for zi in z]
    np.testing.assert_allclose(arr, oracle, rtol=1e-12)
    y0 = -c * z[0] ** 2 / (4.0 * k)
    leading = y0**n0 / (math.gamma(n0 + 1.0 + v / k) * math.factorial(n0))
    assert arr[0] == pytest.approx(leading, rel=1e-5)


@pytest.mark.parametrize("pole", [-1, -2])
@pytest.mark.parametrize("delta", [1e-10, -1e-10, 5e-10, -5e-10, 1e-8, -1e-8])
def test_k_bessel_reduced_series_keeps_near_pole_terms(pole, delta):
    # v/k a hair off a pole of Gamma(n+1+v/k): the leading terms are small,
    # not zero (near these poles math.gamma is within an ulp of exact)
    k = 0.5 / -pole
    kb = KBesselParams(v=(pole + delta) * k, c=1.0, k=k)
    z = np.array([0.5, 1.0, 2.0])
    got = kbessel_reduced_series(kb, z, 1e-13)
    oracle = [kbessel_reduced_oracle(kb.v, kb.c, kb.k, float(zi)) for zi in z]
    np.testing.assert_allclose(got, oracle, rtol=1e-13)


def test_k_bessel_classical_reduction_grid():
    for v in (0.0, 1.0, 2.5):
        for z in (0.5, 1.0, 2.0, 5.0):
            sv = eval_k_bessel(KBesselParams(v=v, c=1.0, k=1.0), z, 1e-13)
            assert sv.value == pytest.approx(bessel_j_oracle(v, z), rel=1e-11, abs=1e-13)


def test_k_bessel_frozen_classical_value():
    sv = eval_k_bessel(KBesselParams(v=0.0, c=1.0, k=1.0), 1.0, 1e-14)
    assert sv.value == pytest.approx(0.76519768655796655145, rel=1e-13)


def test_k_bessel_at_zero_by_order():
    assert eval_k_bessel(KBesselParams(v=0.0, c=1.0, k=1.0), 0.0, 1e-12).value == 1.0
    assert eval_k_bessel(KBesselParams(v=1.2, c=1.0, k=1.0), 0.0, 1e-12).value == 0.0
    with pytest.raises(DomainError):
        eval_k_bessel(KBesselParams(v=-0.4, c=1.0, k=1.0), 0.0, 1e-12)


def test_k_bessel_negative_argument_rejected():
    with pytest.raises(DomainError):
        eval_k_bessel(KBesselParams(v=0.5, c=1.0, k=1.0), -1.0, 1e-12)


def test_k_bessel_zero_coefficient_is_pure_power():
    p = KBesselParams(v=0.8, c=0.0, k=1.3)
    z = 1.7
    expected = (z / (2 * 1.3)) ** (0.8 / 1.3) / math.gamma(0.8 / 1.3 + 1.0)
    assert eval_k_bessel(p, z, 1e-13).value == pytest.approx(expected, rel=1e-13)


def test_k_bessel_negative_c_gives_monotone_growth():
    # c < 0 makes every series term positive: the value exceeds its n=0 term
    p = KBesselParams(v=0.5, c=-1.0, k=1.0)
    z = 2.0
    first_term = (z / 2.0) ** 0.5 / math.gamma(1.5)
    assert eval_k_bessel(p, z, 1e-13).value > first_term


def test_k_bessel_params_validation():
    with pytest.raises(DomainError):
        KBesselParams(v=-1.0, c=1.0, k=1.0)
    with pytest.raises(DomainError):
        KBesselParams(v=0.5, c=1.0, k=0.0)


@given(
    v=st.floats(min_value=-0.5, max_value=2.0),
    k=st.floats(min_value=0.5, max_value=2.5),
    z=st.floats(min_value=0.01, max_value=6.0),
)
@settings(max_examples=150, deadline=None)
def test_k_bessel_scaling_against_generic_series(v, k, z):
    # independently recompute sum_n (-c z^2/(4k))^n / (Gamma(n+1+v/k) n!)
    if v / k + 1.0 <= 0.05:
        v = 0.5
    p = KBesselParams(v=v, c=1.0, k=k)
    sv = eval_k_bessel(p, z, 1e-13)
    y = -(z**2) / (4.0 * k)
    total = 0.0
    for n in range(80):
        total += y**n / (math.gamma(n + 1.0 + v / k) * math.gamma(n + 1.0))
    expected = (z / (2.0 * k)) ** (v / k) * total if z > 0 else (1.0 if v == 0 else 0.0)
    assert sv.value == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_sum_series_array_whose_terms_overflow_raises_overflow_error():
    # terms 1e200^n pass the float range at the largest node: the rescale to
    # the other nodes would meet inf * 0, so the sum refuses before it
    with pytest.raises(OverflowError, match="z[*] = 0.9"):
        sum_series(1.0, lambda n: 1e200, np.array([0.0, 0.5, 0.9]), 1e-15)
