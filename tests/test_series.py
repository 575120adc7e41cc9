"""Series engines: generalized hypergeometric, Fox-Wright, k-Bessel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbessel.errors import ConvergenceError, DomainError
from fracbessel.series import (
    HypergeomSpec,
    KBesselParams,
    WrightSpec,
    eval_k_bessel,
    eval_pfq,
    eval_wright,
    gauss_2f1_at_1,
    sum_series,
    wright_convergence_index,
)

from _oracles import bessel_j_oracle, pfq_oracle, wright_oracle


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
    # 2F1(1.5, 2.5; 1.2; w) over an array of nodes: one estimate, on the
    # max norm, covers the truncation error of every node
    w = np.linspace(0.05, 0.6, 12)
    ratio = lambda n: (1.5 + n) * (2.5 + n) / ((1.2 + n) * (n + 1.0))
    coarse = sum_series(np.ones_like(w), ratio, w, 1e-6)
    fine = sum_series(np.ones_like(w), ratio, w, 1e-13)
    assert coarse.converged and fine.converged
    assert coarse.trunc_estimate >= float(np.max(np.abs(coarse.value - fine.value)))


# ---------------------------------------------------------------- k-Bessel


@pytest.mark.parametrize("z", [0.7, 3.0])
@pytest.mark.parametrize("c", [1.0, -1.0])
def test_k_bessel_truncation_estimate_bounds_refinement(z, c):
    p = KBesselParams(v=0.4, c=c, k=1.3)
    coarse = eval_k_bessel(p, z, 1e-6)
    fine = eval_k_bessel(p, z, 1e-13)
    assert abs(coarse.value - fine.value) <= coarse.trunc_estimate + 1e-15 * abs(fine.value)


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
