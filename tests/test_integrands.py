"""Integrand descriptors: declared endpoint exponents and reduced smooth parts."""

import math

import numpy as np
import pytest

from fracbessel.errors import DomainError
from fracbessel.integrands import Integrand, kbessel_integrand, monomial
from fracbessel.series import KBesselParams, eval_k_bessel


def test_monomial_descriptor():
    f = monomial(1.4)
    t = np.array([0.3, 1.0, 2.5])
    np.testing.assert_allclose(f.fn(t), t**0.4)
    assert f.exponent_at_zero == pytest.approx(0.4)
    assert f.exponent_at_infinity == pytest.approx(0.4)
    np.testing.assert_allclose(f.reduced_at_zero(t), np.ones_like(t))
    np.testing.assert_allclose(f.reduced_at_infinity(t), np.ones_like(t))


def test_kbessel_integrand_direct_matches_pointwise_product():
    kb = KBesselParams(v=0.5, c=1.0, k=1.0)
    lam = 1.4
    f = kbessel_integrand(kb, lam, series_tol=1e-13)
    for t in (0.2, 0.7, 1.5, 3.0):
        w = eval_k_bessel(kb, t, 1e-13).value
        assert float(f.fn(np.array([t]))[0]) == pytest.approx(
            t ** (lam - 1.0) * w, rel=1e-11
        )


def test_kbessel_integrand_declared_zero_exponent_and_smooth_limit():
    kb = KBesselParams(v=0.8, c=1.0, k=2.0)
    lam = 0.6
    f = kbessel_integrand(kb, lam, series_tol=1e-13)
    vk = kb.v / kb.k
    assert f.exponent_at_zero == pytest.approx(lam / kb.k - 1.0 + vk)
    # reduced factor tends to the finite scale/Gamma(1+v/k) limit at 0+
    limit = (2.0 * kb.k) ** (-vk) / math.gamma(1.0 + vk)
    small = f.reduced_at_zero(np.array([1e-12]))
    assert float(small[0]) == pytest.approx(limit, rel=1e-10)


def test_kbessel_integrand_reciprocal_matches_pointwise_product():
    kb = KBesselParams(v=0.4, c=1.0, k=1.5)
    lam = 0.1
    f = kbessel_integrand(kb, lam, reciprocal=True, series_tol=1e-13)
    for t in (0.8, 1.3, 4.0):
        w = eval_k_bessel(kb, 1.0 / t, 1e-13).value
        assert float(f.fn(np.array([t]))[0]) == pytest.approx(
            t ** (lam / kb.k - 1.0) * w, rel=1e-11
        )


def test_kbessel_integrand_reciprocal_declared_tail_exponent():
    kb = KBesselParams(v=0.4, c=1.0, k=1.5)
    lam = 0.1
    f = kbessel_integrand(kb, lam, reciprocal=True, series_tol=1e-13)
    vk = kb.v / kb.k
    assert f.exponent_at_infinity == pytest.approx(lam / kb.k - 1.0 - vk)
    # reduced tail factor approaches the same finite limit as t -> infinity
    limit = (2.0 * kb.k) ** (-vk) / math.gamma(1.0 + vk)
    big = f.reduced_at_infinity(np.array([1e12]))
    assert float(big[0]) == pytest.approx(limit, rel=1e-10)


def test_generic_integrand_numeric_reduction_fallback():
    f = Integrand(
        fn=lambda t: t**0.5 * np.exp(-t),
        exponent_at_zero=0.5,
        exponent_at_infinity=None,
        smooth_at_zero=None,
        smooth_at_infinity=None,
        label="t^0.5 e^-t",
    )
    t = np.array([0.25, 0.8])
    np.testing.assert_allclose(f.reduced_at_zero(t), np.exp(-t), rtol=1e-12)


@pytest.mark.parametrize(
    "declared, reduce, side",
    [
        ({"exponent_at_infinity": -1.5}, Integrand.reduced_at_zero, "t->0"),
        ({"exponent_at_zero": 0.5}, Integrand.reduced_at_infinity, "t->inf"),
    ],
)
def test_reduction_without_its_exponent_names_the_integrand(declared, reduce, side):
    f = Integrand(fn=lambda t: t, label="only one side", **declared)
    message = f"integrand 'only one side' has no declared {side} exponent"
    with pytest.raises(DomainError, match=message):
        reduce(f, np.array([0.5]))


def test_kbessel_orders_and_arguments_past_the_float_range_are_refused_by_name():
    # v/k, lam/k and y = -c z^2/(4k) past the float range: each an
    # OverflowError naming it, never a NaN series or a bare conversion error
    with pytest.raises(OverflowError, match=r"KBesselParams: v/k = 10\.0/1e-308 leaves"):
        KBesselParams(v=10.0, c=1.0, k=1e-308)
    with pytest.raises(OverflowError, match=r"KBesselParams: v/k = -0\.5/1e-320 leaves"):
        KBesselParams(v=-0.5, c=1.0, k=1e-320)
    kb = KBesselParams(v=0.0, c=1.0, k=1e-308)
    with pytest.raises(OverflowError, match=r"kbessel_integrand: lam/k = 10\.0/1e-308 leaves"):
        kbessel_integrand(kb, lam=10.0)
    # a lam that is not finite is no overflow of lam/k: refused as such
    for lam in (math.nan, math.inf):
        with pytest.raises(DomainError, match=r"kbessel_integrand: parameters must be finite"):
            kbessel_integrand(KBesselParams(v=0.5, c=1.0, k=1.0), lam=lam)
    f = kbessel_integrand(kb, lam=1e-308)
    with pytest.raises(OverflowError, match=r"y = -c z\^2/\(4k\) at c=1\.0, k=1e-308, z up to 10\.0"):
        f.reduced_at_zero(np.array([0.5, 10.0]))
    with pytest.raises(OverflowError, match=r"y = -c z\^2/\(4k\) at c=1\.0, k=1e-308, z up to 10\.0"):
        eval_k_bessel(kb, 10.0)
