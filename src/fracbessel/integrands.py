"""Integrand descriptions for the fractional-integral operators.

An Integrand couples a vectorized callable with its declared algebraic
behavior: the leading power exponent at t -> 0+ (left-sided transforms)
and at t -> infinity (right-sided transforms).  When the factored smooth
part f(t) * t^(-exponent) admits a cancellation-free closed form, the
builder supplies it directly so the quadrature never multiplies huge and
tiny powers together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, require_finite, require_positive_finite
from .series import KBesselParams, kbessel_reduced_series


@dataclass(frozen=True)
class Integrand:
    """Vectorized integrand with declared endpoint power behavior.

    fn maps a positive float array to floats.  exponent_at_zero is e0 with
    f(t) ~ C t^e0 as t -> 0+; exponent_at_infinity is ei with f(t) ~ C t^ei
    as t -> inf.  Left-sided transforms require e0, right-sided require ei.
    smooth_at_zero / smooth_at_infinity, when given, compute f(t) * t^(-e)
    without forming the individual factors.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    exponent_at_zero: Optional[float] = None
    exponent_at_infinity: Optional[float] = None
    smooth_at_zero: Optional[Callable[[np.ndarray], np.ndarray]] = None
    smooth_at_infinity: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""

    def reduced_at_zero(self, t: np.ndarray) -> np.ndarray:
        if self.exponent_at_zero is None:
            raise DomainError(f"integrand {self.label!r} has no declared t->0 exponent")
        if self.smooth_at_zero is not None:
            return self.smooth_at_zero(t)
        return self.fn(t) * np.power(t, -self.exponent_at_zero)

    def reduced_at_infinity(self, t: np.ndarray) -> np.ndarray:
        if self.exponent_at_infinity is None:
            raise DomainError(f"integrand {self.label!r} has no declared t->inf exponent")
        if self.smooth_at_infinity is not None:
            return self.smooth_at_infinity(t)
        return self.fn(t) * np.power(t, -self.exponent_at_infinity)


def monomial(lam: float) -> Integrand:
    """The power function t^(lam-1)."""
    e = lam - 1.0
    ones = lambda t: np.ones_like(t)
    return Integrand(
        fn=lambda t: np.power(t, e),
        exponent_at_zero=e,
        exponent_at_infinity=e,
        smooth_at_zero=ones,
        smooth_at_infinity=ones,
        label=f"monomial(lam={lam})",
    )


def kbessel_integrand(
    kb: KBesselParams,
    lam: float,
    reciprocal: bool = False,
    series_tol: float = 1e-11,
) -> Integrand:
    """t^(lam/k - 1) * W_{v,c}^k(t), or with W(1/t) when reciprocal=True.

    The direct form is meant for left-sided transforms (declared exponent
    at 0 is lam/k - 1 + v/k); the reciprocal form for right-sided ones
    (declared exponent at infinity is lam/k - 1 - v/k).
    """
    require_positive_finite("kbessel_integrand", "series_tol", series_tol)
    require_finite("kbessel_integrand", lam)
    vk = kb.v / kb.k
    power = lam / kb.k - 1.0
    if not math.isfinite(power):  # lam and v/k are finite (KBesselParams)
        raise OverflowError(
            f"kbessel_integrand: lam/k = {lam!r}/{kb.k!r} leaves the float range"
        )
    scale = math.exp(-vk * math.log(2.0 * kb.k))  # (2k)^(-v/k)
    label = f"t^({lam}/{kb.k}-1)*W[v={kb.v},c={kb.c},k={kb.k}]"

    def smooth(t: np.ndarray) -> np.ndarray:
        return scale * kbessel_reduced_series(kb, t, series_tol)

    if reciprocal:
        e = power - vk
        smooth_inf = lambda t: smooth(1.0 / t)
        return Integrand(
            fn=lambda t: np.power(t, e) * smooth_inf(t),
            exponent_at_infinity=e,
            smooth_at_infinity=smooth_inf,
            label=label + "(1/t)",
        )
    e = power + vk
    return Integrand(
        fn=lambda t: np.power(t, e) * smooth(t),
        exponent_at_zero=e,
        smooth_at_zero=smooth,
        label=label + "(t)",
    )
