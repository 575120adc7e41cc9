"""Generalized (Saigo) fractional integral operators and their special cases.

Left-sided transform of f at x > 0:

    x^(-alpha-beta)/Gamma(alpha) * int_0^x (x-t)^(alpha-1)
        * 2F1(alpha+beta, -eta; alpha; 1 - t/x) * f(t) dt

Right-sided transform:

    1/Gamma(alpha) * int_x^inf (t-x)^(alpha-1) * t^(-alpha-beta)
        * 2F1(alpha+beta, -eta; alpha; 1 - x/t) * f(t) dt

Substituting t = x*u (left) and t = x/u (right) maps both onto (0, 1) with
a (1-u)^(alpha-1) endpoint weight at u=1 and an algebraic weight at u=0
coming from the integrand's declared power (plus, on the right, the
operator's own t-power).  The kernel's 2F1 contributes an additional
u^(eta-beta) branch at u=0; on the u < 1/2 half it is split off exactly
via the hypergeometric connection formula (or, at integer eta-beta, its
logarithmic variant) so every quadrature sees a pure Jacobi weight times
an analytic factor, at worst carrying a lone log(u).

Special cases: beta = -alpha collapses the kernel to 1 (classical
Riemann-Liouville); beta = 0 collapses it to (t/x)^eta (Erdelyi-Kober,
with overall prefactor x^(-alpha-eta)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AccuracyError, DomainError, require_finite
from .gammafns import gamma_ratio, log_gamma
from .hyp2f1 import hyp2f1_kernel, kernel_split
from .integrands import Integrand
from .quadrature import QuadratureResult, integrate_jacobi, integrate_log_jacobi


class Family(str, enum.Enum):
    SAIGO = "saigo"
    RIEMANN_LIOUVILLE = "riemann_liouville"
    ERDELYI_KOBER = "erdelyi_kober"


@dataclass(frozen=True)
class SaigoParams:
    """Operator orders (alpha > 0, beta, eta); family pins beta where required."""

    alpha: float
    beta: Optional[float] = None
    eta: float = 0.0
    family: Family = Family.SAIGO

    def __post_init__(self):
        if not (self.alpha > 0):
            raise DomainError(f"SaigoParams: alpha must be positive, got {self.alpha!r}")
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        if family is Family.RIEMANN_LIOUVILLE:
            forced = -self.alpha
        elif family is Family.ERDELYI_KOBER:
            forced = 0.0
        else:
            forced = None
        if forced is not None:
            if self.beta is not None and abs(self.beta - forced) > 1e-12:
                raise DomainError(
                    f"SaigoParams: family {family.value} forces beta={forced!r}, "
                    f"got {self.beta!r}"
                )
            object.__setattr__(self, "beta", forced)
        elif self.beta is None:
            raise DomainError("SaigoParams: the general family requires an explicit beta")
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "eta", float(self.eta))
        require_finite("SaigoParams", self.alpha, self.beta, self.eta)

    @property
    def kernel_abc(self) -> tuple[float, float, float]:
        """(a, b, c) of the kernel 2F1(a, b; c; .)."""
        return (self.alpha + self.beta, -self.eta, self.alpha)


def _integrate_soft(integrate, *args) -> QuadratureResult:
    """integrate(*args) that degrades to its best estimate instead of raising,
    so a struggling sub-integral still contributes its value and (honest)
    error to the combined transform, which makes the final accuracy call."""
    try:
        return integrate(*args)
    except AccuracyError as exc:
        return QuadratureResult(exc.value, exc.error_estimate, exc.evaluations)


# rounding allowance per combined piece: a few ulps of coefficient error
# (gamma-ratio construction) plus summation rounding
_COMBINE_EPS = 4.0 * float(np.finfo(float).eps)


def _combine(parts, pref: float, tol: float) -> QuadratureResult:
    value = pref * sum(coef * r.value for coef, r in parts)
    # each piece's own truncation claim, plus the rounding floor of the
    # coefficient combination: near-degenerate kernels (c-a-b within ~1e-5 of
    # an integer) carry branch coefficients of order 1/|c-a-b - m| whose
    # cancellation cost eps * sum|coef * piece| is invisible to any
    # individual piece estimate
    err = abs(pref) * sum(abs(coef) * r.error_estimate for coef, r in parts)
    err += abs(pref) * _COMBINE_EPS * sum(abs(coef * r.value) for coef, r in parts)
    evals = sum(r.evaluations for coef, r in parts)
    result = QuadratureResult(value, err, evals)
    if err > tol * max(1.0, abs(value)):
        raise AccuracyError(
            f"transform error estimate {err!r} exceeds tol {tol!r}",
            value=value,
            error_estimate=err,
            evaluations=evals,
        )
    return result


def _transform_core(p: SaigoParams, exp0: float, smooth, tol: float):
    """Shared left/right quadrature over u in (0,1).

    Computes int_0^1 (1-u)^(alpha-1) u^exp0 K(1-u) smooth(u) du, splitting
    at u=1/2 and applying the kernel connection split on the lower half.
    smooth must be analytic on [0, 1].
    """
    a, b, c = p.kernel_abc
    al = p.alpha
    # kernel combination data formed from the primitive orders: c-a-b and c-a
    # are exact this way, where recomputing them from the rounded sum
    # a = alpha+beta would put ~1 ulp of noise next to a gamma pole
    gamma = p.eta - p.beta
    c_minus_a = -p.beta
    c_minus_b = p.alpha + p.eta
    if not (exp0 > -1.0):
        raise DomainError(
            f"transform does not converge: endpoint exponent {exp0!r} <= -1 "
            "(integrand grows too fast against the operator weight)"
        )

    parts = []
    # upper half: kernel argument w = 1-u <= 1/2, direct series territory
    g_hi = lambda u: hyp2f1_kernel(a, b, c, 1.0 - u) * smooth(u) * np.power(u, exp0)
    parts.append((1.0, _integrate_soft(integrate_jacobi, g_hi, 0.5, 1.0, 0.0, al - 1.0, tol / 4)))

    # One weighted piece per kernel branch (a terminating kernel is a single
    # analytic branch): the u^exponent factor joins the endpoint weight
    # exactly; branches carrying a log(u) factor (integer eta-beta case) go
    # to the dedicated dyadic log-weight rule.
    for term in kernel_split(a, b, c, gamma, c_minus_a, c_minus_b):
        e0 = exp0 + term.exponent
        if not (e0 > -1.0):
            raise DomainError(
                f"transform does not converge: kernel branch exponent {e0!r} <= -1"
            )
        g = lambda u, s=term.series: s(u) * smooth(u) * np.power(1.0 - u, al - 1.0)
        if term.log_factor:
            parts.append((term.coef, _integrate_soft(integrate_log_jacobi, g, 0.5, e0, tol / 4)))
        else:
            parts.append((term.coef, _integrate_soft(integrate_jacobi, g, 0.0, 0.5, e0, 0.0, tol / 4)))
    return parts


def saigo_left(f: Integrand, p: SaigoParams, x: float, tol: float = 1e-9) -> QuadratureResult:
    """Left-sided generalized fractional integral of f at x."""
    if not (0 < x < math.inf):
        raise DomainError(f"saigo_left: x must be positive and finite, got {x!r}")
    p0 = f.exponent_at_zero
    if p0 is None:
        raise DomainError("saigo_left: integrand must declare its t->0 power exponent")

    smooth = lambda u: f.reduced_at_zero(x * u)
    parts = _transform_core(p, p0, smooth, tol)
    pref = math.exp((p0 - p.beta) * math.log(x) - log_gamma(p.alpha).log_abs)
    return _combine(parts, pref, tol)


def saigo_right(f: Integrand, p: SaigoParams, x: float, tol: float = 1e-9) -> QuadratureResult:
    """Right-sided generalized fractional integral of f at x."""
    if not (0 < x < math.inf):
        raise DomainError(f"saigo_right: x must be positive and finite, got {x!r}")
    qi = f.exponent_at_infinity
    if qi is None:
        raise DomainError("saigo_right: integrand must declare its t->inf power exponent")
    exp0 = p.beta - 1.0 - qi  # u-power at 0 after t = x/u
    if not (exp0 > -1.0):
        raise DomainError(
            f"saigo_right: tail exponent {qi!r} >= beta={p.beta!r}; the integral diverges"
        )

    smooth = lambda u: f.reduced_at_infinity(x / u)
    parts = _transform_core(p, exp0, smooth, tol)
    pref = math.exp((qi - p.beta) * math.log(x) - log_gamma(p.alpha).log_abs)
    return _combine(parts, pref, tol)


def rl_left(f: Integrand, alpha: float, x: float, tol: float = 1e-9) -> QuadratureResult:
    """Classical left Riemann-Liouville fractional integral (kernel = 1)."""
    return saigo_left(f, SaigoParams(alpha, family=Family.RIEMANN_LIOUVILLE), x, tol)


def rl_right(f: Integrand, alpha: float, x: float, tol: float = 1e-9) -> QuadratureResult:
    """Classical right Riemann-Liouville (Weyl) fractional integral."""
    return saigo_right(f, SaigoParams(alpha, family=Family.RIEMANN_LIOUVILLE), x, tol)


def ek_left(f: Integrand, alpha: float, eta: float, x: float, tol: float = 1e-9) -> QuadratureResult:
    """Left Erdelyi-Kober transform: x^(-alpha-eta)/Gamma(alpha) *
    int_0^x (x-t)^(alpha-1) t^eta f(t) dt."""
    return saigo_left(f, SaigoParams(alpha, eta=eta, family=Family.ERDELYI_KOBER), x, tol)


def ek_right(f: Integrand, alpha: float, eta: float, x: float, tol: float = 1e-9) -> QuadratureResult:
    """Right Erdelyi-Kober transform."""
    return saigo_right(f, SaigoParams(alpha, eta=eta, family=Family.ERDELYI_KOBER), x, tol)


# ---------------------------------------------------------------------------
# Closed-form monomial images
# ---------------------------------------------------------------------------


def saigo_left_monomial(p: SaigoParams, lam: float) -> tuple[float, float]:
    """(coefficient, exponent) with left-transform of t^(lam-1) equal to
    coefficient * x^exponent; requires lam > max(0, beta - eta)."""
    if not (lam > max(0.0, p.beta - p.eta)):
        raise DomainError(
            f"saigo_left_monomial: needs lam > max(0, beta-eta) = "
            f"{max(0.0, p.beta - p.eta)!r}, got {lam!r}"
        )
    log_r, sign = gamma_ratio([lam, lam + p.eta - p.beta], [lam - p.beta, lam + p.alpha + p.eta])
    coeff = sign * math.exp(log_r) if sign else 0.0
    return coeff, lam - p.beta - 1.0


def saigo_right_monomial(p: SaigoParams, lam: float) -> tuple[float, float]:
    """(coefficient, exponent) for the right transform of t^(lam-1);
    requires lam < 1 + min(beta, eta)."""
    if not (lam < 1.0 + min(p.beta, p.eta)):
        raise DomainError(
            f"saigo_right_monomial: needs lam < 1 + min(beta, eta) = "
            f"{1.0 + min(p.beta, p.eta)!r}, got {lam!r}"
        )
    log_r, sign = gamma_ratio(
        [p.eta - lam + 1.0, p.beta - lam + 1.0],
        [1.0 - lam, p.alpha + p.beta + p.eta - lam + 1.0],
    )
    coeff = sign * math.exp(log_r) if sign else 0.0
    return coeff, lam - p.beta - 1.0


def ek_left_monomial(alpha: float, eta: float, lam: float) -> tuple[float, float]:
    """Left Erdelyi-Kober image of t^(lam-1): Gamma(lam+eta)/Gamma(lam+alpha+eta)
    * x^(lam-1); requires lam > -eta."""
    if not (lam > -eta):
        raise DomainError(f"ek_left_monomial: needs lam > -eta = {-eta!r}, got {lam!r}")
    log_r, sign = gamma_ratio([lam + eta], [lam + alpha + eta])
    coeff = sign * math.exp(log_r) if sign else 0.0
    return coeff, lam - 1.0


def ek_right_monomial(alpha: float, eta: float, lam: float) -> tuple[float, float]:
    """Right Erdelyi-Kober image of t^(lam-1); requires lam < 1 + eta."""
    if not (lam < 1.0 + eta):
        raise DomainError(f"ek_right_monomial: needs lam < 1+eta = {1.0 + eta!r}, got {lam!r}")
    log_r, sign = gamma_ratio([eta - lam + 1.0], [alpha + eta - lam + 1.0])
    coeff = sign * math.exp(log_r) if sign else 0.0
    return coeff, lam - 1.0


def rl_left_monomial(alpha: float, lam: float) -> tuple[float, float]:
    """Left Riemann-Liouville image of t^(lam-1):
    Gamma(lam)/Gamma(lam+alpha) * x^(lam+alpha-1); requires lam > 0."""
    p = SaigoParams(alpha, family=Family.RIEMANN_LIOUVILLE)
    return saigo_left_monomial(p, lam)


def rl_right_monomial(alpha: float, lam: float) -> tuple[float, float]:
    """Right Riemann-Liouville image of t^(lam-1); requires lam < 1 - alpha."""
    p = SaigoParams(alpha, family=Family.RIEMANN_LIOUVILLE)
    return saigo_right_monomial(p, lam)
