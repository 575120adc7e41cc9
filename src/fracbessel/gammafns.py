"""Gamma-family primitives: signed log-gamma, k-gamma, Pochhammer, beta.

Everything downstream (series terms, operator prefactors, closed-form
coefficients) is assembled from sums of log-gammas with explicit sign
tracking, so ratios of large gammas never overflow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, require_finite

#: Where a gamma must be evaluated, arguments this close to a nonpositive integer
#: are poles; 1/Gamma is zero only at exact ones (1/Gamma(-n+d) ~ (-1)^n n! d).
POLE_TOL = 1e-9

# digamma's asymptotic series (Abramowitz & Stegun 6.3.18) is used from here up
_PSI_ASYMPTOTIC_FROM = 10.0
# B_2k / (2k) for k = 1..7; at x >= 10 the first omitted term is below 5e-17
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


class LogGammaValue(NamedTuple):
    """log|Gamma(x)| together with the sign of Gamma(x) (0 for a value that
    is exactly zero)."""

    log_abs: float
    sign: int

    @property
    def value(self) -> float:
        return self.sign * math.exp(self.log_abs)


def is_pole(x: float) -> bool:
    """True when x is within POLE_TOL of a nonpositive integer (a gamma pole)."""
    if x > 0.5:
        return False
    r = round(x)
    return r <= 0 and abs(x - r) <= POLE_TOL


def is_exact_pole(x: float) -> bool:
    """True when x is exactly a nonpositive integer, where 1/Gamma(x) = 0."""
    return x <= 0.0 and x == round(x)


def gamma_sign(x: float) -> int:
    """Sign of Gamma(x) for non-pole x: positive for x>0, alternating below."""
    if x > 0:
        return 1
    # Gamma alternates sign between consecutive negative integers:
    # negative on (-1,0), positive on (-2,-1), ...
    return 1 if math.floor(x) % 2 == 0 else -1


def log_gamma(x: float) -> LogGammaValue:
    """Signed log of Gamma(x); raises DomainError at (near-)poles.

    Negative non-pole arguments are fine: the magnitude comes from
    lgamma (reflection internally) and the sign from floor parity.
    """
    require_finite("log_gamma", x)
    if is_pole(x):
        raise DomainError(f"log_gamma: argument {x!r} is within {POLE_TOL} of a gamma pole")
    return LogGammaValue(math.lgamma(x), gamma_sign(x))


def digamma(x: float) -> float:
    """Digamma psi(x); keeps full relative accuracy arbitrarily close to poles.

    Library reflection formulas evaluate tan(pi*x) from a rounded pi*x and so
    lose ~eps/delta**2 absolute accuracy within delta of a nonpositive integer.
    Shifting with psi(x) = psi(x+1) - 1/x instead stays exact: each addition of
    1 below 0.5 is exact in floating point (Sterbenz cancellation across the
    pole), so the dominant 1/(x+j) term carries only ~eps relative error.  From
    0.5 the same recurrence shifts x up to 10, where the asymptotic series
    psi(x) ~ log x - 1/(2x) - sum_k B_2k / (2k x^2k) (Abramowitz & Stegun
    6.3.18) is accurate to a few ulps of max(|psi|, 1).  Exact nonpositive
    integers raise DomainError.
    """
    require_finite("digamma", x)
    if is_exact_pole(x):
        raise DomainError(f"digamma: argument {x!r} is a nonpositive-integer pole")
    shift = 0.0
    if x < 0.5:
        n = int(math.ceil(0.5 - x))
        if n > 10**7:
            raise DomainError(f"digamma: argument {x!r} too negative to shift")
        for _ in range(n):
            shift -= 1.0 / x
            x += 1.0
    terms = [shift]
    while x < _PSI_ASYMPTOTIC_FROM:
        terms.append(-1.0 / x)
        x += 1.0
    z = 1.0 / (x * x)
    series = 0.0
    for coef in reversed(_PSI_SERIES):
        series = (series + coef) * z
    terms += (math.log(x), -0.5 / x, -series)
    return math.fsum(terms)


def gamma_ratio(numerators, denominators) -> LogGammaValue:
    """(log|r|, sign) for r = prod Gamma(numerators) / prod Gamma(denominators).

    An exact pole among the denominators makes the ratio exactly zero
    (reciprocal-gamma convention): returns (-inf, 0), whose value is 0.0; a
    near one does not.
    A numerator within POLE_TOL of a pole raises DomainError.
    """
    log_abs = 0.0
    sign = 1
    for a in numerators:
        lg = log_gamma(a)  # raises on poles
        log_abs += lg.log_abs
        sign *= lg.sign
    for b in denominators:
        if is_exact_pole(b):
            return LogGammaValue(-math.inf, 0)
        log_abs -= math.lgamma(b)
        sign *= gamma_sign(b)
    return LogGammaValue(log_abs, sign)


def k_gamma(z: float, k: float) -> float:
    """k-deformed gamma: Gamma_k(z) = k**(z/k - 1) * Gamma(z/k), k > 0.

    Satisfies Gamma_k(z + k) = z * Gamma_k(z) and Gamma_1 = Gamma.
    """
    if not (k > 0):
        raise DomainError(f"k_gamma: k must be positive, got {k!r}")
    zk = z / k
    lg = log_gamma(zk)  # raises at poles of Gamma(z/k)
    try:
        return lg.sign * math.exp((zk - 1.0) * math.log(k) + lg.log_abs)
    except OverflowError:
        raise OverflowError(f"k_gamma: Gamma_k({z!r}) at k={k!r} leaves the float range") from None


def pochhammer(z: float, n: int) -> float:
    """Rising factorial (z)_n = z(z+1)...(z+n-1); (z)_0 = 1.

    Exactly 0.0 when a factor is zero (z a nonpositive integer, -z < n), else
    the direct product; past the float range it stops at +-inf, signed by the
    negative factors still to come, within a few hundred factors for any n.
    """
    require_finite("pochhammer", z, n)
    if n < 0 or n != int(n):
        raise DomainError(f"pochhammer: n must be a nonnegative integer, got {n!r}")
    n = int(n)
    if is_exact_pole(z) and -z < n:
        return 0.0
    out = 1.0
    for j in range(n):
        out *= z + j
        if math.isinf(out):
            negative_left = max(0, min(n, math.ceil(-z)) - j - 1)
            return -out if negative_left % 2 else out
    return out


def beta_fn(x: float, y: float) -> float:
    """Euler beta for positive arguments, symmetric bit-for-bit in (x, y)."""
    require_finite("beta_fn", x, y)
    if not (x > 0 and y > 0):
        raise DomainError(f"beta_fn: arguments must be positive, got ({x!r}, {y!r})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
