"""Gauss hypergeometric 2F1 for the fractional-integral kernels, vectorized.

A transform's kernel is 2F1(a, b; c; 1-u) over quadrature nodes u in (0, 1).
On the upper half, u >= 1/2, the argument w = 1-u is at most 1/2 and the
direct series converges fast: hyp2f1_kernel sums it there, and only there.
On the lower half the direct series would need O(1/u) terms, so
``kernel_split`` expands the kernel about w = 1 instead, in powers of u; it
is the only such expansion.  Three regimes cover every kernel:

* terminating (a or b a nonpositive integer to rounding): exact
  polynomial, as a single analytic term;
* c-a-b not an integer: the two-branch connection formula

      2F1(a,b;c;1-u) = A * 2F1(a, b; a+b-c+1; u)
                     + B * u^(c-a-b) * 2F1(c-a, c-b; c-a-b+1; u)

  with gamma-ratio coefficients A, B;
* c-a-b an integer m (the two branches above degenerate): the logarithmic
  expansion, a finite polynomial plus u^max(m,0) * (analytic + log(u) *
  analytic) series with digamma coefficients.

Every series here, polynomials included, is summed by series.sum_series.

``kernel_split`` returns the decomposition itself (coefficient, power of u,
optional log(u) factor, analytic series per branch) so quadrature can absorb
each u-power into an exact endpoint weight instead of sampling a singular
integrand.  Inputs within 2e-9 of an integer c-a-b use the integer branch:
below that offset the connection coefficients lose more to cancellation
(~eps/offset) than the integer formula loses to the parameter rounding
(~offset * |log u|), and the crossover sits near sqrt(eps).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, require_finite
from .gammafns import digamma, gamma_ratio, is_pole
from .series import MAX_TERMS, sum_series

_INT_TOL = 2e-9


def _series_2f1(
    a: float, b: float, c: float, w: np.ndarray, weights=None, max_terms: int = MAX_TERMS
) -> np.ndarray:
    """Direct 2F1 series sum_n (a)_n (b)_n / ((c)_n n!) w^n, vectorized over w
    with |w| <= ~0.6; weights and max_terms as in sum_series."""
    ratio = lambda n: (a + n) * (b + n) / ((c + n) * (n + 1.0))
    return sum_series(1.0, ratio, w, 1e-15, weights, max_terms).value


def _degree(x: float) -> int | None:
    """m when x is the nonpositive integer -m to within 4 ulps of max(1, m),
    else None.  That close, the polynomial is exact to rounding, while the
    connection formulas would lose the offset in sums such as b+m; a larger
    offset does not terminate the series (1e-10 off, the polynomial is
    1e-10 relative off the kernel)."""
    m = -round(x)
    return m if m >= 0 and abs(x + m) <= 4.0 * math.ulp(max(1.0, m)) else None


def _terminating_polynomial(a: float, b: float, c: float) -> Callable | None:
    """w -> 2F1(a, b; c; w) as its exact polynomial when a or b is a
    nonpositive integer -m (the one of lower degree; see _degree), else
    None.  A c within POLE_TOL of -n with n < m is met before the series
    terminates: DomainError."""
    m, mb = _degree(a), _degree(b)
    if mb is not None and (m is None or mb < m):
        a, b, m = b, a, mb
    if m is None:
        return None
    if is_pole(c) and m > -round(c):
        raise DomainError(f"2F1 series: lower parameter {c!r} is a nonpositive integer")
    return lambda w: _series_2f1(a, b, c, w, max_terms=m + 1)


@dataclass(frozen=True)
class KernelTerm:
    """One branch of the kernel's expansion around u = 1-w = 0.

    Contributes coef * u**exponent * (log(u) if log_factor else 1) * series(u),
    with series analytic on [0, ~0.6) and series(0) finite.
    """

    coef: float
    exponent: float
    log_factor: bool
    series: Callable[[np.ndarray], np.ndarray]


def log_connection_parts(a: float, b: float, c: float, m: int) -> list[KernelTerm]:
    """Kernel decomposition when c - a - b equals the integer m.

    The two-branch connection formula degenerates there; instead the kernel
    obeys the logarithmic expansion: for m >= 0

        2F1 = Cf * P(u) + Cl * u^m * (S_d(u) + log(u) * S(u)),

    with P the first m terms of 2F1(a, b; 1-m; u) (absent at m = 0), S the
    series u -> 2F1(a+m, b+m; m+1; u) / m!, and S_d the same series weighted
    by digamma sums.  m <= -1 follows from Euler's transformation
    2F1(a,b;c;1-u) = u^m 2F1(c-a, c-b; c; 1-u), whose c-a-b is -m: every
    exponent shifts by m.  Coefficients at a gamma pole of their denominator
    are exactly zero.
    """
    if m < 0:
        return [
            dataclasses.replace(t, exponent=t.exponent + m)
            for t in log_connection_parts(a + m, b + m, c, -m)
        ]
    terms: list[KernelTerm] = []
    if m:
        cf = gamma_ratio([float(m), c], [a + m, b + m]).value
        if cf:
            terms.append(
                KernelTerm(cf, 0.0, False, lambda u: _series_2f1(a, b, 1.0 - m, u, max_terms=m))
            )
    cl = -((-1.0) ** m) * gamma_ratio([c], [a, b]).value
    if cl:
        am, bm, t0 = a + m, b + m, 1.0 / math.factorial(m)
        # weights d_n = psi(a+m+n) + psi(b+m+n) - psi(n+1) - psi(m+n+1), by recurrence
        d0 = digamma(am) + digamma(bm) - digamma(1.0) - digamma(m + 1.0)
        step = lambda n: 1.0 / (am + n) + 1.0 / (bm + n) - 1.0 / (n + 1.0) - 1.0 / (m + n + 1.0)

        def weighted(u: np.ndarray) -> np.ndarray:
            d = itertools.accumulate(map(step, itertools.count()), initial=d0)
            return t0 * _series_2f1(am, bm, m + 1.0, u, weights=d)

        terms.append(KernelTerm(cl, float(m), False, weighted))
        terms.append(KernelTerm(cl, float(m), True, lambda u: t0 * _series_2f1(am, bm, m + 1.0, u)))
    return terms


def kernel_split(
    a: float, b: float, c: float, gamma: float, c_minus_a: float, c_minus_b: float
) -> list[KernelTerm]:
    """Branches of 2F1(a,b;c;1-u) around u = 0, valid for u in (0, ~0.6).

    Terminating kernels come back as a single analytic term (the exact
    polynomial; a pole of c met before termination raises here); integer
    c-a-b uses the logarithmic expansion; everything else the two-branch
    connection formula.  Terms with exactly zero coefficient are omitted; a
    coefficient past the float range raises an OverflowError that names the
    kernel.

    gamma, c_minus_a and c_minus_b are c-a-b, c-a and c-b, passed exactly
    rather than recomputed from the rounded a, b, c (the operator kernel has
    a = alpha+beta, b = -eta, c = alpha, so c-a-b = eta-beta and c-a = -beta
    exactly): near a gamma pole the coefficients amplify one rounding of a
    composite by 1/|pole distance|.
    """
    require_finite("kernel_split", a, b, c, gamma, c_minus_a, c_minus_b)
    poly = _terminating_polynomial(a, b, c)
    if poly is not None:
        return [KernelTerm(1.0, 0.0, False, lambda u: poly(1.0 - u))]
    r = round(gamma)
    try:
        if abs(gamma - r) <= _INT_TOL:
            return log_connection_parts(a, b, c, int(r))
        coef_a = gamma_ratio([c, gamma], [c_minus_a, c_minus_b]).value
        coef_b = gamma_ratio([c, -gamma], [a, b]).value
    except OverflowError as exc:
        raise OverflowError(
            f"kernel_split: a branch coefficient of 2F1({a!r}, {b!r}; {c!r}) leaves the float range"
        ) from exc
    terms = []
    if coef_a:
        terms.append(KernelTerm(coef_a, 0.0, False, lambda u: _series_2f1(a, b, 1.0 - gamma, u)))
    if coef_b:
        terms.append(KernelTerm(
            coef_b, gamma, False, lambda u: _series_2f1(c_minus_a, c_minus_b, gamma + 1.0, u)
        ))
    return terms


def hyp2f1_kernel(a: float, b: float, c: float, w: np.ndarray) -> np.ndarray:
    """2F1(a, b; c; w) for array w in [0, 1/2], by its direct series (or its
    exact polynomial); a w outside [0, 1/2] raises DomainError."""
    w = np.asarray(w, dtype=float)
    require_finite("hyp2f1_kernel", a, b, c)
    # written so that a NaN node fails the check
    if w.size and not (float(np.min(w)) >= 0.0 and float(np.max(w)) <= 0.5):
        raise DomainError("hyp2f1_kernel: arguments must lie in [0, 1/2]")
    poly = _terminating_polynomial(a, b, c)
    if poly is not None:
        return poly(w)
    if is_pole(c):
        raise DomainError(f"2F1 series: lower parameter {c!r} is a nonpositive integer")
    return _series_2f1(a, b, c, w)
