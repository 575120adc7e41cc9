"""Gauss hypergeometric 2F1 on [0, 1), vectorized, tuned for operator kernels.

The fractional-integral kernels need 2F1(a, b; c; w) with w running over
quadrature nodes that approach 1 arbitrarily closely.  The direct series
needs O(1/(1-w)) terms there, so for w > 1/2 the evaluation switches to
an expansion in powers of u = 1-w.  Three regimes cover every input:

* terminating (a or b a nonpositive integer): exact polynomial for any w;
* c-a-b not an integer: the two-branch connection formula

      2F1(a,b;c;w) = A * 2F1(a, b; a+b-c+1; u)
                   + B * u^(c-a-b) * 2F1(c-a, c-b; c-a-b+1; u)

  with gamma-ratio coefficients A, B;
* c-a-b an integer m (the two branches above degenerate): the logarithmic
  expansion, a finite polynomial plus u^max(m,0) * (analytic + log(u) *
  analytic) series with digamma coefficients.

Every series here, polynomials included, is summed by series.sum_series.

``kernel_split`` exposes the decomposition itself (coefficient, power of u,
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
from typing import Callable, Sequence

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


def _terminating_index(x: float) -> int | None:
    """m such that x == -m (within tolerance) for nonnegative integer m, else None."""
    r = round(x)
    if r <= 0 and abs(x - r) <= 1e-9:
        return -int(r)
    return None


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


def _gamma_ratio_value(num: Sequence[float], den: Sequence[float]) -> float:
    log_r, sign = gamma_ratio(num, den)
    return sign * math.exp(log_r) if sign else 0.0


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
        cf = _gamma_ratio_value([float(m), c], [a + m, b + m])
        if cf:
            terms.append(
                KernelTerm(cf, 0.0, False, lambda u: _series_2f1(a, b, 1.0 - m, u, max_terms=m))
            )
    cl = -((-1.0) ** m) * _gamma_ratio_value([c], [a, b])
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
    a: float,
    b: float,
    c: float,
    gamma: float | None = None,
    c_minus_a: float | None = None,
    c_minus_b: float | None = None,
) -> list[KernelTerm]:
    """Branches of 2F1(a,b;c;1-u) around u = 0, valid for u in (0, ~0.6).

    Terminating kernels come back as a single analytic term; integer c-a-b
    uses the logarithmic expansion; everything else the two-branch connection
    formula.  Terms with exactly zero coefficient are omitted.

    gamma, c_minus_a and c_minus_b default to the obvious differences;
    callers that know the parameters as sums of primitives (the operator
    kernel has a = alpha+beta, b = -eta, c = alpha, so c-a-b = eta-beta and
    c-a = -beta exactly) should pass those directly -- near a gamma pole the
    coefficients amplify one rounding of a composite by 1/|pole distance|.
    """
    g = c - a - b if gamma is None else gamma
    if c_minus_a is None:
        c_minus_a = c - a
    if c_minus_b is None:
        c_minus_b = c - b
    require_finite("kernel_split", a, b, c, g, c_minus_a, c_minus_b)
    if _terminating_index(a) is not None or _terminating_index(b) is not None:
        return [
            KernelTerm(
                1.0, 0.0, False,
                lambda u: hyp2f1_kernel(a, b, c, 1.0 - np.asarray(u, dtype=float)),
            )
        ]
    r = round(g)
    if abs(g - r) <= _INT_TOL:
        return log_connection_parts(a, b, c, int(r))
    terms = []
    coef_a = _gamma_ratio_value([c, g], [c_minus_a, c_minus_b])
    if coef_a:
        terms.append(KernelTerm(coef_a, 0.0, False, lambda u: _series_2f1(a, b, 1.0 - g, u)))
    coef_b = _gamma_ratio_value([c, -g], [a, b])
    if coef_b:
        terms.append(
            KernelTerm(coef_b, g, False, lambda u: _series_2f1(c_minus_a, c_minus_b, g + 1.0, u))
        )
    return terms


def hyp2f1_kernel(a: float, b: float, c: float, w: np.ndarray) -> np.ndarray:
    """2F1(a, b; c; w) for array w in [0, 1)."""
    w = np.asarray(w, dtype=float)
    require_finite("hyp2f1_kernel", a, b, c)
    # written so that a NaN node fails the check
    if w.size and not (float(np.min(w)) >= 0.0 and float(np.max(w)) < 1.0):
        raise DomainError("hyp2f1_kernel: arguments must lie in [0, 1)")

    # Terminating series: exact polynomial for any w.
    m = _terminating_index(a)
    mb = _terminating_index(b)
    if mb is not None and (m is None or mb < m):
        a, b = b, a
        m = mb
    # a pole c = -n with n < m is met before the series terminates
    if m is not None and not (is_pole(c) and m > -round(c)):
        return _series_2f1(a, b, c, w, max_terms=m + 1)
    if is_pole(c):
        raise DomainError(f"2F1 series: lower parameter {c!r} is a nonpositive integer")

    out = np.empty_like(w)
    near = w <= 0.5
    if np.any(near):
        out[near] = _series_2f1(a, b, c, w[near])
    far = ~near
    if np.any(far):
        u = 1.0 - w[far]
        vals = np.zeros_like(u)
        for t in kernel_split(a, b, c):
            v = t.coef * t.series(u)
            if t.exponent != 0.0:
                v = v * np.power(u, t.exponent)
            if t.log_factor:
                v = v * np.log(u)
            vals = vals + v
        out[far] = vals
    return out
