"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's own code paths: log-gamma comes from
a shifted Stirling series with Bernoulli-number corrections, the classical
Bessel function from its direct power series via math.gamma, and the
hypergeometric sums from brute-force Pochhammer products.
"""

from __future__ import annotations

import math

# Bernoulli numbers B_2 .. B_16
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def lgamma_oracle(x: float) -> float:
    """log Gamma(x) for x > 0 via the Stirling series, shifted to x >= 32."""
    if not (x > 0):
        raise ValueError(f"lgamma_oracle needs x > 0, got {x!r}")
    shift = 0.0
    y = x
    while y < 32.0:
        shift += math.log(y)
        y += 1.0
    series = 0.0
    for j, b2j in enumerate(_BERNOULLI, start=1):
        series += b2j / (2 * j * (2 * j - 1) * y ** (2 * j - 1))
    return (y - 0.5) * math.log(y) - y + _HALF_LOG_TWO_PI + series - shift


def bessel_j_oracle(v: float, z: float, n_terms: int = 30) -> float:
    """Classical Bessel J_v(z) via its power series, v > -1, z >= 0."""
    total = 0.0
    half = 0.5 * z
    for n in range(n_terms):
        term = (-1.0) ** n * half ** (2 * n + v) / (
            math.gamma(n + 1) * math.gamma(n + 1 + v)
        )
        total += term
    return total


def kbessel_reduced_oracle(v: float, c: float, k: float, z: float, n_terms: int = 60) -> float:
    """sum_n y^n / (Gamma(n+1+v/k) n!) at y = -c z^2/(4k), term by term via
    math.gamma; a term whose Gamma(n+1+v/k) sits on a pole is zero."""
    y = -c * z * z / (4.0 * k)
    total = 0.0
    for n in range(n_terms):
        x = n + 1.0 + v / k
        if x <= 0 and x == round(x):
            continue
        total += y**n / (math.gamma(x) * math.gamma(n + 1.0))
    return total


def pochhammer_oracle(a: float, n: int) -> float:
    """(a)_n as an explicit product."""
    out = 1.0
    for i in range(n):
        out *= a + i
    return out


def pfq_oracle(upper, lower, z: float, n_terms: int = 60) -> float:
    """Brute-force partial sum of pFq, each term built as a fresh product
    with multiplies and divides interleaved to keep magnitudes balanced."""
    total = 0.0
    for n in range(n_terms):
        term = 1.0
        for i in range(n):
            for a in upper:
                term *= a + i
            for b in lower:
                term /= b + i
            term *= z / (i + 1)
        total += term
    return total


def wright_oracle(upper, lower, z: float, n_terms: int = 60) -> float:
    """Brute-force Fox-Wright sum; all gamma arguments must stay positive."""
    total = 0.0
    for n in range(n_terms):
        log_term = 0.0
        for (a, step) in upper:
            log_term += lgamma_oracle(a + step * n)
        for (b, step) in lower:
            log_term -= lgamma_oracle(b + step * n)
        log_term -= lgamma_oracle(n + 1.0)
        total += math.exp(log_term) * z**n
    return total
