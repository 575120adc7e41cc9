"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's own code paths: log-gamma comes from
a shifted Stirling series with Bernoulli-number corrections, the classical
Bessel function from its direct power series via math.gamma, the
hypergeometric sums from brute-force Pochhammer products, and the Chebyshev
moments of a Jacobi weight, and of its log weight, in exact rational
arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def _shifted_chebyshev(n: int) -> list:
    """Integer coefficients c_kj of T_k(2s - 1) = sum_j c_kj s^j, k < n."""
    polys = [[1], [-1, 2]]
    while len(polys) < n:
        prev, before = polys[-1], polys[-2]
        new = [0] * (len(prev) + 1)
        for j, c in enumerate(prev):  # 2 (2s - 1) T_k
            new[j + 1] += 4 * c
            new[j] -= 2 * c
        for j, c in enumerate(before):
            new[j] -= c
        polys.append(new)
    return polys[:n]


def chebyshev_moments_oracle(b: float, n: int = 31, log: bool = False) -> list:
    """int_-1^1 (1+x)^b T_k(x) dx for k < n, b > -1; with log, the log
    moments int_-1^1 (1+x)^b log((1+x)/2) T_k(x) dx.

    With x = 2s - 1 the moment is 2^(b+1) sum_j c_kj / (b+j+1), the c_kj of
    T_k(2s - 1), and the log moment -2^(b+1) sum_j c_kj / (b+j+1)^2, since
    int_0^1 s^p log(s) ds = -1/(p+1)^2 and log((1+x)/2) is log(s) exactly:
    the log 2 of log(1+x) = log 2 + log(s) is the one the log moments take
    out, so no log 2 factor enters.  The sum is formed exactly in rationals
    at the float b's exact value, so its heavy cancellation costs nothing,
    and only the final product with 2^(b+1) rounds.
    """
    exact_b = Fraction(b)
    power, sign = (2, -1.0) if log else (1, 1.0)
    return [
        sign * 2.0 ** (b + 1.0)
        * float(sum(Fraction(c) / (exact_b + j + 1) ** power for j, c in enumerate(cs)))
        for cs in _shifted_chebyshev(n)
    ]


# JACOBI_POLY_INTEGRALS[(n, a, b)] is int_-1^1 (1-x)^a (1+x)^b p_n(x) dx for
# the polynomial p_n(x) = sum_(j<2n) (0.9 x)^j, rounded to the nearest
# double from the mpmath recipe below (80 digits, through x = 2t - 1 and the
# beta integrals of t^(b+i) (1-t)^a; a, b and 0.9 at their exact double
# values).  The values agree to 5e-16 with the 40-digit n-point Gauss-Jacobi
# rules, which integrate p_n exactly.
#
# import mpmath as mp
#
# mp.mp.dps = 80
#
#
# def reference(n, a, b):
#     a, b = mp.mpf(a), mp.mpf(b)
#     total = 0
#     for j in range(2 * n):
#         moment = sum(
#             mp.binomial(j, i) * 2**i * (-1) ** (j - i) * mp.beta(b + i + 1, a + 1)
#             for i in range(j + 1)
#         )
#         total += mp.mpf(0.9) ** j * moment
#     return 2 ** (a + b + 1) * total
#
#
# for n in (1, 2, 12, 24):
#     for a, b in ((0.0, 0.0), (-0.5, -0.5), (0.3, -0.3), (-0.25, -0.75), (-0.999, 0.4), (1.4, 1.2)):
#         print(f"    ({n}, {a!r}, {b!r}): {float(reference(n, a, b))!r},")
JACOBI_POLY_INTEGRALS = {
    (1, 0.0, 0.0): 2.0,
    (1, -0.5, -0.5): 3.141592653589793,
    (1, 0.3, -0.3): 1.7008512699235088,
    (1, -0.25, -0.75): 2.4435856159871014,
    (1, -0.999, 0.4): 2505.814788586323,
    (1, 1.4, 1.2): 1.191678571873555,
    (2, 0.0, 0.0): 2.54,
    (2, -0.5, -0.5): 4.413937678293659,
    (2, 0.3, -0.3): 2.0881770428835282,
    (2, -0.25, -0.75): 3.2757931263408904,
    (2, -0.999, 0.4): 4533.086280058938,
    (2, 1.4, 1.2): 1.3557789507786768,
    (12, 0.0, 0.0): 3.2450304606478992,
    (12, -0.5, -0.5): 7.019797733951995,
    (12, 0.3, -0.3): 2.517381952838383,
    (12, -0.25, -0.75): 4.780785543098387,
    (12, -0.999, 0.4): 12116.181521164128,
    (12, 1.4, 1.2): 1.4496843489653448,
    (24, 0.0, 0.0): 3.2704089949335535,
    (24, -0.5, -0.5): 7.196096662931096,
    (24, 0.3, -0.3): 2.5303861718852225,
    (24, -0.25, -0.75): 4.8758903572018335,
    (24, -0.999, 0.4): 13080.870579907101,
    (24, 1.4, 1.2): 1.4503028727719864,
}
