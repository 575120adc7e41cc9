"""Series evaluation: generalized hypergeometric pFq, Fox-Wright, and k-Bessel.

Every term-ratio series in the package, these three and the kernel 2F1
series in hyp2f1, is summed by ``sum_series`` under its one truncation
contract (see there), over one node or an array of them.  The tail
estimate is reported so callers can propagate error budgets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, require_finite, require_positive_finite
from .gammafns import gamma_ratio, gamma_sign, is_exact_pole, is_pole, log_gamma

MAX_TERMS = 10_000
_TINY = 1e-300


@dataclass(frozen=True)
class SeriesValue:
    """A series sum with bookkeeping: value, work done, and tail honesty."""

    value: float
    terms_used: int
    trunc_estimate: float
    converged: bool

    def scaled(self, scale) -> "SeriesValue":
        """scale times this sum (scale a float or an array like value), with
        the estimate times max|scale| so that it covers every node."""
        est = float(np.max(np.abs(scale))) * self.trunc_estimate
        return SeriesValue(scale * self.value, self.terms_used, est, self.converged)


@dataclass(frozen=True)
class HypergeomSpec:
    """pFq parameter lists; a normalization in front belongs to the caller."""

    upper: tuple[float, ...]
    lower: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(float(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(float(b) for b in self.lower))
        require_finite("HypergeomSpec", *self.upper, *self.lower)
        for b in self.lower:
            if is_pole(b):
                raise DomainError(f"HypergeomSpec: lower parameter {b!r} is a nonpositive integer")


@dataclass(frozen=True)
class WrightSpec:
    """Fox-Wright parameter pairs (coefficient, step), steps > 0."""

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]

    def __post_init__(self):
        up = tuple((float(a), float(A)) for a, A in self.upper)
        low = tuple((float(b), float(B)) for b, B in self.lower)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", low)
        require_finite("WrightSpec", *itertools.chain.from_iterable(up + low))
        for _, step in up + low:
            if not (step > 0):
                raise DomainError(f"WrightSpec: steps must be positive, got {step!r}")


@dataclass(frozen=True)
class KBesselParams:
    """Order v > -1, sign/scale c, deformation k > 0 of the k-Bessel function."""

    v: float
    c: float
    k: float

    def __post_init__(self):
        require_finite("KBesselParams", self.v, self.c, self.k)
        if not (self.v > -1):
            raise DomainError(f"KBesselParams: v must exceed -1, got {self.v!r}")
        if not (self.k > 0):
            raise DomainError(f"KBesselParams: k must be positive, got {self.k!r}")


def wright_convergence_index(spec: WrightSpec) -> float:
    """Convergence index 1 + sum(lower steps) - sum(upper steps)."""
    return 1.0 + sum(B for _, B in spec.lower) - sum(A for _, A in spec.upper)


def sum_series(t0, ratio, z, tol, weights=None, max_terms=MAX_TERMS) -> SeriesValue:
    """Sum w_0 t_0 + w_1 t_1 + ... with t_{n+1} = t_n * ratio(n) * z.

    t0 and ratio(n) are floats; weights, when given, yields the scalar w_0,
    w_1, ... (all 1 when absent).  z is a float, or an array for a sum
    vectorized over nodes, in which case the value is an array of z's shape.

    The truncation contract, the only one in the package: summation stops
    once three consecutive terms are each <= tol * |partial sum| and so is
    the tail estimate |w_n t_n| / (1 - q), q being the ratio of the last two
    term sizes (an infinite tail when q >= 0.9).  An exactly-zero term t_n
    means the series terminated, with tail 0.  A zero weight (a denominator
    gamma pole) skips its term, which does not count toward the run.
    Reaching max_terms returns converged=False with an infinite tail.

    An array z is summed by this loop at z*, its entry of largest |z|, and
    the terms T_n found there are rescaled to every node as sum_n T_n
    (z/z*)^n (T_0 alone when z* = 0).  |T_n| is the max norm of term n over
    the nodes and |S(z*)| at most that of the partial sum, so an array sum
    stops no earlier than the max norms would have it stop, and its tail
    estimate covers every node.  An array sum whose partial sum at z* is
    not finite raises OverflowError.
    """
    nodes = z if isinstance(z, np.ndarray) else None
    if nodes is not None:
        z = float(nodes.flat[np.argmax(np.abs(nodes))]) if nodes.size else 0.0
    parts = []
    run = 0
    last = 0.0
    term = t0
    total = 0.0
    stop = (max_terms, math.inf, False)
    for n in range(max_terms):
        if n:
            term = term * (ratio(n - 1) * z)
        w = 1.0 if weights is None else next(weights)
        part = term * w if w != 0.0 else 0.0
        parts.append(part)
        if w == 0.0:
            continue
        size = abs(part)
        total += part
        if size == 0.0:
            stop = (n, 0.0, True)
            break
        s = abs(total)
        bound = tol * max(s, _TINY)
        if size <= bound:
            run += 1
            if run >= 3:
                q = size / last
                tail = size / (1.0 - q) if q < 0.9 else math.inf
                if tail <= bound:
                    stop = (n + 1, tail, bool(s < math.inf))
                    break
        else:
            run = 0
        last = size
    if nodes is not None:
        # the rescale would meet inf * 0 and hand on a NaN that hides the cause
        if not math.isfinite(total):
            raise OverflowError(f"sum_series: the terms at z* = {z!r} leave the float range")
        x = nodes / z if z else nodes
        total = np.power.outer(x, np.arange(len(parts))) @ parts
    return SeriesValue(total, *stop)


def eval_pfq(spec: HypergeomSpec, z: float, tol: float = 1e-12) -> SeriesValue:
    """Sum pFq(upper; lower; z) by term recurrence.

    Requires p <= q+1; p == q+1 additionally needs |z| < 1, except that
    the Gauss point z=1 of 2F1 with c-a-b > 0 is routed to the closed form.
    """
    require_finite("eval_pfq", z)
    require_positive_finite("eval_pfq", "tol", tol)
    p, q = len(spec.upper), len(spec.lower)
    if z == 0.0:
        return SeriesValue(1.0, 1, 0.0, True)
    if p > q + 1:
        raise ConvergenceError(f"eval_pfq: p={p} > q+1={q + 1} diverges for z != 0")
    if p == q + 1 and abs(z) >= 1.0:
        if p == 2 and z == 1.0 and (spec.lower[0] - spec.upper[0] - spec.upper[1]) > 0:
            g = gauss_2f1_at_1(spec.upper[0], spec.upper[1], spec.lower[0])
            return SeriesValue(g, 0, 0.0, True)
        raise ConvergenceError(f"eval_pfq: p=q+1 series diverges at |z|={abs(z)!r} >= 1")

    def ratio(n: int) -> float:
        num = 1.0
        for a in spec.upper:
            num *= a + n
        den = n + 1.0
        for b in spec.lower:
            den *= b + n
        return num / den

    return sum_series(1.0, ratio, z, tol)


def gauss_2f1_at_1(a: float, b: float, c: float) -> float:
    """2F1(a, b; c; 1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)).

    Requires c-a-b > 0 and c off the pole lattice.  Exact poles of the
    denominator gammas make the value exactly zero.
    """
    s = c - a - b
    if not (s > 0):
        raise DomainError(f"gauss_2f1_at_1: needs c-a-b > 0, got {s!r}")
    return gamma_ratio([c, s], [c - a, c - b]).value


def _wright_term(spec: WrightSpec, n: int, log_abs_z: float, sign_z: int) -> float:
    """The n-th Fox-Wright term, assembled in the log domain; exactly zero when
    a denominator gamma pole annihilates it.  Numerator poles raise."""
    log_abs = n * log_abs_z - math.lgamma(n + 1)
    sign = 1 if (sign_z > 0 or n % 2 == 0) else -1
    for a, A in spec.upper:
        arg = a + A * n
        if is_pole(arg):
            raise DomainError(
                f"eval_wright: numerator gamma pole at term n={n} (argument {arg!r})"
            )
        log_abs += math.lgamma(arg)
        sign *= gamma_sign(arg)
    for b, B in spec.lower:
        arg = b + B * n
        if is_exact_pole(arg):
            return 0.0
        log_abs -= math.lgamma(arg)
        sign *= gamma_sign(arg)
    return sign * math.exp(log_abs)


def eval_wright(spec: WrightSpec, z: float, tol: float = 1e-12) -> SeriesValue:
    """Sum the Fox-Wright series sum_n prod Gamma(a+An)/prod Gamma(b+Bn) z^n/n!.

    Terms are assembled in the log domain with sign tracking (steps may be
    any positive reals) and enter the sum as its weights.  Denominator gamma
    poles zero out the affected term; numerator poles are domain errors.
    Convergence: index > 0, or index == 0 with |z| <= 0.9 * radius.
    """
    require_finite("eval_wright", z)
    require_positive_finite("eval_wright", "tol", tol)
    delta = wright_convergence_index(spec)
    if delta < -1e-12:
        raise ConvergenceError(f"eval_wright: convergence index {delta!r} < 0")
    if abs(delta) <= 1e-12:
        log_rho = sum(B * math.log(B) for _, B in spec.lower)
        log_rho -= sum(A * math.log(A) for _, A in spec.upper)
        rho = math.exp(log_rho)
        if abs(z) > 0.9 * rho:
            raise ConvergenceError(
                f"eval_wright: |z|={abs(z)!r} outside 0.9*radius={0.9 * rho!r} at index 0"
            )

    if z == 0.0:
        return SeriesValue(_wright_term(spec, 0, 0.0, 1), 1, 0.0, True)

    log_abs_z = math.log(abs(z))
    sign_z = 1 if z > 0 else -1
    terms = (_wright_term(spec, n, log_abs_z, sign_z) for n in itertools.count())
    return sum_series(1.0, lambda n: 1.0, 1.0, tol, weights=terms)


def _kbessel_sum(kb: KBesselParams, z, tol: float) -> SeriesValue:
    """sum_n y^n / (Gamma(n+1+v/k) n!) at y = -c z^2/(4k), z a float or an array.

    Reciprocal-gamma convention: terms at an exact pole of Gamma(n+1+v/k)
    vanish, so the sum starts at the first n0 off the poles; near a pole
    1/Gamma is small, not zero, and its term is kept.
    """
    vk = kb.v / kb.k
    y = -kb.c / (4.0 * kb.k) * (z * z)
    n0 = 0
    while is_exact_pole(n0 + 1.0 + vk):
        n0 += 1
    inv = gamma_ratio([], [n0 + 1.0 + vk])  # 1/Gamma(n0+1+v/k)
    c0 = inv.sign * math.exp(inv.log_abs - log_gamma(n0 + 1.0).log_abs)
    ratio = lambda n: 1.0 / ((n + n0 + 1.0) * (n + n0 + 1.0 + vk))
    s = sum_series(c0, ratio, y, tol)
    return s.scaled(y**n0) if n0 else s  # times 1.0 would change no bit


def kbessel_reduced_series(kb: KBesselParams, z: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """sum_n y^n / (Gamma(n+1+v/k) n!) at y = -c z^2/(4k), elementwise.

    This is W(z) with the leading (z/(2k))^(v/k) power stripped, the piece
    the operators absorb into their quadrature weight.
    """
    sv = _kbessel_sum(kb, z, tol)
    if not sv.converged:
        raise ConvergenceError(
            f"k-Bessel series did not settle within {MAX_TERMS} terms "
            f"(z up to {float(np.max(z))!r})"
        )
    return sv.value


def eval_k_bessel(params: KBesselParams, z: float, tol: float = 1e-12) -> SeriesValue:
    """Generalized k-Bessel W_{v,c}^k(z) for z >= 0.

    Evaluated as (z/(2k))^(v/k) * sum_n y^n / (Gamma(n + 1 + v/k) n!) with
    y = -c z^2 / (4k); the k-gamma in the definition is expanded as
    k^(n + v/k) * Gamma(n + 1 + v/k).  Reduces to the classical Bessel J_v
    at k = 1, c = 1.  The series is entire.
    """
    require_finite("eval_k_bessel", z)
    require_positive_finite("eval_k_bessel", "tol", tol)
    if z < 0:
        raise DomainError(f"eval_k_bessel: z must be >= 0, got {z!r}")
    vk = params.v / params.k
    if z == 0.0:
        if vk > 0:
            return SeriesValue(0.0, 1, 0.0, True)
        if vk == 0:
            return SeriesValue(1.0, 1, 0.0, True)
        raise DomainError("eval_k_bessel: z=0 diverges for v < 0")

    pref = math.exp(vk * math.log(z / (2.0 * params.k)))
    return _kbessel_sum(params, z, tol).scaled(pref)
