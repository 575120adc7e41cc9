"""Adaptive quadrature with endpoint-weight absorption, by nested Fejér rules.

Integrates  int_lo^hi (hi-u)^exp_hi * (u-lo)^exp_lo * [log(u-lo)] * g(u) du
for smooth vectorized g and exponents > -1, the log factor optional.  An
algebraic endpoint factor, and the log, are absorbed into the rule's weight
on subintervals touching their endpoint and evaluated directly elsewhere.
Each subinterval is estimated by a nested pair of Fejér's second rules,
whose nodes are the interior Chebyshev points cos(j pi / N): the fine rule
has N = 32 (31 nodes), the coarse rule N = 16, whose 15 nodes are every
other fine node.  Their difference, plus the rounding of the fine rule's
weighted sum, is the piece's estimate; the worst piece is bisected until
the summed estimate meets tolerance, the interval budget runs out, or the
estimate hits the rounding floor of the accumulated sums.  No node is an
endpoint, so g is never evaluated where an integrand may be undefined:
u = 0 is t = x/0 on the right-sided transforms.

The rules are built from modified Chebyshev moments, as in QUADPACK's QAWS
(Piessens, de Doncker-Kapenga, Überhuber and Kahaner, QUADPACK, Springer
1983).  The moments M_k = int_-1^1 (1+x)^b T_k(x) dx, k < 31, come from the
forward recurrence of its QMOMO (Piessens & Branders, BIT 13 (1973) 443),
and (1-x)^a has the moments (-1)^k M_k(a).  QMOMO's log moments
H_k = int_-1^1 (1+x)^b log((1+x)/2) T_k(x) dx follow from the same
recurrence differentiated in b.  On a piece [lo, lo+h] touching the log's
endpoint, u - lo = h (1+x)/2, so the weight (u-lo)^b log(u-lo) has the
moments (h/2)^b (H_k + log(h) M_k): one rule, with the same nodes and
matrices as every other, and the same stop test and bisection heap.  A
rule integrates the weight times the polynomial interpolating g at its
nodes, whose Chebyshev coefficients are a fixed linear map of g's values,
so its weights are the moments times a fixed matrix.  A rule carries one
endpoint weight, so a call with weights at both ends first splits at the
midpoint, as QAWS does.  Trefethen (SIAM Review 50 (2008) 67) shows why
such rules match Gauss at equal node count on analytic integrands.  31/15
is the smallest Fejér pair tried that refuses next to none of the
transforms on the acceptance-1 ranges: on one benchmark seed 27/13 refused
6 and 23/11 refused 63.  As b -> -1 the fine weights alternate in sign:
sum|w| / sum w is 30.8 at b = -0.999 and 14.8 at -0.9, against 1.000 on
[-0.5, 1] and at most 1.013 up to 6, and the rounding of the weighted sum
grows by the same factor.  So each piece's estimate adds the rounding
bound of its 31-term weighted sum, 16 eps sum|w_i g_i| (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., 2002, sec. 4.2: gamma_31 is
below 16 eps), and the stop test's floor is a multiple of the same sums, so
bisection never chases the rounding it cannot shrink.

The integrand's own series are summed over all nodes of a call at once
(series.sum_series): the terms are formed one by one at the largest node
only, then rescaled to every node by one nodes-by-terms product.  Most of
a call's cost is that per-term loop, tens of microseconds that barely grow
with the node count.  So g is called once per piece, on the fine nodes.
evaluations counts every node g saw.  In the operators' integrands the
kernel part of that cost is paid once per kernel and node set, not per
call: operators memoizes the kernel's values by node bytes, so another x
of the same draw pays only for the integrand's own smooth part.

A call integrates a list of weighted parts, coef * int_lo^hi ..., and
returns scale times their sum: a transform's kernel parts are one call.  It
is one loop over one QUADPACK-style heap of pieces, shared by all parts,
under one stop test on the sum actually formed: it evaluates the pieces it
has (first each part's one or two start pieces), tests the weighted running
sums, and otherwise bisects the piece of largest |coef| times estimate.
What a piece costs beyond g: one rule lookup, its nodes (mapped once per
piece geometry and cached, read only), one 2 x 31 product for both rules,
one 31-term sum for the rounding bound and one heap push.  A piece whose
value or estimate is not finite raises DomainError where it is evaluated:
bisection cannot repair it, and a NaN estimate fails every stop test, so
bisection would run such a piece down to float resolution.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError, require_finite, require_positive_finite

MAX_INTERVALS = 2000

_EPS = float(np.finfo(float).eps)
# a piece's rounding bound, per unit of its sum |w_i g_i|: gamma_31 < 16 eps
_ROUNDING = 16.0 * _EPS
# the stop test's floor, per unit of the pieces' summed sum |w_i g_i|: it
# covers their rounding bounds with room for the rule difference's own noise
_NOISE = 100.0 * _EPS
# the rounding allowance of a sum of parts, per unit of its sum |coef *
# part|: a few ulps of coefficient error (a transform's gamma-ratio
# construction) plus the summation's own.  Each piece's estimate bounds the
# rounding of its own weighted sum; this is the other source, which no
# piece sees: near-degenerate kernels (c-a-b within ~1e-5 of an integer)
# carry branch coefficients of order 1/|c-a-b - m|.
_COMBINE_EPS = 4.0 * _EPS


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with an a-posteriori error estimate and work count."""

    value: float
    error_estimate: float
    evaluations: int


class JacobiPart(NamedTuple):
    """One part of a sum: coef times the integral of (hi-u)^exp_hi
    (u-lo)^exp_lo g(u) over (lo, hi), times log(u-lo) when log_lo."""

    g: Callable
    lo: float
    hi: float
    exp_lo: float = 0.0
    exp_hi: float = 0.0
    log_lo: bool = False
    coef: float = 1.0


def _sin_pi(p: np.ndarray, n: int) -> np.ndarray:
    """sin(pi p / n) for integer p, its argument reduced exactly to [0, pi/2]."""
    r = p % (2 * n)
    sign = np.where(r < n, 1.0, -1.0)
    r = r % n
    return sign * np.sin(np.pi * np.minimum(r, n - r) / n)


def _fejer_matrix(n: int) -> np.ndarray:
    """F with Fejér's second rule on the nodes cos(j pi / n), in ascending
    order, having the weights M @ F for the Chebyshev moments M_0..M_(n-2)
    of its weight function.

    The interpolant at the node angles t_j is sum_k d_k U_k with d_k = (2/n)
    sum_j sin(t_j) sin((k+1) t_j) g_j, a discrete sine transform, and U_k is
    2 (T_k + T_(k-2) + ...), less T_0 for even k.  So F[i, j] is (2 c_i / n)
    sin(t_j) times the sum of sin(m t_j) over m = i+1, i+3, ... < n, with
    c_0 = 1 and c_i = 2 otherwise.  That sum of L = (n-i)//2 sines has the
    closed form sin(L t) sin((i+L) t) / sin(t), which keeps every entry to a
    few ulps.  Summed term by term, the entries' rounding cost the weights
    of (1+x)^-0.999 about 1e-14 of their sum.
    """
    q = np.arange(n - 1, 0, -1)  # t_j = q_j pi / n
    i = np.arange(n - 1)[:, None]
    length = (n - i) // 2
    c = np.where(i == 0, 1.0, 2.0)
    return (2.0 / n) * c * _sin_pi(length * q, n) * _sin_pi((i + length) * q, n)


# The fine rule's nodes on [-1, 1], exactly symmetric: first the coarse
# rule's 15 (every other node, from the second), then the 16 the fine rule
# adds, each ascending, so the coarse rule reads a contiguous head of g's
# values.
_COARSE_FIRST = np.r_[1:31:2, 0:31:2]
_NODES = np.sin(np.pi * np.arange(-15, 16) / 32)[_COARSE_FIRST]
_FINE = _fejer_matrix(32)[:, _COARSE_FIRST]
_COARSE = _fejer_matrix(16)
# Both side by side, the coarse rule's 15 columns padded to 31 with zeros:
# moments @ _PAIR, reshaped to 2 x 31, is the pair's weights, row by rule.
_PAIR = np.zeros((31, 62))
_PAIR[:15, :15] = _COARSE
_PAIR[:, 31:] = _FINE
for _array in (_NODES, _FINE, _COARSE, _PAIR):
    _array.flags.writeable = False


def _moments(e: float) -> list:
    """M_k = int_-1^1 (1+x)^e T_k(x) dx for k < 31, by QMOMO's forward
    recurrence: within 4e-15 M_0 of the exact moments for every e sampled
    in (-1, 30], and within 1e-15 M_0 from e = -0.5 up."""
    two = 2.0 ** (e + 1.0) if e < 1023.0 else math.inf  # ** raises past 2^1024
    m = [two / (e + 1.0)]
    m.append(m[0] * e / (e + 2.0))
    for k in range(2, 31):
        m.append(-(two + k * (k - e - 2.0) * m[-1]) / ((k - 1.0) * (k + e + 1.0)))
    # from e near 1019 the terms overflow; an inf or NaN carries to the last
    if not math.isfinite(m[-1]):
        raise OverflowError(f"_moments: the weight power {e!r} leaves the float range")
    return m


def _log_moments(e: float) -> list:
    """H_k = int_-1^1 (1+x)^e log((1+x)/2) T_k(x) dx for k < 31, by QMOMO's
    recurrence: _moments' recurrence differentiated in e, whose log 2 terms
    cancel.  Within 1.2e-15 |H_0| of the exact moments for every e sampled
    in [-0.999, 30], and 2.3e-15 |H_0| at e = -0.99999."""
    m = _moments(e)
    h = [-m[0] / (e + 1.0)]
    h.append(-(2.0 ** (e + 2.0)) / (e + 2.0) ** 2 - h[0])
    for k in range(2, 31):
        h.append(
            -(k * (k - e - 2.0) * h[-1] - k * m[k - 1] + (k - 1.0) * m[k])
            / ((k - 1.0) * (k + e + 1.0))
        )
    return h


# Exponents are new reals on every draw, so a rule is reused only within a
# draw: on both benchmark workloads the hit share at 8 entries is within
# 0.005 of that at 4,096 (0.723 and 0.667), while each entry holds about
# 0.8 kB for the process's life.
_RULES = 64


@lru_cache(maxsize=_RULES)
def _rule(a: float, b: float, log_h: float | None = None):
    """(weights, abs_fine) on [-1, 1] for the weight (1-x)^a (1+x)^b, at
    least one of a and b zero, times (log((1+x)/2) + log_h) unless log_h is
    None (then a is zero).

    weights is 2 x 31: the coarse rule's 15 weights, zero past them, and
    the fine rule's, for the nodes _NODES, so one product gives both rules;
    abs_fine is what the fine rule's rounding bound sums against |g|: |w|,
    or |w_H| + |log_h| |w_M| for the two moment sets of a log weight.  The
    arrays are read-only, since every caller shares the cached pair.
    """
    m = np.array(_moments(b if b else a))
    if a:  # the moments of (1-x)^a are (-1)^k M_k(a)
        m[1::2] *= -1.0
    weights = m.dot(_PAIR).reshape(2, 31)
    abs_fine = np.abs(weights[1])
    if log_h is not None:
        log_weights = np.array(_log_moments(b)).dot(_PAIR).reshape(2, 31)
        abs_fine = np.abs(log_weights[1]) + abs(log_h) * abs_fine
        weights = log_weights + log_h * weights
    weights.flags.writeable = False
    abs_fine.flags.writeable = False
    return weights, abs_fine


# A piece's nodes depend only on its ends.  An unbisected call has one or
# two pieces, and every transform's are [0, 1/2] and [1/2, 1], so a few
# entries serve nearly every call.
_NODE_SETS = 16


@lru_cache(maxsize=_NODE_SETS, typed=True)
def _nodes_on(plo: float, phi: float) -> np.ndarray:
    """The fine rule's nodes mapped to [plo, phi], read-only, since every
    call on a piece of these ends shares the array."""
    h2 = (phi - plo) / 2.0
    u = plo + h2 * (_NODES + 1.0)
    u.flags.writeable = False
    return u


def _eval_pair(g, plo, phi, lo, hi, exp_lo, exp_hi, log_lo):
    """The coarse and fine weighted rules over [plo, phi] within [lo, hi].

    g is called once, on the fine rule's nodes; the coarse rule reads the
    first 15 values, at its own nodes.  Returns the fine value, its estimate
    |fine - coarse| plus its rounding bound, the sum |w_i g_i| that bound is
    taken of (scaled to the piece), and the number of nodes g saw.  Raises
    DomainError when the value or the estimate is not finite: no bisection
    can make such a piece meet a tolerance, and a NaN estimate fails every
    stop test.
    """
    touches_lo = plo == lo
    touches_hi = phi == hi
    aj = exp_hi if touches_hi else 0.0
    bj = exp_lo if touches_lo else 0.0
    u = _nodes_on(plo, phi)
    vals = g(u)
    if not touches_hi and exp_hi != 0.0:
        vals = vals * np.power(hi - u, exp_hi)
    if not touches_lo:
        if exp_lo != 0.0:
            vals = vals * np.power(u - lo, exp_lo)
        if log_lo:
            vals = vals * np.log(u - lo)
    h = phi - plo
    weights, abs_fine = _rule(aj, bj, math.log(h) if log_lo and touches_lo else None)
    scale = (h / 2.0) ** (aj + bj + 1.0)
    wabs = scale * float(abs_fine.dot(np.abs(vals)))
    if math.isfinite(wabs):  # else the rules' products would meet 0 * inf
        coarse, fine = weights.dot(vals).tolist()
        fine *= scale
        err = abs(fine - scale * coarse) + _ROUNDING * wabs
    else:
        fine = err = wabs
    if not (math.isfinite(fine) and math.isfinite(err)):
        raise DomainError(
            f"integrate_jacobi: value {fine!r} or estimate {err!r} on the piece "
            f"[{plo!r}, {phi!r}] is not finite"
        )
    return fine, err, wabs, u.size


def _start_pieces(i: int, part: JacobiPart) -> list:
    """Part i's start pieces, (i, lo, hi): its whole interval, or with
    weights at both ends its two halves.  Raises DomainError for a part no
    rule can integrate."""
    g, lo, hi, exp_lo, exp_hi, log_lo, coef = part
    require_finite("integrate_jacobi", lo, hi, coef)
    if not (hi > lo):
        raise DomainError(f"integrate_jacobi: empty interval [{lo!r}, {hi!r}]")
    if not (exp_lo > -1.0 and exp_hi > -1.0):
        raise DomainError(
            f"integrate_jacobi: endpoint exponents ({exp_lo!r}, {exp_hi!r}) "
            "must exceed -1 for integrability"
        )
    if not ((exp_lo != 0.0 or log_lo) and exp_hi != 0.0):
        return [(i, lo, hi)]
    mid = 0.5 * (lo + hi)  # a rule carries one endpoint weight
    if not (lo < mid < hi):
        raise DomainError(
            f"integrate_jacobi: [{lo!r}, {hi!r}] is too narrow to split "
            "between its two endpoint weights"
        )
    return [(i, lo, mid), (i, mid, hi)]


def integrate_jacobi(parts, tol: float = 1e-9, scale: float = 1.0) -> QuadratureResult:
    """Adaptive integral of scale * sum(coef * part) over the JacobiParts
    parts, summed in their order.

    tol is absolute-or-relative, whichever is larger at the result's scale.
    Each piece calls its part's g once, on the 31 nodes of its fine rule, so
    evaluations is 31 per piece.  One loop evaluates the pieces it has,
    applies the stop test to the weighted running sums, and otherwise
    bisects the piece of largest |coef| times estimate, whichever part it
    belongs to; all parts share MAX_INTERVALS.  The estimate is |scale|
    times the parts' |coef|-weighted estimates, plus, on a sum of more than
    one part, the rounding allowance of the combination (_COMBINE_EPS).  It
    returns once that meets tol or sits on the rounding floor of the pieces'
    weighted sums, which covers the rounding bounds inside the estimate and
    may lie above tol.  A piece at float resolution is no longer bisected
    but keeps its estimate in the total.  Raises AccuracyError (carrying the
    best estimate) if the interval budget is exhausted before the estimate
    meets tolerance, or if the estimate left over sits on pieces already at
    float resolution; DomainError at the first piece whose value or
    estimate is not finite; and OverflowError if the weighted sum leaves
    the float range.
    """
    require_positive_finite("integrate_jacobi", "tol", tol)
    require_finite("integrate_jacobi", scale)
    fresh = [piece for i, part in enumerate(parts) for piece in _start_pieces(i, part)]
    # each part's running sums of its pieces' values, estimates and
    # weighted absolute sums
    totals, errs, wabss = ([0.0] * len(parts) for _ in range(3))
    # a heap of (-|coef| * estimate, order, part, lo, hi, value, estimate,
    # weighted absolute sum), where order is evals after the piece, rising
    # with each piece, so ties pop oldest first; a piece at float resolution
    # goes back at +inf
    heap = []
    evals = 0
    while True:
        for i, qlo, qhi in fresh:
            g, lo, hi, exp_lo, exp_hi, log_lo, coef = parts[i]
            v, e, wabs, nodes = _eval_pair(g, qlo, qhi, lo, hi, exp_lo, exp_hi, log_lo)
            evals += nodes
            heapq.heappush(heap, (-abs(coef) * e, evals, i, qlo, qhi, v, e, wabs))
            totals[i] += v
            wabss[i] += wabs
            errs[i] += e
        total = claimed = rounding = floor = 0.0
        for part, t, e, wabs in zip(parts, totals, errs, wabss):
            term = part.coef * t
            total += term
            claimed += abs(part.coef) * e
            rounding += abs(term)
            floor += abs(part.coef) * wabs
        value = scale * total
        if not math.isfinite(value):  # bisection cannot bring it back
            raise OverflowError(
                f"integrate_jacobi: the weighted sum of the parts, {value!r}, "
                "leaves the float range"
            )
        err = abs(scale) * claimed
        if len(parts) > 1:
            err += abs(scale) * _COMBINE_EPS * rounding
        # the summed estimate meets tol, absolute or relative, or sits on the
        # rounding floor of the pieces' weighted sums
        if err <= max(tol * max(1.0, abs(value)), _NOISE * abs(scale) * floor):
            return QuadratureResult(value, err, evals)
        if len(heap) >= MAX_INTERVALS:
            reason = f"{MAX_INTERVALS} intervals"
            break
        priority, order, i, plo, phi, pval, perr, pwabs = heapq.heappop(heap)
        if priority >= 0.0:  # only kept or zero-estimate pieces left: bisection cannot help
            reason = "pieces at float resolution"
            break
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:  # at float resolution: keep it, and its estimate
            heapq.heappush(heap, (math.inf, order, i, plo, phi, pval, perr, pwabs))
            fresh = ()
            continue
        totals[i] -= pval
        wabss[i] -= pwabs
        errs[i] -= perr
        fresh = ((i, plo, mid), (i, mid, phi))
    raise AccuracyError(
        f"integrate_jacobi: {reason} without reaching tol={tol!r} (estimate {err!r})",
        value=value,
        error_estimate=err,
        evaluations=evals,
    )


def integrate_log_jacobi(g, h: float, exp_lo: float, tol: float = 1e-9) -> QuadratureResult:
    """Integral of u**exp_lo * log(u) * g(u) over (0, h) for g analytic on
    [0, h]: integrate_jacobi's one part with the log weight."""
    return integrate_jacobi([JacobiPart(g, 0.0, h, exp_lo, log_lo=True)], tol)
