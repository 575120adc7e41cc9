"""Adaptive quadrature with endpoint-weight absorption, by nested Fejér rules.

Integrates  int_lo^hi (hi-u)^exp_hi * (u-lo)^exp_lo * g(u) du  for smooth
vectorized g and exponents > -1.  An algebraic endpoint factor is absorbed
into the rule's weight on subintervals touching its endpoint and evaluated
directly elsewhere.  Each subinterval is estimated by a nested pair of
Fejér's second rules, whose nodes are the interior Chebyshev points
cos(j pi / N): the fine rule has N = 32 (31 nodes), the coarse rule N = 16,
whose 15 nodes are every other fine node.  Their difference drives adaptive
bisection of the worst subinterval until the summed estimate meets
tolerance, the interval budget runs out, or the estimate hits the rounding
floor of the accumulated values.  No node is an endpoint, so g is never
evaluated where an integrand may be undefined: u = 0 is t = x/0 on the
right-sided transforms.

The rules are built from modified Chebyshev moments, as in QUADPACK's QAWS
(Piessens, de Doncker-Kapenga, Überhuber and Kahaner, QUADPACK, Springer
1983).  The moments M_k = int_-1^1 (1+x)^b T_k(x) dx, k < 31, come from the
forward recurrence of its QMOMO (Piessens & Branders, BIT 13 (1973) 443),
and (1-x)^a has the moments (-1)^k M_k(a).  A rule integrates the weight
times the polynomial interpolating g at its nodes, whose Chebyshev
coefficients are a fixed linear map of g's values, so its weights are the
moments times a fixed matrix.  A rule carries one endpoint weight, so a
call with both exponents nonzero first splits at the midpoint, as QAWS
does.  Trefethen (SIAM Review 50 (2008) 67) shows why such rules match
Gauss at equal node count on analytic integrands.  31/15 is the smallest
Fejér pair tried whose transforms on the acceptance-1 ranges are refused
no more often than with the Gauss-Jacobi 24/12 pair it replaced: on one
benchmark seed 27/13 refused 6 and 23/11 refused 63 where 24/12 refused 1.
As b -> -1 the fine weights alternate in sign: sum|w| / sum w is 30.8 at
b = -0.999 and 14.8 at -0.9, against 1.000 on [-0.5, 1] and at most 1.013
up to 6, and the rounding of the weighted sum grows by the same factor.

The integrand's own series are summed over all nodes of a call at once
(series.sum_series): the terms are formed one by one at the largest node
only, then rescaled to every node by one nodes-by-terms product.  Most of
a call's cost is that per-term loop, tens of microseconds that barely grow
with the node count.  So g is called once per piece, on the fine nodes,
and the dyadic log rule calls g once per block of LOG_BLOCK pieces.
evaluations counts every node g saw.  In the operators' integrands the
kernel part of that cost is paid once per kernel and node set, not per
call: operators memoizes the kernel's values by node bytes, so another x
of the same draw pays only for the integrand's own smooth part.

What a call costs beyond g: its one or two start pieces, each one rule
lookup, the piece's nodes (mapped once per piece geometry and cached, read
only), and two dot products over 31 values, then one stop test.  Neither
benchmark workload ever bisects, so a call that meets tolerance on its
start pieces returns there, and only one that misses it builds the
QUADPACK-style heap of pieces, seeded with the pieces it already has.  A
piece whose value or estimate is not finite raises DomainError where it is
evaluated: bisection cannot repair it, and a NaN estimate fails every stop
test, so such a piece once bisected down to float resolution.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, require_finite, require_positive_finite

MAX_INTERVALS = 2000
LOG_BLOCK = 8  # dyadic pieces per integrand call in integrate_log_jacobi

# the rounding floor of a sum of pieces, as a multiple of its absolute sum
_NOISE = 100.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with an a-posteriori error estimate and work count."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        # normalize numpy scalars (np.float64 is a float subclass) so
        # downstream reprs and JSON stay clean; plain floats and ints, what
        # the integrators return, pass through untouched
        if type(self.value) is not float:
            object.__setattr__(self, "value", float(self.value))
        if type(self.error_estimate) is not float:
            object.__setattr__(self, "error_estimate", float(self.error_estimate))
        if type(self.evaluations) is not int:
            object.__setattr__(self, "evaluations", int(self.evaluations))


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
for _array in (_NODES, _FINE, _COARSE):
    _array.flags.writeable = False


def _moments(e: float) -> list:
    """M_k = int_-1^1 (1+x)^e T_k(x) dx for k < 31, by QMOMO's forward
    recurrence: within 4e-15 M_0 of the exact moments for every e sampled
    in (-1, 30], and within 1e-15 M_0 from e = -0.5 up."""
    two = 2.0 ** (e + 1.0)
    m = [two / (e + 1.0)]
    m.append(m[0] * e / (e + 2.0))
    for k in range(2, 31):
        m.append(-(two + k * (k - e - 2.0) * m[-1]) / ((k - 1.0) * (k + e + 1.0)))
    return m


# Exponents are new reals on every draw, so a rule is reused only within a
# draw: on both benchmark workloads the hit share at 8 entries is within
# 0.005 of that at 4,096 (0.723 and 0.667), while each entry holds about
# 0.8 kB for the process's life.
_RULES = 64


@lru_cache(maxsize=_RULES)
def _rule(a: float, b: float):
    """(coarse, fine) weights on [-1, 1] for the weight (1-x)^a (1+x)^b, at
    least one of a and b zero, for the nodes _NODES[:15] and _NODES.

    The arrays are read-only, since every caller shares the cached pair.
    """
    m = np.array(_moments(b if b else a))
    if a:  # the moments of (1-x)^a are (-1)^k M_k(a)
        m[1::2] *= -1.0
    coarse = m[:15] @ _COARSE
    fine = m @ _FINE
    coarse.flags.writeable = False
    fine.flags.writeable = False
    return coarse, fine


def _legendre(n: int):
    """The n-point Gauss-Legendre rule by Golub-Welsch (Math. Comp. 23, 1969):
    nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence, weights twice the squared first eigenvector components."""
    k = np.arange(1.0, n)
    x, v = np.linalg.eigh(np.diag(np.sqrt(k * k / (4.0 * k * k - 1.0)), -1))
    return x, 2.0 * v[0] ** 2


# the log rule's, fixed: built once, at import
_LOG_X, _LOG_W = _legendre(12)


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


def _eval_pair(g, plo, phi, lo, hi, exp_lo, exp_hi):
    """The coarse and fine weighted rules over [plo, phi] within [lo, hi].

    g is called once, on the fine rule's nodes; the coarse rule reads the
    first 15 values, at its own nodes.  Returns the fine value,
    |fine - coarse| and the number of nodes g saw.  Raises DomainError when
    either is not finite: no bisection can make such a piece meet a
    tolerance, and a NaN estimate fails every stop test.
    """
    touches_lo = plo == lo
    touches_hi = phi == hi
    aj = exp_hi if touches_hi else 0.0
    bj = exp_lo if touches_lo else 0.0
    w_coarse, w_fine = _rule(aj, bj)
    u = _nodes_on(plo, phi)
    vals = g(u)
    if not touches_hi and exp_hi != 0.0:
        vals = vals * np.power(hi - u, exp_hi)
    if not touches_lo and exp_lo != 0.0:
        vals = vals * np.power(u - lo, exp_lo)
    scale = ((phi - plo) / 2.0) ** (aj + bj + 1.0)
    coarse = scale * float(np.dot(w_coarse, vals[:15]))
    fine = scale * float(np.dot(w_fine, vals))
    err = abs(fine - coarse)
    if not (math.isfinite(fine) and math.isfinite(err)):
        raise DomainError(
            f"integrate_jacobi: value {fine!r} or estimate {err!r} on the piece "
            f"[{plo!r}, {phi!r}] is not finite"
        )
    return fine, err, u.size


def _meets(total: float, total_abs: float, total_err: float, tol: float) -> bool:
    """integrate_jacobi's stop test: the summed estimate meets tol, absolute
    or relative, or sits on the rounding floor of the summed pieces."""
    return total_err <= max(tol, tol * abs(total), _NOISE * total_abs)


def integrate_log_jacobi(
    g,
    h: float,
    exp_lo: float,
    tol: float = 1e-9,
) -> QuadratureResult:
    """Integral of u**exp_lo * log(u) * g(u) over (0, h) for g analytic on [0, h].

    The log factor defeats fixed endpoint-weight rules, but on each dyadic
    piece [h/2^(j+1), h/2^j] the whole integrand is analytic, so a single
    12-point Gauss-Legendre rule there is exact to rounding.  Pieces are
    accumulated downward until the analytic bound on the remaining [0, h/2^J]
    tail (|g| bounded near 0, weight integrated exactly) meets the same
    absolute-or-relative tolerance rule as integrate_jacobi.  g is called
    once per block of LOG_BLOCK consecutive pieces (never past MAX_INTERVALS),
    on every node of the block plus each piece's tail probe; the pieces are
    then accumulated and tested in order, and those past the stopping piece
    are discarded.  evaluations counts every node g saw, discarded pieces
    included.  Piece scales h_j^(exp_lo+1) are formed in log space, so
    arbitrarily deep descent cannot overflow.  Requires exp_lo > -1 and
    0 < h <= 1.  Raises DomainError at the first piece, in order, whose value
    or tail bound is not finite; a discarded piece is never tested.
    """
    if not (0.0 < h <= 1.0):
        raise DomainError(f"integrate_log_jacobi: h must lie in (0, 1], got {h!r}")
    if not (exp_lo > -1.0):
        raise DomainError(
            f"integrate_log_jacobi: endpoint exponent {exp_lo!r} must exceed -1"
        )
    require_positive_finite("integrate_log_jacobi", "tol", tol)

    s = 1.0 + 0.5 * (_LOG_X + 1.0)  # nodes mapped to [1, 2]
    s_pow = np.power(s, exp_lo)
    log_s = np.log(s)
    # each piece's tail probe at a/2 rides along with its nodes
    s_probe = np.append(s, 0.5)
    q1 = exp_lo + 1.0
    log_h = math.log(h)

    total = 0.0
    total_abs = 0.0
    evals = 0
    for first in range(0, MAX_INTERVALS, LOG_BLOCK):
        log_as = [
            log_h - (j + 1.0) * math.log(2.0)
            for j in range(first, min(first + LOG_BLOCK, MAX_INTERVALS))
        ]
        u = np.multiply.outer([math.exp(log_a) for log_a in log_as], s_probe)
        g_all = g(u.ravel()).reshape(u.shape)
        evals += u.size
        # sup |g| on [0, a] from the piece's nodes and its probe
        g_sups = 2.0 * np.abs(g_all).max(axis=1)
        for log_a, g_row, g_sup in zip(log_as, g_all, g_sups):
            scale = math.exp(q1 * log_a) * 0.5
            piece = scale * float(np.dot(_LOG_W, s_pow * (log_a + log_s) * g_row[:-1]))
            total += piece
            total_abs += abs(piece)
            # tail bound: int_0^a u^exp_lo |log u| du * sup |g| on [0, a]
            tail = math.exp(q1 * log_a) / q1 * (-log_a + 1.0 / q1) * float(g_sup)
            if not (math.isfinite(piece) and math.isfinite(tail)):
                raise DomainError(
                    f"integrate_log_jacobi: value {piece!r} or tail bound {tail!r} on "
                    f"the piece at {math.exp(log_a)!r} is not finite"
                )
            noise = _NOISE * total_abs
            err = tail + noise
            if tail <= max(tol, tol * abs(total), noise):
                return QuadratureResult(total, err, evals)
    raise AccuracyError(
        f"integrate_log_jacobi: {MAX_INTERVALS} pieces without reaching tol={tol!r} "
        f"(tail bound {float(tail)!r})",
        value=float(total),
        error_estimate=float(err),
        evaluations=evals,
    )


def integrate_jacobi(
    g,
    lo: float,
    hi: float,
    exp_lo: float = 0.0,
    exp_hi: float = 0.0,
    tol: float = 1e-9,
) -> QuadratureResult:
    """Adaptive integral of (hi-u)^exp_hi (u-lo)^exp_lo g(u) over (lo, hi).

    tol is absolute-or-relative, whichever is larger at the result's scale.
    Each piece calls g once, on the 31 nodes of its fine rule, so evaluations
    is 31 per piece.  With both exponents nonzero the interval starts as two
    pieces, split at its midpoint; it must be wide enough to split.  A piece
    at float resolution is no longer bisected but keeps its estimate in the
    total.  When the start pieces meet tolerance, as every piece of both
    benchmark workloads does, the call returns without building the
    bisection heap; otherwise the heap starts from those pieces.  Raises
    AccuracyError (carrying the best estimate) if the interval budget is
    exhausted before the estimate meets tolerance, or if the estimate left
    over sits on pieces already at float resolution, and DomainError at the
    first piece whose value or estimate is not finite.
    """
    require_finite("integrate_jacobi", lo, hi)
    if not (hi > lo):
        raise DomainError(f"integrate_jacobi: empty interval [{lo!r}, {hi!r}]")
    if not (exp_lo > -1.0 and exp_hi > -1.0):
        raise DomainError(
            f"integrate_jacobi: endpoint exponents ({exp_lo!r}, {exp_hi!r}) "
            "must exceed -1 for integrability"
        )
    require_positive_finite("integrate_jacobi", "tol", tol)
    starts = [(lo, hi)]
    if exp_lo != 0.0 and exp_hi != 0.0:  # a rule carries one endpoint weight
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            raise DomainError(
                f"integrate_jacobi: [{lo!r}, {hi!r}] is too narrow to split "
                "between its two endpoint weights"
            )
        starts = [(lo, mid), (mid, hi)]

    pieces = []
    total = total_abs = total_err = 0.0
    evals = 0
    for plo, phi in starts:
        val, err, nodes = _eval_pair(g, plo, phi, lo, hi, exp_lo, exp_hi)
        pieces.append((plo, phi, val, err))
        evals += nodes
        total += val
        total_abs += abs(val)
        total_err += err
    if _meets(total, total_abs, total_err, tol):
        return QuadratureResult(total, total_err, evals)
    return _bisect(g, lo, hi, exp_lo, exp_hi, tol, pieces, (total, total_abs, total_err, evals))


def _bisect(g, lo, hi, exp_lo, exp_hi, tol, pieces, sums) -> QuadratureResult:
    """integrate_jacobi past its start pieces, which missed tol: bisect the
    piece of largest estimate until the sums meet the stop test.

    pieces are the start pieces (plo, phi, value, estimate), in order; sums
    are their running total, absolute total, estimate and evaluations, so no
    piece is evaluated twice.  A piece at float resolution is kept, with its
    estimate, and never popped again.
    """
    total, total_abs, total_err, evals = sums
    heap = [(-err, i, plo, phi, val, err) for i, (plo, phi, val, err) in enumerate(pieces)]
    heapq.heapify(heap)
    counter = len(heap)
    while True:
        if len(heap) >= MAX_INTERVALS:
            reason = f"{MAX_INTERVALS} intervals"
            break
        priority, _, plo, phi, pval, perr = heapq.heappop(heap)
        if priority >= 0.0:  # only kept or zero-estimate pieces left: bisection cannot help
            reason = "pieces at float resolution"
            break
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:  # at float resolution: keep it, and its estimate
            heapq.heappush(heap, (math.inf, counter, plo, phi, pval, perr))
            counter += 1
            continue
        total -= pval
        total_abs -= abs(pval)
        total_err -= perr
        for qlo, qhi in ((plo, mid), (mid, phi)):
            v, e, nodes = _eval_pair(g, qlo, qhi, lo, hi, exp_lo, exp_hi)
            evals += nodes
            heapq.heappush(heap, (-e, counter, qlo, qhi, v, e))
            counter += 1
            total += v
            total_abs += abs(v)
            total_err += e
        if _meets(total, total_abs, total_err, tol):
            return QuadratureResult(total, total_err, evals)
    raise AccuracyError(
        f"integrate_jacobi: {reason} without reaching tol={tol!r} "
        f"(estimate {float(total_err)!r})",
        value=float(total),
        error_estimate=float(total_err),
        evaluations=evals,
    )
