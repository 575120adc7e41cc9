"""Adaptive Gauss-Jacobi quadrature with endpoint-weight absorption.

Integrates  int_lo^hi (hi-u)^exp_hi * (u-lo)^exp_lo * g(u) du  for smooth
vectorized g and exponents > -1.  The algebraic endpoint factors are
absorbed into the Gauss-Jacobi weight on subintervals touching their
endpoint and evaluated directly elsewhere.  Each subinterval is estimated
with an order-n and an order-2n rule; their difference drives adaptive
bisection of the worst subinterval until the summed estimate meets
tolerance, the interval budget runs out, or the estimate hits the
rounding floor of the accumulated values.

The default pair is 12/24.  On the acceptance-1 sweep of 1200 random
monomial transforms it gives a worst relative error of 1.1e-11 against the
exact images, where 60/120 gave 5.5e-10, at a fifth of the integrand
evaluations.  The integrand's own series are summed over all nodes of a
call at once (series.sum_series): the terms are formed one by one at the
largest node only, then rescaled to every node by one nodes-by-terms
product.  Most of a call's cost is that per-term loop, tens of
microseconds that barely grow with the node count.  So g is called once
per piece on the order-n and order-2n nodes together, and the dyadic log
rule calls g once per block of LOG_BLOCK pieces.  evaluations counts
every node g saw.

The rules are built here by Golub-Welsch (Math. Comp. 23, 1969): the nodes
are the eigenvalues of the symmetric tridiagonal Jacobi matrix of the
monic Jacobi recurrence, and the weights are mu0 times the squared first
components of its eigenvectors.  Against 40-digit references their nodes
are within 1e-15 and their weights within 2e-13 relative at orders up to
24, where scipy's roots_jacobi is off by up to 2e-11.  The dense
eigen-solve of order 2n costs O(n^2) memory, so order is capped at
MAX_ORDER.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, require_finite, require_positive_finite
from .gammafns import beta_fn

DEFAULT_ORDER = 12
#: Largest rule order accepted; the order-2n rule is a dense 2n x 2n eigen-solve.
MAX_ORDER = 256
MAX_INTERVALS = 2000
LOG_BLOCK = 8  # dyadic pieces per integrand call in integrate_log_jacobi


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with an a-posteriori error estimate and work count."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        # normalize numpy scalars so downstream reprs and JSON stay clean
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "error_estimate", float(self.error_estimate))
        object.__setattr__(self, "evaluations", int(self.evaluations))


@lru_cache(maxsize=4096)
def _rule(n: int, a: float, b: float):
    """Gauss-Jacobi nodes/weights on [-1, 1] for weight (1-x)^a (1+x)^b.

    Golub-Welsch on the monic Jacobi recurrence x p_k = p_{k+1} + alpha_k p_k
    + beta_k p_{k-1}.  alpha_0 and beta_1 take their reduced forms: the
    general ones are 0/0 at a+b = 0 and a+b = -1.  Plain floats build the
    coefficients, cheaper than numpy at these sizes.  The arrays are
    read-only, since every caller shares the cached pair.
    """
    n = int(n)
    ab = a + b
    diag = [(b - a) / (ab + 2.0)]
    diff = (b - a) * ab
    for k in range(1, n):
        s = 2.0 * k + ab
        diag.append(diff / (s * (s + 2.0)))
    off = [math.sqrt(4.0 * (1.0 + a) * (1.0 + b) / ((ab + 2.0) ** 2 * (ab + 3.0)))]
    for k in range(2, n):
        s = 2.0 * k + ab
        off.append(
            math.sqrt(4.0 * k * (k + a) * (k + b) * (k + ab) / (s * s * (s + 1.0) * (s - 1.0)))
        )
    jacobi = np.zeros((n, n))
    jacobi.flat[:: n + 1] = diag
    jacobi.flat[n :: n + 1] = off[: n - 1]  # eigh reads the lower triangle
    x, v = np.linalg.eigh(jacobi)
    mu0 = 2.0 ** (ab + 1.0) * beta_fn(a + 1.0, b + 1.0)  # the weight's total mass
    w = mu0 * v[0] ** 2
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _check_controls(owner: str, tol: float, order: int, budget_name: str, budget: int) -> None:
    """Raise DomainError unless tol is positive and finite, order is a whole
    number in [1, MAX_ORDER] and budget >= 1."""
    require_positive_finite(owner, "tol", tol)
    if not (1 <= order <= MAX_ORDER and float(order).is_integer()):
        raise DomainError(
            f"{owner}: order must be a whole number in [1, {MAX_ORDER}], got {order!r}"
        )
    if not budget >= 1:
        raise DomainError(f"{owner}: {budget_name} must be at least 1, got {budget!r}")


def _eval_pair(g, plo, phi, lo, hi, exp_lo, exp_hi, order):
    """Order-n and order-2n weighted Gauss rules over [plo, phi] within [lo, hi].

    g is called once, on both rules' nodes concatenated.  Returns the fine
    value, |fine - coarse| and the number of nodes g saw.
    """
    touches_lo = plo == lo
    touches_hi = phi == hi
    aj = exp_hi if touches_hi else 0.0
    bj = exp_lo if touches_lo else 0.0
    x_coarse, w_coarse = _rule(order, aj, bj)
    x_fine, w_fine = _rule(2 * order, aj, bj)
    h2 = (phi - plo) / 2.0
    u = plo + h2 * (np.concatenate((x_coarse, x_fine)) + 1.0)
    vals = g(u)
    if not touches_hi and exp_hi != 0.0:
        vals = vals * np.power(hi - u, exp_hi)
    if not touches_lo and exp_lo != 0.0:
        vals = vals * np.power(u - lo, exp_lo)
    scale = h2 ** (aj + bj + 1.0)
    coarse = scale * float(np.dot(w_coarse, vals[: x_coarse.size]))
    fine = scale * float(np.dot(w_fine, vals[x_coarse.size :]))
    return fine, abs(fine - coarse), u.size


def integrate_log_jacobi(
    g,
    h: float,
    exp_lo: float,
    tol: float = 1e-9,
    order: int = DEFAULT_ORDER,
    max_pieces: int = MAX_INTERVALS,
) -> QuadratureResult:
    """Integral of u**exp_lo * log(u) * g(u) over (0, h) for g analytic on [0, h].

    The log factor defeats fixed endpoint-weight rules, but on each dyadic
    piece [h/2^(j+1), h/2^j] the whole integrand is analytic, so a single
    Gauss-Legendre rule there is exact to rounding.  Pieces are accumulated
    downward until the analytic bound on the remaining [0, h/2^J] tail
    (|g| bounded near 0, weight integrated exactly) meets the same
    absolute-or-relative tolerance rule as integrate_jacobi.  g is called
    once per block of LOG_BLOCK consecutive pieces (never past max_pieces),
    on every node of the block plus each piece's tail probe; the pieces are
    then accumulated and tested in order, and those past the stopping piece
    are discarded.  evaluations counts every node g saw, discarded pieces
    included.  Piece scales h_j^(exp_lo+1) are formed in log space, so
    arbitrarily deep descent cannot overflow.  Requires exp_lo > -1 and
    0 < h <= 1.
    """
    if not (0.0 < h <= 1.0):
        raise DomainError(f"integrate_log_jacobi: h must lie in (0, 1], got {h!r}")
    if not (exp_lo > -1.0):
        raise DomainError(
            f"integrate_log_jacobi: endpoint exponent {exp_lo!r} must exceed -1"
        )
    _check_controls("integrate_log_jacobi", tol, order, "max_pieces", max_pieces)

    x, wts = _rule(order, 0.0, 0.0)
    s = 1.0 + 0.5 * (x + 1.0)  # nodes mapped to [1, 2]
    s_pow = np.power(s, exp_lo)
    log_s = np.log(s)
    # each piece's tail probe at a/2 rides along with its nodes
    s_probe = np.append(s, 0.5)
    q1 = exp_lo + 1.0
    log_h = math.log(h)

    total = 0.0
    total_abs = 0.0
    evals = 0
    for first in range(0, max_pieces, LOG_BLOCK):
        log_as = [
            log_h - (j + 1.0) * math.log(2.0)
            for j in range(first, min(first + LOG_BLOCK, max_pieces))
        ]
        u = np.multiply.outer([math.exp(log_a) for log_a in log_as], s_probe)
        g_all = g(u.ravel()).reshape(u.shape)
        evals += u.size
        # sup |g| on [0, a] from the piece's nodes and its probe
        g_sups = 2.0 * np.abs(g_all).max(axis=1)
        for log_a, g_row, g_sup in zip(log_as, g_all, g_sups):
            scale = math.exp(q1 * log_a) * 0.5
            piece = scale * float(np.dot(wts, s_pow * (log_a + log_s) * g_row[:-1]))
            total += piece
            total_abs += abs(piece)
            # tail bound: int_0^a u^exp_lo |log u| du * sup |g| on [0, a]
            tail = math.exp(q1 * log_a) / q1 * (-log_a + 1.0 / q1) * float(g_sup)
            noise = 100.0 * np.finfo(float).eps * total_abs
            err = tail + noise
            if tail <= max(tol, tol * abs(total), noise):
                return QuadratureResult(total, err, evals)
    raise AccuracyError(
        f"integrate_log_jacobi: {max_pieces} pieces without reaching tol={tol!r} "
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
    order: int = DEFAULT_ORDER,
    max_intervals: int = MAX_INTERVALS,
) -> QuadratureResult:
    """Adaptive integral of (hi-u)^exp_hi (u-lo)^exp_lo g(u) over (lo, hi).

    tol is absolute-or-relative, whichever is larger at the result's scale.
    Each piece calls g once, on its order-n and order-2n nodes together, so
    evaluations is 3n per piece.  A piece at float resolution is no longer
    bisected but keeps its estimate in the total.  Raises AccuracyError
    (carrying the best estimate) if the interval budget is exhausted before
    the estimate meets tolerance, or if the estimate left over sits on pieces
    already at float resolution.
    """
    require_finite("integrate_jacobi", lo, hi)
    if not (hi > lo):
        raise DomainError(f"integrate_jacobi: empty interval [{lo!r}, {hi!r}]")
    if not (exp_lo > -1.0 and exp_hi > -1.0):
        raise DomainError(
            f"integrate_jacobi: endpoint exponents ({exp_lo!r}, {exp_hi!r}) "
            "must exceed -1 for integrability"
        )
    _check_controls("integrate_jacobi", tol, order, "max_intervals", max_intervals)

    evals = 0

    def make_piece(plo, phi):
        nonlocal evals
        val, err, nodes = _eval_pair(g, plo, phi, lo, hi, exp_lo, exp_hi, order)
        evals += nodes
        return val, err

    def failure(reason):
        return AccuracyError(
            f"integrate_jacobi: {reason} without reaching tol={tol!r} "
            f"(estimate {float(total_err)!r})",
            value=float(total),
            error_estimate=float(total_err),
            evaluations=evals,
        )

    counter = 0
    heap = []
    val, err = make_piece(lo, hi)
    heapq.heappush(heap, (-err, counter, lo, hi, val, err))
    counter += 1
    total = val
    total_abs = abs(val)
    total_err = err

    while True:
        bound = max(tol, tol * abs(total))
        noise_floor = 100.0 * np.finfo(float).eps * total_abs
        if total_err <= max(bound, noise_floor):
            return QuadratureResult(total, total_err, evals)
        if len(heap) >= max_intervals:
            raise failure(f"{max_intervals} intervals")
        priority, _, plo, phi, pval, perr = heapq.heappop(heap)
        if priority >= 0.0:  # only kept or zero-estimate pieces left: bisection cannot help
            raise failure("pieces at float resolution")
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:  # at float resolution: keep it, and its estimate
            heapq.heappush(heap, (math.inf, counter, plo, phi, pval, perr))
            counter += 1
            continue
        total -= pval
        total_abs -= abs(pval)
        total_err -= perr
        for qlo, qhi in ((plo, mid), (mid, phi)):
            v, e = make_piece(qlo, qhi)
            heapq.heappush(heap, (-e, counter, qlo, qhi, v, e))
            counter += 1
            total += v
            total_abs += abs(v)
            total_err += e
