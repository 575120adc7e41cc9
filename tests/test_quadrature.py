"""Adaptive quadrature with endpoint power weights: nested Fejér rules built
from Chebyshev moments, the log weight's rule among them."""

import heapq
import math
import re

import numpy as np
import pytest

from fracbessel import quadrature
from fracbessel.errors import AccuracyError, DomainError
from fracbessel.gammafns import beta_fn
from fracbessel.quadrature import (
    JacobiPart, QuadratureResult, integrate_jacobi, integrate_log_jacobi,
)

from _oracles import JACOBI_POLY_INTEGRALS, chebyshev_moments_oracle

EPS = np.finfo(float).eps
FINE = 31  # nodes of the fine rule, so evaluations per piece
ROUNDING = 16.0 * EPS  # a piece's rounding bound per unit of sum |w_i g_i|


def test_plain_polynomial():
    r = integrate_jacobi([JacobiPart(lambda u: u**2, 0.0, 1.0)], tol=1e-12)
    assert r.value == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_both_endpoints_singular_arcsine_weight():
    # integral of u^(-1/2) (1-u)^(-1/2) du over (0,1) = pi
    r = integrate_jacobi([JacobiPart(lambda u: np.ones_like(u), 0.0, 1.0,
                                     exp_lo=-0.5, exp_hi=-0.5)], tol=1e-13)
    assert r.value == pytest.approx(math.pi, rel=1e-13)
    assert r.error_estimate <= 1e-10


@pytest.mark.parametrize("a,b", [(0.3, 0.7), (1.5, 0.2), (0.05, 2.4)])
def test_beta_integral_with_general_weights(a, b):
    r = integrate_jacobi([JacobiPart(lambda u: np.ones_like(u), 0.0, 1.0,
                                     exp_lo=a - 1.0, exp_hi=b - 1.0)], tol=1e-12)
    assert r.value == pytest.approx(beta_fn(a, b), rel=1e-12)


def test_oscillatory_smooth_factor_needs_refinement():
    r = integrate_jacobi([JacobiPart(lambda u: np.cos(40.0 * u), 0.0, 1.0)], tol=1e-12)
    assert r.value == pytest.approx(math.sin(40.0) / 40.0, rel=1e-9, abs=1e-12)
    assert r.evaluations > FINE  # adaptive bisection had to split


def test_singular_weight_with_smooth_factor():
    # integral of u^(-0.4) cos(u) du on (0,1); reference from series
    # integral u^(-0.4) u^(2n) / (2n)! -> sum (-1)^n / ((2n)! (2n + 0.6))
    ref = sum((-1) ** n / (math.factorial(2 * n) * (2 * n + 0.6)) for n in range(12))
    r = integrate_jacobi([JacobiPart(lambda u: np.cos(u), 0.0, 1.0, exp_lo=-0.4)], tol=1e-12)
    assert r.value == pytest.approx(ref, rel=1e-12)


def test_general_interval_and_shifted_weights():
    # integral of (t-2)^0.5 dt on (2, 5) = (2/3) 3^1.5
    r = integrate_jacobi([JacobiPart(lambda t: np.ones_like(t), 2.0, 5.0, exp_lo=0.5)],
                         tol=1e-12)
    assert r.value == pytest.approx((2.0 / 3.0) * 3.0**1.5, rel=1e-13)


def test_error_estimate_is_honest():
    cases = [
        (lambda u: np.exp(u), 0.0, 1.0, 0.0, 0.0, math.e - 1.0),
        (lambda u: np.ones_like(u), 0.0, 1.0, -0.5, -0.5, math.pi),
        (lambda u: np.cos(40.0 * u), 0.0, 1.0, 0.0, 0.0, math.sin(40.0) / 40.0),
    ]
    for g, lo, hi, el, eh, truth in cases:
        r = integrate_jacobi([JacobiPart(g, lo, hi, exp_lo=el, exp_hi=eh)], tol=1e-11)
        assert abs(r.value - truth) <= max(10.0 * r.error_estimate, 1e-12)


def test_nonintegrable_exponent_rejected():
    with pytest.raises(DomainError):
        integrate_jacobi([JacobiPart(lambda u: np.ones_like(u), 0.0, 1.0, exp_lo=-1.0)])
    with pytest.raises(DomainError):
        integrate_jacobi([JacobiPart(lambda u: np.ones_like(u), 0.0, 1.0, exp_hi=-1.2)])


def test_budget_exhaustion_raises_with_partial_value(monkeypatch):
    seen = []

    def g(u):
        seen.append(u.size)
        return np.cos(300.0 * u)

    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 3)
    with pytest.raises(AccuracyError) as info:
        integrate_jacobi([JacobiPart(g, 0.0, 1.0)], tol=1e-14)
    err = info.value
    assert err.value is not None
    assert err.error_estimate is not None and err.error_estimate > 0
    # 5 pieces (the whole interval, then two bisections), each one g call on
    # the fine rule's nodes
    assert seen == [FINE] * 5
    assert err.evaluations == sum(seen)

    # the log weight's pieces share the heap, the budget and the count
    seen.clear()
    with pytest.raises(AccuracyError) as info:
        integrate_log_jacobi(g, 1.0, 0.0, tol=1e-14)
    assert info.value.error_estimate > 0
    assert seen == [FINE] * 5
    assert info.value.evaluations == sum(seen)


def test_non_finite_bound_rejected():
    # an infinite bound used to bisect the same float-resolution piece forever
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(DomainError):
            integrate_jacobi([JacobiPart(np.cos, lo, hi)])


def test_estimate_left_on_float_resolution_piece_raises():
    # a NaN estimate on a piece that cannot be bisected once looped forever;
    # a non-finite piece is now refused where it is evaluated
    nodes = []

    def g(u):
        nodes.append(u.size)
        return np.full_like(u, math.nan)

    with pytest.raises(DomainError, match="not finite"):
        integrate_jacobi([JacobiPart(g, 1.0, math.nextafter(1.0, 2.0))])
    assert nodes == [FINE]


def test_float_resolution_piece_keeps_its_estimate():
    # the piece cannot be bisected, so its own rule-pair difference must
    # stay in the estimate the call reports; its nodes round to lo or hi, so
    # the step g sees is far from what either rule can integrate
    def g(u):
        return np.where(u > 1.0, 1.0, 0.0)

    lo, hi = 1.0, math.nextafter(1.0, 2.0)
    part = JacobiPart(g, lo, hi, exp_lo=-0.5)
    piece = quadrature._piece(0, part, lo, hi)
    _, piece_err, _ = quadrature._eval_pair(piece, g(piece.nodes))
    assert piece_err > 1e-10
    with pytest.raises(AccuracyError, match="float resolution") as info:
        integrate_jacobi([part], tol=1e-14)
    assert info.value.error_estimate == piece_err


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_integrand_raises_at_its_first_piece(bad):
    # both bisected to float resolution and returned NaN value and estimate
    counted, seen = _counting(lambda u: np.where(u > 0.9, bad, np.cos(u)))
    with pytest.raises(DomainError, match="not finite"):
        integrate_jacobi([JacobiPart(counted, 0.0, 1.0, exp_lo=-0.5)])
    assert seen == [FINE]

    # the log weight's first piece is [0, 1/2], whose lowest node is 1.2e-3
    counted, seen = _counting(lambda u: np.where(u < 2e-3, bad, np.cos(u)))
    with pytest.raises(DomainError, match="not finite"):
        integrate_log_jacobi(counted, 0.5, -0.5)
    assert seen == [FINE]


def test_non_finite_values_past_the_stopping_piece_are_discarded():
    # the log weight's call stops on its first piece, whose lowest node is
    # 1.2e-3; a deeper piece would reach u < 1e-3, but none is evaluated
    def g(u):
        return np.where(u < 1e-3, math.nan, np.cos(u))

    r = integrate_log_jacobi(g, 0.5, 2.0, tol=0.05)
    assert r == integrate_log_jacobi(np.cos, 0.5, 2.0, tol=0.05)
    assert r.evaluations == FINE


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate_jacobi([JacobiPart(np.cos, 0.0, 1.0)], tol=math.inf),
        lambda: integrate_jacobi([JacobiPart(np.cos, 0.0, 1.0)], tol=math.nan),
        lambda: integrate_jacobi([JacobiPart(np.cos, 0.0, 1.0)], tol=-0.25),
        lambda: integrate_log_jacobi(np.cos, 0.5, 0.0, tol=math.inf),
        lambda: integrate_log_jacobi(np.cos, 0.5, 0.0, tol=math.nan),
    ],
    ids=[
        "jacobi-tol-inf", "jacobi-tol-nan", "jacobi-tol-negative", "log-tol-inf", "log-tol-nan",
    ],
)
def test_control_arguments_validated(call):
    with pytest.raises(DomainError):
        call()


def test_result_is_immutable_record():
    r = integrate_jacobi([JacobiPart(lambda u: u, 0.0, 1.0)], tol=1e-12)
    assert isinstance(r, QuadratureResult)
    with pytest.raises(AttributeError):
        r.value = 0.0


# ------------------------------------------------------- log-weight rule


@pytest.mark.parametrize("q", [0.0, -0.5, -0.94, 2.0])
def test_log_weight_moments_match_closed_form(q):
    # int_0^1 u^q log(u) du = -1/(q+1)^2
    r = integrate_log_jacobi(lambda u: np.ones_like(u), 1.0, q, tol=1e-13)
    exact = -1.0 / (q + 1.0) ** 2
    assert abs(r.value - exact) <= max(10.0 * r.error_estimate, 1e-13 * abs(exact))


def test_log_weight_with_smooth_factor():
    # int_0^(1/2) u^(-0.9) log(u) cos(u) du, series-computed reference
    r = integrate_log_jacobi(lambda u: np.cos(u), 0.5, -0.9, tol=1e-13)
    assert r.value == pytest.approx(-99.7062012155334995527, rel=1e-12)
    assert abs(r.value - -99.7062012155334995527) <= 10.0 * r.error_estimate


def test_log_weight_estimate_is_honest_near_slow_exponent():
    # q+1 = 0.06 makes the weights alternate strongly; the estimate must still cover
    r = integrate_log_jacobi(lambda u: 1.0 / (1.0 + u), 0.5, -0.94, tol=1e-10)
    # reference by the same closed-form moments against the geometric series
    exact = sum(
        (-1.0) ** k
        * (0.5 ** (k + 0.06) * (math.log(0.5) / (k + 0.06) - 1.0 / (k + 0.06) ** 2))
        for k in range(60)
    )
    assert abs(r.value - exact) <= max(10.0 * r.error_estimate, 1e-12)


def test_log_weight_with_a_weight_at_the_other_end():
    # the log counts as the lower end's weight, so the call splits first:
    # int_0^1 (1-u)^(-1/2) log(u) du = B(1, 1/2) (psi(1) - psi(3/2)) = 4 log 2 - 4
    r = integrate_jacobi([JacobiPart(np.ones_like, 0.0, 1.0, 0.0, -0.5, log_lo=True)],
                         tol=1e-14)
    assert r.evaluations % (2 * FINE) == 0  # two start pieces, then two per bisection
    assert abs(r.value - (4.0 * math.log(2.0) - 4.0)) <= r.error_estimate <= 1e-14


def test_log_piece_bisects_through_the_shared_heap():
    # an oscillatory smooth part: the piece touching 0 keeps the log weight,
    # the pieces bisected off it carry log(u) in g, and the sum converges
    sici = pytest.importorskip("scipy.special").sici
    # int_0^h log(u) cos(w u) du = (log(h) sin(w h) - Si(w h)) / w
    w, h = 300.0, 0.5
    r = integrate_log_jacobi(lambda u: np.cos(w * u), h, 0.0, tol=1e-12)
    want = (math.log(h) * math.sin(w * h) - sici(w * h)[0]) / w
    assert r.evaluations > 9 * FINE
    assert abs(r.value - want) <= r.error_estimate <= 1e-12

    # u^40 is past what either rule integrates exactly; the reference is
    # int_0^1 u^(40-1/2) log(u) du = -1/40.5^2
    r = integrate_log_jacobi(lambda u: u**40, 1.0, -0.5, tol=1e-14)
    assert r.evaluations > FINE
    assert abs(r.value + 1.0 / 40.5**2) <= r.error_estimate <= 1e-14


def test_log_weight_domain_validation():
    with pytest.raises(DomainError):
        integrate_log_jacobi(lambda u: u, 0.5, -1.0)
    with pytest.raises(DomainError):
        integrate_log_jacobi(lambda u: u, 0.0, -0.5)
    with pytest.raises(DomainError):
        integrate_log_jacobi(lambda u: u, math.inf, -0.5)
    with pytest.raises(DomainError):
        integrate_log_jacobi(lambda u: u, 0.5, -0.5, tol=0.0)


# ------------------------------------------- one integrand call per piece


def _counting(g):
    seen = []

    def counted(u):
        seen.append(u.size)
        return g(u)

    return counted, seen


def _fejer_nodes(n):
    """The interior Chebyshev points cos(j pi / n), ascending."""
    return np.sin(np.pi * np.arange(1 - n // 2, n // 2) / n)


def _jacobi_reference(g, lo, hi, exp_lo, exp_hi, tol, log_lo=False, max_bisections=None):
    """The adaptive rule with one g call per rule of the pair, each on its
    own nodes: (value, estimate, pieces), or AccuracyError after
    max_bisections bisections."""
    pieces = 0

    def rule_values(plo, phi, x):
        h2 = (phi - plo) / 2.0
        u = plo + h2 * (x + 1.0)
        vals = g(u)
        if phi != hi and exp_hi != 0.0:
            vals = vals * np.power(hi - u, exp_hi)
        if plo != lo:
            if exp_lo != 0.0:
                vals = vals * np.power(u - lo, exp_lo)
            if log_lo:
                vals = vals * np.log(u - lo)
        return vals

    def piece(plo, phi):
        nonlocal pieces
        pieces += 1
        aj = exp_hi if phi == hi else 0.0
        bj = exp_lo if plo == lo else 0.0
        log_h = math.log(phi - plo) if log_lo and plo == lo else None
        weights, abs_fine = quadrature._rule(aj, bj, log_h)
        scale = ((phi - plo) / 2.0) ** (aj + bj + 1.0)
        # the coarse row's weights past its 15 nodes are zero
        coarse_vals = np.concatenate((rule_values(plo, phi, _fejer_nodes(16)), np.zeros(16)))
        coarse = scale * float(weights.dot(coarse_vals)[0])
        # the fine weights are ordered as the coarse nodes, then the others
        fine_x = np.concatenate((_fejer_nodes(16), _fejer_nodes(32)[0::2]))
        fine_vals = rule_values(plo, phi, fine_x)
        fine = scale * float(weights.dot(fine_vals)[1])
        wabs = scale * float(abs_fine.dot(np.abs(fine_vals)))
        return fine, abs(fine - coarse) + ROUNDING * wabs, wabs

    starts = [(lo, hi)]
    if (exp_lo != 0.0 or log_lo) and exp_hi != 0.0:
        mid = 0.5 * (lo + hi)
        starts = [(lo, mid), (mid, hi)]
    heap = []
    total = total_wabs = total_err = 0.0
    for plo, phi in starts:
        val, err, wabs = piece(plo, phi)
        heap.append((-err, len(heap), plo, phi, val, err, wabs))
        total += val
        total_wabs += wabs
        total_err += err
    heapq.heapify(heap)
    counter = len(heap)
    bisections = 0
    while total_err > max(tol, tol * abs(total), 100.0 * EPS * total_wabs):
        if bisections == max_bisections:
            raise AccuracyError("reference", value=total, error_estimate=total_err,
                                evaluations=FINE * pieces)
        bisections += 1
        _, _, plo, phi, pval, perr, pwabs = heapq.heappop(heap)
        mid = 0.5 * (plo + phi)
        assert plo < mid < phi
        total -= pval
        total_wabs -= pwabs
        total_err -= perr
        for qlo, qhi in ((plo, mid), (mid, phi)):
            v, e, w = piece(qlo, qhi)
            heapq.heappush(heap, (-e, counter, qlo, qhi, v, e, w))
            counter += 1
            total += v
            total_wabs += w
            total_err += e
    return total, total_err, pieces


@pytest.mark.parametrize(
    "g,lo,hi,exp_lo,exp_hi,tol,bisections",
    [
        (np.cos, 0.0, 1.0, 0.0, 0.0, 1e-12, 0),
        (lambda u: np.cos(40.0 * u), 0.0, 1.0, 0.0, 0.0, 1e-12, 7),
        (lambda u: ((u - 0.7) * u + 2.0) * u**7 - 3.0, 0.25, 2.0, -0.3, 0.4, 1e-13, 1),
        (lambda u: np.cos(40.0 * u), 0.25, 2.0, -0.3, 0.4, 1e-12, 14),
    ],
    ids=["cos", "cos-bisects", "polynomial-jacobi-weight", "jacobi-weight-bisects"],
)
def test_fused_pair_matches_one_rule_per_call(g, lo, hi, exp_lo, exp_hi, tol, bisections):
    # the coarse rule reads the fine rule's values at its own nodes, every
    # other fine node, so one g call per piece gives the results of one
    # call per rule, bit for bit, estimates and their rounding bounds
    # included
    nodes = []

    def counted(u):
        nodes.append(u.tobytes())
        return g(u)

    r = integrate_jacobi([JacobiPart(counted, lo, hi, exp_lo=exp_lo, exp_hi=exp_hi)], tol=tol)
    value, estimate, pieces = _jacobi_reference(g, lo, hi, exp_lo, exp_hi, tol)
    assert (r.value, r.error_estimate, r.evaluations) == (value, estimate, FINE * pieces)
    # one start piece, or two with both weights, then two per bisection:
    # each piece is one g call on its 31 nodes, and none is evaluated twice
    starts = 2 if exp_lo and exp_hi else 1
    assert pieces == starts + 2 * bisections
    assert [len(b) // 8 for b in nodes] == [FINE] * pieces
    assert len(set(nodes)) == pieces


# g, h, exp_lo: an oscillatory smooth part, so the log weight's call bisects
_LOG_CASE = (lambda u: 1.5 + 0.5 * np.cos(300.0 * u), 0.5, -0.5)


@pytest.mark.parametrize("stop", [1, 8, 9, 17])
def test_log_blocks_stop_on_the_same_piece(stop):
    # the log weight's pieces go through the one heap and stop test: the
    # piece touching 0 on the log rule, the others with log(u) in g
    g, h, exp_lo = _LOG_CASE
    # the tolerance met first after `stop` bisections: its own estimate then,
    # less than the estimate at any earlier step, with a margin for the
    # rounding of tol * |value|
    with pytest.raises(AccuracyError) as info:
        _jacobi_reference(g, 0.0, h, exp_lo, 0.0, 1e-300, log_lo=True, max_bisections=stop)
    tol = (1.0 + 1e-9) * info.value.error_estimate / max(1.0, abs(info.value.value))
    value, estimate, pieces = _jacobi_reference(g, 0.0, h, exp_lo, 0.0, tol, log_lo=True)
    assert pieces == 1 + 2 * stop

    counted, seen = _counting(g)
    r = integrate_log_jacobi(counted, h, exp_lo, tol=tol)
    assert (r.value, r.error_estimate) == (value, estimate)
    assert seen == [FINE] * pieces
    assert r.evaluations == sum(seen)


@pytest.mark.parametrize("max_pieces", [3, 8, 11])
def test_log_blocks_never_pass_the_piece_budget(monkeypatch, max_pieces):
    # the heap holds at most MAX_INTERVALS pieces, log weight or not
    g, h, exp_lo = _LOG_CASE
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", max_pieces)
    with pytest.raises(AccuracyError) as ref:
        _jacobi_reference(g, 0.0, h, exp_lo, 0.0, 1e-300, log_lo=True,
                          max_bisections=max_pieces - 1)
    counted, seen = _counting(g)
    with pytest.raises(AccuracyError) as info:
        integrate_log_jacobi(counted, h, exp_lo, tol=1e-300)
    got, want = info.value, ref.value
    assert (got.value, got.error_estimate) == (want.value, want.error_estimate)
    assert seen == [FINE] * (2 * max_pieces - 1)
    assert got.evaluations == sum(seen) == want.evaluations


# ------------------------------------------- Fejér rules from Chebyshev moments

# The fine nodes are cos(q pi / 32): first the coarse rule's, q even, then
# the others, each ascending.  T[k, i] = T_k(x_i), with k q_i reduced
# exactly before the cosine is taken.
_Q = np.r_[30:0:-2, 31:0:-2]
_T = np.cos(np.pi * ((np.arange(31)[:, None] * _Q) % 64) / 32)

_EXPONENTS = (-0.99999, -0.999, -0.9, -0.5, 0.0, 0.3, 1.7, 4.0, 10.0)


def test_nodes_are_nested_interior_chebyshev_points():
    x = quadrature._NODES
    assert x.size == FINE and not x.flags.writeable
    assert np.all(np.abs(x - np.cos(_Q * np.pi / 32)) <= EPS)
    coarse, added = x[:15], x[15:]
    for part in (coarse, added):
        assert np.all(np.diff(part) > 0) and np.all(part == -part[::-1])
    assert -1.0 < added[0] and added[-1] < 1.0
    # a piece's nodes are mapped once per geometry and shared, read-only
    u = quadrature._nodes_on(0.25, 2.0)
    assert u is quadrature._nodes_on(0.25, 2.0) and not u.flags.writeable
    assert np.array_equal(u, 0.25 + 0.875 * (x + 1.0))
    assert quadrature._nodes_on.cache_info().maxsize <= 64


@pytest.mark.parametrize("b", _EXPONENTS)
def test_moments_match_exact_oracle(b):
    got = np.array(quadrature._moments(b))
    want = np.array(chebyshev_moments_oracle(b))
    # the recurrence loses up to ~16 ulps of M_0 as b -> -1
    assert np.all(np.abs(got - want) <= 4e-15 * want[0])


@pytest.mark.parametrize("e", [1020.3, 1022.5, 1023.0, 1e200])
def test_moments_past_the_float_range_raise_a_named_overflow(e):
    # from e near 1019 the recurrence's terms overflow before 2^(e+1) does;
    # either way the error names the weight power, never a NaN rule
    with pytest.raises(OverflowError, match=re.escape(f"_moments: the weight power {e!r} leaves")):
        quadrature._moments(e)


@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("e", _EXPONENTS)
def test_weights_reproduce_the_moments(side, e):
    # each rule integrates the Chebyshev polynomials it can interpolate
    # exactly: sum_i w_i T_k(x_i) = M_k, with (-1)^k M_k for (1-x)^e; the
    # sum's own rounding is a few eps times sum |w_i|
    weights, abs_fine = quadrature._rule(e, 0.0) if side == "hi" else quadrature._rule(0.0, e)
    coarse, fine = weights[0, :15], weights[1]
    assert not np.any(weights[0, 15:]) and np.array_equal(abs_fine, np.abs(fine))
    moments = np.array(chebyshev_moments_oracle(e))
    if side == "hi":
        moments[1::2] *= -1.0
    assert np.all(np.abs(_T @ fine - moments) <= 4.0 * EPS * np.sum(np.abs(fine)))
    assert np.all(np.abs(_T[:15, :15] @ coarse - moments[:15]) <= 4.0 * EPS * np.sum(np.abs(coarse)))
    assert not (weights.flags.writeable or abs_fine.flags.writeable)


_LOG_EXPONENTS = (-0.999, -0.9, -0.5, 0.3, 4.0, 12.0)


@pytest.mark.parametrize("e", _LOG_EXPONENTS)
def test_log_moments_match_exact_oracle(e):
    got = np.array(quadrature._log_moments(e))
    want = np.array(chebyshev_moments_oracle(e, log=True))
    assert np.all(np.abs(got - want) <= 2e-15 * abs(want[0]))


@pytest.mark.parametrize("h", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("e", _LOG_EXPONENTS)
def test_log_rule_is_exact_on_powers(e, h):
    # on [0, h] the log rule integrates u^e log(u) u^j for j < 15 (coarse)
    # and j < 31 (fine): int_0^h u^(e+j) log(u) du = h^p (log(h)/p - 1/p^2)
    # with p = e+j+1.  The weights carry their moments' error on top of the
    # sum's rounding, up to 35 eps of sum |w_i| |u_i|^j (at h = 1).
    weights, abs_fine = quadrature._rule(0.0, e, math.log(h))
    u = h * (quadrature._NODES + 1.0) / 2.0
    scale = (h / 2.0) ** (e + 1.0)
    for j in range(31):
        p = e + j + 1.0
        want = h**p * (math.log(h) / p - 1.0 / p**2)
        bound = 64.0 * EPS * scale * float(abs_fine.dot(u**j))
        for row in (0, 1) if j < 15 else (1,):
            got = scale * float(weights[row].dot(u**j))
            assert abs(got - want) <= bound, (j, row)


@pytest.mark.parametrize("n,a,b", sorted(JACOBI_POLY_INTEGRALS))
def test_rule_matches_frozen_references(n, a, b):
    # int_-1^1 (1-x)^a (1+x)^b p_n(x) dx, p_n of degree 2n-1 (see _oracles):
    # with both weights the interval is split first, and each half carries
    # the other endpoint's factor in its integrand
    def p(x):
        return sum((0.9 * x) ** j for j in range(2 * n))

    r = integrate_jacobi([JacobiPart(p, -1.0, 1.0, exp_lo=b, exp_hi=a)], tol=1e-14)
    assert r.value == pytest.approx(JACOBI_POLY_INTEGRALS[(n, a, b)], rel=1e-14)


@pytest.mark.parametrize(
    "a,b", [(0.0, 0.0), (-0.5, -0.5), (0.3, -0.3), (-0.25, -0.75), (-0.999, 0.4), (1.4, 1.2)]
)
def test_rule_agrees_with_scipy_at_max_order(a, b):
    # an integrand no rule integrates exactly, against scipy's 256-point
    # Gauss-Jacobi rule for the same weight
    roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
    with np.errstate(divide="ignore", invalid="ignore"):  # scipy's 0/0 at a+b = -1
        x, w = roots_jacobi(256, a, b)

    def g(u):
        return np.cos(3.0 * u) / (2.5 - u)

    r = integrate_jacobi([JacobiPart(g, -1.0, 1.0, exp_lo=b, exp_hi=a)], tol=1e-14)
    # scipy's own weights are off by up to 1.5e-10 relative here
    assert r.value == pytest.approx(float(np.dot(w, g(x))), rel=1e-9)


def test_two_weights_need_an_interval_wide_enough_to_split():
    lo, hi = 1.0, math.nextafter(1.0, 2.0)
    with pytest.raises(DomainError, match="too narrow"):
        integrate_jacobi([JacobiPart(np.cos, lo, hi, exp_lo=-0.5, exp_hi=0.5)])
    # one weight needs no split
    r = integrate_jacobi([JacobiPart(np.cos, lo, hi, exp_lo=-0.5)])
    assert r.value == pytest.approx(2.0 * math.sqrt(hi - lo) * math.cos(1.0), rel=1e-12)


@pytest.mark.parametrize(
    "lo,hi,exp_lo,exp_hi",
    [(0.0, 1.0, 0.0, 0.0), (0.0, 0.5, -0.7, 0.0), (0.5, 1.0, 0.0, -0.3), (-1.0, 2.0, 0.4, -0.6)],
)
def test_no_rule_evaluates_g_at_an_endpoint(lo, hi, exp_lo, exp_hi):
    # an integrand undefined at the ends (t = x/0 on a right-sided transform)
    def g(u):
        if np.any((u <= lo) | (u >= hi)):
            raise AssertionError(f"g evaluated outside ({lo}, {hi})")
        return np.cos(u)

    r = integrate_jacobi([JacobiPart(g, lo, hi, exp_lo=exp_lo, exp_hi=exp_hi)], tol=1e-12)
    assert math.isfinite(r.value) and r.evaluations % FINE == 0


# ------------------------------------------- a weighted sum of parts, one heap


def test_unbisected_parts_sum_their_single_part_results():
    # each part stops on its start piece, so the sum is formed from the
    # single-part results in part order, and its estimate adds the
    # combination's rounding allowance, 4 eps of sum |coef * part|
    parts = [JacobiPart(np.cos, 0.0, 1.0, coef=2.0), JacobiPart(np.exp, 0.0, 0.5, -0.3, coef=-0.5)]
    (v1, e1), (v2, e2) = [
        (r.value, r.error_estimate) for r in (integrate_jacobi([p._replace(coef=1.0)]) for p in parts)
    ]
    r = integrate_jacobi(parts, tol=1e-9, scale=3.0)
    assert r.evaluations == 2 * FINE
    assert r.value == 3.0 * (2.0 * v1 + -0.5 * v2)
    assert r.error_estimate == 3.0 * (2.0 * e1 + 0.5 * e2) + 3.0 * (4 * EPS) * (
        abs(2.0 * v1) + abs(-0.5 * v2)
    )


def test_heap_bisects_the_part_of_largest_weighted_estimate():
    # two parts with the same integrand and estimates: only the one weighted
    # by 1e6 is bisected, though its start piece is the younger one
    light, light_seen = _counting(lambda u: np.cos(40.0 * u))
    heavy, heavy_seen = _counting(lambda u: np.cos(40.0 * u))
    r = integrate_jacobi([JacobiPart(light, 0.0, 1.0), JacobiPart(heavy, 0.0, 1.0, coef=1e6)],
                         tol=1e-6)
    assert light_seen == [FINE] and len(heavy_seen) > 1
    assert r.evaluations == FINE * (len(light_seen) + len(heavy_seen))
    assert abs(r.value - (1.0 + 1e6) * math.sin(40.0) / 40.0) <= r.error_estimate


def test_a_g_is_called_once_per_node_set_its_parts_share():
    # two parts with one g on the same interval share its values, whether
    # it is their own g or the call's; a part on other nodes calls it again
    g, seen = _counting(np.cos)
    parts = [JacobiPart(g, 0.0, 1.0), JacobiPart(g, 0.0, 1.0, -0.5, coef=2.0)]
    r = integrate_jacobi(parts)
    assert seen == [FINE] and r.evaluations == 2 * FINE
    assert integrate_jacobi([p._replace(g=None) for p in parts], g=g) == r
    assert seen == [FINE, FINE]
    integrate_jacobi([parts[0], JacobiPart(g, 0.0, 0.5)])
    assert seen == [FINE, FINE, FINE, FINE]


def test_parts_share_the_piece_budget(monkeypatch):
    # MAX_INTERVALS bounds the heap of all parts together: two start pieces,
    # then two per bisection until the heap holds 5, so 8 pieces in all,
    # where a budget per part would allow 9 each
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 5)
    first, first_seen = _counting(lambda u: np.cos(300.0 * u))
    second, second_seen = _counting(lambda u: np.sin(300.0 * u))
    with pytest.raises(AccuracyError, match="5 intervals") as info:
        integrate_jacobi([JacobiPart(first, 0.0, 1.0), JacobiPart(second, 0.0, 1.0)], tol=1e-14)
    assert len(first_seen) + len(second_seen) == 8
    assert first_seen and second_seen
    assert info.value.evaluations == 8 * FINE


def test_sum_past_the_float_range_raises_overflow_error():
    # every piece is finite, but their weighted sum is not: tol * max(1, |inf|)
    # would pass any estimate, so the call refuses instead of returning inf
    parts = [JacobiPart(np.ones_like, 0.0, 1.0, coef=1e308)] * 2
    with pytest.raises(OverflowError, match="weighted sum of the parts, inf, leaves"):
        integrate_jacobi(parts)
