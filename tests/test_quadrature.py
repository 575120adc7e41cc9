"""Adaptive quadrature with endpoint power weights: nested Fejér rules built
from Chebyshev moments, and the dyadic log-weight rule."""

import heapq
import math

import numpy as np
import pytest

from fracbessel import quadrature
from fracbessel.errors import AccuracyError, DomainError
from fracbessel.gammafns import beta_fn
from fracbessel.quadrature import QuadratureResult, integrate_jacobi, integrate_log_jacobi

from _oracles import JACOBI_POLY_INTEGRALS, chebyshev_moments_oracle

EPS = np.finfo(float).eps
FINE = 31  # nodes of the fine rule, so evaluations per piece


def test_plain_polynomial():
    r = integrate_jacobi(lambda u: u**2, 0.0, 1.0, tol=1e-12)
    assert r.value == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_both_endpoints_singular_arcsine_weight():
    # integral of u^(-1/2) (1-u)^(-1/2) du over (0,1) = pi
    r = integrate_jacobi(lambda u: np.ones_like(u), 0.0, 1.0,
                         exp_lo=-0.5, exp_hi=-0.5, tol=1e-13)
    assert r.value == pytest.approx(math.pi, rel=1e-13)
    assert r.error_estimate <= 1e-10


@pytest.mark.parametrize("a,b", [(0.3, 0.7), (1.5, 0.2), (0.05, 2.4)])
def test_beta_integral_with_general_weights(a, b):
    r = integrate_jacobi(lambda u: np.ones_like(u), 0.0, 1.0,
                         exp_lo=a - 1.0, exp_hi=b - 1.0, tol=1e-12)
    assert r.value == pytest.approx(beta_fn(a, b), rel=1e-12)


def test_oscillatory_smooth_factor_needs_refinement():
    r = integrate_jacobi(lambda u: np.cos(40.0 * u), 0.0, 1.0, tol=1e-12)
    assert r.value == pytest.approx(math.sin(40.0) / 40.0, rel=1e-9, abs=1e-12)
    assert r.evaluations > FINE  # adaptive bisection had to split


def test_singular_weight_with_smooth_factor():
    # integral of u^(-0.4) cos(u) du on (0,1); reference from series
    # integral u^(-0.4) u^(2n) / (2n)! -> sum (-1)^n / ((2n)! (2n + 0.6))
    ref = sum((-1) ** n / (math.factorial(2 * n) * (2 * n + 0.6)) for n in range(12))
    r = integrate_jacobi(lambda u: np.cos(u), 0.0, 1.0, exp_lo=-0.4, tol=1e-12)
    assert r.value == pytest.approx(ref, rel=1e-12)


def test_general_interval_and_shifted_weights():
    # integral of (t-2)^0.5 dt on (2, 5) = (2/3) 3^1.5
    r = integrate_jacobi(lambda t: np.ones_like(t), 2.0, 5.0, exp_lo=0.5, tol=1e-12)
    assert r.value == pytest.approx((2.0 / 3.0) * 3.0**1.5, rel=1e-13)


def test_error_estimate_is_honest():
    cases = [
        (lambda u: np.exp(u), 0.0, 1.0, 0.0, 0.0, math.e - 1.0),
        (lambda u: np.ones_like(u), 0.0, 1.0, -0.5, -0.5, math.pi),
        (lambda u: np.cos(40.0 * u), 0.0, 1.0, 0.0, 0.0, math.sin(40.0) / 40.0),
    ]
    for g, lo, hi, el, eh, truth in cases:
        r = integrate_jacobi(g, lo, hi, exp_lo=el, exp_hi=eh, tol=1e-11)
        assert abs(r.value - truth) <= max(10.0 * r.error_estimate, 1e-12)


def test_nonintegrable_exponent_rejected():
    with pytest.raises(DomainError):
        integrate_jacobi(lambda u: np.ones_like(u), 0.0, 1.0, exp_lo=-1.0)
    with pytest.raises(DomainError):
        integrate_jacobi(lambda u: np.ones_like(u), 0.0, 1.0, exp_hi=-1.2)


def test_budget_exhaustion_raises_with_partial_value(monkeypatch):
    seen = []

    def g(u):
        seen.append(u.size)
        return np.cos(300.0 * u)

    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 3)
    with pytest.raises(AccuracyError) as info:
        integrate_jacobi(g, 0.0, 1.0, tol=1e-14)
    err = info.value
    assert err.value is not None
    assert err.error_estimate is not None and err.error_estimate > 0
    # 5 pieces (the whole interval, then two bisections), each one g call on
    # the fine rule's nodes
    assert seen == [FINE] * 5
    assert err.evaluations == sum(seen)

    seen.clear()
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", 4)
    with pytest.raises(AccuracyError) as info:
        integrate_log_jacobi(g, 1.0, 0.0, tol=1e-14)
    # one g call on 4 dyadic pieces (the block stops at the budget), each 12
    # nodes plus the tail probe
    assert seen == [4 * (12 + 1)]
    assert info.value.evaluations == sum(seen)


def test_non_finite_bound_rejected():
    # an infinite bound used to bisect the same float-resolution piece forever
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(DomainError):
            integrate_jacobi(np.cos, lo, hi)


def test_estimate_left_on_float_resolution_piece_raises():
    # a NaN estimate on a piece that cannot be bisected once looped forever
    nodes = []

    def g(u):
        nodes.append(u.size)
        return np.full_like(u, math.nan)

    with pytest.raises(AccuracyError, match="float resolution") as info:
        integrate_jacobi(g, 1.0, math.nextafter(1.0, 2.0))
    assert info.value.evaluations == sum(nodes) == FINE
    assert info.value.value is not None and info.value.error_estimate is not None


def test_float_resolution_piece_keeps_its_estimate():
    # the piece cannot be bisected, so its own rule-pair difference must
    # stay in the estimate the call reports; its nodes round to lo or hi, so
    # the step g sees is far from what either rule can integrate
    def g(u):
        return np.where(u > 1.0, 1.0, 0.0)

    lo, hi = 1.0, math.nextafter(1.0, 2.0)
    _, piece_err, _ = quadrature._eval_pair(g, lo, hi, lo, hi, -0.5, 0.0)
    assert piece_err > 1e-10
    with pytest.raises(AccuracyError, match="float resolution") as info:
        integrate_jacobi(g, lo, hi, exp_lo=-0.5, tol=1e-14)
    assert info.value.error_estimate == piece_err


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate_jacobi(np.cos, 0.0, 1.0, tol=math.inf),
        lambda: integrate_jacobi(np.cos, 0.0, 1.0, tol=math.nan),
        lambda: integrate_jacobi(np.cos, 0.0, 1.0, tol=-0.25),
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
    r = integrate_jacobi(lambda u: u, 0.0, 1.0, tol=1e-12)
    assert isinstance(r, QuadratureResult)
    with pytest.raises(AttributeError):
        r.value = 0.0


# ------------------------------------------------- log-weight dyadic rule


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
    # q+1 = 0.06 makes the dyadic tail decay slowly; the bound must still cover
    r = integrate_log_jacobi(lambda u: 1.0 / (1.0 + u), 0.5, -0.94, tol=1e-10)
    # reference by the same closed-form moments against the geometric series
    exact = sum(
        (-1.0) ** k
        * (0.5 ** (k + 0.06) * (math.log(0.5) / (k + 0.06) - 1.0 / (k + 0.06) ** 2))
        for k in range(60)
    )
    assert abs(r.value - exact) <= max(10.0 * r.error_estimate, 1e-12)


def test_log_weight_domain_validation():
    with pytest.raises(DomainError):
        integrate_log_jacobi(lambda u: u, 0.5, -1.0)
    with pytest.raises(DomainError):
        integrate_log_jacobi(lambda u: u, 0.0, -0.5)
    with pytest.raises(DomainError):
        integrate_log_jacobi(lambda u: u, 2.0, -0.5)
    with pytest.raises(DomainError):
        integrate_log_jacobi(lambda u: u, 0.5, -0.5, tol=0.0)


# ------------------------------------- one integrand call per piece / block


def _counting(g):
    seen = []

    def counted(u):
        seen.append(u.size)
        return g(u)

    return counted, seen


def _fejer_nodes(n):
    """The interior Chebyshev points cos(j pi / n), ascending."""
    return np.sin(np.pi * np.arange(1 - n // 2, n // 2) / n)


def _jacobi_reference(g, lo, hi, exp_lo, exp_hi, tol):
    """The adaptive rule with one g call per rule of the pair, each on its
    own nodes: (value, estimate, pieces)."""
    pieces = 0

    def rule_value(plo, phi, x, w):
        h2 = (phi - plo) / 2.0
        u = plo + h2 * (x + 1.0)
        vals = g(u)
        if phi != hi and exp_hi != 0.0:
            vals = vals * np.power(hi - u, exp_hi)
        if plo != lo and exp_lo != 0.0:
            vals = vals * np.power(u - lo, exp_lo)
        aj = exp_hi if phi == hi else 0.0
        bj = exp_lo if plo == lo else 0.0
        return h2 ** (aj + bj + 1.0) * float(np.dot(w, vals))

    def piece(plo, phi):
        nonlocal pieces
        pieces += 1
        w_coarse, w_fine = quadrature._rule(exp_hi if phi == hi else 0.0, exp_lo if plo == lo else 0.0)
        coarse = rule_value(plo, phi, _fejer_nodes(16), w_coarse)
        # the fine weights are ordered as the coarse nodes, then the others
        fine_x = np.concatenate((_fejer_nodes(16), _fejer_nodes(32)[0::2]))
        fine = rule_value(plo, phi, fine_x, w_fine)
        return fine, abs(fine - coarse)

    starts = [(lo, hi)]
    if exp_lo != 0.0 and exp_hi != 0.0:
        mid = 0.5 * (lo + hi)
        starts = [(lo, mid), (mid, hi)]
    heap = []
    total = total_abs = total_err = 0.0
    for plo, phi in starts:
        val, err = piece(plo, phi)
        heap.append((-err, len(heap), plo, phi, val, err))
        total += val
        total_abs += abs(val)
        total_err += err
    heapq.heapify(heap)
    counter = len(heap)
    while total_err > max(tol, tol * abs(total), 100.0 * EPS * total_abs):
        _, _, plo, phi, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (plo + phi)
        assert plo < mid < phi
        total -= pval
        total_abs -= abs(pval)
        total_err -= perr
        for qlo, qhi in ((plo, mid), (mid, phi)):
            v, e = piece(qlo, qhi)
            heapq.heappush(heap, (-e, counter, qlo, qhi, v, e))
            counter += 1
            total += v
            total_abs += abs(v)
            total_err += e
    return total, total_err, pieces


@pytest.mark.parametrize(
    "g,lo,hi,exp_lo,exp_hi,tol",
    [
        (np.cos, 0.0, 1.0, 0.0, 0.0, 1e-12),
        (lambda u: np.cos(40.0 * u), 0.0, 1.0, 0.0, 0.0, 1e-12),
        (lambda u: ((u - 0.7) * u + 2.0) * u**7 - 3.0, 0.25, 2.0, -0.3, 0.4, 1e-13),
    ],
    ids=["cos", "cos-bisects", "polynomial-jacobi-weight"],
)
def test_fused_pair_matches_one_rule_per_call(g, lo, hi, exp_lo, exp_hi, tol):
    # the coarse rule reads the fine rule's values at its own nodes, every
    # other fine node, so one g call per piece gives the results of one
    # call per rule, bit for bit
    counted, seen = _counting(g)
    r = integrate_jacobi(counted, lo, hi, exp_lo=exp_lo, exp_hi=exp_hi, tol=tol)
    value, estimate, pieces = _jacobi_reference(g, lo, hi, exp_lo, exp_hi, tol)
    assert (r.value, r.error_estimate, r.evaluations) == (value, estimate, FINE * pieces)
    assert r.evaluations == sum(seen)
    assert seen == [FINE] * pieces


def _log_reference(g, h, exp_lo, tol, max_pieces):
    """The dyadic descent with one g call per piece:
    (value, estimate, pieces used), or AccuracyError."""
    s = 1.0 + 0.5 * (quadrature._LOG_X + 1.0)
    s_pow = np.power(s, exp_lo)
    log_s = np.log(s)
    s_probe = np.append(s, 0.5)
    q1 = exp_lo + 1.0
    total = total_abs = 0.0
    for j in range(max_pieces):
        log_a = math.log(h) - (j + 1.0) * math.log(2.0)
        g_all = g(math.exp(log_a) * s_probe)
        scale = math.exp(q1 * log_a) * 0.5
        piece = scale * float(np.dot(quadrature._LOG_W, s_pow * (log_a + log_s) * g_all[:-1]))
        total += piece
        total_abs += abs(piece)
        g_sup = 2.0 * float(np.max(np.abs(g_all)))
        tail = math.exp(q1 * log_a) / q1 * (-log_a + 1.0 / q1) * g_sup
        noise = 100.0 * EPS * total_abs
        if tail <= max(tol, tol * abs(total), noise):
            return total, tail + noise, j + 1
    raise AccuracyError("reference", value=total, error_estimate=tail + noise,
                        evaluations=max_pieces * s_probe.size)


# g, h, exp_lo
_LOG_CASE = (lambda u: 1.5 + 0.5 * np.cos(3.0 * u), 0.5, 0.5)


def _log_blocks(pieces):
    """Node counts of the g calls over `pieces` pieces in blocks: each piece
    is the log rule's 12 nodes plus its tail probe."""
    full, rest = divmod(pieces, quadrature.LOG_BLOCK)
    return [quadrature.LOG_BLOCK * 13] * full + ([rest * 13] if rest else [])


@pytest.mark.parametrize("stop", [1, 8, 9, 17])
def test_log_blocks_stop_on_the_same_piece(stop):
    g, h, exp_lo = _LOG_CASE
    # the tolerance met first at piece `stop`: its own unconverged estimate
    with pytest.raises(AccuracyError) as info:
        _log_reference(g, h, exp_lo, 1e-300, stop)
    tol = info.value.error_estimate / max(1.0, abs(info.value.value))
    value, estimate, used = _log_reference(g, h, exp_lo, tol, 2000)
    assert used == stop

    counted, seen = _counting(g)
    r = integrate_log_jacobi(counted, h, exp_lo, tol=tol)
    assert (r.value, r.error_estimate) == (value, estimate)
    # whole blocks, the surplus pieces past the stop included
    blocks = -(-stop // quadrature.LOG_BLOCK)
    assert seen == _log_blocks(blocks * quadrature.LOG_BLOCK)
    assert r.evaluations == sum(seen)


@pytest.mark.parametrize("max_pieces", [3, 8, 11])
def test_log_blocks_never_pass_the_piece_budget(monkeypatch, max_pieces):
    g, h, exp_lo = _LOG_CASE
    monkeypatch.setattr(quadrature, "MAX_INTERVALS", max_pieces)
    with pytest.raises(AccuracyError) as ref:
        _log_reference(g, h, exp_lo, 1e-300, max_pieces)
    counted, seen = _counting(g)
    with pytest.raises(AccuracyError) as info:
        integrate_log_jacobi(counted, h, exp_lo, tol=1e-300)
    got, want = info.value, ref.value
    assert (got.value, got.error_estimate) == (want.value, want.error_estimate)
    assert seen == _log_blocks(max_pieces)
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


@pytest.mark.parametrize("b", _EXPONENTS)
def test_moments_match_exact_oracle(b):
    got = np.array(quadrature._moments(b))
    want = np.array(chebyshev_moments_oracle(b))
    # the recurrence loses up to ~16 ulps of M_0 as b -> -1
    assert np.all(np.abs(got - want) <= 4e-15 * want[0])


@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("e", _EXPONENTS)
def test_weights_reproduce_the_moments(side, e):
    # each rule integrates the Chebyshev polynomials it can interpolate
    # exactly: sum_i w_i T_k(x_i) = M_k, with (-1)^k M_k for (1-x)^e; the
    # sum's own rounding is a few eps times sum |w_i|
    coarse, fine = quadrature._rule(e, 0.0) if side == "hi" else quadrature._rule(0.0, e)
    moments = np.array(chebyshev_moments_oracle(e))
    if side == "hi":
        moments[1::2] *= -1.0
    assert np.all(np.abs(_T @ fine - moments) <= 4.0 * EPS * np.sum(np.abs(fine)))
    assert np.all(np.abs(_T[:15, :15] @ coarse - moments[:15]) <= 4.0 * EPS * np.sum(np.abs(coarse)))
    assert not (coarse.flags.writeable or fine.flags.writeable)


@pytest.mark.parametrize("n,a,b", sorted(JACOBI_POLY_INTEGRALS))
def test_rule_matches_frozen_references(n, a, b):
    # int_-1^1 (1-x)^a (1+x)^b p_n(x) dx, p_n of degree 2n-1 (see _oracles):
    # with both weights the interval is split first, and each half carries
    # the other endpoint's factor in its integrand
    def p(x):
        return sum((0.9 * x) ** j for j in range(2 * n))

    r = integrate_jacobi(p, -1.0, 1.0, exp_lo=b, exp_hi=a, tol=1e-14)
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

    r = integrate_jacobi(g, -1.0, 1.0, exp_lo=b, exp_hi=a, tol=1e-14)
    # scipy's own weights are off by up to 1.5e-10 relative here
    assert r.value == pytest.approx(float(np.dot(w, g(x))), rel=1e-9)


def test_two_weights_need_an_interval_wide_enough_to_split():
    lo, hi = 1.0, math.nextafter(1.0, 2.0)
    with pytest.raises(DomainError, match="too narrow"):
        integrate_jacobi(np.cos, lo, hi, exp_lo=-0.5, exp_hi=0.5)
    # one weight needs no split
    r = integrate_jacobi(np.cos, lo, hi, exp_lo=-0.5)
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

    r = integrate_jacobi(g, lo, hi, exp_lo=exp_lo, exp_hi=exp_hi, tol=1e-12)
    assert math.isfinite(r.value) and r.evaluations % FINE == 0
