"""The transforms' per-draw memo of x-independent factors: it sits where the
benchmark's hooks see its misses, it stays within its bounds, each factor
is computed once at its scope, and no value, estimate, evaluation count or
exception shows whether it was warm."""

import dataclasses
import random

import numpy as np
import pytest

from fracbessel import harness, operators, quadrature
from fracbessel.errors import AccuracyError, DomainError
from fracbessel.integrands import Integrand, monomial
from fracbessel.operators import Family, SaigoParams, saigo_left, saigo_right

from _memos import clear_memos, memos

X_POINTS = (0.5, 1.0, 2.0)

# (side, integrand exponent lam, params, tol): one op per x of each
_OPS = [
    # terminating kernel: b = -eta = -2
    ("left", 1.3, SaigoParams(0.7, 0.3, 2.0), 1e-9),
    ("right", 0.6, SaigoParams(0.7, 0.3, 2.0), 1e-9),
    # two-branch connection formula
    ("left", 1.3, SaigoParams(0.8, 0.2, 1.1), 1e-9),
    ("right", 0.6, SaigoParams(0.8, 0.2, 1.1), 1e-9),
    # integer eta-beta: logarithmic expansion and the log-moment rule
    ("left", 1.3, SaigoParams(1.3, 0.25, 1.25), 1e-9),
    ("right", 0.6, SaigoParams(1.3, 0.25, 1.25), 1e-9),
    # Riemann-Liouville: beta = -alpha, kernel 1
    ("left", 1.3, SaigoParams(0.7, family=Family.RIEMANN_LIOUVILLE), 1e-9),
    ("right", 0.1, SaigoParams(0.7, family=Family.RIEMANN_LIOUVILLE), 1e-9),
    # Erdelyi-Kober: beta = 0, and every sign of a zero beta and eta
    ("left", 1.3, SaigoParams(0.9, eta=0.6, family=Family.ERDELYI_KOBER), 1e-9),
    ("right", 0.5, SaigoParams(0.9, eta=0.6, family=Family.ERDELYI_KOBER), 1e-9),
    ("left", 1.3, SaigoParams(0.9, -0.0, 0.6), 1e-9),
    ("right", 0.5, SaigoParams(0.9, -0.0, 0.6), 1e-9),
    ("left", 1.3, SaigoParams(0.9, 0.0, 0.0), 1e-9),
    ("right", 0.5, SaigoParams(0.9, 0.0, -0.0), 1e-9),
    ("left", 1.3, SaigoParams(0.9, -0.0, -0.0), 1e-9),
    ("right", 0.5, SaigoParams(0.9, -0.0, 0.0), 1e-9),
    # a = alpha+beta 5e-10 from 0: just short of a terminating kernel
    ("left", 1.3, SaigoParams(0.5, -0.5 + 5e-10, 0.7), 1e-12),
    ("right", 0.2, SaigoParams(0.5, -0.5 + 5e-10, 0.7), 1e-12),
    # DomainError after the upper half: part 1's u-power -0.8 - 0.5 <= -1
    ("left", 0.2, SaigoParams(1.0, 1.0, 0.5), 1e-9),
    # AccuracyError: a tol below every piece's rounding bound
    ("left", 1.3, SaigoParams(1.3, 0.25, 1.25), 1e-17),
]

# k-Bessel integrands through the harness, both sides and a reduction each
_IDENTITIES = ("2.1", "2.4", "cor2.3", "cor3.5")


def _bits(v):
    """v with every float as its exact bit pattern (so -0.0 != 0.0)."""
    if isinstance(v, float):
        return v.hex()
    if dataclasses.is_dataclass(v):
        return tuple(_bits(getattr(v, f.name)) for f in dataclasses.fields(v))
    if isinstance(v, (tuple, list)):
        return tuple(map(_bits, v))
    return v


def _run(op):
    """An op's result, or its exception, as bits."""
    kind = op[0]
    try:
        if kind == "check":
            _, draw, x = op
            return _bits(harness.check_identity(draw, [x]))
        side, lam, p, tol, x = op
        transform = saigo_left if side == "left" else saigo_right
        return _bits(transform(monomial(lam), p, x, tol))
    except AccuracyError as exc:
        return ("AccuracyError", str(exc), _bits([exc.value, exc.error_estimate]), exc.evaluations)
    except DomainError as exc:
        return ("DomainError", str(exc))


def _ops():
    ops = [(*op, x) for op in _OPS for x in X_POINTS]
    for theorem_id in _IDENTITIES:
        draw = harness.sample_params(theorem_id, 1, seed=4)[0]
        ops += [("check", draw, x) for x in X_POINTS]
    return ops


def test_warm_memo_changes_no_value_estimate_count_or_exception():
    ops = _ops()
    cold = []
    for op in ops:
        clear_memos()
        cold.append(_run(op))
    assert {"AccuracyError", "DomainError"} <= {r[0] for r in cold}

    order = list(range(len(ops)))[::-1]
    random.Random(11).shuffle(shuffled := order[:])
    for i in order + shuffled:
        assert _run(ops[i]) == cold[i], ops[i]


def test_memo_computes_each_kernel_once_per_draw_and_stays_bounded(monkeypatch):
    calls = {"kernel_split": 0, "hyp2f1_kernel": 0, "log_gamma": 0}

    def counting(name):
        fn = getattr(operators, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(operators, name, counting(name))
    p = SaigoParams(0.8, 0.2, 1.1)
    for x in X_POINTS:
        saigo_left(monomial(1.3), p, x)
        saigo_right(monomial(0.6), p, x)
    assert calls == {"kernel_split": 1, "hyp2f1_kernel": 1, "log_gamma": 1}

    # the upper half and two lower-half branches
    draw = operators._draw(*p.kernel)
    assert len(draw.parts) == 3
    nodes = np.linspace(0.5, 1.0, 5).tobytes()
    assert not any(draw.at(i, nodes).flags.writeable for i in range(3))

    # distinct kernels, more than the memo holds, and one kernel at more
    # node sets than its record holds
    for i in range(24):
        saigo_left(monomial(1.3), SaigoParams(0.8, 0.2, 1.1 + i / 64), 1.0)
    for i in range(24):
        draw.at(0, np.linspace(0.5, 1.0, 5 + i).tobytes())
    for info in (operators._draw.cache_info(), draw.at.cache_info()):
        assert info.maxsize is not None
        assert info.currsize == info.maxsize, info


def test_each_factor_is_computed_once_at_its_scope(monkeypatch):
    # one connection-kernel draw at three x on both sides: the smooth part
    # once per node set and transform (the upper half's, and the lower
    # half's, which both branches share), the kernel's parts, the weight
    # powers and log Gamma(alpha) once per draw
    smooth_nodes = []

    def ones(t):
        smooth_nodes.append(t.size)
        return np.ones_like(t)

    log_gamma_args = []
    log_gamma = operators.log_gamma

    def counting_log_gamma(z):
        log_gamma_args.append(z)
        return log_gamma(z)

    monkeypatch.setattr(operators, "log_gamma", counting_log_gamma)
    f_left = Integrand(fn=lambda t: t**0.3, exponent_at_zero=0.3, smooth_at_zero=ones)
    f_right = Integrand(fn=lambda t: t**-0.4, exponent_at_infinity=-0.4, smooth_at_infinity=ones)
    p = SaigoParams(0.8, 0.2, 1.1)
    for x in X_POINTS:
        for transform, f in ((saigo_left, f_left), (saigo_right, f_right)):
            before = len(smooth_nodes)
            transform(f, p, x)
            assert smooth_nodes[before:] == [31, 31]
    draw = operators._draw(*p.kernel)
    assert len(draw.parts) == 3  # the upper half, two branches
    assert log_gamma_args == [p.alpha]
    # three kernel arrays (one per part, shared by both sides) and three
    # weight powers (u^exp0 on each side, the lower half's (1-u)^(alpha-1)),
    # each built by the first transform that needs it and found by every
    # later one, at two lookups per part, six a transform
    info = draw.at.cache_info()
    assert (info.misses, info.hits) == (3 + 3, 6 * 6 - 6)
    assert info.maxsize is not None and info.maxsize <= 64
    nodes = np.linspace(0.0, 0.5, 5).tobytes()
    assert not draw.at((0.3, False), nodes).flags.writeable


def test_the_memo_scan_finds_the_rule_cache_and_the_draw_record():
    # the autouse fixture empties what tests/_memos.py finds, so a memo the
    # scan missed would leak between tests
    assert {quadrature._rule, operators._draw} <= set(memos())


def test_log_branch_shares_the_lower_half_nodes():
    # integer eta-beta: the log branch integrates over the lower half's 31
    # nodes like the other branches, so the transform evaluates the smooth
    # part once per half, and the log branch's kernel series once per draw
    smooth_nodes = []

    def ones(t):
        smooth_nodes.append(t.size)
        return np.ones_like(t)

    f = Integrand(fn=lambda t: t**0.3, exponent_at_zero=0.3, smooth_at_zero=ones)
    p = SaigoParams(1.3, 0.25, 1.25)
    draw = operators._draw(*p.kernel)
    assert any(t.log_factor for t in draw.parts)
    for x in X_POINTS:
        before = len(smooth_nodes)
        saigo_left(f, p, x)
        assert smooth_nodes[before:] == [31, 31]
    # one array per part (the upper half's kernel and each lower-half
    # branch), and the two weight powers
    assert draw.at.cache_info().misses == len(draw.parts) + 2
