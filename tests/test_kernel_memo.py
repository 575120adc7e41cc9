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
    # certified only after bisecting: 155 and 217 evaluations on three parts
    ("left", 3.7, SaigoParams(0.3, 1.46, 15.5), 1e-9),
    ("right", 0.2, SaigoParams(0.3, 2.15, 30.2), 1e-9),
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


# The bits of ops whose results must not move with the memos' layout:
# (op, x, value hex, estimate hex, evaluations), and for a refusal
# ("AccuracyError", message, (value hex, estimate hex), evaluations)
_FROZEN = [
    (_OPS[-2], 0.5, ("0x1.39aa0e82cce3cp-7", "0x1.2c9a7eef8c651p-43", 155)),
    (_OPS[-2], 1.0, ("0x1.726f6a695af68p-6", "0x1.6302b1e1f802ep-42", 155)),
    (_OPS[-2], 2.0, ("0x1.b57b34bb10221p-5", "0x1.a343cbb1478dcp-41", 155)),
    (_OPS[-1], 0.5, ("0x1.5cbde348be3d4p-9", "0x1.cd9c18687ad62p-34", 217)),
    (_OPS[-1], 1.0, ("0x1.690a4407c7ce4p-12", "0x1.dde36cdf97443p-37", 217)),
    (_OPS[-1], 2.0, ("0x1.75c5abc46f754p-15", "0x1.eebdb73ed122bp-40", 217)),
    (_OPS[-3], 0.5, ("AccuracyError", "transform error estimate 1.8185306388809455e-15 exceeds tol 1e-17",
                     ("0x1.aac57af84f498p-3", "0x1.0613f04634f90p-49"), 124)),
    (_OPS[-3], 1.0, ("AccuracyError", "transform error estimate 1.8826609833642933e-15 exceeds tol 1e-17",
                     ("0x1.b9d24bc7aa5c6p-3", "0x1.0f51ee40bd85ep-49"), 124)),
    (_OPS[-3], 2.0, ("AccuracyError", "transform error estimate 1.9490528795617683e-15 exceeds tol 1e-17",
                     ("0x1.c966fb1e40a52p-3", "0x1.18e35bfbcafd5p-49"), 124)),
]


@pytest.mark.parametrize("op, x, bits", _FROZEN)
def test_bisected_and_refused_transforms_keep_their_bits(op, x, bits):
    # cold, then warm: the same bits both times
    assert _run((*op, x)) == bits
    assert _run((*op, x)) == bits


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
    # and more u-powers at 0 than it holds start plans for
    for i in range(24):
        draw.plan(0.3 + i / 64)
    for info in (operators._draw.cache_info(), draw.at.cache_info()):
        assert info.maxsize is not None
        assert info.currsize == info.maxsize, info
    # the record keeps its latest _PLANS start plans
    assert list(draw.plans) == [0.3 + i / 64 for i in range(24 - operators._PLANS, 24)]

    # the plans live in the draw's record: emptying the records empties them
    operators._draw.cache_clear()
    assert operators._draw(*p.kernel).plans == {}


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
    plans_built = []
    start_pieces = operators._start_pieces

    def counting_start_pieces(parts):
        plans_built.append(len(parts))
        return start_pieces(parts)

    monkeypatch.setattr(operators, "_start_pieces", counting_start_pieces)
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
    # each built by the first plan that needs it and found by the other:
    # each side's plan looks up two arrays per part, six a plan, and the
    # later transforms of a side read its plan, not the record's store
    info = draw.at.cache_info()
    assert (info.misses, info.hits) == (3 + 3, 2 * 6 - 6)
    assert info.maxsize is not None and info.maxsize <= 64
    # one plan per side, each built once and read by the side's other two x
    assert plans_built == [3, 3] and len(draw.plans) == 2
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


def test_a_cold_plan_raises_its_factors_error_before_a_smooth_parts(monkeypatch):
    # a cold plan computes every part's kernel and weight power before any
    # smooth part is evaluated: where a later part's kernel series and the
    # smooth part both fail, the kernel's error is the one raised, though
    # the upper half's smooth part comes first in the integration
    split = operators.kernel_split

    def failing_split(*args):
        def series(u):
            raise DomainError("the lower-half branch fails")

        first, *rest = split(*args)
        return (dataclasses.replace(first, series=series), *rest)

    def smooth(t):
        raise DomainError("the smooth part fails")

    monkeypatch.setattr(operators, "kernel_split", failing_split)
    f = Integrand(fn=lambda t: t**0.3, exponent_at_zero=0.3, smooth_at_zero=smooth)
    p = SaigoParams(0.8, 0.2, 1.1)
    for x in X_POINTS:  # cold, then with the plan's failure never cached
        with pytest.raises(DomainError, match="the lower-half branch fails"):
            saigo_left(f, p, x)
    # once the plan builds, the smooth part's own error is raised
    monkeypatch.setattr(operators, "kernel_split", split)
    clear_memos()
    with pytest.raises(DomainError, match="the smooth part fails"):
        saigo_left(f, p, 1.0)
