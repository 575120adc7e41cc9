"""Gauss 2F1 kernel on [0, 1): the direct series and terminating polynomials
on [0, 1/2], and the connection split that expands it about w = 1."""

import math

import numpy as np
import pytest

from fracbessel.errors import DomainError
from fracbessel.hyp2f1 import hyp2f1_kernel, kernel_split

from _oracles import pfq_oracle


_W_GRID = np.array([0.0, 0.05, 0.2, 0.49, 0.5, 0.51, 0.7, 0.9, 0.99, 1.0 - 1e-9])


def _split(a, b, c):
    return kernel_split(a, b, c, c - a - b, c - a, c - b)


def _eval_split(a, b, c, u):
    """The sum of kernel_split's terms at u: the kernel 2F1(a, b; c; 1-u)."""
    total = np.zeros_like(u)
    for t in _split(a, b, c):
        v = t.coef * t.series(u)
        if t.exponent != 0.0:
            v = v * np.power(u, t.exponent)
        if t.log_factor:
            v = v * np.log(u)
        total = total + v
    return total


def _kernel(a, b, c, w):
    """2F1(a, b; c; w) for w in [0, 1), as a transform evaluates it:
    hyp2f1_kernel up to w = 1/2, the sum of kernel_split's terms above."""
    w = np.asarray(w, dtype=float)
    near = w <= 0.5
    out = np.empty_like(w)
    if np.any(near):
        out[near] = hyp2f1_kernel(a, b, c, w[near])
    if not np.all(near):
        out[~near] = _eval_split(a, b, c, 1.0 - w[~near])
    return out


@pytest.mark.parametrize(
    "a,b,c",
    [
        (1.0, -0.7, 0.8),      # generic operator kernel shape
        (0.3, -1.35, 0.3),     # a + b non-integer, c = a
        (1.9, -0.25, 1.2),
        (0.45, 0.6, 1.9),      # positive b
        (2.2, -2.7, 1.4),
    ],
)
def test_kernel_matches_reference_across_unit_interval(a, b, c):
    sp = pytest.importorskip("scipy.special")
    ours = _kernel(a, b, c, _W_GRID)
    ref = sp.hyp2f1(a, b, c, _W_GRID)
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-14)


def test_kernel_with_zero_upper_parameter_is_one():
    w = np.linspace(0.0, 0.999999, 50)
    np.testing.assert_allclose(_kernel(0.0, -0.5, 0.7, w), np.ones_like(w))


def test_kernel_terminating_negative_integer_is_exact_polynomial():
    a, b, c = 1.4, -2.0, 0.9
    w = np.linspace(0.0, 1.0 - 1e-12, 40)
    expected = 1.0 + (a * b / c) * w + (a * (a + 1) * b * (b + 1) / (c * (c + 1)) / 2.0) * w**2
    np.testing.assert_allclose(_kernel(a, b, c, w), expected, rtol=1e-13)


def test_kernel_lower_pole_reached_by_terminating_series_rejected():
    # 2F1(-m, b; -n; w) is the degree-m polynomial while m <= n; past that
    # its series meets the pole of (c)_n before it terminates
    w = np.array([0.3, 0.6])
    expected = [pfq_oracle((-3.0, 0.5), (-5.0,), wi, 4) for wi in w]
    np.testing.assert_allclose(_kernel(-3.0, 0.5, -5.0, w), expected, rtol=1e-14)
    (term,) = _split(-3.0, 0.5, -5.0)
    np.testing.assert_allclose(term.series(1.0 - w), expected, rtol=1e-14)
    for a, b in ((-7.0, 0.5), (0.5, -6.0)):
        with pytest.raises(DomainError, match="nonpositive integer"):
            hyp2f1_kernel(a, b, -5.0, w[w <= 0.5])
        # the branch split refuses at the call, before any term is evaluated
        with pytest.raises(DomainError, match="nonpositive integer"):
            _split(a, b, -5.0)


def test_non_terminating_kernel_with_c_on_a_pole_rejected():
    with pytest.raises(DomainError, match="nonpositive integer"):
        hyp2f1_kernel(0.5, 0.5, -1.0, np.array([0.3, 0.45]))


def test_kernel_rejects_arguments_outside_unit_interval():
    with pytest.raises(DomainError):
        hyp2f1_kernel(1.4, -3.0, 0.9, np.array([1.0]))
    with pytest.raises(DomainError):
        hyp2f1_kernel(1.4, -3.0, 0.9, np.array([-0.1]))


@pytest.mark.parametrize("abc", [(1.1, -0.65, 0.8), (1.4, -3.0, 0.9)], ids=["series", "polynomial"])
def test_kernel_domain_is_zero_to_one_half(abc):
    # the direct series serves w <= 1/2 only; kernel_split covers the rest
    np.testing.assert_allclose(
        hyp2f1_kernel(*abc, np.array([0.5])), _eval_split(*abc, np.array([0.5])), rtol=1e-14
    )
    for w in (math.nextafter(0.5, 1.0), 0.51, math.nan):
        with pytest.raises(DomainError, match=r"\[0, 1/2\]"):
            hyp2f1_kernel(*abc, np.array([0.25, w]))


def test_kernel_integer_exponent_uses_logarithmic_branch():
    # same degenerate parameters must still evaluate, via the log expansion
    sp = pytest.importorskip("scipy.special")
    a, b, c = 0.7, 0.3, 2.0
    w = np.array([0.75, 0.9])
    np.testing.assert_allclose(_eval_split(a, b, c, 1.0 - w), sp.hyp2f1(a, b, c, w), rtol=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(3))
def test_non_finite_parameters_rejected(bad, slot):
    abc = [1.1, -0.65, 0.8]
    abc[slot] = bad
    with pytest.raises(DomainError, match="finite"):
        hyp2f1_kernel(*abc, np.array([0.3, 0.7]))
    with pytest.raises(DomainError, match="finite"):
        _split(*abc)


@pytest.mark.parametrize("name", ["gamma", "c_minus_a", "c_minus_b"])
def test_kernel_split_rejects_non_finite_supplied_difference(name):
    # c-a-b, c-a and c-b of (1.1, -0.65, 0.8), one replaced by NaN
    diffs = {"gamma": 0.35, "c_minus_a": -0.3, "c_minus_b": 1.45, name: math.nan}
    with pytest.raises(DomainError, match="finite"):
        kernel_split(1.1, -0.65, 0.8, **diffs)


def test_kernel_rejects_nan_argument():
    with pytest.raises(DomainError):
        hyp2f1_kernel(1.1, -0.65, 0.8, np.array([0.3, math.nan]))


def test_connection_parts_reconstruct_kernel_above_half():
    sp = pytest.importorskip("scipy.special")
    a, b, c = 1.1, -0.65, 0.8
    assert [(t.exponent, t.log_factor) for t in _split(a, b, c)] == [
        (0.0, False), (pytest.approx(c - a - b), False)
    ]
    w = np.array([0.6, 0.8, 0.95, 0.9999])
    np.testing.assert_allclose(_eval_split(a, b, c, 1.0 - w), sp.hyp2f1(a, b, c, w), rtol=1e-12)


@pytest.mark.parametrize(
    "a,b,c,at_1e8",
    [
        (0.6, -0.3, 0.3, -7.7504199656865387284),     # c - a - b = 0
        (0.7, -1.3, 0.4, -0.5641955370599286679),     # c - a - b = 1
        (0.45, -0.8, 1.65, 0.76337979948915553616),   # c - a - b = 2
        (1.6, -0.3, 0.3, -77379355.534277553756),     # c - a - b = -1
        (1.75, 0.5, 0.25, 22256715694512596.66344),   # c - a - b = -2
    ],
)
def test_kernel_split_reconstructs_integer_exponent_kernel(a, b, c, at_1e8):
    sp = pytest.importorskip("scipy.special")
    # moderate u: reference library agrees to full precision
    u = np.array([0.45, 0.2, 0.05, 1e-3])
    np.testing.assert_allclose(_eval_split(a, b, c, u), sp.hyp2f1(a, b, c, 1.0 - u), rtol=5e-13)
    # tiny u: 1-u is no longer exactly representable as the reference's w
    # argument, so check against a frozen high-precision value instead
    got = _eval_split(a, b, c, np.array([1e-8]))[0]
    assert got == pytest.approx(at_1e8, rel=5e-14)


def test_kernel_identity_when_upper_equals_lower():
    # 2F1(a, b; b; w) = (1 - w)^(-a)
    a = 0.6
    w = np.array([0.1, 0.45, 0.8])
    np.testing.assert_allclose(
        _kernel(a, 2.0, 2.0, w), (1.0 - w) ** (-a), rtol=1e-12
    )
