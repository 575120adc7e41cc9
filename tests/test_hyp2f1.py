"""Gauss 2F1 kernel on [0, 1): direct series, terminating polynomials, and
the connection split used near the w -> 1 endpoint."""

import numpy as np
import pytest
import scipy.special as sp

from fracbessel.errors import DomainError
from fracbessel.hyp2f1 import connection_parts, hyp2f1_kernel


_W_GRID = np.array([0.0, 0.05, 0.2, 0.49, 0.5, 0.51, 0.7, 0.9, 0.99, 1.0 - 1e-9])


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
    ours = hyp2f1_kernel(a, b, c, _W_GRID)
    ref = sp.hyp2f1(a, b, c, _W_GRID)
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-14)


def test_kernel_with_zero_upper_parameter_is_one():
    w = np.linspace(0.0, 0.999999, 50)
    np.testing.assert_allclose(hyp2f1_kernel(0.0, -0.5, 0.7, w), np.ones_like(w))


def test_kernel_terminating_negative_integer_is_exact_polynomial():
    a, b, c = 1.4, -2.0, 0.9
    w = np.linspace(0.0, 1.0 - 1e-12, 40)
    expected = 1.0 + (a * b / c) * w + (a * (a + 1) * b * (b + 1) / (c * (c + 1)) / 2.0) * w**2
    np.testing.assert_allclose(hyp2f1_kernel(a, b, c, w), expected, rtol=1e-13)


def test_kernel_rejects_arguments_outside_unit_interval():
    with pytest.raises(DomainError):
        hyp2f1_kernel(1.4, -3.0, 0.9, np.array([1.0]))
    with pytest.raises(DomainError):
        hyp2f1_kernel(1.4, -3.0, 0.9, np.array([-0.1]))


def test_connection_parts_reconstruct_kernel_above_half():
    a, b, c = 1.1, -0.65, 0.8
    coef_a, gamma_exp, coef_b, f1, f2 = connection_parts(a, b, c)
    w = np.array([0.6, 0.8, 0.95, 0.9999])
    u = 1.0 - w
    recon = coef_a * f1(u) + coef_b * u**gamma_exp * f2(u)
    np.testing.assert_allclose(recon, sp.hyp2f1(a, b, c, w), rtol=1e-12)


def test_connection_parts_reject_near_integer_exponent():
    # c - a - b integral degenerates the two-branch split
    with pytest.raises(DomainError):
        connection_parts(0.7, 0.3, 2.0)


def test_kernel_integer_exponent_uses_logarithmic_branch():
    # same degenerate parameters must still evaluate, via the log expansion
    a, b, c = 0.7, 0.3, 2.0
    w = np.array([0.75, 0.9])
    np.testing.assert_allclose(hyp2f1_kernel(a, b, c, w), sp.hyp2f1(a, b, c, w), rtol=1e-10)


def _eval_split(a, b, c, u):
    from fracbessel.hyp2f1 import kernel_split

    total = np.zeros_like(u)
    for t in kernel_split(a, b, c):
        v = t.coef * t.series(u)
        if t.exponent != 0.0:
            v = v * np.power(u, t.exponent)
        if t.log_factor:
            v = v * np.log(u)
        total = total + v
    return total


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
        hyp2f1_kernel(a, 2.0, 2.0, w), (1.0 - w) ** (-a), rtol=1e-12
    )
