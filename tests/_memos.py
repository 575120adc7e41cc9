"""The library's module-level memos, for tests that need them empty."""

from fracbessel import harness, operators, quadrature

MEMOS = (
    harness._fields,
    operators._split,
    operators._kernel_at,
    operators._draw_factor,
    operators._log_gamma_abs,
    quadrature._rule,
    quadrature._nodes_on,
)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()
