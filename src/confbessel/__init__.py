"""Conformable fractional Bessel functions.

Series solutions of the conformable Bessel equation for derivative orders
alpha in (0, 1]: first-kind functions of order +-p, the order-zero and the
integer-order logarithmic second solutions, and their exact conformable
derivative.  The check suites and the numeric operator are imported from
their own modules, ``confbessel.checks`` and ``confbessel.conformable``.
"""

from .series import (
    EvalResult,
    FracSeries,
    LogSolution,
    conformable_diff_exact,
    eval_log_solution,
    eval_series,
    series_rebase,
    series_scale,
    series_shift,
)
from .bessel import (
    bessel_j_neg_integer_series,
    bessel_j_neg_series,
    bessel_j_series,
    gamma,
    second_solution_integer_order,
    second_solution_order_zero,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the summation kernel; there is one, written in Python."""
    return "python"


__all__ = [
    "EvalResult",
    "FracSeries",
    "LogSolution",
    "bessel_j_neg_integer_series",
    "bessel_j_neg_series",
    "bessel_j_series",
    "conformable_diff_exact",
    "eval_log_solution",
    "eval_series",
    "gamma",
    "kernel_backend",
    "second_solution_integer_order",
    "second_solution_order_zero",
    "series_rebase",
    "series_scale",
    "series_shift",
    "__version__",
]
