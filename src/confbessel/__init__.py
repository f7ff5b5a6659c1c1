"""Conformable fractional Bessel functions.

Series solutions of the conformable Bessel equation for derivative orders
alpha in (0, 1]: first-kind functions of order +-p, the order-zero
logarithmic second solution, and the integer-order logarithmic second
solution, together with exact and numeric conformable differentiation, an
identity-verification suite, and a CLI (``confbessel``).
"""

import importlib

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

#: Names re-exported from the check suites and the numeric operator, which
#: most callers never use: each submodule is imported on first access to
#: one of its names (PEP 562), so ``import confbessel`` does not load it.
_LAZY = {
    "CheckReport": "checks",
    "all_suites": "checks",
    "check_half_order_closed_forms": "checks",
    "check_identity": "checks",
    "check_ode_residual": "checks",
    "check_second_solution_scaling": "checks",
    "check_series_vs_quadrature": "checks",
    "classical_bessel_j": "checks",
    "half_order_suite": "checks",
    "identity_suite": "checks",
    "random_residual_suite": "checks",
    "residual_suite": "checks",
    "scaling_suite": "checks",
    "solution_corpus": "checks",
    "DiffConfig": "conformable",
    "conformable_diff2_numeric": "conformable",
    "conformable_diff_numeric": "conformable",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


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
    *_LAZY,
]
