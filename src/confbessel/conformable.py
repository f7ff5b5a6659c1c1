r"""Pointwise conformable derivative of black-box functions.

For differentiable ``f`` the conformable derivative of order ``alpha`` at
``x > 0`` equals ``x**(1 - alpha) * f'(x)``, so the numeric operator is a
central difference wrapped in that prefactor.  It exists as an independent
cross-check against the exact termwise operator in :mod:`confbessel.series`:
the two must agree on every constructed solution, and they share no code.
"""

import math
from typing import Callable

from .errors import DomainError, EvaluationError
from .series import ImmutableValue, _as_float, checked_alpha

__all__ = ["DiffConfig", "conformable_diff_numeric", "conformable_diff2_numeric"]


class DiffConfig(ImmutableValue):
    """Finite-difference settings for the numeric operator.

    ``step_scale`` is relative: the actual step is ``step_scale * max(x, 1)``.
    The default balances the O(h^2) truncation of a central difference
    against double-precision rounding for smooth functions.
    """

    _fields = ("alpha", "step_scale")

    def __init__(self, alpha: float, step_scale: float = 1e-6):
        alpha = checked_alpha(alpha)
        step_scale = _as_float(step_scale)
        if not (math.isfinite(step_scale) and step_scale > 0.0):
            raise ValueError(f"step_scale must be positive, got {step_scale!r}")
        self.__dict__.update(alpha=alpha, step_scale=step_scale)


def _central_difference(f: Callable[[float], float], x: float, h: float) -> float:
    fp = f(x + h)
    fm = f(x - h)
    if not (math.isfinite(fp) and math.isfinite(fm)):
        raise EvaluationError(
            f"function returned a non-finite value near x={x} (h={h})"
        )
    return (fp - fm) / (2.0 * h)


def _diff(f: Callable[[float], float], x: float, alpha: float,
          step_scale: float) -> float:
    if x <= 0.0:
        raise DomainError(f"conformable derivative requires x > 0, got {x}")
    h = step_scale * max(x, 1.0)
    return x ** (1.0 - alpha) * _central_difference(f, x, h)


def conformable_diff_numeric(f: Callable[[float], float], x: float,
                             cfg: DiffConfig) -> float:
    """Numeric conformable derivative ``x**(1-alpha) * f'(x)`` at ``x > 0``."""
    return _diff(f, x, cfg.alpha, cfg.step_scale)


def conformable_diff2_numeric(f: Callable[[float], float], x: float,
                              cfg: DiffConfig) -> float:
    """Sequential second derivative: the numeric operator applied twice.

    The inner derivative is treated as a function of x and differentiated
    again, mirroring the sequential operator structurally.  Each stage uses
    step scale ``sqrt(cfg.step_scale)``: with the first-derivative default
    1e-6 the composed rounding error would reach ~1e-4, while the square
    root (1e-3 per stage) keeps truncation and rounding both near 1e-6.
    """
    alpha, step_scale = cfg.alpha, math.sqrt(cfg.step_scale)

    def inner(t: float) -> float:
        return _diff(f, t, alpha, step_scale)

    return _diff(inner, x, alpha, step_scale)
