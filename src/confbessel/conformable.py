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

#: Relative step of the central difference, ``h = STEP_SCALE * max(x, 1)``:
#: it balances O(h^2) truncation against rounding for smooth functions.
STEP_SCALE = 1e-6
#: The step scale of each stage of :func:`conformable_diff2_numeric`.
_STAGE_SCALE = math.sqrt(STEP_SCALE)


class DiffConfig(ImmutableValue):
    """The order ``alpha`` of the numeric operator, checked and stored."""

    _fields = ("alpha",)

    def __init__(self, alpha: float):
        self.__dict__.update(alpha=checked_alpha(alpha))


def _diff(f: Callable[[float], float], x: float, alpha: float,
          step_scale: float) -> float:
    """``x**(1-alpha)`` times the central difference of ``f`` at ``x``."""
    if not 0.0 < (x := _as_float(x)) < math.inf:  # NaN fails it too
        raise DomainError("conformable derivative requires a finite x > 0, "
                          f"got {x}")
    h = step_scale * max(x, 1.0)
    fp, fm = f(x + h), f(x - h)
    if not (math.isfinite(fp) and math.isfinite(fm)):
        raise EvaluationError(
            f"function returned a non-finite value near x={x} (h={h})")
    return x ** (1.0 - alpha) * ((fp - fm) / (2.0 * h))


def conformable_diff_numeric(f: Callable[[float], float], x: float,
                             cfg: DiffConfig) -> float:
    """Numeric conformable derivative ``x**(1-alpha) * f'(x)`` at ``x > 0``."""
    return _diff(f, x, cfg.alpha, STEP_SCALE)


def conformable_diff2_numeric(f: Callable[[float], float], x: float,
                              cfg: DiffConfig) -> float:
    """Sequential second derivative: the numeric operator applied twice.

    The inner derivative is treated as a function of x and differentiated
    again, mirroring the sequential operator structurally.  Each stage uses
    step scale ``sqrt(STEP_SCALE)``: with the first-derivative scale 1e-6
    the composed rounding error would reach ~1e-4, while the square root
    (1e-3 per stage) keeps truncation and rounding both near 1e-6.
    """
    alpha = cfg.alpha

    def inner(t: float) -> float:
        return _diff(f, t, alpha, _STAGE_SCALE)

    return _diff(inner, x, alpha, _STAGE_SCALE)
