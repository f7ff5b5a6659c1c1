r"""Truncated fractional power series in ``x**alpha`` and their calculus.

A :class:`FracSeries` stores the data of

.. math::

    s(x) = \sum_{n=0}^{N} c_n \, x^{(n + r)\alpha}, \qquad x > 0,

with order ``alpha`` in (0, 1], a real exponent offset ``r`` and a dense
coefficient list ``c_0 .. c_N``.  Everything here is an immutable value and
every operation is a pure function, so series can be shared freely between
threads and grid evaluations parallelised by the caller.

The conformable derivative acts termwise through the power rule
``x**q -> q * x**(q - alpha)`` (divided by nothing: the operator scales each
term by ``alpha * (n + r)`` and lowers the offset by one), which makes
differentiation exact on this representation.  Numerical evaluation hands
each series to the one summation kernel, :func:`eval_series_kernel`, which
checks x and uses compensated summation because the coefficient sequences
alternate in sign and pass through large intermediate terms before
factorial decay sets in.  Its one loop walks the even slots or every slot,
as the series recorded at construction (:class:`FracSeries`), with the
roundings of a step through every slot in the same order.
:func:`series_scale`, :func:`conformable_diff_exact` and the constructors
in :mod:`confbessel.bessel` compute only the walked slots of what they build.
"""

import math
from operator import length_hint
from typing import NamedTuple

from .errors import AlignmentError, DomainError

__all__ = [
    "FracSeries",
    "LogSolution",
    "EvalResult",
    "series_scale",
    "series_shift",
    "series_rebase",
    "conformable_diff_exact",
    "eval_series",
    "eval_log_solution",
    "linspace",
]

#: Relative threshold for the early stop in series evaluation.
STOP_REL = 1e-18

#: Default number of coefficient slots in constructed solutions.  Factorial
#: decay makes 60 terms sufficient for double precision up to x**alpha ~ 10.
DEFAULT_TERMS = 60


class ImmutableValue:
    """Base of the validated values: fields fixed at construction.

    The subclasses, :class:`FracSeries`, :class:`LogSolution` and
    ``conformable.DiffConfig``, hold alpha as a plain float that
    :func:`checked_alpha` has checked.  A subclass lists its fields in
    ``_fields`` and stores them in ``__init__`` through ``self.__dict__``;
    assignment and deletion raise ``AttributeError``.  Equality and hash
    compare the field tuple of two values of the same class, and the repr
    is ``Name(field=value, ...)``.  There are no ``__slots__``: the
    benchmark's span recorder reads ``vars()`` of a series.
    """

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _as_float(v: float) -> float:
    """``float(v)``, with an int beyond float range as +-inf."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _finite(v: float, error: type[Exception], message: str) -> float:
    """``_as_float(v)``, or ``error(message.format(v))`` if not finite."""
    if not math.isfinite(v := _as_float(v)):
        raise error(message.format(v))
    return v


def _whole(v: float, least: int, error: type[Exception], message: str) -> int:
    """The whole number ``_as_float(v) >= least`` as an int, else
    ``error(message.format(v))`` with ``v`` as given."""
    if not ((f := _as_float(v)).is_integer() and f >= least):
        raise error(message.format(v))
    return int(f)


def _check_finite(values: tuple[float, ...]) -> None:
    if not all(map(math.isfinite, values)):
        bad = next(c for c in values if not math.isfinite(c))
        raise ValueError(f"non-finite coefficient {bad!r}")


def _walk_of(coeffs: tuple[float, ...]) -> tuple:
    # any() reads 0.0 and -0.0 as false
    return (coeffs[::2], 2) if not any(coeffs[1::2]) else (coeffs, 1)


class FracSeries(ImmutableValue):
    """Truncated series ``sum(c_n * x**((n + offset) * alpha))``.

    Besides its fields a series records ``_walk = (slots, stride)`` for
    :func:`eval_series_kernel`: ``slots`` is ``coeffs[::stride]``, the even
    slots (stride 2) when every odd slot is zero, else every slot (stride
    1).  It is not a field, so equality, hash and repr ignore it.  This
    constructor converts and checks outside input; :meth:`_walked` checks
    only new walked slots, and :func:`_derived` reuses checked fields.
    """

    _fields = ("alpha", "offset", "coeffs")

    def __init__(self, alpha: float, offset: float,
                 coeffs: tuple[float, ...]):
        alpha = checked_alpha(alpha)
        offset = _finite(offset, ValueError, "offset must be finite, got {!r}")
        try:
            coeffs = tuple(map(float, coeffs))
        except OverflowError:
            raise ValueError("non-finite coefficient: int too large") from None
        if not coeffs:
            raise ValueError("coefficient list must be non-empty")
        _check_finite(coeffs)
        self.__dict__.update(alpha=alpha, offset=offset, coeffs=coeffs,
                             _walk=_walk_of(coeffs))

    @staticmethod
    def _walked(alpha: float, offset: float, size: int,
                slots: tuple[float, ...], stride: int) -> "FracSeries":
        """The series of ``size`` slots, zero but for the floats ``slots``
        at ``::stride``; ``alpha`` and ``offset`` are already checked.  A
        stride-2 walk is kept, a stride-1 one follows the rule above."""
        _check_finite(slots)
        coeffs = [0.0] * size
        coeffs[::stride] = slots
        return _derived(alpha, offset, tuple(coeffs),
                        (slots, 2) if stride == 2 else None)

    def __len__(self) -> int:
        return len(self.coeffs)


def _derived(alpha: float, offset: float, coeffs: tuple[float, ...],
             walk: tuple | None = None) -> FracSeries:
    """A series from checked fields; nothing is converted or checked."""
    series = object.__new__(FracSeries)
    series.__dict__.update(alpha=alpha, offset=offset, coeffs=coeffs,
                           _walk=walk or _walk_of(coeffs))
    return series


class LogSolution(ImmutableValue):
    """Solution of the form ``log_part(x) * ln(x) + plain_part(x)``, x > 0."""

    _fields = ("log_part", "plain_part")

    def __init__(self, log_part: FracSeries, plain_part: FracSeries):
        if log_part.alpha != plain_part.alpha:
            raise AlignmentError(
                "log_part and plain_part must share the same alpha "
                f"({log_part.alpha} vs {plain_part.alpha})"
            )
        self.__dict__.update(log_part=log_part, plain_part=plain_part)


class EvalResult(NamedTuple):
    """Evaluated value with truncation bookkeeping.

    ``tail_estimate`` is the magnitude of the last nonzero term that entered
    the sum, never -0.0.  It estimates the truncation error only: for an
    alternating series whose terms decrease from that term on, the omitted
    rest is smaller.  It ignores rounding and so is no error bound (J_0 at
    alpha = 1, x = 10: tail 1.5e-20, error against mpmath 9.8e-14).
    """

    value: float
    terms_used: int
    tail_estimate: float


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced floats from ``start`` to ``stop`` inclusive.

    The formula of ``numpy.linspace``, so the points agree with it bit for
    bit: ``i*step + start`` with ``step = (stop - start)/(num - 1)``, and
    ``stop`` itself as the last point.  As there, ``num = 0`` gives no
    points and a negative ``num`` raises ValueError.
    """
    if num < 0:
        raise ValueError(f"Number of samples, {num}, must be non-negative.")
    if num <= 1:
        return [start] * num
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def series_scale(a: FracSeries, k: float) -> FracSeries:
    """Multiply every coefficient by the finite scalar ``k``."""
    k = _finite(k, ValueError, "scale factor must be finite, got {!r}")
    slots, stride = a._walk
    return FracSeries._walked(a.alpha, a.offset, len(a.coeffs),
                              tuple([k * c for c in slots]), stride)


def series_shift(a: FracSeries, dr: float) -> FracSeries:
    """Multiply the represented function by ``x**(dr * alpha)``.

    Every ``dr`` moves the offset by ``dr``, rounded as ``a.offset + dr``;
    the coefficient tuple and its walk are kept.  :func:`series_rebase`
    gives the zero-padded form of a whole-step shift.  A non-finite ``dr``,
    or an offset that overflows, raises ValueError.
    """
    if dr == 0:
        return a
    dr = _finite(dr, ValueError, "shift must be finite, got {!r}")
    return _derived(a.alpha, _finite(a.offset + dr, ValueError,
                                     "offset must be finite, got {!r}"),
                    a.coeffs, a._walk)


def series_rebase(a: FracSeries, offset: float) -> FracSeries:
    """Re-represent the same function with a different offset.

    Only whole-step changes are possible: ``a.offset - offset`` must be
    exactly a nonnegative integer (zeros are prepended) or a negative
    integer whose magnitude is covered by leading zero coefficients (they
    are dropped).  Unlike :func:`series_shift` this never changes the
    represented function.
    """
    offset = _as_float(offset)
    steps = a.offset - offset
    if not steps.is_integer():  # nor is NaN or +-inf
        raise AlignmentError(
            f"cannot rebase offset {a.offset} to {offset}: "
            "difference is not a whole number of alpha-steps"
        )
    k = int(steps)
    if k >= 0:
        try:
            return _derived(a.alpha, offset, (0.0,) * k + a.coeffs)
        except OverflowError:
            raise AlignmentError(f"cannot rebase by {steps:g} steps") from None
    if any(c != 0.0 for c in a.coeffs[:-k]):
        raise AlignmentError(
            f"cannot rebase offset {a.offset} to {offset}: "
            "leading coefficients are nonzero"
        )
    return _derived(a.alpha, offset, a.coeffs[-k:] or (0.0,))


def conformable_diff_exact(a: FracSeries) -> FracSeries:
    """Apply the conformable derivative termwise, exactly.

    Each term ``c_n * x**((n+r)*alpha)`` maps to
    ``alpha*(n+r)*c_n * x**((n+r-1)*alpha)``; the result keeps the
    coefficient count and carries offset ``r - 1``.  Only the walked slots
    are computed: the others stay zero.
    """
    al = a.alpha
    r = a.offset
    slots, stride = a._walk
    size = len(a.coeffs)
    return FracSeries._walked(
        al, r - 1.0, size,
        tuple([al * (n + r) * c
               for n, c in zip(range(0, size, stride), slots)]),
        stride)


def eval_series_kernel(a: FracSeries, x: float) -> tuple[float, int, float]:
    """Sum ``c_n * x**((n+offset)*alpha)`` over the slots ``a._walk`` names.

    A float ``x`` in (0, inf) passes as is, any other goes through
    :func:`_checked_x`, and an overflowing ``x**(offset*alpha)`` raises
    DomainError.  Terms are accumulated in ascending n with Kahan
    compensation.  The loop stops early once a nonzero-coefficient term
    drops below ``STOP_REL``, read once per call, times the magnitude of
    the partial sum; zero coefficients never trigger the stop test.  The
    power starts at slot 0 and steps as ``power * xa * xb``, with ``xb`` =
    ``xa`` at stride 2 and the exact 1.0 at stride 1: the roundings of
    ``power *= xa`` through every slot, in the same order.

    Returns ``(value, terms_used, tail)`` where ``terms_used`` counts the
    slots of ``a.coeffs`` consumed and ``tail`` is the magnitude of the last
    nonzero term added (+0.0 if there was none or it underflowed).  On an
    early stop the count comes from the iterator's exact remaining length.
    """
    if x.__class__ is not float or not 0.0 < x < _INF:
        x = _checked_x(x)
    slots, stride = a._walk
    xa = x ** a.alpha
    try:
        power = x ** (a.offset * a.alpha)
    except OverflowError:
        raise DomainError(f"x = {x:g} is out of range: x**(offset*alpha) "
                          "overflows a double") from None
    xb = xa if stride == 2 else 1.0
    stop_rel = STOP_REL

    total = carry = tail = 0.0
    rest = iter(slots)
    for c in rest:
        if c != 0.0:
            term = c * power
            # Kahan step
            yk = term - carry
            t = total + yk
            carry = (t - total) - yk
            total = t
            tail = term if term >= 0.0 else -term
            if tail < stop_rel * (total if total >= 0.0 else -total):
                # walked index i is slot stride * i of ``a.coeffs``
                i = len(slots) - length_hint(rest) - 1
                return total, stride * i + 1, tail + 0.0
        power = power * xa * xb
    return total, len(a.coeffs), tail + 0.0


#: Builds an :class:`EvalResult` from a 3-tuple without the Python-level
#: ``__new__`` that ``EvalResult(*r)`` runs: one frame less per point.
_result = tuple.__new__

#: A float x with ``0.0 < x < _INF`` needs no check; anything else goes
#: through :func:`_checked_x`, which refuses it or converts it to float.
_INF = math.inf


def checked_alpha(alpha: float) -> float:
    """``alpha`` as a float, or DomainError unless it lies in (0, 1]."""
    alpha = _finite(alpha, DomainError,
                    "alpha must be a finite real number, got {!r}")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def _checked_x(x: float) -> float:
    v = _as_float(x) if isinstance(x, (int, float)) else x
    if not (v.__class__ is float and math.isfinite(v)):
        raise DomainError(f"x must be a finite real number, got {v!r}")
    if v <= 0.0:
        raise DomainError(f"series evaluation requires x > 0, got {x}")
    return v


def eval_series(a: FracSeries, x: float) -> EvalResult:
    """Evaluate the series at ``x > 0``.

    Terms are summed in ascending order with compensated summation; the
    kernel reads ``STOP_REL`` and stops early once a nonzero term falls
    below it times the running total.  The kernel checks ``x``, and one
    :class:`EvalResult` is built per point.
    """
    # the kernel is a module global looked up per call: a tracer rebinds it
    return _result(EvalResult, eval_series_kernel(a, x))


def eval_log_solution(s: LogSolution, x: float) -> EvalResult:
    """Evaluate ``log_part(x) * ln(x) + plain_part(x)`` at ``x > 0``.

    ``terms_used`` is the larger of the two parts' counts and the tail
    estimate combines both parts (the log part's tail weighted by |ln x|).
    Both parts go straight to the kernel, which checks ``x`` before
    ``math.log`` sees it, and one :class:`EvalResult` is built per point.
    """
    lg, lg_used, lg_tail = eval_series_kernel(s.log_part, x)
    pl, pl_used, pl_tail = eval_series_kernel(s.plain_part, x)
    lnx = math.log(x)
    return _result(EvalResult, (lg * lnx + pl, max(lg_used, pl_used),
                                abs(lnx) * lg_tail + pl_tail))
