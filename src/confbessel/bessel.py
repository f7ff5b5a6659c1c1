r"""Series solutions of the conformable fractional Bessel equation.

The equation, for ``0 < alpha <= 1`` and real order ``p``, is

.. math::

    x^{2\alpha} T_\alpha T_\alpha y
    + \alpha x^\alpha T_\alpha y
    + \alpha^2 (x^{2\alpha} - p^2) y = 0, \qquad x > 0,

with ``T_alpha`` the conformable derivative.  x = 0 is a regular singular
point of the fractional kind, the indicial roots are ``+p`` and ``-p``, and
four solution families arise:

* ``bessel_j_series`` -- the first-kind function of order p >= 0,
* ``bessel_j_neg_series`` -- order -p for every p >= 0: built as given at a
  non-integer p (valid even when 2p is a positive integer), and the signed
  first-kind series ``bessel_j_neg_integer_series`` at a whole p,
* ``second_solution_order_zero`` -- the logarithmic companion at p = 0,
* ``second_solution_integer_order`` -- the logarithmic companion at a
  positive integer order m.

All four are built from one even-index recurrence at an indicial root r,
``c_k = -c_{k-2} / (k * (k + 2r))``, in ratio form rather than by per-term
gamma/factorial evaluation: the ratio form cannot overflow (individual
factors like ``2**(2n+p) * n! * gamma(p+n+1)`` would, past n ~ 80) and
gamma, exact at positive integers, enters only the leading coefficient.
The log solutions weight the ``c_{2n}`` of their log part by harmonic
numbers, as in the classical Y_n series; y2zero is K at m = 0 (DLMF
10.8.1).  Only the plain parts' 1/alpha depends on alpha: J and Jneg are
the classical series read at t = x**alpha.  A 64-entry cache holds, per
(order, n_terms), the J and Jneg series at alpha = 1, which a constructor
reads at alpha, and the log tables, to which it applies alpha.
"""

import functools
import math
import sys

from .errors import DomainError, OrderCaseError, PoleError
from .series import (DEFAULT_TERMS, FracSeries, LogSolution, _derived,
                     _finite, _whole, checked_alpha, series_scale)

__all__ = [
    "gamma",
    "bessel_j_series",
    "bessel_j_neg_series",
    "bessel_j_neg_integer_series",
    "second_solution_order_zero",
    "second_solution_integer_order",
]

# Lanczos approximation, g = 7, 9 coefficients.  Classic parameter set
# (Godfrey's computation, reproduced in many libraries); accurate to ~15
# significant digits over the range needed here.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

#: Within this of an integer n the reflection takes sin(pi z) at z - n.
_NEAR_POLE = 2.0 ** -10

#: 170! is the largest factorial a double holds.
_MAX_FACTORIAL = 170


def gamma(z: float) -> float:
    """Gamma function: exact at positive integers, Lanczos elsewhere.

    ``(z - 1)!``, rounded once, at an integer 1 <= z <= 171 (DLMF 5.4.1);
    elsewhere Lanczos, good to at least 12 significant digits on [-20, 50],
    with the reflection formula below 1/2.  Zero and negative integers raise
    :class:`PoleError`; arguments whose Lanczos product overflows a double
    (above about 142.2 but integers to 171, or below about -141.2) and
    those whose reflection overflows (0 < |z| below about 5.56e-309) raise
    :class:`DomainError`; a non-finite ``float(z)`` (an int beyond float
    range reads as +-inf) raises ValueError.
    """
    z = _finite(z, ValueError, "gamma requires a finite argument, got {!r}")
    if z == math.floor(z):
        if z <= 0.0:
            raise PoleError(f"gamma has a pole at {z}")
        if z <= _MAX_FACTORIAL + 1:
            return float(math.factorial(int(z) - 1))
    if z < 0.5:
        # reflection: gamma(z) * gamma(1 - z) = pi / sin(pi z).  The sine of
        # math.pi * z is |z| u / |d| off at d = z - n (45 % one ulp from -2),
        # so near n it is (-1)**n sin(pi d), d exact.  Elsewhere it costs at
        # most 1.5e-11; reducing there too waits for ROADMAP item 2, since
        # it moves the last bits of most fractional values.
        n = round(z)
        s = (math.sin(math.pi * z) if abs(d := z - n) >= _NEAR_POLE
             else math.sin(math.pi * d) * (-1.0 if n % 2 else 1.0))
        value = math.pi / (s * gamma(1.0 - z))
        if math.isinf(value):  # 1/z overflows for |z| below about 5.56e-309
            raise DomainError(f"gamma({z!r}) overflows the reflection formula")
        return value
    w = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    try:
        value = _SQRT_TWO_PI * t ** (w + 0.5) * math.exp(-t) * acc
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise DomainError(f"gamma({z!r}) overflows the Lanczos evaluation")
    return value


@functools.lru_cache(maxsize=64)
def _table(family: str, order: float, n_terms: int) -> FracSeries | tuple:
    """The alpha-free J, Jneg or log (``K``) table at its normalized order.

    ``J`` and ``Jneg``: the series at alpha = 1, which a constructor reads at
    alpha, with ``c_k = -c_{k-2} / (k * (k + 2r))`` at the root r.  A ``c0``
    that is zero, subnormal or not finite raises DomainError: at integer
    orders 151-170 ``gamma(m + 1) = m!`` times ``2**m`` overflows silently
    and c0 becomes 0, and at 150 c0 is subnormal, so values would lose bits.
    ``K`` at integer m >= 0, y2zero at m = 0 (DLMF 10.8.1): the numerators
    of ``b_0`` and the tail, and the block's ratios.  Errors are not cached.
    """
    if family == "K":
        m, ratios = order, [1.0][:order]  # b_0 / b_0, but no block at m = 0
        for j in range(1, m):
            ratios.append(ratios[-1] / (4.0 * j * (m - j)))
        tail, h_n, h_mn = [], 0.0, 0.0
        for k in range(1, m + 1):  # H_m, left to right and uncompensated
            h_mn += 1.0 / k
        for n, c2n in enumerate(_table("J", float(m), n_terms).coeffs[::2]):
            tail.append(c2n * (0.0 - h_n - h_mn))
            h_n += 1.0 / (n + 1)
            h_mn += 1.0 / (m + n + 1)
        b0_num = -float(math.prod(range(2, 2 * m, 2)))  # -2**(m-1) (m-1)!
        return b0_num, tuple(ratios), tuple(tail)
    # gamma is evaluated before 2.0**p: it raises DomainError well below
    # the orders at which 2.0**p would raise OverflowError
    if family == "Jneg":
        g = gamma(1.0 - order)
        r, c0 = -order, 2.0 ** order / g
    else:
        r, c0 = order, 1.0 / (gamma(order + 1.0) * 2.0 ** order)
    if not sys.float_info.min <= abs(c0) < math.inf:
        raise DomainError(f"order {r:g} too large: the leading coefficient "
                          "is not representable as a double")
    slots = [c := c0]
    for k in range(2, n_terms, 2):
        slots.append(c := -c / (k * (k + 2.0 * r)))
    return FracSeries._walked(1.0, float(r), n_terms, tuple(slots), 2)


def bessel_j_series(p: float, alpha: float,
                    n_terms: int = DEFAULT_TERMS) -> FracSeries:
    """First-kind solution of order ``p >= 0`` as a FracSeries.

    Offset p, even coefficients
    ``c_{2n} = (-1)**n / (2**(2n+p) * n! * gamma(p+n+1))`` and zero odd
    coefficients; the leading coefficient is ``1 / (2**p * gamma(p+1))``.
    The series is built at p as given: an order near an integer m is not
    taken for m, and at m itself gamma(m + 1) is m! exactly.  The
    coefficients do not depend on alpha: only the exponents carry it.
    """
    # + 0.0: the order -0.0 is the order 0.0, and so is its offset
    order = _finite(p, DomainError, "order must be finite, got {}") + 0.0
    if order < 0.0:
        raise OrderCaseError(f"first-kind series needs p >= 0, got {p}; "
                             "use bessel_j_neg_series for -p")
    n_terms = _whole(n_terms, 1, ValueError,
                     "n_terms must be positive, got {}")
    if order.is_integer() and order > _MAX_FACTORIAL:
        raise DomainError(f"integer order too large: m! overflows a "
                          f"double for m > {_MAX_FACTORIAL}")
    t = _table("J", order, n_terms)
    return _derived(checked_alpha(alpha), t.offset, t.coeffs, t._walk)


def bessel_j_neg_series(p: float, alpha: float,
                        n_terms: int = DEFAULT_TERMS) -> FracSeries:
    """Solution of order ``-p`` for every finite ``p >= 0``.

    At a whole p = m (0 and -0.0 included) this is
    :func:`bessel_j_neg_integer_series`, ``(-1)**m`` times the order-m
    series.  At every other p, however near an integer, the series is
    built as given: offset -p, even coefficients
    ``c_{2n} = (-1)**n / (2**(2n-p) * n! * gamma(n+1-p))``.  The even
    recurrence divides by ``k * (k - 2p)``, which only vanishes at integer
    p, so the construction is valid even when 2p is a positive integer.
    """
    p = _finite(p, DomainError, "order must be finite, got {}")
    if p < 0.0:
        raise OrderCaseError(f"negative-order series needs p >= 0, got {p}")
    if p.is_integer():
        return bessel_j_neg_integer_series(int(p), alpha, n_terms)
    n_terms = _whole(n_terms, 1, ValueError,
                     "n_terms must be positive, got {}")
    t = _table("Jneg", p, n_terms)
    return _derived(checked_alpha(alpha), t.offset, t.coeffs, t._walk)


def bessel_j_neg_integer_series(m: int, alpha: float,
                                n_terms: int = DEFAULT_TERMS) -> FracSeries:
    """Order ``-m`` for integer ``m >= 0``: ``(-1)**m`` times the order-m series.

    At negative integer orders the would-be leading coefficients vanish
    (gamma blows up at non-positive integers) and the series collapses onto
    the first-kind series with an alternating sign.  At even m that is the
    order-m series itself, since ``1.0 * c`` is ``c`` bit for bit.
    """
    m = _whole(m, 0, OrderCaseError,
               "integer reduction needs integer m >= 0, got {}")
    series = bessel_j_series(float(m), alpha, n_terms)
    return series_scale(series, -1.0) if m % 2 else series


def _log_solution(m: int, a: float, n_terms: int,
                  too_small: str) -> LogSolution:
    """The log solution of integer order ``m >= 0``; a plain slot that
    overflows raises DomainError(``too_small`` formatted with a and m)."""
    log_part = bessel_j_series(float(m), a, n_terms)
    n_terms = len(log_part)  # the count bessel_j_series read
    b0_num, ratios, tail = _table("K", m, n_terms)
    b0, two_a = b0_num / a, 2.0 * a
    # b_{2j} is slot j, b_{2m+2n} slot m + n
    slots = (*[b0 * r for r in ratios], *[v / two_a for v in tail])
    try:
        plain = FracSeries._walked(a, 0.0 - m, 2 * m + n_terms, slots, 2)
    except ValueError:  # _walked's finiteness check
        raise DomainError(too_small.format(a=a, m=m)) from None
    return LogSolution(log_part, plain)


def second_solution_order_zero(alpha: float,
                               n_terms: int = DEFAULT_TERMS) -> LogSolution:
    """Logarithmic second solution at order zero.

    The m = 0 case of :func:`second_solution_integer_order` (DLMF 10.8.1),
    with no block.  The log part is the order-zero first-kind series
    ``c_{2n}``; the plain part has coefficient ``-c_{2n} * H_n / alpha``
    (``(1/alpha) * (-1)**(n+1) * H_n / (2**(2n) * (n!)**2)``) at exponent
    ``2*n*alpha`` for n >= 1, and no constant term.  Its largest
    coefficient, ``1 / (4*alpha)`` at n = 1, overflows a double for alpha
    below about 1.4e-309; that raises DomainError.
    """
    return _log_solution(0, checked_alpha(alpha), n_terms,
                         "alpha = {a:g} is too small: the plain part's "
                         "coefficients overflow a double")


def second_solution_integer_order(m: int, alpha: float,
                                  n_terms: int = DEFAULT_TERMS) -> LogSolution:
    """Logarithmic second solution at positive integer order m.

    With the log coefficient normalized to 1, the plain part (offset -m)
    assembles two pieces:

    * the finite negative-power block ``b_{2j}``, j < m, exact regardless of
      truncation, with ``b_0 = -2**(m-1) * (m-1)! / alpha`` and
      ``b_{2j} = b_{2j-2} / (4 j (m-j))``;
    * the tail ``b_{2m+2n} = -(1/(2*alpha)) * c_{2n} * (H_n + H_{m+n})`` for
      n >= 0, with ``c_{2n}`` the log-part coefficients.  Its n = 0 term,
      ``-c_0 * H_m / (2*alpha)``, is the pivot.

    The pivot choice is what makes the tail close under the recurrence; see
    the regression test for the rejected alternative normalization.  ``b_0``
    overflows a double for alpha below about 5.6e-309 at m = 1, or 5e-6 at
    m = 149, the highest order the log part admits; that raises DomainError.
    """
    m = _whole(m, 1, OrderCaseError,
               "integer-order second solution needs integer m >= 1, got {}")
    return _log_solution(m, checked_alpha(alpha), n_terms,
                         "alpha = {a:g} is too small for order {m}: the "
                         "leading coefficient overflows a double")
