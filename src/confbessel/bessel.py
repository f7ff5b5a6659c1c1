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
* ``bessel_j_neg_series`` -- order -p for non-integer p (valid even when 2p
  is a positive integer),
* ``second_solution_order_zero`` -- the logarithmic companion at p = 0,
* ``second_solution_integer_order`` -- the logarithmic companion at a
  positive integer order m.

Coefficients are generated by the two-step recurrence in ratio form rather
than by per-term gamma/factorial evaluation: the ratio form cannot overflow
(individual factors like ``2**(2n+p) * n! * gamma(p+n+1)`` would, past
n ~ 80) and the gamma function enters exactly once, in the leading
coefficient.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, OrderCaseError, PoleError
from .series import DEFAULT_TERMS, Alpha, FracSeries, LogSolution, series_scale

__all__ = [
    "gamma",
    "harmonic",
    "OrderKind",
    "BesselOrder",
    "classify_order",
    "IndicialData",
    "indicial",
    "SecondSolutionParams",
    "second_solution_params",
    "bessel_j_series",
    "bessel_j_neg_series",
    "bessel_j_neg_integer_series",
    "second_solution_order_zero",
    "second_solution_integer_order",
    "b_chain_ratios",
]

#: Orders this close to an integer are treated as that integer.  Orders are
#: user input, never the result of accumulation, so near-integers are intent.
INTEGER_TOL = 1e-9

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

#: 170! is the largest factorial a double holds.
_MAX_FACTORIAL = 170


def gamma(z: float) -> float:
    """Gamma function via the Lanczos approximation.

    Good to at least 12 significant digits on [-20, 50].  Arguments below
    1/2 go through the reflection formula; zero and negative integers raise
    :class:`PoleError`.  Arguments whose Lanczos product overflows a double
    (above about 142.2, or below about -141.2 through the reflection) raise
    :class:`DomainError`.
    """
    if not math.isfinite(z):
        raise ValueError(f"gamma requires a finite argument, got {z!r}")
    if z <= 0.0 and z == math.floor(z):
        raise PoleError(f"gamma has a pole at {z}")
    if z < 0.5:
        # reflection: gamma(z) * gamma(1 - z) = pi / sin(pi z)
        return math.pi / (math.sin(math.pi * z) * gamma(1.0 - z))
    z -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    try:
        value = _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * acc
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise DomainError(
            f"gamma({z + 1.0:g}) overflows the Lanczos evaluation")
    return value


def _factorial(m: int) -> float:
    """``m!`` as a float; DomainError once it overflows a double."""
    if m > _MAX_FACTORIAL:
        raise DomainError(f"integer order too large: m! overflows a double "
                          f"for m > {_MAX_FACTORIAL}")
    return float(math.factorial(m))


def _leading(c0: float, p: float) -> float:
    """``c0`` itself; DomainError when it underflowed to 0 or is not finite.

    At integer orders 151-170 the product ``2**m * m!`` in the denominator
    overflows without raising and the quotient silently becomes 0, which
    would make every coefficient, and every value, 0.
    """
    if c0 == 0.0 or not math.isfinite(c0):
        raise DomainError(f"order {p:g} too large: the leading coefficient "
                          "is not representable as a double")
    return c0


def harmonic(n: int) -> float:
    """Harmonic number ``H_n = 1 + 1/2 + ... + 1/n`` with ``H_0 = 0``."""
    if n < 0:
        raise ValueError(f"harmonic number needs n >= 0, got {n}")
    return sum(1.0 / k for k in range(1, n + 1))


class OrderKind(enum.Enum):
    """Case classification of a real order p."""

    ZERO = "zero"
    GENERIC = "generic"
    #: 2p is a positive integer while p is not an integer (p = 1/2, 3/2, ...).
    #: The indicial roots differ by an integer, yet the order -p series still
    #: exists because its even recurrence never hits the bad denominator.
    HALF_ODD_INTEGER = "half-odd-integer"
    POSITIVE_INTEGER = "positive-integer"


@dataclass(frozen=True)
class BesselOrder:
    """A real order together with its case classification.

    ``m`` holds the integer value when ``kind`` is POSITIVE_INTEGER and is
    None otherwise.
    """

    p: float
    kind: OrderKind
    m: int | None = None


def classify_order(p: float) -> BesselOrder:
    """Classify a real order, snapping to integers within 1e-9.

    A non-finite order raises :class:`DomainError`.
    """
    p = float(p)
    if not math.isfinite(p):
        raise DomainError(f"order must be finite, got {p}")
    if abs(p) <= INTEGER_TOL:
        return BesselOrder(p, OrderKind.ZERO)
    nearest = round(p)
    if abs(p - nearest) <= INTEGER_TOL and nearest >= 1:
        return BesselOrder(p, OrderKind.POSITIVE_INTEGER, int(nearest))
    nearest2 = round(2.0 * p)
    if abs(2.0 * p - nearest2) <= INTEGER_TOL and nearest2 >= 1:
        return BesselOrder(p, OrderKind.HALF_ODD_INTEGER)
    return BesselOrder(p, OrderKind.GENERIC)


@dataclass(frozen=True)
class IndicialData:
    """Indicial roots (p, -p) and the indicial polynomial evaluator."""

    p: float
    alpha: Alpha

    @property
    def roots(self) -> tuple[float, float]:
        return (self.p, -self.p)

    def poly(self, r: float) -> float:
        """Indicial polynomial ``alpha**2 * (r*(r-1) + r - p**2)``."""
        a2 = self.alpha.value ** 2
        return a2 * (r * (r - 1.0) + r - self.p ** 2)


def indicial(p: float, alpha: Alpha | float) -> IndicialData:
    """Indicial data for order ``p >= 0`` (pass ``abs(p)`` for negative p)."""
    if p < 0.0:
        raise ValueError(
            f"indicial data is defined for p >= 0 (got {p}); the two roots "
            "already cover both signs, pass abs(p)"
        )
    return IndicialData(float(p), Alpha.of(alpha))


def bessel_j_series(p: float, alpha: Alpha | float,
                    n_terms: int = DEFAULT_TERMS) -> FracSeries:
    """First-kind solution of order ``p >= 0`` as a FracSeries.

    Offset p, even coefficients
    ``c_{2n} = (-1)**n / (2**(2n+p) * n! * gamma(p+n+1))`` and zero odd
    coefficients; the leading coefficient is ``1 / (2**p * gamma(p+1))``.
    The coefficients do not depend on alpha: only the exponents carry it.
    """
    if p < 0.0:
        raise OrderCaseError(
            f"first-kind series needs p >= 0, got {p}; use "
            "bessel_j_neg_series or bessel_j_neg_integer_series for -p"
        )
    if n_terms < 1:
        raise ValueError(f"n_terms must be positive, got {n_terms}")
    order = classify_order(p)
    # integer orders snap and use the exact factorial leading coefficient;
    # gamma only enters for genuinely fractional orders.  Both are evaluated
    # before 2.0**p: they raise DomainError well below the orders at which
    # 2.0**p would raise OverflowError.
    if order.kind is OrderKind.ZERO:
        p = 0.0
        c0 = 1.0
    elif order.kind is OrderKind.POSITIVE_INTEGER:
        p = float(order.m)
        c0 = 1.0 / (_factorial(order.m) * 2.0 ** order.m)
    else:
        c0 = 1.0 / (gamma(p + 1.0) * 2.0 ** p)
    coeffs = [0.0] * n_terms
    coeffs[0] = _leading(c0, p)
    for k in range(2, n_terms, 2):
        coeffs[k] = -coeffs[k - 2] / (k * (k + 2.0 * p))
    return FracSeries(Alpha.of(alpha), float(p), tuple(coeffs))


def bessel_j_neg_series(p: float, alpha: Alpha | float,
                        n_terms: int = DEFAULT_TERMS) -> FracSeries:
    """Solution of order ``-p`` for ``p > 0`` not an integer.

    Offset -p, even coefficients
    ``c_{2n} = (-1)**n / (2**(2n-p) * n! * gamma(n+1-p))``.  The even
    recurrence divides by ``k * (k - 2p)``, which only vanishes at integer
    p, so the construction is valid even when 2p is a positive integer.
    """
    if p <= 0.0:
        raise OrderCaseError(f"negative-order series needs p > 0, got {p}")
    order = classify_order(p)
    if order.kind is OrderKind.POSITIVE_INTEGER:
        raise OrderCaseError(
            f"order -{p} with integer p reduces to a signed first-kind "
            "series; use bessel_j_neg_integer_series"
        )
    if n_terms < 1:
        raise ValueError(f"n_terms must be positive, got {n_terms}")
    g = gamma(1.0 - p)  # before 2.0**p, as in bessel_j_series
    coeffs = [0.0] * n_terms
    coeffs[0] = _leading(2.0 ** p / g, -p)
    for k in range(2, n_terms, 2):
        coeffs[k] = -coeffs[k - 2] / (k * (k - 2.0 * p))
    return FracSeries(Alpha.of(alpha), -float(p), tuple(coeffs))


def bessel_j_neg_integer_series(m: int, alpha: Alpha | float,
                                n_terms: int = DEFAULT_TERMS) -> FracSeries:
    """Order ``-m`` for integer ``m >= 0``: ``(-1)**m`` times the order-m series.

    At negative integer orders the would-be leading coefficients vanish
    (gamma blows up at non-positive integers) and the series collapses onto
    the first-kind series with an alternating sign.
    """
    if m < 0 or m != int(m):
        raise OrderCaseError(f"integer reduction needs integer m >= 0, got {m}")
    sign = -1.0 if int(m) % 2 else 1.0
    return series_scale(bessel_j_series(float(m), alpha, n_terms), sign)


@dataclass(frozen=True)
class SecondSolutionParams:
    """Free constants of the integer-order second solution.

    ``b0`` (the leading negative-power coefficient) and ``log_coeff`` (the
    multiplier of the ln-term) are tied by
    ``log_coeff = -alpha * b0 / (2**(m-1) * (m-1)!)``.
    """

    m: int
    b0: float
    log_coeff: float


def second_solution_params(m: int, alpha: Alpha | float,
                           log_coeff: float = 1.0) -> SecondSolutionParams:
    """Solve the constant-tying relation for ``b0`` given the log coefficient."""
    if m < 1:
        raise OrderCaseError(f"integer-order second solution needs m >= 1, got {m}")
    a = Alpha.of(alpha).value
    fact = _factorial(m - 1)  # before 2.0**(m-1), as in bessel_j_series
    b0 = -log_coeff * 2.0 ** (m - 1) * fact / a
    if not math.isfinite(b0):
        raise DomainError(f"order {m} too large: the leading coefficient "
                          "overflows a double")
    return SecondSolutionParams(int(m), b0, log_coeff)


def second_solution_order_zero(alpha: Alpha | float,
                               n_terms: int = DEFAULT_TERMS) -> LogSolution:
    """Logarithmic second solution at order zero.

    The log part is the order-zero first-kind series; the plain part has
    coefficient ``(1/alpha) * (-1)**(n+1) * H_n / (2**(2n) * (n!)**2)`` at
    exponent ``2*n*alpha`` for n >= 1 and no constant term.
    """
    al = Alpha.of(alpha)
    log_part = bessel_j_series(0.0, al, n_terms)
    coeffs = [0.0] * n_terms
    # scale = 1 / (2**(2n) * (n!)**2), harmonic sum updated incrementally
    scale = 1.0
    h = 0.0
    sign = 1.0
    for n in range(1, (n_terms - 1) // 2 + 1):
        scale /= 4.0 * n * n
        h += 1.0 / n
        coeffs[2 * n] = sign * h * scale / al.value
        sign = -sign
    return LogSolution(log_part, FracSeries(al, 0.0, tuple(coeffs)))


def b_chain_ratios(m: int) -> list[float]:
    """Normalized low-power coefficients ``b_{2j} / b_0`` for j = 0..m-1.

    ``b_{2j} = b_0 / (2**(2j) * j! * (m-1)*(m-2)*...*(m-j))``; odd-index
    entries are identically zero and not returned.  For m = 1 the chain is
    just ``b_0`` itself.
    """
    if m < 1 or m != int(m):
        raise OrderCaseError(f"coefficient chain needs integer m >= 1, got {m}")
    ratios = [1.0]
    value = 1.0
    for j in range(1, m):
        value /= 4.0 * j * (m - j)
        ratios.append(value)
    return ratios


def second_solution_integer_order(m: int, alpha: Alpha | float,
                                  n_terms: int = DEFAULT_TERMS) -> LogSolution:
    """Logarithmic second solution at positive integer order m.

    With the log coefficient normalized to 1, the plain part (offset -m)
    assembles three pieces:

    * the finite negative-power block ``b_{2j}``, j < m, exact regardless of
      truncation, with ``b_0 = -2**(m-1) * (m-1)! / alpha``;
    * the pivot ``b_{2m} = -(1/(2*alpha)) * c_0 * H_m`` at exponent
      ``m*alpha``, where ``c_0 = 1/(2**m * m!)`` leads the log part;
    * the tail ``b_{2m+2n} = -(1/(2*alpha)) * c_{2n} * (H_n + H_{m+n})`` for
      n >= 1, with ``c_{2n}`` the log-part coefficients.

    The pivot choice is what makes the tail close under the recurrence; see
    the regression test for the rejected alternative normalization.
    """
    if m < 1 or m != int(m):
        raise OrderCaseError(
            f"integer-order second solution needs integer m >= 1, got {m}"
        )
    m = int(m)
    al = Alpha.of(alpha)
    a = al.value
    log_part = bessel_j_series(float(m), al, n_terms)

    params = second_solution_params(m, al, log_coeff=1.0)
    length = 2 * m + n_terms
    coeffs = [0.0] * length

    for j, ratio in enumerate(b_chain_ratios(m)):
        coeffs[2 * j] = params.b0 * ratio

    # pivot and tail ride on the log-part coefficient sequence
    c0 = 1.0 / (_factorial(m) * 2.0 ** m)
    h_m = harmonic(m)
    coeffs[2 * m] = -c0 * h_m / (2.0 * a)

    c2n = c0
    h_n = 0.0
    h_mn = h_m
    n = 1
    while 2 * m + 2 * n < length:
        c2n = -c2n / (2.0 * n * (2.0 * n + 2.0 * m))
        h_n += 1.0 / n
        h_mn += 1.0 / (m + n)
        coeffs[2 * m + 2 * n] = -c2n * (h_n + h_mn) / (2.0 * a)
        n += 1

    return LogSolution(log_part, FracSeries(al, -float(m), tuple(coeffs)))
