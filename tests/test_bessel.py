"""Tests for the solution-family constructors and order classification."""

import enum
import math
import struct
import sys
from typing import NamedTuple
from unittest.mock import patch

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confbessel import (
    FracSeries,
    LogSolution,
    bessel_j_neg_integer_series,
    bessel_j_neg_series,
    bessel_j_series,
    conformable_diff_exact,
    eval_log_solution,
    eval_series,
    gamma,
    second_solution_integer_order,
    second_solution_order_zero,
    series_scale,
    series_shift,
)
from confbessel.bessel import _table
from confbessel.cli import UsageError, build_solution
from confbessel.errors import DomainError, OrderCaseError
from confbessel.series import checked_alpha

SQRT_PI = math.sqrt(math.pi)


def harmonic(n):
    """Harmonic number ``H_n`` with ``H_0 = 0``: the package's former
    helper, kept verbatim (but for its check of n) for the references."""
    h = 0.0
    for k in range(1, n + 1):
        h += 1.0 / k
    return h


# Frozen reference: the four-way order classification that the package's
# integer_order replaced, kept verbatim, with the tolerance both had.  The
# package now routes orders on exact whole numbers: the classification with
# its tolerance set to zero (ref_whole_order).

#: The snapping tolerance of the frozen classification.
INTEGER_TOL = 1e-9

class OrderKind(enum.Enum):
    """Case classification of a real order p."""

    ZERO = "zero"
    GENERIC = "generic"
    #: 2p is a positive integer while p is not an integer (p = 1/2, 3/2, ...).
    #: The indicial roots differ by an integer, yet the order -p series still
    #: exists because its even recurrence never hits the bad denominator.
    HALF_ODD_INTEGER = "half-odd-integer"
    POSITIVE_INTEGER = "positive-integer"


class BesselOrder(NamedTuple):
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


def ref_integer_order(p):
    """The frozen integer_order's answer, read off the classification.

    Below about -8.99e307 the classification overflowed forming
    ``round(2.0 * p)``; integer_order answered None there, as for every
    other negative order.
    """
    try:
        order = classify_order(p)
    except OverflowError:
        assert p < 0.0
        return None
    if order.kind is OrderKind.ZERO:
        return 0
    return order.m


def ref_whole_order(p):
    """``ref_integer_order`` with a zero tolerance: m at a whole order
    m >= 0, else None.  A non-finite order raises DomainError."""
    with patch.dict(globals(), INTEGER_TOL=0.0):
        return ref_integer_order(p)


def ref_order_text(p):
    """How a refusal names the order: ``:g`` where that reads back as p,
    else repr, so 5.0 reads "5" and 2.9999999999 does not read "3"."""
    return f"{p:g}" if float(f"{p:g}") == p else repr(p)


def ref_route(family, p, alpha=1.0, n_terms=8):
    """``build_solution`` on the frozen classification at zero tolerance:
    the integer constructions at a whole order, Jneg as given elsewhere."""
    m = ref_whole_order(p)
    if family == "Jneg":
        return (bessel_j_neg_series(p, alpha, n_terms) if m is None
                else bessel_j_neg_integer_series(m, alpha, n_terms))
    if family == "y2zero":
        if m != 0:
            raise UsageError("family y2zero takes --order 0 only, got "
                             + ref_order_text(p))
        return second_solution_order_zero(alpha, n_terms)
    if not m:
        raise UsageError("family K requires an integer order >= 1, got "
                         + ref_order_text(p))
    return second_solution_integer_order(m, alpha, n_terms)


def indicial_value(series, p):
    """The Bessel operator's lowest-order coefficient on the leading term.

    On ``c_0 x**(r*alpha)`` the terms ``x**(2a) T T y + a x**a T y
    - a**2 p**2 y`` all land at exponent ``r*alpha`` and sum to
    ``a**2 (r**2 - p**2) c_0`` (the ``a**2 x**(2a) y`` term starts two slots
    higher).  Returned divided by ``c_0``: the indicial polynomial at the
    series' offset r, which vanishes exactly when r = +-p.
    """
    lead = FracSeries(series.alpha, series.offset, (series.coeffs[0],))
    d1 = conformable_diff_exact(lead)
    d2 = conformable_diff_exact(d1)
    a = series.alpha
    return (d2.coeffs[0] + a * d1.coeffs[0]
            - a * a * p * p * lead.coeffs[0]) / lead.coeffs[0]


def root_series(p, alpha):
    """The constructed series whose leading terms sit at the roots +p, -p.

    At p = 0 the root is double and both are the order-zero series (the log
    part of y2zero); at a whole m the -m root leads the plain part of K.
    """
    plus = bessel_j_series(p, alpha)
    if p == 0.0:
        return plus, second_solution_order_zero(alpha).log_part
    if p.is_integer():
        return plus, second_solution_integer_order(p, alpha).plain_part
    return plus, bessel_j_neg_series(p, alpha)


#: Orders at and just past the former snapping tolerance, on both sides of 0.
EDGE_ORDERS = [
    0.0, -0.0, 5e-10, -5e-10, INTEGER_TOL, -INTEGER_TOL,
    2 * INTEGER_TOL, -2 * INTEGER_TOL,
    *(m + d for m in (1, 2, 7, 170) for d in
      (INTEGER_TOL, -INTEGER_TOL, 2 * INTEGER_TOL, -2 * INTEGER_TOL)),
    -1.0, -2.0, -7.0, -1.0 + 5e-10,
    5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e300, -1e300, 0.5, 1.5, 2.0 - 1e-10, 3.0 + 1e-6,
]

ROUTED = ("Jneg", "y2zero", "K")


def routes_like_whole_order(p):
    """``build_solution`` of each routed family at p has ``ref_route``'s
    bytes, or its error and message."""
    for family in ROUTED:
        assert (_outcome(build_solution, family, p, 1.0, 8)
                == _outcome(ref_route, family, p)), family


class TestClassifyOrder:
    """``build_solution`` routes orders on exact whole numbers: the sign
    reduction and the log solutions take a whole order only, and Jneg is
    built as given at every other order, however near an integer."""

    def test_zero_and_near_zero(self):
        assert (_outcome(build_solution, "Jneg", 0.0, 1.0, 8)
                == _outcome(bessel_j_series, 0.0, 1.0, 8))
        assert build_solution("Jneg", 5e-10, 1.0, 8).offset == -5e-10
        with pytest.raises(OrderCaseError, match="got -5e-10$"):
            build_solution("Jneg", -5e-10, 1.0, 8)
        for p in (5e-10, -5e-10):
            with pytest.raises(UsageError, match=f"got {p!r}$"):
                build_solution("y2zero", p, 1.0, 8)

    def test_positive_integers_carry_m(self):
        for p in (1.0, 2.0, 7.0):
            assert (_outcome(build_solution, "Jneg", p, 1.0, 8)
                    == _outcome(bessel_j_neg_integer_series, int(p), 1.0, 8))
            assert (_outcome(build_solution, "K", p, 1.0, 8)
                    == _outcome(second_solution_integer_order, int(p), 1.0,
                                8))

    def test_near_integer_is_not_snapped(self):
        p = 3.0 - 1e-10
        assert (_outcome(build_solution, "Jneg", p, 1.0, 8)
                == _outcome(bessel_j_neg_series, p, 1.0, 8))
        with pytest.raises(UsageError, match="got 2.9999999999$"):
            build_solution("K", p, 1.0, 8)

    @pytest.mark.parametrize("p", [0.5, 1.5, 2.5, 7.5])
    def test_half_odd_integers(self, p):
        assert ref_whole_order(p) is None
        routes_like_whole_order(p)

    @pytest.mark.parametrize("p", [0.3, 1.0 / 3.0, 2.7, math.pi])
    def test_generic_orders(self, p):
        assert ref_whole_order(p) is None
        routes_like_whole_order(p)

    def test_beyond_tolerance_is_generic(self):
        assert (_outcome(build_solution, "Jneg", 3.0 + 1e-6, 1.0, 8)
                == _outcome(bessel_j_neg_series, 3.0 + 1e-6, 1.0, 8))

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_orders_rejected(self, p):
        with pytest.raises(DomainError) as want:
            classify_order(p)
        assert str(want.value) == f"order must be finite, got {p}"
        for family in ROUTED:
            with pytest.raises(DomainError) as got:
                build_solution(family, p, 1.0, 8)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("p", EDGE_ORDERS)
    def test_edges_match_frozen_classification(self, p):
        routes_like_whole_order(p)

    @settings(max_examples=400, deadline=None)
    @given(p=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.builds(lambda m, d: m + d, st.integers(-5, 200),
                  st.floats(-3 * INTEGER_TOL, 3 * INTEGER_TOL)),
        st.builds(lambda m, d: m / 2 + d, st.integers(-5, 400),
                  st.floats(-3 * INTEGER_TOL, 3 * INTEGER_TOL))))
    @example(p=-1e308)
    @example(p=-1.7976931348623157e308)
    def test_matches_frozen_classification(self, p):
        routes_like_whole_order(p)


class TestIndicial:
    """The families start at the indicial roots +-p of the equation."""

    @pytest.mark.parametrize("p", [0.0, 0.5, 2.0])
    def test_roots_are_plus_minus_p(self, p):
        plus, minus = root_series(p, 0.5)
        assert (plus.offset, minus.offset) == (p, -p)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0])
    def test_roots_annihilate_the_polynomial(self, p, alpha):
        # the three pieces are O(alpha**2 p**2) and cancel to a few ulps
        for series in root_series(p, alpha):
            assert indicial_value(series, p) == pytest.approx(0.0, abs=1e-14)

    def test_polynomial_shape(self):
        # I(r) = alpha**2 (r**2 - p**2)
        monomial = FracSeries(0.5, 3.0, (1.0,))
        assert indicial_value(monomial, 2.0) == pytest.approx(0.25 * (9.0 - 4.0))

    def test_negative_p_rejected(self):
        # the -p root is built from |p|, never from a negative order
        with pytest.raises(ValueError):
            bessel_j_series(-1.5, 0.5)
        assert bessel_j_neg_series(1.5, 0.5).offset == -1.5


class TestFirstKindSeries:
    def test_order_zero_leading_coefficients(self):
        j0 = bessel_j_series(0.0, 1.0, 8)
        assert j0.coeffs[0] == 1.0
        assert j0.coeffs[2] == pytest.approx(-0.25)
        assert j0.coeffs[4] == pytest.approx(1.0 / 64.0)

    def test_offset_equals_order(self):
        assert bessel_j_series(2.5, 0.5).offset == 2.5

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0, 2.7])
    def test_closed_form_coefficients(self, p):
        # c_{2n} = (-1)**n / (2**(2n+p) n! gamma(p+n+1))
        s = bessel_j_series(p, 1.0, 24)
        for n in range(0, 11):
            want = (-1.0) ** n / (2.0 ** (2 * n + p) * math.factorial(n)
                                  * gamma(p + n + 1.0))
            assert s.coeffs[2 * n] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 3.0, 4.2])
    def test_odd_coefficients_vanish(self, p):
        s = bessel_j_series(p, 0.7)
        assert all(c == 0.0 for c in s.coeffs[1::2])

    @pytest.mark.parametrize("p", [0.0, 0.5, 2.0, 3.3])
    def test_recurrence_identity(self, p):
        # (2n)(2n+2p) c_{2n} + c_{2n-2} == 0 up to rounding
        s = bessel_j_series(p, 1.0, 40)
        for k in range(2, 40, 2):
            lhs = s.coeffs[k] * k * (k + 2.0 * p)
            assert lhs == pytest.approx(-s.coeffs[k - 2], rel=1e-15)

    def test_successive_ratio(self):
        # c_{2n+2} / c_{2n} = -1 / (4 (n+1)(n+1+p))
        p = 2.0
        s = bessel_j_series(p, 1.0, 30)
        for n in range(0, 12):
            ratio = s.coeffs[2 * n + 2] / s.coeffs[2 * n]
            assert ratio == pytest.approx(
                -1.0 / (4.0 * (n + 1) * (n + 1 + p)), rel=1e-14)

    def test_coefficients_do_not_depend_on_alpha(self):
        a = bessel_j_series(1.5, 0.3)
        b = bessel_j_series(1.5, 1.0)
        assert a.coeffs == b.coeffs

    def test_alpha_only_rescales_the_argument(self):
        # eval at alpha equals the alpha=1 evaluation at x**alpha
        for p in (0.0, 0.5, 2.0):
            s_a = bessel_j_series(p, 0.6)
            s_1 = bessel_j_series(p, 1.0)
            for x in (0.5, 1.0, 3.0):
                assert eval_series(s_a, x).value == pytest.approx(
                    eval_series(s_1, x ** 0.6).value, rel=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(OrderCaseError):
            bessel_j_series(-0.5, 1.0)

    def test_bad_terms_rejected(self):
        with pytest.raises(ValueError, match="n_terms must be positive"):
            bessel_j_series(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="n_terms must be positive"):
            bessel_j_neg_series(2.5, 1.0, 0)

    @pytest.mark.parametrize("p", [150.0, 151.0, 160.0, 170.0, 141.3])
    def test_vanishing_leading_coefficient_rejected(self, p):
        # 2**m * m! (or gamma(p+1) * 2**p) overflows, so c0 would be 0;
        # at order 150 c0 = 1.2e-308 is subnormal and every value loses bits
        with pytest.raises(DomainError):
            bessel_j_series(p, 1.0)
        if p == int(p):
            with pytest.raises(DomainError):
                second_solution_integer_order(p, 1.0)

    def test_largest_representable_orders_still_build(self):
        # c0 of order 149 is the smallest normal one (3.7e-306); order 141.2
        # is the last fractional order whose gamma evaluates
        assert bessel_j_series(149.0, 1.0).coeffs[0] >= 2.0 ** -1022
        assert bessel_j_series(141.2, 1.0).coeffs[0] > 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_order_149_matches_mpmath(self, alpha):
        # J_149(2), at t = x**alpha = 2: 2.6e-261, through the largest
        # order with a normal leading coefficient
        x = 2.0 ** (1.0 / alpha)
        got = eval_series(bessel_j_series(149.0, alpha), x).value
        with mpmath.workdps(40):
            ref = mpmath.besselj(149, mpmath.mpf(x) ** alpha)
            assert abs((got - ref) / ref) <= 1e-15

    def test_half_order_sine_closed_form(self):
        # at alpha=0.5, x=4 the argument is x**alpha = 2
        s = bessel_j_series(0.5, 0.5)
        want = math.sqrt(1.0 / math.pi) * math.sin(2.0)
        assert eval_series(s, 4.0).value == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.51301613656182775, rel=1e-15)

    def test_near_integer_order_is_built_as_given(self):
        # offset, leading coefficient and recurrence all use the order as
        # given, not the integer 3 next to it (c0 = 1/48 there)
        p = 3.0 - 1e-10
        s = bessel_j_series(p, 1.0, 10)
        assert s.offset == p
        assert s.coeffs[0] == 1.0 / (gamma(p + 1.0) * 2.0 ** p) != 1.0 / 48.0
        with mpmath.workdps(40):
            c0 = 1 / (mpmath.gamma(mpmath.mpf(p) + 1) * 2 ** mpmath.mpf(p))
            assert abs(s.coeffs[0] - c0) <= 1e-14 * c0
        for k in range(2, 10, 2):
            assert s.coeffs[k] == -s.coeffs[k - 2] / (k * (k + 2.0 * p))


class TestNegativeOrderSeries:
    def test_offset_is_minus_p(self):
        assert bessel_j_neg_series(0.5, 1.0).offset == -0.5

    @pytest.mark.parametrize("p", [0.5, 1.5, 1.0 / 3.0, 2.7])
    def test_closed_form_coefficients(self, p):
        # c_{2n} = (-1)**n / (2**(2n-p) n! gamma(n+1-p))
        s = bessel_j_neg_series(p, 1.0, 24)
        for n in range(0, 11):
            want = (-1.0) ** n / (2.0 ** (2 * n - p) * math.factorial(n)
                                  * gamma(n + 1.0 - p))
            assert s.coeffs[2 * n] == pytest.approx(want, rel=1e-12)

    def test_corrected_second_coefficient(self):
        # recurrence gives c_2 = -c_0/(2(2-2p)); at p=1/3 that is -3 c_0/8
        s = bessel_j_neg_series(1.0 / 3.0, 1.0, 6)
        c0 = 2.0 ** (1.0 / 3.0) / gamma(2.0 / 3.0)
        assert s.coeffs[0] == pytest.approx(c0, rel=1e-13)
        assert s.coeffs[2] == pytest.approx(-3.0 * c0 / 8.0, rel=1e-13)

    @pytest.mark.parametrize("p", [0.5, 2.5, 0.8])
    def test_recurrence_identity(self, p):
        s = bessel_j_neg_series(p, 1.0, 40)
        for k in range(2, 40, 2):
            lhs = s.coeffs[k] * k * (k - 2.0 * p)
            assert lhs == pytest.approx(-s.coeffs[k - 2], rel=1e-15)

    @pytest.mark.parametrize("p", [0.5, 1.5, 2.5])
    def test_valid_at_half_odd_integer_orders(self, p):
        # 2p integer does not break the even recurrence
        s = bessel_j_neg_series(p, 1.0)
        assert all(math.isfinite(c) for c in s.coeffs)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(0, 170), as_float=st.booleans(),
           alpha=st.floats(0.0, 1.0, exclude_min=True),
           n_terms=st.integers(1, 130))
    @example(m=0, as_float=None, alpha=1.0, n_terms=8)  # -0.0
    @example(m=170, as_float=True, alpha=0.5, n_terms=130)
    def test_whole_order_is_the_sign_reduction(self, m, as_float, alpha,
                                               n_terms):
        # as_float None gives -0.0.  repr tells -0.0 from 0.0 and shows
        # every bit of a float, so this compares each field and the walk,
        # or the error and message (c0 is refused at m = 150...170)
        def outcome(build, *args):
            try:
                return repr(vars(build(*args)))
            except DomainError as exc:
                return str(exc)

        p = -0.0 if as_float is None else float(m) if as_float else m
        assert (outcome(bessel_j_neg_series, p, alpha, n_terms)
                == outcome(bessel_j_neg_integer_series, m, alpha, n_terms))

    @pytest.mark.parametrize("p", [-0.5, -1.0, -5e-324])
    def test_negative_order_rejected(self, p):
        with pytest.raises(OrderCaseError, match=r"needs p >= 0, got "):
            bessel_j_neg_series(p, 1.0)

    def test_order_below_half_an_ulp_of_one_is_order_zero(self):
        # 1 - p rounds to 1.0, where gamma is exactly 1, and k - 2p rounds
        # to k: the series is J_0's bit for bit
        assert (bessel_j_neg_series(1e-17, 1.0).coeffs
                == bessel_j_series(0.0, 1.0).coeffs)

    def test_half_order_cosine_closed_form(self):
        s = bessel_j_neg_series(0.5, 0.5)
        want = math.sqrt(1.0 / math.pi) * math.cos(2.0)
        assert eval_series(s, 4.0).value == pytest.approx(want, rel=1e-12)


class TestIntegerOrderReduction:
    def test_zero_is_identity(self):
        assert bessel_j_neg_integer_series(0, 1.0).coeffs == \
            bessel_j_series(0.0, 1.0).coeffs

    @pytest.mark.parametrize("m,sign", [(1, -1.0), (2, 1.0), (3, -1.0)])
    def test_alternating_sign(self, m, sign):
        got = bessel_j_neg_integer_series(m, 0.5)
        ref = bessel_j_series(float(m), 0.5)
        assert got.offset == ref.offset
        assert got.coeffs == tuple(sign * c for c in ref.coeffs)

    @pytest.mark.parametrize("m", [0, 2, 4.0])
    def test_even_order_is_the_first_kind_series(self, m):
        got = bessel_j_neg_integer_series(m, 0.5, 9)
        ref = bessel_j_series(float(m), 0.5, 9)
        assert got == ref and got.coeffs is ref.coeffs
        assert got._walk == ref._walk

    def test_non_integer_rejected(self):
        with pytest.raises(OrderCaseError):
            bessel_j_neg_integer_series(1.5, 1.0)


class TestSecondSolutionParams:
    """K's two free constants: the log coefficient is 1 (the log part is J_m
    itself) and ``b_0 = -2**(m-1) (m-1)! / alpha`` leads the plain part."""

    @pytest.mark.parametrize("m,alpha", [(1, 1.0), (2, 0.5), (4, 0.3)])
    def test_tying_relation_holds(self, m, alpha):
        sol = second_solution_integer_order(m, alpha)
        b0 = sol.plain_part.coeffs[0]
        lhs = -alpha * b0 / (2.0 ** (m - 1) * math.factorial(m - 1))
        assert lhs == pytest.approx(1.0, rel=1e-15)
        assert sol.log_part.coeffs == bessel_j_series(m, alpha).coeffs

    def test_unit_log_coeff_values(self):
        def b0(m, alpha):
            return second_solution_integer_order(m, alpha).plain_part.coeffs[0]

        assert b0(1, 1.0) == pytest.approx(-1.0)
        assert b0(2, 0.5) == pytest.approx(-4.0)
        assert b0(3, 1.0) == pytest.approx(-8.0)

    def test_m_below_one_rejected(self):
        for m in (-1, 0.0, 1.5):
            with pytest.raises(OrderCaseError):
                second_solution_integer_order(m, 1.0)


class TestSecondSolutionOrderZero:
    def test_log_part_is_order_zero_first_kind(self):
        sol = second_solution_order_zero(0.5)
        assert sol.log_part.coeffs == bessel_j_series(0.0, 0.5).coeffs
        assert sol.log_part.offset == 0.0

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_leading_plain_coefficients(self, alpha):
        # +1/(4 alpha) at x**(2 alpha), -3/(128 alpha) at x**(4 alpha)
        sol = second_solution_order_zero(alpha)
        plain = sol.plain_part
        assert plain.offset == 0.0
        assert plain.coeffs[0] == 0.0
        assert plain.coeffs[2] == pytest.approx(1.0 / (4.0 * alpha), rel=1e-15)
        assert plain.coeffs[4] == pytest.approx(-3.0 / (128.0 * alpha),
                                                rel=1e-15)

    def test_general_plain_coefficient(self):
        # (1/alpha) (-1)**(n+1) H_n / (2**(2n) (n!)**2)
        sol = second_solution_order_zero(1.0, 40)
        for n in range(1, 15):
            want = ((-1.0) ** (n + 1) * harmonic(n)
                    / (2.0 ** (2 * n) * math.factorial(n) ** 2))
            assert sol.plain_part.coeffs[2 * n] == pytest.approx(want,
                                                                 rel=1e-13)

    def test_odd_plain_coefficients_vanish(self):
        sol = second_solution_order_zero(0.7)
        assert all(c == 0.0 for c in sol.plain_part.coeffs[1::2])

    def test_overflowing_plain_part_is_a_domain_error(self):
        # 1/(4 alpha) overflows; with two slots the plain part is all zeros
        with pytest.raises(DomainError, match="alpha = 1e-310"):
            second_solution_order_zero(1e-310)
        assert second_solution_order_zero(1e-310, 2).plain_part.coeffs \
            == (0.0, 0.0)


class TestSecondSolutionIntegerOrder:
    def test_m1_alpha1_exact_dyadic_coefficients(self):
        # worked by hand from the recurrence: b_0=-1, b_2=-1/4, b_4=5/64
        sol = second_solution_integer_order(1, 1.0)
        plain = sol.plain_part
        assert plain.offset == -1.0
        assert plain.coeffs[0] == -1.0
        assert plain.coeffs[2] == -0.25
        assert plain.coeffs[4] == pytest.approx((1.0 / 16.0) * 2.5 / 2.0)

    def test_m2_coefficients(self):
        sol = second_solution_integer_order(2, 0.5)
        plain = sol.plain_part
        assert plain.offset == -2.0
        assert plain.coeffs[0] == pytest.approx(-4.0)      # b_0
        assert plain.coeffs[2] == pytest.approx(-1.0)      # b_0 / 4
        # pivot: -c_0 H_2 / (2 alpha) with c_0 = 1/8
        assert plain.coeffs[4] == pytest.approx(-(1.0 / 8.0) * 1.5, rel=1e-15)
        # first tail term: -c_2 (H_1 + H_3) / (2 alpha), c_2 = -1/96
        assert plain.coeffs[6] == pytest.approx(
            (1.0 / 96.0) * (1.0 + 11.0 / 6.0), rel=1e-14)

    def test_log_part_is_order_m_first_kind(self):
        sol = second_solution_integer_order(3, 0.5)
        assert sol.log_part.coeffs == bessel_j_series(3.0, 0.5).coeffs

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tail_matches_harmonic_sum_formula(self, m):
        # b_{2m+2n} = -c_{2n} (H_n + H_{m+n}) / (2 alpha)
        alpha = 0.75
        sol = second_solution_integer_order(m, alpha, 40)
        log_c = sol.log_part.coeffs
        plain_c = sol.plain_part.coeffs
        for n in range(1, 12):
            want = -log_c[2 * n] * (harmonic(n) + harmonic(m + n)) \
                / (2.0 * alpha)
            assert plain_c[2 * m + 2 * n] == pytest.approx(want, rel=1e-13)

    def test_pivot_takes_the_plain_running_sum(self):
        # at alpha = 1/2 the pivot is exactly c_0 * -H_m, with H_m summed
        # left to right and uncompensated; a compensated sum (the builtin
        # sum() on Python 3.12+) moves the last bit of H_m, first at m = 4
        h = 0.0
        for m in range(1, 150):
            h += 1.0 / m
            sol = second_solution_integer_order(m, 0.5, 1)
            want = sol.log_part.coeffs[0] * -h
            assert sol.plain_part.coeffs[2 * m].hex() == want.hex(), m

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_chain_end_consistent_with_tying_relation(self, m):
        # the last chain coefficient must satisfy b_{2m-2} = -2 m c_0 / alpha,
        # the bridge between the negative-power block and the log scale
        alpha = 0.6
        sol = second_solution_integer_order(m, alpha, 20)
        b_last = sol.plain_part.coeffs[2 * (m - 1)]
        c0 = 1.0 / (2.0 ** m * math.factorial(m))
        assert b_last == pytest.approx(-2.0 * m * c0 / alpha, rel=1e-14)

    def test_odd_coefficients_vanish(self):
        sol = second_solution_integer_order(2, 0.9)
        assert all(c == 0.0 for c in sol.plain_part.coeffs[1::2])

    def test_m_below_one_rejected(self):
        with pytest.raises(OrderCaseError):
            second_solution_integer_order(0, 1.0)


def b_chain(m, alpha=0.7):
    """K's negative-power block ``b_{2j} / b_0``, j = 0..m-1."""
    plain = second_solution_integer_order(m, alpha, 10).plain_part.coeffs
    return [plain[2 * j] / plain[0] for j in range(m)]


class TestBChain:
    def test_m1_is_single_entry(self):
        # at m = 1 the block is b_0 alone; slot 2 already holds the pivot
        alpha = 0.7
        sol = second_solution_integer_order(1, alpha)
        assert b_chain(1) == [1.0]
        assert sol.plain_part.coeffs[1] == 0.0
        assert sol.plain_part.coeffs[2] == \
            -sol.log_part.coeffs[0] * harmonic(1) / (2.0 * alpha)

    def test_m2_and_m3_values(self):
        assert b_chain(2) == [1.0, 0.25]
        assert b_chain(3) == [1.0, 0.125, 1.0 / 64.0]

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_closed_form(self, m):
        # b_{2j}/b_0 = (m-j-1)! / (2**(2j) j! (m-1)!)
        for j, r in enumerate(b_chain(m)):
            want = (math.factorial(m - j - 1)
                    / (2.0 ** (2 * j) * math.factorial(j)
                       * math.factorial(m - 1)))
            assert r == pytest.approx(want, rel=1e-14)

    def test_invalid_m_rejected(self):
        with pytest.raises(OrderCaseError):
            second_solution_integer_order(2.5, 1.0)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(min_value=0.0, max_value=6.0),
           alpha=st.floats(min_value=0.1, max_value=1.0))
    @example(p=2.0 + 9e-10, alpha=0.5)
    def test_first_kind_recurrence_everywhere(self, p, alpha):
        # the first kind is built at the order given, near-integers too
        s = bessel_j_series(p, alpha, 24)
        assert s.offset == p
        for k in range(2, 24, 2):
            residue = s.coeffs[k] * k * (k + 2.0 * p) + s.coeffs[k - 2]
            assert abs(residue) <= 1e-15 * abs(s.coeffs[k - 2])

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(min_value=0.0, max_value=4.0),
           alpha=st.floats(min_value=0.1, max_value=1.0))
    @example(p=2.0 + 9e-10, alpha=0.5)
    def test_indicial_roots_annihilate(self, p, alpha):
        # J sits at +p and Jneg at -p as given, near-integers too; at a
        # whole order the -p root is the integer constructions'
        plus, minus = root_series(p, alpha)
        assert (plus.offset, minus.offset) == (p, -p)
        assert indicial_value(plus, p) == pytest.approx(0.0, abs=1e-12)
        assert indicial_value(minus, p) == pytest.approx(0.0, abs=1e-12)


# Frozen reference: the four constructors as they stood before the shared
# even-term recurrence, each with its own copy of the coefficient loop.  The
# rewrite must reproduce their coefficient bytes and their errors, except
# that a subnormal leading coefficient (integer order 150) is now refused.

def _ref_factorial(m):
    if m > 170:
        raise DomainError(f"integer order too large: m! overflows a double "
                          "for m > 170")
    return float(math.factorial(m))


def _ref_leading(c0, p):
    if c0 == 0.0 or not math.isfinite(c0):
        raise DomainError(f"order {p:g} too large: the leading coefficient "
                          "is not representable as a double")
    return c0


def ref_bessel_j_series(p, alpha, n_terms):
    if p < 0.0:
        raise OrderCaseError(
            f"first-kind series needs p >= 0, got {p}; use "
            "bessel_j_neg_series or bessel_j_neg_integer_series for -p"
        )
    if n_terms < 1:
        raise ValueError(f"n_terms must be positive, got {n_terms}")
    order = classify_order(p)
    if order.kind is OrderKind.ZERO:
        p = 0.0
        c0 = 1.0
    elif order.kind is OrderKind.POSITIVE_INTEGER:
        p = float(order.m)
        c0 = 1.0 / (_ref_factorial(order.m) * 2.0 ** order.m)
    else:
        c0 = 1.0 / (gamma(p + 1.0) * 2.0 ** p)
    coeffs = [0.0] * n_terms
    coeffs[0] = _ref_leading(c0, p)
    for k in range(2, n_terms, 2):
        coeffs[k] = -coeffs[k - 2] / (k * (k + 2.0 * p))
    return FracSeries(alpha, float(p), tuple(coeffs))


def ref_bessel_j_neg_series(p, alpha, n_terms):
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
    g = gamma(1.0 - p)
    coeffs = [0.0] * n_terms
    coeffs[0] = _ref_leading(2.0 ** p / g, -p)
    for k in range(2, n_terms, 2):
        coeffs[k] = -coeffs[k - 2] / (k * (k - 2.0 * p))
    return FracSeries(alpha, -float(p), tuple(coeffs))


def ref_second_solution_order_zero(alpha, n_terms):
    al = checked_alpha(alpha)
    log_part = ref_bessel_j_series(0.0, al, n_terms)
    coeffs = [0.0] * n_terms
    scale = 1.0
    h = 0.0
    sign = 1.0
    for n in range(1, (n_terms - 1) // 2 + 1):
        scale /= 4.0 * n * n
        h += 1.0 / n
        coeffs[2 * n] = sign * h * scale / al
        sign = -sign
    return LogSolution(log_part, FracSeries(al, 0.0, tuple(coeffs)))


def ref_second_solution_integer_order(m, alpha, n_terms):
    if m < 1 or m != int(m):
        raise OrderCaseError(
            f"integer-order second solution needs integer m >= 1, got {m}"
        )
    m = int(m)
    a = al = checked_alpha(alpha)
    log_part = ref_bessel_j_series(float(m), al, n_terms)

    # second_solution_params(m, al, log_coeff=1.0)
    fact = _ref_factorial(m - 1)
    b0 = -1.0 * 2.0 ** (m - 1) * fact / a
    if not math.isfinite(b0):
        raise DomainError(f"order {m} too large: the leading coefficient "
                          "overflows a double")
    length = 2 * m + n_terms
    coeffs = [0.0] * length

    # b_chain_ratios(m)
    ratios = [1.0]
    value = 1.0
    for j in range(1, m):
        value /= 4.0 * j * (m - j)
        ratios.append(value)
    for j, ratio in enumerate(ratios):
        coeffs[2 * j] = b0 * ratio

    c0 = 1.0 / (_ref_factorial(m) * 2.0 ** m)
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


def _bytes(series):
    return struct.pack(f"<d{len(series.coeffs)}d", series.offset,
                       *series.coeffs)


def _outcome(build, *args):
    """Coefficient and offset bytes of the result, or the error raised."""
    try:
        result = build(*args)
    except Exception as exc:  # the error type and message are compared
        return type(exc), str(exc)
    if isinstance(result, LogSolution):
        return _bytes(result.log_part), _bytes(result.plain_part)
    return _bytes(result)


def generic_outcome(build, *args):
    """``_outcome(build, *args)`` with the frozen classification taking
    every order for GENERIC: the frozen route of a non-integral order,
    which the first kind now takes at every order."""
    def generic(p):
        return BesselOrder(float(p), OrderKind.GENERIC)

    with patch.dict(globals(), classify_order=generic):
        return _outcome(build, *args)


def snapped(order):
    """Whether the frozen routing took ``order`` for an integer it is not:
    the snap that the package no longer makes."""
    return (ref_integer_order(order) is not None
            and not float(order).is_integer())


FAMILIES = [
    (bessel_j_series, ref_bessel_j_series),
    (bessel_j_neg_series, ref_bessel_j_neg_series),
    (lambda p, a, n: second_solution_order_zero(a, n),
     lambda p, a, n: ref_second_solution_order_zero(a, n)),
    (second_solution_integer_order, ref_second_solution_integer_order),
]

orders = st.one_of(
    st.integers(0, 172).map(float),
    st.integers(0, 172).map(lambda m: m + 0.5),
    st.floats(0.0, 145.0),
)
term_counts = st.one_of(st.sampled_from([1, 2, 3, 120]),
                        st.integers(0, 150).map(lambda k: 2 * k + 1))
alphas = st.floats(0.0, 1.0, exclude_min=True)


class TestFrozenReference:
    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(range(len(FAMILIES))), p=orders,
           alpha=alphas, n_terms=term_counts)
    @example(family=3, p=149.0, alpha=1e-6, n_terms=3)  # b_0 overflows
    @example(family=3, p=1.0, alpha=1e-310, n_terms=3)  # and at m = 1
    @example(family=1, p=141.5, alpha=1.0, n_terms=120)
    @example(family=0, p=171.0, alpha=1.0, n_terms=1)
    @example(family=2, p=0.0, alpha=5e-324, n_terms=3)  # 1/(4 alpha) overflows
    @example(family=2, p=0.0, alpha=0.5, n_terms=175)  # subnormal numerators
    @example(family=0, p=5e-324, alpha=0.5, n_terms=3)  # near-integer orders
    @example(family=0, p=2.0000000009, alpha=0.5, n_terms=120)
    @example(family=0, p=3.0 - 1e-10, alpha=1.0, n_terms=1)
    @example(family=0, p=145.0 + 1e-10, alpha=0.5, n_terms=3)  # now refused
    @example(family=1, p=3.0 + 1e-10, alpha=1.0, n_terms=40)
    @example(family=1, p=145.0 + 1e-10, alpha=0.5, n_terms=3)
    def test_coefficients_and_errors_match_bit_for_bit(self, family, p,
                                                       alpha, n_terms):
        build, ref = FAMILIES[family]
        got = _outcome(build, p, alpha, n_terms)
        want = _outcome(ref, p, alpha, n_terms)
        if family in (0, 1) and snapped(p):
            # an intended change: J and Jneg are built at a near-integer
            # order as given, as the frozen builders built every
            # non-integral order (the frozen Jneg refused a near-integer
            # m >= 1, and built one near 0 as given)
            assert got == generic_outcome(ref, p, alpha, n_terms)
            assert got != want or family == 1 and p < 0.5
            if p > 142.0:
                # past about 141.2 gamma(p + 1), or gamma(1 - p) through
                # the reflection, overflows the Lanczos evaluation, where
                # the frozen snap took m! exactly
                assert got[0] is DomainError
        elif family == 1 and p.is_integer():
            # another: Jneg at a whole p is the sign reduction, which the
            # frozen builder refused ("reduces to a signed first-kind
            # series" at m >= 1, "needs p > 0" at 0)
            assert got == _outcome(bessel_j_neg_integer_series, int(p),
                                   alpha, n_terms)
            assert want[0] is OrderCaseError
        elif p == 150.0 and family in (0, 3):
            # an intended change: c0 = 1.2e-308 is subnormal
            assert got[0] is DomainError
            assert isinstance(_outcome(ref_bessel_j_series, p, alpha, n_terms),
                              bytes)
        elif family == 2 and want == (ValueError, "non-finite coefficient inf"):
            # another: at alpha below about 1.4e-309 the plain part of
            # y2zero overflows, which is now a DomainError
            assert got[0] is DomainError
        elif family == 3 and want == (
                DomainError, f"order {p:g} too large: the leading "
                             "coefficient overflows a double"):
            # and a third: b_0 overflows only through a small alpha at the
            # orders that reach it, so the message names alpha as well
            assert got == (DomainError, f"alpha = {alpha:g} is too small for "
                                        f"order {p:g}: the leading "
                                        "coefficient overflows a double")
        elif family == 2 and got != want:
            # and a fourth: y2zero is K at m = 0, whose tail
            # (-c (2 H_n)) / (2 alpha) rounds otherwise than (-c H_n) / alpha
            # where the numerator -c_{2n} H_n is subnormal (n = 87, 88)
            assert_y2zero_is_k_at_zero(alpha, n_terms)
        else:
            assert got == want


def assert_y2zero_is_k_at_zero(alpha, n_terms):
    """The frozen y2zero's bytes, but for plain slots whose numerator
    ``-c_{2n} H_n`` is subnormal, and the same values at three points."""
    got = second_solution_order_zero(alpha, n_terms)
    want = ref_second_solution_order_zero(alpha, n_terms)
    assert _bytes(got.log_part) == _bytes(want.log_part)
    plain, ref = got.plain_part, want.plain_part
    assert struct.pack("<d", plain.offset) == struct.pack("<d", ref.offset)
    c = want.log_part.coeffs
    for k, (g, w) in enumerate(zip(plain.coeffs, ref.coeffs, strict=True)):
        numerator = -c[k] * harmonic(k // 2)
        if k % 2 or not 0.0 < abs(numerator) < sys.float_info.min:
            assert struct.pack("<d", g) == struct.pack("<d", w), k
    for x in (0.5, 2.0, 10.0):
        assert (struct.pack("<dqd", *eval_log_solution(got, x))
                == struct.pack("<dqd", *eval_log_solution(want, x))), x


def ref_build_solution(family, order, alpha, terms):
    """``cli.build_solution`` as it stood, on the frozen classification."""
    if family == "J":
        return ref_bessel_j_series(order, alpha, terms)
    if family == "Jneg":
        kind = classify_order(order)
        if kind.kind in (OrderKind.ZERO, OrderKind.POSITIVE_INTEGER):
            return bessel_j_neg_integer_series(kind.m or 0, alpha, terms)
        return ref_bessel_j_neg_series(order, alpha, terms)
    if family == "y2zero":
        return ref_second_solution_order_zero(alpha, terms)
    if family == "K":
        kind = classify_order(order)
        if kind.kind is not OrderKind.POSITIVE_INTEGER:
            raise UsageError(
                f"family K requires an integer order >= 1, got {order:g}")
        return ref_second_solution_integer_order(kind.m, alpha, terms)
    raise UsageError(f"unknown family {family!r}")


class TestCliRouting:
    # "Q" is refused by argparse's choices before it reaches build_solution;
    # a library caller gets the same usage error as the frozen routing
    @pytest.mark.parametrize("family", ["J", "Jneg", "y2zero", "K", "Q"])
    @pytest.mark.parametrize("order", [
        0.0, 5e-10, -5e-10, 1.0, 2.0 - 1e-10, 0.5, 2.5, 3.0 + 1e-6, -1.0,
        170.5])
    def test_build_solution_matches_frozen_routing(self, family, order):
        got = _outcome(build_solution, family, order, 0.7, 40)
        want = _outcome(ref_build_solution, family, order, 0.7, 40)
        if family == "y2zero" and order != 0.0:
            # an intended change: y2zero used to ignore the order
            assert isinstance(want[0], bytes)
            assert got == (UsageError, "family y2zero takes --order 0 only, "
                                       f"got {ref_order_text(order)}")
        elif family == "K" and not (order.is_integer() and order >= 1.0):
            # and another: K refuses a near-integer order too, and names an
            # order that :g would round (3.000001) by its repr
            assert got == (UsageError, "family K requires an integer order "
                                       f">= 1, got {ref_order_text(order)}")
            assert (got == want) == (ref_order_text(order) == f"{order:g}")
        elif family == "Jneg" and order < 0.0:
            # and a fourth: bessel_j_neg_series takes every p >= 0, so its
            # refusal of a negative order says "p >= 0" where the frozen
            # builder, taking the order as given, said "p > 0"
            message = "negative-order series needs p {} 0, got " + str(order)
            assert (generic_outcome(ref_build_solution, family, order, 0.7, 40)
                    == (OrderCaseError, message.format(">")))
            assert got == (OrderCaseError, message.format(">="))
        elif snapped(order) and (family == "Jneg"
                                 or family == "J" and order > 0.0):
            # and a third: J and Jneg are built at a near-integer order as
            # given (J refuses -5e-10 as it did)
            assert got != want
            assert got == generic_outcome(ref_build_solution, family, order,
                                          0.7, 40)
        else:
            assert got == want


# The series algebra as it stood before the producers built only their walked
# slots: every slot computed, and the result validated by FracSeries.

def ref_series_scale(a, k):
    return FracSeries(a.alpha, a.offset, tuple(k * c for c in a.coeffs))


def ref_conformable_diff_exact(a):
    al = a.alpha
    r = a.offset
    return FracSeries(a.alpha, r - 1.0,
                      tuple(al * (n + r) * c for n, c in enumerate(a.coeffs)))


def _parts(solution):
    if isinstance(solution, LogSolution):
        return [solution.log_part, solution.plain_part]
    return [solution]


def ref_family(family, order, alpha, n_terms):
    """The frozen build of ``build_solution(family, order, ...)``."""
    if family == "J":
        return ref_bessel_j_series(order, alpha, n_terms)
    if family == "Jneg" and ref_integer_order(order) is None:
        return ref_bessel_j_neg_series(order, alpha, n_terms)
    if family == "Jneg":
        m = ref_integer_order(order)
        return ref_series_scale(ref_bessel_j_series(float(m), alpha, n_terms),
                                -1.0 if m % 2 else 1.0)
    if family == "y2zero":
        return ref_second_solution_order_zero(alpha, n_terms)
    return ref_second_solution_integer_order(int(order), alpha, n_terms)


WALK_ORDERS = (0.0, 0.5, 1.0, 2.5, 3.0, 149.0)
WALK_CASES = ([("J", p) for p in WALK_ORDERS]
              + [("Jneg", p) for p in WALK_ORDERS]
              + [("y2zero", 0.0)]
              + [("K", p) for p in WALK_ORDERS if p >= 1 and p == int(p)])
SCALES = (2.5, -1.0, -0.3, 0.0)


def _algebra(series, diff, scale):
    """The series itself, its derivative and its scalings by SCALES."""
    return [series, diff(series)] + [scale(series, k) for k in SCALES]


def assert_walk_built(got, want, every_slot_input=False):
    """``got`` holds ``want``'s walked slots bit for bit and +0.0 elsewhere,
    and records the walk the validating constructor derives.

    Only from an input that walks every slot can a producer record the
    even walk with odd slots it computed (``k = 0``, or ``n + r = 0`` at
    the last nonzero odd slot); those keep the bits of the dense builders.
    """
    slots, stride = got._walk
    rebuilt = FracSeries(got.alpha, got.offset, got.coeffs)
    assert got == rebuilt and got._walk == rebuilt._walk
    assert (got.alpha, got.offset) == (want.alpha, want.offset)
    assert len(got.coeffs) == len(want.coeffs)
    walked = range(0, len(got.coeffs), stride)
    assert ([c.hex() for c in slots] == [got.coeffs[n].hex() for n in walked]
            == [want.coeffs[n].hex() for n in walked])
    for n in range(len(got.coeffs)):
        if n not in walked:
            assert want.coeffs[n] == 0.0
            assert got.coeffs[n].hex() == "0x0.0p+0" or (
                every_slot_input
                and got.coeffs[n].hex() == want.coeffs[n].hex())


class TestWalkBuilt:
    """The constructors and the series algebra compute only the walked
    slots; the result is the dense one of the frozen builders above."""

    @pytest.mark.parametrize("family, order", WALK_CASES)
    def test_matches_dense_formulas(self, family, order):
        for alpha in (0.3, 0.8, 1.0):
            for n_terms in (1, 2, 3, 30, 60, 121):
                got = build_solution(family, order, alpha, n_terms)
                want = ref_family(family, order, alpha, n_terms)
                for g, w in zip(_parts(got), _parts(want), strict=True):
                    for gs, ws in zip(
                            _algebra(g, conformable_diff_exact, series_scale),
                            _algebra(w, ref_conformable_diff_exact,
                                     ref_series_scale)):
                        assert_walk_built(gs, ws, g._walk[1] == 1)

    @pytest.mark.parametrize("series", [
        FracSeries(1.0, 0.0, (1.0, 0.0, -2.0)),  # even walk
        # odd slots only: every slot
        series_shift(FracSeries(0.5, 0.0, (1.0, 0.0, -2.0)), 1),
        FracSeries(0.5, 0.0, (1.0, 3.0, -2.0, 0.0, 0.0)),  # every slot
        FracSeries(0.5, -1.0, (1.0, 3.0, 0.0, 4.0)),  # n + r = 0 at n = 1
        # n + r = 0 at the only odd slot: the derivative walks its even slots
        FracSeries(0.5, -1.0, (1.0, -3.0)),
    ], ids=["even", "odd", "every", "every-zeroed", "every-to-even"])
    def test_algebra_on_each_walk(self, series):
        for got, want in zip(
                _algebra(series, conformable_diff_exact, series_scale),
                _algebra(series, ref_conformable_diff_exact,
                         ref_series_scale)):
            assert_walk_built(got, want, series._walk[1] == 1)

    def test_walk_follows_the_constructor_rule(self):
        # n + r = 0 zeroes slot 0: every slot in, every slot out
        d = conformable_diff_exact(FracSeries(1.0, 0.0, (1.0, 2.0)))
        assert d.coeffs == (0.0, 2.0) and d._walk == ((0.0, 2.0), 1)
        # n + r = 0 zeroes slot 1: every slot in, even slots out
        d = conformable_diff_exact(FracSeries(1.0, -1.0, (1.0, 2.0)))
        assert d.coeffs == (-1.0, 0.0) and d._walk == ((-1.0,), 2)
        # k = 0 on odd slots: the even walk, as the constructor derives
        z = series_scale(series_shift(FracSeries(1.0, 0.0, (1.0,)), 1), 0.0)
        assert z._walk == ((0.0,), 2)

    @pytest.mark.parametrize("series", [
        FracSeries(1.0, 2.0, (1e308, 0.0, 1e308)),
        series_shift(FracSeries(1.0, 2.0, (1e308,)), 1),
        FracSeries(1.0, 2.0, (1e308, 1e308)),
        FracSeries(1.0, 0.0, (1.0, 0.0, -1e308)),
    ])
    @pytest.mark.parametrize("op, ref_op", [
        (conformable_diff_exact, ref_conformable_diff_exact),
        (lambda s: series_scale(s, -1e10),
         lambda s: ref_series_scale(s, -1e10)),
    ], ids=["diff", "scale"])
    def test_overflow_keeps_its_message(self, series, op, ref_op):
        got = _outcome(op, series)
        assert got[0] is ValueError
        assert got == _outcome(ref_op, series)

    @pytest.mark.parametrize("build, message", [
        (lambda: second_solution_order_zero(1e-310, 60),
         "alpha = 1e-310 is too small: the plain part's coefficients "
         "overflow a double"),
        (lambda: second_solution_integer_order(1, 1e-310, 60),
         "alpha = 1e-310 is too small for order 1: the leading coefficient "
         "overflows a double"),
        (lambda: second_solution_integer_order(3, 1e-310, 3),
         "alpha = 1e-310 is too small for order 3: the leading coefficient "
         "overflows a double"),
    ])
    def test_small_alpha_keeps_its_message(self, build, message):
        assert _outcome(build) == (DomainError, message)

    def test_producers_never_run_the_validating_init(self, monkeypatch):
        inputs = [series_shift(FracSeries(1.0, 0.0, (1.0, 0.0, 2.0)), 1),
                  FracSeries(1.0, 0.5, (1.0, 2.0))]

        def refuse(self, *args, **kwargs):
            raise AssertionError("FracSeries.__init__ ran")

        monkeypatch.setattr(FracSeries, "__init__", refuse)
        for family, order in WALK_CASES:
            inputs += _parts(build_solution(family, order, 0.7, 30))
        for s in inputs:
            series_scale(conformable_diff_exact(s), -2.0)


class TestTableCache:
    """Each family's alpha-free table is built once per (order, n_terms);
    a build from the cache is the frozen builders' result bit for bit."""

    def test_cold_and_warm_builds_match_the_frozen_builders(self):
        _table.cache_clear()
        for alpha in (0.3, 0.8, 1.0):
            for family, order in WALK_CASES:
                for n_terms in (1, 2, 3, 60, 121):
                    got = build_solution(family, order, alpha, n_terms)
                    want = ref_family(family, order, alpha, n_terms)
                    for g, w in zip(_parts(got), _parts(want), strict=True):
                        assert_walk_built(g, w)
            if alpha == 0.3:
                cold = _table.cache_info()
                assert cold.misses == cold.currsize > 0
        warm = _table.cache_info()
        assert warm.misses == cold.misses and warm.hits > cold.hits

    @pytest.mark.parametrize("build", [bessel_j_series, bessel_j_neg_series])
    def test_first_kind_tables_are_shared_across_alpha(self, build):
        family = "J" if build is bessel_j_series else "Jneg"
        for n_terms in (1, 2, 60, 121):
            # the entry is the classical series: the constructor's at alpha 1
            entry = _table(family, 2.5, n_terms)
            assert entry == build(2.5, 1.0, n_terms) and entry.alpha == 1.0
            assert entry._walk == (entry.coeffs[::2], 2)
            for alpha in (1e-300, 0.3, 0.8, 1.0):
                s = build(2.5, alpha, n_terms)
                assert s.alpha == alpha and s.offset == entry.offset
                assert s.coeffs is entry.coeffs
                assert s._walk[0] is entry._walk[0] and s._walk[1] == 2

    def test_equal_orders_share_one_table(self):
        # equal orders of any type share an entry, and -0.0 is 0.0 (+0.0
        # offset even on a cold cache); a near-integer order has its own
        _table.cache_clear()
        zeros = [bessel_j_series(p, 0.5) for p in (-0.0, 0.0, False)]
        assert [s.offset.hex() for s in zeros] == ["0x0.0p+0"] * 3
        built = [bessel_j_series(p, 0.5) for p in (1.0, True, 1)]
        entry = _table("J", 1.0, 60)
        assert all(s.coeffs is entry.coeffs for s in built)
        assert all(s._walk[0] is entry._walk[0] for s in built)
        assert [s.offset.hex() for s in built] == ["0x1.0000000000000p+0"] * 3
        near = [bessel_j_series(p, 0.5) for p in (1 + 1e-10, 1e-10)]
        assert [s.offset for s in near] == [1 + 1e-10, 1e-10]
        assert near[0].coeffs != entry.coeffs
        assert near[1].coeffs != zeros[0].coeffs
        assert _table.cache_info().currsize == 4

    @pytest.mark.parametrize("build, tables", [
        (lambda: bessel_j_series(150, 1.0), 0),
        (lambda: bessel_j_series(171, 1.0), 0),
        (lambda: bessel_j_neg_integer_series(171, 1.0), 0),
        (lambda: second_solution_integer_order(150, 1.0), 0),
        # the alpha-free tables are valid: only the alpha step overflows
        (lambda: second_solution_order_zero(1e-310, 60), 2),
        (lambda: second_solution_integer_order(1, 1e-310, 60), 2),
        (lambda: second_solution_integer_order(149, 1e-6, 3), 2),
    ], ids=["J-150", "J-171", "Jneg-171", "K-150", "y2zero-alpha",
            "K-1-alpha", "K-149-alpha"])
    def test_refusals_are_raised_every_time_and_not_cached(self, build,
                                                           tables):
        _table.cache_clear()
        first = _outcome(build)
        assert first[0] is DomainError and _outcome(build) == first
        assert _table.cache_info().currsize == tables

    def test_the_cache_is_bounded(self):
        _table.cache_clear()
        for k in range(100):
            bessel_j_series(k + 0.5, 1.0, 10)
        info = _table.cache_info()
        assert info.misses == 100 and info.currsize == info.maxsize == 64


#: The five constructors, each with its term count as the argument.
BY_COUNT = {
    "J": lambda n: bessel_j_series(0.5, 0.5, n),
    "Jneg": lambda n: bessel_j_neg_series(0.5, 0.5, n),
    "neg-integer": lambda n: bessel_j_neg_integer_series(3, 0.5, n),
    "y2zero": lambda n: second_solution_order_zero(0.5, n),
    "K": lambda n: second_solution_integer_order(2, 0.5, n),
}


class TestWholeNumbers:
    """A term count or an integer order is read as a number, as every
    other argument is: a whole value of any type is its int."""

    @pytest.mark.parametrize("name", BY_COUNT)
    def test_a_whole_float_count_is_the_int(self, name):
        # the float comes first, to a cold cache: the int then finds the
        # entries the float made
        _table.cache_clear()
        got = _outcome(BY_COUNT[name], 60.0)
        entries = _table.cache_info().currsize
        assert got == _outcome(BY_COUNT[name], 60)
        info = _table.cache_info()
        assert info.currsize == entries > 0 and info.hits > 0

    @pytest.mark.parametrize("name", BY_COUNT)
    def test_a_fractional_count_is_a_value_error(self, name):
        # NaN and +-inf are in tests/test_checks.py's refusal tests
        with pytest.raises(ValueError) as info:
            BY_COUNT[name](2.5)
        assert type(info.value) is ValueError
        assert str(info.value) == "n_terms must be positive, got 2.5"

    @pytest.mark.parametrize("m", ["2", "3", 3.0, True])
    @pytest.mark.parametrize("build", [bessel_j_neg_integer_series,
                                       second_solution_integer_order])
    def test_a_whole_order_of_any_type_is_the_int(self, build, m):
        assert _outcome(build, m, 0.5) == _outcome(build, int(float(m)), 0.5)
