"""Tests for the solution-family constructors and the routing of orders
to them."""

import math
import struct
import sys

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
    eval_series,
    gamma,
    second_solution_integer_order,
    second_solution_order_zero,
    series_scale,
)
from confbessel.bessel import _table
from confbessel.cli import FAMILIES, UsageError, build_solution
from confbessel.errors import DomainError, OrderCaseError

SQRT_PI = math.sqrt(math.pi)


def harmonic(n):
    """Harmonic number ``H_n`` with ``H_0 = 0``, summed left to right."""
    h = 0.0
    for k in range(1, n + 1):
        h += 1.0 / k
    return h


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


#: Orders on, near and between the whole numbers, on both sides of 0.
ORDERS = [0.0, -0.0, 5e-10, -5e-10, 5e-324, -5e-324, 1.0, 2.0, 7.0,
          1.0 + 1e-9, 2.0 - 1e-10, 3.0 + 1e-6, 0.5, 1.5, 7.5, 1.0 / 3.0,
          math.pi, 149.0, 171.0, 1e300, -1.0, -7.0]

Y2ZERO_ONLY = "family y2zero takes --order 0 only, got "
K_WHOLE = "family K requires an integer order >= 1, got "


class TestBuildSolution:
    """``build_solution`` hands J and Jneg their order as given, and takes
    y2zero and K at exact whole orders only: 0 for y2zero, m >= 1 for K.
    No order is taken for an integer it is not, however near."""

    @pytest.mark.parametrize("p", ORDERS)
    def test_first_kinds_take_the_order_as_given(self, p):
        for family, build in (("J", bessel_j_series),
                              ("Jneg", bessel_j_neg_series)):
            assert (_outcome(build_solution, family, p, 0.7, 8)
                    == _outcome(build, p, 0.7, 8))

    @pytest.mark.parametrize("family, p, text", [
        # the order as :g writes it where that reads back as the order,
        # else its repr
        *[(family, p, text) for family in ("y2zero", "K") for p, text in (
            (0.5, "0.5"), (-1.0, "-1"), (5e-10, "5e-10"), (-5e-10, "-5e-10"),
            (2.9999999999, "2.9999999999"), (3.000001, "3.000001"),
            (5e-324, "4.94066e-324"), (-1e308, "-1e+308"))],
        ("y2zero", 5.0, "5"), ("y2zero", 1e300, "1e+300"),
        ("K", 0.0, "0"), ("K", -0.0, "-0"),
    ])
    def test_refusals_name_the_order(self, family, p, text):
        prefix = Y2ZERO_ONLY if family == "y2zero" else K_WHOLE
        assert (_outcome(build_solution, family, p, 0.7, 8)
                == (UsageError, prefix + text))

    @pytest.mark.parametrize("p", [1.0, -1.0, math.nan])
    def test_an_unknown_family_is_refused_before_its_order(self, p):
        assert (_outcome(build_solution, "Q", p, 0.7, 8)
                == (UsageError, "unknown family 'Q'"))

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_orders_are_refused(self, p):
        for family in FAMILIES:
            assert (_outcome(build_solution, family, p, 0.7, 8)
                    == (DomainError, f"order must be finite, got {p}")), family

    @settings(max_examples=200, deadline=None)
    @given(p=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.builds(lambda m, d: m / 2 + d, st.integers(-5, 400),
                  st.floats(-3e-9, 3e-9))))
    @example(p=-1.7976931348623157e308)
    @example(p=0.0)
    @example(p=-0.0)
    @example(p=1.0)
    @example(p=149.0)
    @example(p=150.0)  # c0 is subnormal, and refused
    def test_log_families_route_on_exact_whole_orders(self, p):
        y2zero = _outcome(build_solution, "y2zero", p, 0.7, 8)
        k = _outcome(build_solution, "K", p, 0.7, 8)
        if p == 0.0:
            assert y2zero == _outcome(second_solution_order_zero, 0.7, 8)
        else:
            assert y2zero[0] is UsageError
            assert_names_the_order(y2zero[1], Y2ZERO_ONLY, p)
        if p.is_integer() and p >= 1.0:
            assert k == _outcome(second_solution_integer_order, int(p), 0.7,
                                 8)
        else:
            assert k[0] is UsageError
            assert_names_the_order(k[1], K_WHOLE, p)


def assert_names_the_order(message, prefix, p):
    """``message`` is ``prefix`` and then p written to read back as p."""
    assert message.startswith(prefix)
    text = message.removeprefix(prefix)
    assert text in (f"{p:g}", repr(p)) and float(text) == p


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

    @pytest.mark.parametrize("p", [-0.5, -1, "-1", -5e-324])
    def test_negative_order_rejected(self, p):
        # the order as given, and the one constructor for order -p
        with pytest.raises(OrderCaseError) as info:
            bessel_j_series(p, 1.0)
        assert str(info.value) == (f"first-kind series needs p >= 0, got "
                                   f"{p}; use bessel_j_neg_series for -p")

    def test_order_is_read_before_it_is_compared(self):
        # as bessel_j_neg_series reads it: a numeric string is a number,
        # and -inf is not finite before it is negative
        assert bessel_j_series("1", 0.5) == bessel_j_series(1.0, 0.5)
        assert bessel_j_neg_series("1.5", 0.5) == bessel_j_neg_series(1.5, 0.5)
        for p in (-math.inf, -10**400):
            for build in (bessel_j_series, bessel_j_neg_series):
                with pytest.raises(DomainError) as info:
                    build(p, 0.5)
                assert str(info.value) == "order must be finite, got -inf"

    def test_bad_terms_rejected(self):
        with pytest.raises(ValueError, match="n_terms must be positive"):
            bessel_j_series(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="n_terms must be positive"):
            bessel_j_neg_series(2.5, 1.0, 0)

    def test_largest_representable_orders_still_build(self):
        # c0 of order 149 is the smallest normal one (3.7e-306); order 141.2
        # is the last fractional order whose gamma evaluates
        assert bessel_j_series(149.0, 1.0).coeffs[0] >= 2.0 ** -1022
        assert bessel_j_series(141.2, 1.0).coeffs[0] > 0.0

    @pytest.mark.parametrize("build, p, message", [
        # 2**m * m! overflows from 151, so c0 would be 0; at order 150
        # c0 = 1.2e-308 is subnormal and every value loses bits
        *[(build, p, f"order {p:g} too large: the leading coefficient is "
                     "not representable as a double")
          for build in (bessel_j_series, bessel_j_neg_series,
                        second_solution_integer_order)
          for p in (150, 151.0, 160, 170.0)],
        # (m - 1)! is exact to 171, but m! overflows
        *[(build, 171, "integer order too large: m! overflows a double for "
                       "m > 170")
          for build in (bessel_j_series, bessel_j_neg_series,
                        bessel_j_neg_integer_series,
                        second_solution_integer_order)],
        # past about 141.2 gamma(p + 1), or gamma(1 - p) through the
        # reflection, overflows the Lanczos evaluation, near-integers too
        (bessel_j_series, 141.3, "gamma(142.3) overflows the Lanczos "
                                 "evaluation"),
        (bessel_j_series, 145.0000000001, "gamma(146.0000000001) overflows "
                                          "the Lanczos evaluation"),
        (bessel_j_neg_series, 145.0000000001, "gamma(145.0000000001) "
                                              "overflows the Lanczos "
                                              "evaluation"),
        (bessel_j_neg_series, 150.5, "gamma(150.5) overflows the Lanczos "
                                     "evaluation"),
    ])
    def test_overflow_edges_name_their_cause(self, build, p, message):
        assert _outcome(build, p, 1.0) == (DomainError, message)

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

    @pytest.mark.parametrize("p, neg", [
        *[(p, False) for p in (0.0, 1.0, 2.5, 3.0 - 1e-10, 7.7, 141.2, 149.0)],
        *[(p, True) for p in (1e-17, 0.5, 1.0 / 3.0, 2.5, 3.0 + 1e-10, 7.7,
                              141.3)],
    ])
    def test_slots_are_the_recurrence_bit_for_bit(self, p, neg):
        # c0 = 1/(gamma(p + 1) 2**p) at the root p, or 2**p/gamma(1 - p) at
        # -p, then c_k = -c_{k-2} / (k (k + 2r)); odd slots are +0.0
        s = (bessel_j_neg_series if neg else bessel_j_series)(p, 0.6, 121)
        r = -p if neg else p
        c = 2.0 ** p / gamma(1.0 - p) if neg else 1.0 / (gamma(p + 1.0)
                                                        * 2.0 ** p)
        want = [c]
        for k in range(2, 121, 2):
            want.append(c := -c / (k * (k + 2.0 * r)))
        assert s.offset == r and len(s.coeffs) == 121
        assert [v.hex() for v in s.coeffs[::2]] == [v.hex() for v in want]
        assert {v.hex() for v in s.coeffs[1::2]} == {"0x0.0p+0"}


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
        with pytest.raises(OrderCaseError) as info:
            bessel_j_neg_series(p, 1.0)
        assert str(info.value) == ("negative-order series needs p >= 0, "
                                   f"got {p}")

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

    @pytest.mark.parametrize("m, alpha, n_terms", [
        (0, 0.5, 175), (0, 0.25, 3), (0, 1.0, 60), (1, 0.5, 175),
        (2, 0.75, 40), (5, 0.3, 61), (149, 1.0, 3)])
    def test_y2zero_is_k_at_zero(self, m, alpha, n_terms):
        # K's plain part bit for bit: the block b_{2j} = b_0 rho_j with
        # b_0 = -2**(m-1) (m-1)! / alpha and rho_j = rho_{j-1} / (4 j (m-j)),
        # then the tail b_{2m+2n} = -c_{2n} (H_n + H_{m+n}) / (2 alpha), H
        # summed left to right.  At m = 0 that is y2zero (DLMF 10.8.1), no
        # block and slot 0 +0.0.  -c_{2n} H_n / alpha rounds otherwise where
        # the numerator is subnormal: at alpha = 0.5, n = 87 and 88 of 175
        sol = (second_solution_integer_order(m, alpha, n_terms) if m
               else second_solution_order_zero(alpha, n_terms))
        c, plain = sol.log_part.coeffs[::2], sol.plain_part.coeffs
        assert len(plain) == 2 * m + n_terms
        assert {v.hex() for v in plain[1::2]} <= {"0x0.0p+0"}
        if m:
            b0, rho = -float(2 ** (m - 1) * math.factorial(m - 1)) / alpha, 1.0
            for j in range(m):
                if j:
                    rho /= 4.0 * j * (m - j)
                assert plain[2 * j].hex() == (b0 * rho).hex(), j
        for n, c2n in enumerate(c):
            h = harmonic(n) + harmonic(m + n)
            assert plain[2 * m + 2 * n].hex() == (
                c2n * (0.0 - h) / (2.0 * alpha)).hex(), n
        if (m, n_terms) == (0, 175):
            assert any(0.0 < abs(c2n * harmonic(n)) < sys.float_info.min
                       for n, c2n in enumerate(c))


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


def _parts(solution):
    if isinstance(solution, LogSolution):
        return [solution.log_part, solution.plain_part]
    return [solution]


WALK_ORDERS = (0.0, 0.5, 1.0, 2.5, 3.0, 149.0)
WALK_CASES = ([("J", p) for p in WALK_ORDERS]
              + [("Jneg", p) for p in WALK_ORDERS]
              + [("y2zero", 0.0)]
              + [("K", p) for p in WALK_ORDERS if p >= 1 and p == int(p)])
SCALES = (2.5, -1.0, -0.3, 0.0)


def dense_diff(a):
    """``conformable_diff_exact(a)``'s slots, every one computed:
    ``alpha (n + r) c_n``, at offset r - 1."""
    return [a.alpha * (n + a.offset) * c for n, c in enumerate(a.coeffs)]


def dense_scale(a, k):
    """``series_scale(a, k)``'s slots, every one computed: ``k c_n``."""
    return [k * c for c in a.coeffs]


def assert_algebra_walk_built(a):
    """``a``, its derivative and its scalings by SCALES each hold the
    dense slots on their walk (``assert_walk_built``)."""
    every_slot_input = a._walk[1] == 1
    for got, offset, dense in [
            (a, a.offset, a.coeffs),
            (conformable_diff_exact(a), a.offset - 1.0, dense_diff(a)),
            *[(series_scale(a, k), a.offset, dense_scale(a, k))
              for k in SCALES]]:
        assert got.alpha == a.alpha
        assert_walk_built(got, offset, dense, every_slot_input)


def assert_walk_built(got, offset, dense, every_slot_input=False):
    """``got`` holds the walked slots of ``dense`` bit for bit and +0.0
    elsewhere, at ``offset``, and records the walk the validating
    constructor derives.

    Only from an input that walks every slot can a producer record the
    even walk with odd slots it computed (``k = 0``, or ``n + r = 0`` at
    the last nonzero odd slot); those keep the bits of the dense slots.
    """
    slots, stride = got._walk
    rebuilt = FracSeries(got.alpha, got.offset, got.coeffs)
    assert got == rebuilt and got._walk == rebuilt._walk
    assert got.offset == offset and len(got.coeffs) == len(dense)
    walked = range(0, len(dense), stride)
    assert ([c.hex() for c in slots] == [got.coeffs[n].hex() for n in walked]
            == [dense[n].hex() for n in walked])
    for n in range(len(dense)):
        if n not in walked:
            assert dense[n] == 0.0
            assert got.coeffs[n].hex() == "0x0.0p+0" or (
                every_slot_input and got.coeffs[n].hex() == dense[n].hex())


class TestWalkBuilt:
    """The constructors and the series algebra compute only the walked
    slots; each holds the slots that every slot computed would give."""

    @pytest.mark.parametrize("family, order", WALK_CASES)
    def test_matches_dense_formulas(self, family, order):
        for alpha in (0.3, 0.8, 1.0):
            for n_terms in (1, 2, 3, 30, 60, 121):
                for part in _parts(build_solution(family, order, alpha,
                                                  n_terms)):
                    assert_algebra_walk_built(part)

    @pytest.mark.parametrize("series, stride", [
        (FracSeries(1.0, 0.0, (1.0, 0.0, -2.0)), 2),
        (FracSeries(0.5, 0.0, (0.0, 1.0, 0.0, -2.0)), 1),  # odd slots only
        (FracSeries(0.5, 0.0, (1.0, 3.0, -2.0, 0.0, 0.0)), 1),
        (FracSeries(0.5, -1.0, (1.0, 3.0, 0.0, 4.0)), 1),  # n + r = 0 at 1
        # n + r = 0 at the only odd slot: the derivative walks its even slots
        (FracSeries(0.5, -1.0, (1.0, -3.0)), 1),
    ], ids=["even", "odd", "every", "every-zeroed", "every-to-even"])
    def test_algebra_on_each_walk(self, series, stride):
        assert series._walk[1] == stride
        assert_algebra_walk_built(series)

    def test_walk_follows_the_constructor_rule(self):
        # n + r = 0 zeroes slot 0: every slot in, every slot out
        d = conformable_diff_exact(FracSeries(1.0, 0.0, (1.0, 2.0)))
        assert d.coeffs == (0.0, 2.0) and d._walk == ((0.0, 2.0), 1)
        # n + r = 0 zeroes slot 1: every slot in, even slots out
        d = conformable_diff_exact(FracSeries(1.0, -1.0, (1.0, 2.0)))
        assert d.coeffs == (-1.0, 0.0) and d._walk == ((-1.0,), 2)
        # k = 0 on odd slots: the even walk, as the constructor derives
        odd = FracSeries(1.0, 0.0, (0.0, 1.0))
        assert odd._walk[1] == 1
        z = series_scale(odd, 0.0)
        assert z._walk == ((0.0,), 2)

    @pytest.mark.parametrize("series, stride", [
        (FracSeries(1.0, 2.0, (1e308, 0.0, 1e308)), 2),
        (FracSeries(1.0, 2.0, (0.0, 1e308)), 1),
        (FracSeries(1.0, 2.0, (1e308, 1e308)), 1),
        (FracSeries(1.0, 0.0, (1.0, 0.0, -1e308)), 2),
    ])
    @pytest.mark.parametrize("op, dense", [
        (conformable_diff_exact, dense_diff),
        (lambda s: series_scale(s, -1e10), lambda s: dense_scale(s, -1e10)),
    ], ids=["diff", "scale"])
    def test_overflow_keeps_its_message(self, series, stride, op, dense):
        # the message names the first slot that overflows, walked or not
        assert series._walk[1] == stride
        first = next(c for c in dense(series) if not math.isfinite(c))
        assert _outcome(op, series) == (ValueError,
                                        f"non-finite coefficient {first}")

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
        # 1/(4 alpha), and b_0 at the highest order the log part admits
        (lambda: second_solution_order_zero(5e-324, 3),
         "alpha = 4.94066e-324 is too small: the plain part's coefficients "
         "overflow a double"),
        (lambda: second_solution_integer_order(149, 1e-6, 3),
         "alpha = 1e-06 is too small for order 149: the leading coefficient "
         "overflows a double"),
    ])
    def test_small_alpha_keeps_its_message(self, build, message):
        assert _outcome(build) == (DomainError, message)

    def test_producers_never_run_the_validating_init(self, monkeypatch):
        inputs = [FracSeries(1.0, 0.0, (0.0, 1.0, 0.0, 2.0)),
                  FracSeries(1.0, 0.5, (1.0, 2.0))]
        assert [s._walk[1] for s in inputs] == [1, 1]

        def refuse(self, *args, **kwargs):
            raise AssertionError("FracSeries.__init__ ran")

        monkeypatch.setattr(FracSeries, "__init__", refuse)
        for family, order in WALK_CASES:
            inputs += _parts(build_solution(family, order, 0.7, 30))
        for s in inputs:
            series_scale(conformable_diff_exact(s), -2.0)


class TestTableCache:
    """Each family's alpha-free table is built once per (order, n_terms),
    and every alpha reads it: a build from the cache is a cold build."""

    def test_warm_builds_are_the_cold_builds(self):
        alphas = (0.3, 0.8, 1.0)
        for family, order in WALK_CASES:
            for n_terms in (1, 2, 3, 60, 121):
                cold = {}
                for alpha in alphas:
                    _table.cache_clear()
                    cold[alpha] = _outcome(build_solution, family, order,
                                           alpha, n_terms)
                misses = _table.cache_info().misses
                # the tables of the last cold build serve every alpha
                for alpha in alphas:
                    assert _outcome(build_solution, family, order, alpha,
                                    n_terms) == cold[alpha], alpha
                info = _table.cache_info()
                assert info.misses == misses > 0 and info.hits > 0

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
