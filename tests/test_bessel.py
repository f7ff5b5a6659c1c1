"""Tests for the solution-family constructors and order classification."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confbessel import (
    Alpha,
    OrderKind,
    b_chain_ratios,
    bessel_j_neg_integer_series,
    bessel_j_neg_series,
    bessel_j_series,
    classify_order,
    eval_series,
    gamma,
    harmonic,
    indicial,
    second_solution_integer_order,
    second_solution_order_zero,
    second_solution_params,
)
from confbessel.errors import DomainError, OrderCaseError

SQRT_PI = math.sqrt(math.pi)


class TestClassifyOrder:
    def test_zero_and_near_zero(self):
        assert classify_order(0.0).kind is OrderKind.ZERO
        assert classify_order(5e-10).kind is OrderKind.ZERO

    def test_positive_integers_carry_m(self):
        for p in (1.0, 2.0, 7.0):
            order = classify_order(p)
            assert order.kind is OrderKind.POSITIVE_INTEGER
            assert order.m == int(p)

    def test_near_integer_snaps(self):
        order = classify_order(3.0 - 1e-10)
        assert order.kind is OrderKind.POSITIVE_INTEGER
        assert order.m == 3

    @pytest.mark.parametrize("p", [0.5, 1.5, 2.5, 7.5])
    def test_half_odd_integers(self, p):
        assert classify_order(p).kind is OrderKind.HALF_ODD_INTEGER

    @pytest.mark.parametrize("p", [0.3, 1.0 / 3.0, 2.7, math.pi])
    def test_generic_orders(self, p):
        assert classify_order(p).kind is OrderKind.GENERIC

    def test_beyond_tolerance_is_generic(self):
        assert classify_order(3.0 + 1e-6).kind is OrderKind.GENERIC

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_orders_rejected(self, p):
        with pytest.raises(DomainError):
            classify_order(p)


class TestIndicial:
    @pytest.mark.parametrize("p", [0.0, 0.5, 2.0])
    def test_roots_are_plus_minus_p(self, p):
        assert indicial(p, 0.5).roots == (p, -p)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.0])
    def test_roots_annihilate_the_polynomial(self, p, alpha):
        data = indicial(p, alpha)
        for r in data.roots:
            assert data.poly(r) == pytest.approx(0.0, abs=1e-15)

    def test_polynomial_shape(self):
        # I(r) = alpha**2 (r**2 - p**2)
        data = indicial(2.0, 0.5)
        assert data.poly(3.0) == pytest.approx(0.25 * (9.0 - 4.0))

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            indicial(-1.0, 0.5)


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
        with pytest.raises(ValueError):
            bessel_j_series(0.0, 1.0, 0)

    @pytest.mark.parametrize("p", [151.0, 160.0, 170.0, 141.3])
    def test_vanishing_leading_coefficient_rejected(self, p):
        # 2**m * m! (or gamma(p+1) * 2**p) overflows, so c0 would be 0
        with pytest.raises(DomainError):
            bessel_j_series(p, 1.0)

    def test_largest_representable_orders_still_build(self):
        # c0 of order 150 is subnormal but nonzero; order 141.2
        # is the last fractional order whose gamma evaluates
        assert bessel_j_series(150.0, 1.0).coeffs[0] > 0.0
        assert bessel_j_series(141.2, 1.0).coeffs[0] > 0.0

    def test_half_order_sine_closed_form(self):
        # at alpha=0.5, x=4 the argument is x**alpha = 2
        s = bessel_j_series(0.5, 0.5)
        want = math.sqrt(1.0 / math.pi) * math.sin(2.0)
        assert eval_series(s, 4.0).value == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.51301613656182775, rel=1e-15)

    def test_near_integer_order_snaps_fully(self):
        # offset, leading coefficient and recurrence all use the intended
        # integer, not the perturbed input
        s = bessel_j_series(3.0 - 1e-10, 1.0, 10)
        assert s.offset == 3.0
        assert s.coeffs[0] == 1.0 / 48.0


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

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_integer_order_directed_to_reduction(self, p):
        with pytest.raises(OrderCaseError):
            bessel_j_neg_series(p, 1.0)

    @pytest.mark.parametrize("p", [0.0, -0.5])
    def test_non_positive_order_rejected(self, p):
        with pytest.raises(OrderCaseError):
            bessel_j_neg_series(p, 1.0)

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

    def test_non_integer_rejected(self):
        with pytest.raises(OrderCaseError):
            bessel_j_neg_integer_series(1.5, 1.0)


class TestSecondSolutionParams:
    @pytest.mark.parametrize("m,alpha", [(1, 1.0), (2, 0.5), (4, 0.3)])
    def test_tying_relation_holds(self, m, alpha):
        params = second_solution_params(m, alpha)
        lhs = -alpha * params.b0 / (2.0 ** (m - 1) * math.factorial(m - 1))
        assert lhs == pytest.approx(params.log_coeff, rel=1e-15)

    def test_unit_log_coeff_values(self):
        assert second_solution_params(1, 1.0).b0 == pytest.approx(-1.0)
        assert second_solution_params(2, 0.5).b0 == pytest.approx(-4.0)
        assert second_solution_params(3, 1.0).b0 == pytest.approx(-8.0)

    def test_m_below_one_rejected(self):
        with pytest.raises(OrderCaseError):
            second_solution_params(0, 1.0)


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


class TestBChain:
    def test_m1_is_single_entry(self):
        assert b_chain_ratios(1) == [1.0]

    def test_m2_and_m3_values(self):
        assert b_chain_ratios(2) == [1.0, 0.25]
        assert b_chain_ratios(3) == [1.0, 0.125, 1.0 / 64.0]

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_closed_form(self, m):
        # b_{2j}/b_0 = (m-j-1)! / (2**(2j) j! (m-1)!)
        ratios = b_chain_ratios(m)
        assert len(ratios) == m
        for j, r in enumerate(ratios):
            want = (math.factorial(m - j - 1)
                    / (2.0 ** (2 * j) * math.factorial(j)
                       * math.factorial(m - 1)))
            assert r == pytest.approx(want, rel=1e-14)

    def test_invalid_m_rejected(self):
        with pytest.raises(OrderCaseError):
            b_chain_ratios(0)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(min_value=0.0, max_value=6.0),
           alpha=st.floats(min_value=0.1, max_value=1.0))
    def test_first_kind_recurrence_everywhere(self, p, alpha):
        # near-integer orders snap, so state the recurrence at the
        # effective order the constructor actually used
        order = classify_order(p)
        if order.kind is OrderKind.ZERO:
            p_eff = 0.0
        elif order.kind is OrderKind.POSITIVE_INTEGER:
            p_eff = float(order.m)
        else:
            p_eff = p
        s = bessel_j_series(p, alpha, 24)
        for k in range(2, 24, 2):
            residue = s.coeffs[k] * k * (k + 2.0 * p_eff) + s.coeffs[k - 2]
            assert abs(residue) <= 1e-15 * abs(s.coeffs[k - 2])

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(min_value=0.0, max_value=4.0),
           alpha=st.floats(min_value=0.1, max_value=1.0))
    def test_indicial_roots_annihilate(self, p, alpha):
        data = indicial(p, alpha)
        assert data.poly(data.roots[0]) == pytest.approx(0.0, abs=1e-12)
        assert data.poly(data.roots[1]) == pytest.approx(0.0, abs=1e-12)
