"""Tests for the identity/residual verification machinery.

Frozen reference values below were computed once from the integral
representation J_n(z) = (1/pi) * integral of cos(n t - z sin t) over
[0, pi] with a high-panel-count rule, then pinned as literals.
"""

import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confbessel import (
    FracSeries,
    LogSolution,
    all_suites,
    bessel_j_neg_integer_series,
    bessel_j_neg_series,
    bessel_j_series,
    check_half_order_closed_forms,
    check_identity,
    check_ode_residual,
    check_second_solution_scaling,
    check_series_vs_quadrature,
    classical_bessel_j,
    eval_series,
    half_order_suite,
    identity_suite,
    random_residual_suite,
    residual_suite,
    scaling_suite,
    second_solution_integer_order,
    second_solution_order_zero,
)
from confbessel.checks import (COEFF_TOL, HALF_ORDER_TOL, IDENTITIES,
                               LOG_RESIDUAL_X, N_COEFF_COMPARE,
                               ORACLE_MAX_ARG, ORACLE_TOL, POINT_TOL,
                               RESIDUAL_X, SCALING_TOL, SCALING_X,
                               CheckReport, _coefficientwise, _pointwise,
                               _rows, linspace)
from confbessel.cli import build_solution
from confbessel.errors import AlignmentError, DomainError, OrderCaseError
from confbessel.series import series_rebase

# frozen quadrature-oracle values
J0_AT_1 = 0.76519768655796655
J1_AT_1 = 0.44005058574493352
J2_AT_1 = 0.11490348493190048
J0_AT_2 = 0.22389077914123567

GRID = (0.5, 1.0, 2.0, 4.0)


class TestOracle:
    def test_trivial_values_at_zero(self):
        assert classical_bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert classical_bessel_j(1, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_values(self):
        assert classical_bessel_j(0, 1.0) == pytest.approx(J0_AT_1, rel=1e-13)
        assert classical_bessel_j(1, 1.0) == pytest.approx(J1_AT_1, rel=1e-13)
        assert classical_bessel_j(2, 1.0) == pytest.approx(J2_AT_1, rel=1e-12)
        assert classical_bessel_j(0, 2.0) == pytest.approx(J0_AT_2, rel=1e-13)

    def test_agrees_with_series_on_interval(self):
        # two independent computation paths, z in (0, 8]
        j0 = bessel_j_series(0.0, 1.0, 60)
        for i in range(1, 33):
            z = 8.0 * i / 32.0
            assert abs(eval_series(j0, z).value
                       - classical_bessel_j(0, z)) <= 1e-11

    @pytest.mark.parametrize("n", ["2", 2.0])
    def test_a_whole_order_of_any_type_is_the_int(self, n):
        assert classical_bessel_j(n, 1.5) == classical_bessel_j(2, 1.5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            classical_bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            classical_bessel_j(0, -1.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_z(self, z):
        with pytest.raises(ValueError, match="finite"):
            classical_bessel_j(0, z)

    @pytest.mark.parametrize("n, z", [(0, ORACLE_MAX_ARG + 1.0),
                                      (10, ORACLE_MAX_ARG - 5.0),
                                      (int(ORACLE_MAX_ARG) + 1, 0.0)])
    def test_rejects_work_beyond_the_cap(self, n, z):
        # the panel count grows with z + n, so the cap bounds one call's work
        with pytest.raises(ValueError, match="z \\+ n"):
            classical_bessel_j(n, z)

    def test_accepts_the_cap(self):
        assert abs(classical_bessel_j(0, ORACLE_MAX_ARG)) < 0.01

    def test_large_argument_is_accurate(self):
        # 512 fixed panels gave 0.026379 here
        with mpmath.workdps(30):
            ref = float(mpmath.besselj(0, 1000))
        assert abs(classical_bessel_j(0, 1000.0) - ref) <= 1e-14

    @pytest.mark.parametrize("orders, zs, bound", [
        (range(6), [20.0 * i / 64 for i in range(1, 65)], 1e-15),
        ((0, 7, 19, 33, 60), (25.0, 61.5, 100.0, 177.7, 250.0, 300.0), 1e-14),
    ], ids=["small-z", "large-z"])
    def test_matches_mpmath(self, orders, zs, bound):
        worst = 0.0
        with mpmath.workdps(30):
            for n in orders:
                for z in zs:
                    ref = float(mpmath.besselj(n, z))
                    worst = max(worst, abs(classical_bessel_j(n, z) - ref))
        assert worst <= bound


class TestReportInvariants:
    def test_pass_flag_tracks_gauge_and_tolerance(self):
        good = check_half_order_closed_forms(0.5, GRID)
        assert good.mode == "abs"
        assert good.passed == (good.max_abs_err <= good.tolerance)

        strict = check_half_order_closed_forms(0.5, GRID, tolerance=1e-30)
        assert not strict.passed
        assert strict.max_abs_err > strict.tolerance

    def test_rel_mode_gauges_on_relative_error(self):
        r = check_ode_residual(0.0, 1.0, bessel_j_series(0.0, 1.0), GRID)
        assert r.mode == "rel"
        assert r.passed == (r.max_rel_err <= r.tolerance)

    def test_grid_is_recorded(self):
        r = check_series_vs_quadrature(1, 0.5, GRID)
        assert len(r.grid) == len(GRID)
        assert r.grid[0] == (1.0, 0.5, 0.5)

    def test_non_positive_grid_rejected(self):
        with pytest.raises(DomainError):
            check_ode_residual(0.0, 1.0, bessel_j_series(0.0, 1.0),
                               [1.0, -2.0])

    @pytest.mark.parametrize("name", ["three-term-recurrence",
                                      "derivative-lower"])
    def test_nan_fails_abs_mode_anywhere_on_the_grid(self, name):
        r = check_identity(name, 1, 1.0, [1.0, 1e10, 2.0])
        assert not r.passed
        assert r.max_abs_err == math.inf


class TestResidual:
    def test_zero_function_has_zero_residual(self):
        zero = FracSeries(1.0, 0.0, (0.0,))
        r = check_ode_residual(0.0, 1.0, zero, GRID)
        assert r.max_abs_err == 0.0

    def test_classical_order_zero(self):
        r = check_ode_residual(0.0, 1.0, bessel_j_series(0.0, 1.0),
                               (0.5, 1.0, 2.0))
        assert r.max_rel_err <= 1e-10

    def test_log_solution_order_zero(self):
        sol = second_solution_order_zero(0.5)
        r = check_ode_residual(0.0, 0.5, sol, (0.5, 1.0, 2.0), 1e-7)
        assert r.passed

    def test_wrong_order_fails(self):
        # J_0 does not solve the order-1 equation; the check must say so
        r = check_ode_residual(1.0, 1.0, bessel_j_series(0.0, 1.0), GRID)
        assert not r.passed
        assert r.max_rel_err > 1e-2

    def test_nan_residual_fails(self):
        # at x = 1e10 the series sums inf - inf; max() alone would skip NaN,
        # and inf <= inf would pass it at an infinite tolerance
        for tolerance in (None, math.inf):
            r = check_ode_residual(1.0, 1.0, bessel_j_series(1.0, 1.0),
                                   [1e10], tolerance)
            assert not r.passed
            assert r.max_abs_err == r.max_rel_err == math.inf

    def test_overflowing_operator_is_a_domain_error(self):
        with pytest.raises(DomainError):
            check_ode_residual(1.0, 1.0, bessel_j_series(1.0, 1.0), [1e200])

    @pytest.mark.parametrize("solution", [
        bessel_j_series(1.0, 1.0), second_solution_order_zero(1.0)])
    def test_alpha_other_than_the_solutions_is_refused(self, solution):
        # the operator is the solution's; a report at another alpha would
        # name an alpha it did not run at, and the log solution's middle
        # term 2 x**alpha T(u) would mix the two (y2zero built at 1 and
        # checked at 0.5 failed with max_rel 0.55)
        with pytest.raises(AlignmentError, match=r"residual at alpha = 0\.5 "
                           r"of a solution built at alpha = 1\.0$"):
            check_ode_residual(0.0, 0.5, solution, (0.5, 1.0, 2.0))


class TestIdentityChecks:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_weighted_lowering(self, p):
        r = check_identity("derivative-weighted-lower", p, 0.5, GRID)
        assert r.passed
        assert r.max_rel_err <= 1e-15

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_weighted_raising(self, p):
        r = check_identity("derivative-weighted-raise", p, 0.75, GRID)
        assert r.passed

    def test_lowering_pointwise_matches_oracle_combination(self):
        # at p=1, alpha=1, x=1 both sides equal J_0(1) - J_1(1)
        r = check_identity("derivative-lower", 1, 1.0, (1.0,))
        assert r.passed
        jp = bessel_j_series(1.0, 1.0)
        jm = bessel_j_series(0.0, 1.0)
        rhs = eval_series(jm, 1.0).value - eval_series(jp, 1.0).value
        assert rhs == pytest.approx(J0_AT_1 - J1_AT_1, rel=1e-12)

    def test_raising_pointwise_value(self):
        # at p=0, alpha=1, x=1 the derivative equals -J_1(1)
        from confbessel import conformable_diff_exact
        dj0 = conformable_diff_exact(bessel_j_series(0.0, 1.0))
        assert eval_series(dj0, 1.0).value == pytest.approx(-J1_AT_1,
                                                            rel=1e-12)
        assert check_identity("derivative-raise", 0, 1.0, (1.0,)).passed

    def test_three_term_recurrence_value(self):
        # J_2(1) = 2 J_1(1) - J_0(1)
        assert J2_AT_1 == pytest.approx(2.0 * J1_AT_1 - J0_AT_1, rel=1e-12)
        assert check_identity("three-term-recurrence", 1, 1.0, (1.0,)).passed

    def test_recurrence_scaling_structure(self):
        # the alpha=0.5 identity at x=4 is the alpha=1 identity at x**alpha=2
        r_half = check_identity("three-term-recurrence", 1, 0.5, (4.0,))
        r_one = check_identity("three-term-recurrence", 1, 1.0, (2.0,))
        assert r_half.passed and r_one.passed
        assert r_half.max_abs_err == pytest.approx(r_one.max_abs_err,
                                                   abs=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_reflection_is_exact(self, m):
        r = check_identity("negative-order-reflection", m, 0.5, GRID)
        assert r.max_rel_err == 0.0
        assert r.max_abs_err == 0.0

    def test_integer_preconditions(self):
        with pytest.raises(ValueError, match="weighted lowering identity"):
            check_identity("derivative-weighted-lower", 0, 0.5, GRID)
        with pytest.raises(ValueError, match="three-term recurrence"):
            check_identity("three-term-recurrence", 0, 0.5, GRID)
        with pytest.raises(ValueError, match="lowering identity"):
            check_identity("derivative-lower", 1.5, 0.5, GRID)

    @pytest.mark.parametrize("name", list(IDENTITIES))
    def test_default_tolerance_comes_from_the_primitive(self, name):
        r = check_identity(name, 1, 0.5, GRID)
        assert r.passed
        if r.mode == "rel":
            assert r.tolerance == COEFF_TOL
        else:
            assert r.tolerance == POINT_TOL


class TestHalfOrderAndScaling:
    def test_half_order_passes_on_standard_grid(self):
        r = check_half_order_closed_forms(0.3, (0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
        assert r.passed
        assert r.max_abs_err <= 1e-12

    def test_half_order_covers_both_signs(self):
        r = check_half_order_closed_forms(1.0, (math.pi,))
        orders = {row[0] for row in r.grid}
        assert orders == {0.5, -0.5}

    def test_quadrature_comparison(self):
        r = check_series_vs_quadrature(0, 0.5, (4.0,))
        assert r.passed
        # the comparison point is the classical value at x**alpha = 2
        j0 = bessel_j_series(0.0, 0.5)
        assert eval_series(j0, 4.0).value == pytest.approx(J0_AT_2, rel=1e-12)

    @pytest.mark.parametrize("m", [None, 1, 2])
    def test_second_solution_scaling(self, m):
        r = check_second_solution_scaling(0.5, (0.5, 1.0, 2.0, 3.0), m)
        assert r.passed
        assert r.max_abs_err <= 1e-11

    @pytest.mark.parametrize("check, args, default", [
        (check_half_order_closed_forms, (0.5, (1.0, 2.0)), HALF_ORDER_TOL),
        (check_series_vs_quadrature, (1, 0.5, (1.0, 2.0)), ORACLE_TOL),
        (check_second_solution_scaling, (0.5, (1.0, 2.0)), SCALING_TOL),
        (check_second_solution_scaling, (0.5, (1.0, 2.0), 2), SCALING_TOL),
    ])
    def test_tolerance_none_means_the_documented_default(self, check, args,
                                                          default):
        # an explicit None is the default, not _pointwise's POINT_TOL
        assert check(*args).tolerance == default
        assert check(*args, tolerance=None).tolerance == default
        assert check(*args, tolerance=1e-3).tolerance == 1e-3

    def test_scaling_identity_spelled_out(self):
        # the alpha-instance equals (1/alpha) times the classical instance
        # evaluated at x**alpha
        alpha, x = 0.5, 4.0
        mine = second_solution_order_zero(alpha)
        classical = second_solution_order_zero(1.0)

        def value(sol, t):
            return (eval_series(sol.log_part, t).value * math.log(t)
                    + eval_series(sol.plain_part, t).value)

        assert value(mine, x) == pytest.approx(value(classical, x ** alpha)
                                               / alpha, rel=1e-12)


class TestSuites:
    def test_all_suites_pass_and_are_deterministic(self):
        a = all_suites()
        b = all_suites()
        assert all(r.passed for r in a)
        assert [r.check_name for r in a] == [r.check_name for r in b]
        assert [r.max_abs_err for r in a] == [r.max_abs_err for r in b]

    def test_residual_suite_covers_the_corpus(self):
        names = [r.check_name for r in residual_suite()]
        for label in ("J[p=0]", "J[p=0.5]", "J[p=1]", "J[p=2.5]", "J[p=3]",
                      "Jneg[p=0.5]", "Jneg[p=2.5]", "y2zero", "K[m=1]",
                      "K[m=2]"):
            assert any(label in n for n in names), label

    def test_identity_suite_covers_six_identities(self):
        names = " ".join(r.check_name for r in identity_suite())
        for fragment in ("derivative-weighted-lower", "derivative-weighted-raise",
                         "derivative-lower", "derivative-raise",
                         "three-term-recurrence", "negative-order-reflection"):
            assert fragment in names

    def test_suite_sizes(self):
        assert len(half_order_suite()) == 4
        assert len(residual_suite()) == 30
        assert len(scaling_suite()) > 0

    def test_tolerance_override_threads_through(self):
        strict = identity_suite(tolerance=1e-30)
        assert any(not r.passed for r in strict)
        loose = identity_suite(tolerance=1.0)
        assert all(r.passed for r in loose)

    def test_random_suite_is_seed_deterministic(self):
        a = random_residual_suite(123, cases=6)
        b = random_residual_suite(123, cases=6)
        c = random_residual_suite(124, cases=6)
        assert [r.check_name for r in a] == [r.check_name for r in b]
        assert [r.max_rel_err for r in a] == [r.max_rel_err for r in b]
        assert [r.check_name for r in a] != [r.check_name for r in c]
        assert all(r.passed for r in a)

    def test_random_suite_alternate_seeds_pass(self):
        for seed in (0, 1, 2, 99):
            assert all(r.passed for r in random_residual_suite(seed, cases=4))


class TestLogResidualInternals:
    def test_log_residual_formula_consistency(self):
        # residual of u*ln(x) + v assembled from series parts must vanish
        # for the constructed K_m; spot-check the assembly at one point by
        # comparing against a brute-force numeric second derivative
        from confbessel import DiffConfig, conformable_diff2_numeric, \
            conformable_diff_numeric

        m, alpha, x = 1, 1.0, 1.5
        sol = second_solution_integer_order(m, alpha)

        def f(t):
            return (eval_series(sol.log_part, t).value * math.log(t)
                    + eval_series(sol.plain_part, t).value)

        cfg = DiffConfig(alpha)
        lhs = (x ** (2 * alpha) * conformable_diff2_numeric(f, x, cfg)
               + alpha * x ** alpha * conformable_diff_numeric(f, x, cfg)
               + alpha ** 2 * (x ** (2 * alpha) - m * m) * f(x))
        assert abs(lhs) <= 1e-4

        r = check_ode_residual(m, alpha, sol, (x,), 1e-7)
        assert r.max_abs_err <= 1e-13


def _bits(values):
    return [float(v).hex() for v in values]


class TestLinspace:
    """The pure-Python grid twin agrees with numpy.linspace bit for bit."""

    @pytest.mark.parametrize("grid, args", [
        (RESIDUAL_X, (0.5, 5.0, 9)),
        (LOG_RESIDUAL_X, (0.5, 3.0, 6)),
        (SCALING_X, (0.5, 3.0, 6)),
    ])
    def test_module_grids(self, grid, args):
        assert _bits(grid) == _bits(np.linspace(*args))

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(min_value=1e-6, max_value=1e6),
           b=st.floats(min_value=1e-6, max_value=1e6),
           n=st.integers(min_value=-2, max_value=64))
    @example(a=0.0, b=1.0, n=0)  # no points
    @example(a=0.0, b=1.0, n=-2)  # ValueError
    def test_matches_numpy(self, a, b, n):
        def outcome(space):
            try:
                return _bits(space(a, b, n))
            except ValueError as exc:
                return str(exc)
        assert outcome(linspace) == outcome(np.linspace)


#: Each constructor with its term count as the argument.
COUNT_TAKERS = {
    "J": lambda n: bessel_j_series(0.5, 1.0, n),
    "Jneg": lambda n: bessel_j_neg_series(0.5, 1.0, n),
    "neg-integer": lambda n: bessel_j_neg_integer_series(1, 1.0, n),
    "y2zero": lambda n: second_solution_order_zero(1.0, n),
    "K": lambda n: second_solution_integer_order(1, 1.0, n),
}


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call, error, message", [
    (lambda x: bessel_j_neg_integer_series(x, 1.0), OrderCaseError,
     "integer reduction needs integer m >= 0, got {}"),
    (lambda x: second_solution_integer_order(x, 1.0), OrderCaseError,
     "integer-order second solution needs integer m >= 1, got {}"),
    (lambda x: check_identity("derivative-lower", x, 1.0, [1.0]), ValueError,
     "lowering identity needs an integer order >= 1, got {}"),
    (lambda x: check_series_vs_quadrature(x, 1.0, [1.0]), ValueError,
     "oracle comparison needs an integer order >= 0, got {}"),
    (lambda x: check_second_solution_scaling(1.0, [1.0], m=x), ValueError,
     "integer-order scaling check needs an integer order >= 1, got {}"),
    (lambda x: classical_bessel_j(x, 1.0), ValueError,
     "oracle needs integer n >= 0, got {}"),
    *[(count, ValueError, "n_terms must be positive, got {}")
      for count in COUNT_TAKERS.values()],
], ids=["neg-integer", "second-solution", "identity", "oracle-check",
        "scaling", "oracle", *[f"{name}-terms" for name in COUNT_TAKERS]])
def test_non_finite_integer_order_is_refused(call, error, message, x):
    """A non-finite integer argument, an order or a term count, gets the
    entry point's own error."""
    with pytest.raises(ValueError) as info:
        call(x)
    assert type(info.value) is error
    assert str(info.value) == message.format(x)


BEYOND_FLOAT = 10 ** 400


@pytest.mark.parametrize("call, error, message", [
    (lambda p: bessel_j_series(p, 1.0), DomainError,
     "order must be finite, got inf"),
    (lambda p: bessel_j_neg_series(p, 1.0), DomainError,
     "order must be finite, got inf"),
    # the integer-order route: Jneg reads its order before routing it
    (lambda p: build_solution("Jneg", p, 1.0, 8), DomainError,
     "order must be finite, got inf"),
    (lambda p: build_solution("Jneg", -p, 1.0, 8), DomainError,
     "order must be finite, got -inf"),
    (lambda p: bessel_j_neg_integer_series(p, 1.0), OrderCaseError,
     f"integer reduction needs integer m >= 0, got {BEYOND_FLOAT}"),
    (lambda p: second_solution_integer_order(p, 1.0), OrderCaseError,
     "integer-order second solution needs integer m >= 1, "
     f"got {BEYOND_FLOAT}"),
    (lambda p: check_identity("derivative-lower", p, 1.0, [1.0]), ValueError,
     f"lowering identity needs an integer order >= 1, got {BEYOND_FLOAT}"),
    (lambda p: classical_bessel_j(p, 1.0), ValueError,
     f"oracle needs integer n >= 0, got {BEYOND_FLOAT}"),
    *[(count, ValueError, f"n_terms must be positive, got {BEYOND_FLOAT}")
      for count in COUNT_TAKERS.values()],
], ids=["J", "Jneg", "integer-order", "integer-order-negative",
        "neg-integer", "second-solution", "identity", "oracle",
        *[f"{name}-terms" for name in COUNT_TAKERS]])
def test_int_order_beyond_float_range_is_refused(call, error, message):
    """An int order or term count that no double holds gets the entry
    point's own ValueError, not the OverflowError of its conversion to
    float (a count is refused before anything is allocated)."""
    with pytest.raises(ValueError) as info:
        call(BEYOND_FLOAT)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("value, as_float", [
    (BEYOND_FLOAT, math.inf), (-BEYOND_FLOAT, -math.inf),
    (math.inf, math.inf), (math.nan, math.nan),
], ids=["int", "-int", "inf", "nan"])
@pytest.mark.parametrize("call, error, message", [
    (lambda v: classical_bessel_j(1, v), ValueError,
     lambda x: f"oracle needs a finite z, got {x}"),
    (lambda v: _rows(1.0, 1.0, [2.0, v]), DomainError,
     lambda x: f"grid points must be {'positive' if x < 0 else 'finite'}, "
               f"got {x}"),
    (lambda v: check_ode_residual(v, 1.0, bessel_j_series(1.0, 1.0), [1.0]),
     DomainError, lambda x: f"order must be finite, got {x}"),
], ids=["oracle-z", "grid-point", "residual-order"])
def test_non_finite_real_argument_is_refused(call, error, message, value,
                                             as_float):
    """An int beyond float range reads as +-inf, and an infinite or NaN
    argument gets the entry point's own error: no OverflowError, and no
    report row at an inf or NaN grid point."""
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message(as_float)


@pytest.mark.parametrize("check", [
    lambda p: check_identity("derivative-lower", p, 0.5, [1.0]),
    lambda p: check_series_vs_quadrature(p, 0.5, [1.0]),
    lambda p: check_ode_residual(p, 0.5, bessel_j_series(2, 0.5), [1.0]),
], ids=["identity", "oracle-check", "residual"])
def test_an_order_given_as_text_is_its_number(check):
    """The checks read the order as a number, as the constructors do, and
    name the report with it: "2" gives the report of 2."""
    report = check("2")
    assert report == check(2) and report.passed
    assert report.check_name.startswith(("derivative-lower[p=2 ",
                                         "series-vs-quadrature[p=2 ",
                                         "residual[p=2 "))


# The report primitives before they handed their deviation columns to
# ``_report``, kept verbatim (but for the names) as the oracle: the
# primitives must build the same CheckReport bit for bit.

def ref_report(name, grid, max_abs, max_rel, tolerance, mode):
    if not grid:
        raise ValueError(f"check {name!r} ran on an empty grid")
    if mode not in ("abs", "rel"):
        raise ValueError(f"unknown report mode {mode!r}")
    gauge = max_abs if mode == "abs" else max_rel
    return CheckReport(
        check_name=name,
        grid=tuple((float(p), float(a), float(x)) for p, a, x in grid),
        max_abs_err=float(max_abs),
        max_rel_err=float(max_rel),
        tolerance=float(tolerance),
        mode=mode,
        passed=bool(math.isfinite(gauge) and gauge <= tolerance),
    )


def ref_pointwise(name, rows, deviation, tolerance=None, mode="abs"):
    max_abs = 0.0
    max_rel = 0.0
    for p, a, x in rows:
        diff, ref = deviation(p, a, x)
        d = abs(diff)
        rel = d / (1.0 + abs(ref))
        if rel != rel:
            d = rel = math.inf
        max_abs = max(max_abs, d)
        max_rel = max(max_rel, rel)
    return ref_report(name, rows, max_abs, max_rel,
                      POINT_TOL if tolerance is None else tolerance, mode)


def ref_coefficientwise(name, rows, sides, tolerance=None):
    lhs, rhs = sides
    aligned = series_rebase(rhs, lhs.offset)
    max_rel = 0.0
    for i in range(N_COEFF_COMPARE):
        l = lhs.coeffs[i] if i < len(lhs.coeffs) else 0.0
        r = aligned.coeffs[i] if i < len(aligned.coeffs) else 0.0
        scale = max(abs(l), abs(r))
        if scale > 0.0:
            max_rel = max(max_rel, abs(l - r) / scale)
    max_abs = 0.0
    for _, _, x in rows:
        d = abs(eval_series(lhs, x).value - eval_series(rhs, x).value)
        max_abs = max(max_abs, d if d == d else math.inf)
    return ref_report(name, rows, max_abs, max_rel,
                      COEFF_TOL if tolerance is None else tolerance, "rel")


def ref_misaligned(name, rows, sides, tolerance=None):
    """The report of sides that no whole number of steps aligns, which the
    frozen copy refused with AlignmentError: an infinite relative error,
    and the spot deviations as the frozen copy takes them."""
    lhs, rhs = sides
    max_abs = 0.0
    for _, _, x in rows:
        d = abs(eval_series(lhs, x).value - eval_series(rhs, x).value)
        max_abs = max(max_abs, d if d == d else math.inf)
    return ref_report(name, rows, max_abs, math.inf,
                      COEFF_TOL if tolerance is None else tolerance, "rel")


def report_outcome(primitive, *args):
    """Every field of the report, floats as bytes, or the error raised."""
    try:
        r = primitive(*args)
    except Exception as exc:  # the error type and message are compared
        return type(exc), str(exc)
    return (r.check_name, [struct.pack("<3d", *row) for row in r.grid],
            struct.pack("<3d", r.max_abs_err, r.max_rel_err, r.tolerance),
            r.mode, r.passed, [type(field) for field in r])


SPECIAL = (0.0, -0.0, 5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan)
deviations = st.one_of(st.sampled_from(SPECIAL), st.floats())
tolerances = st.sampled_from([None, 0.0, 1e-9, math.inf])
coefficients = st.integers(1, 40).flatmap(lambda size: st.lists(
    st.one_of(st.just(0.0),
              st.sampled_from((-0.0, 5e-324, 1.0, -2.5, 1e300, -1e300)),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=size, max_size=size))
spot_rows = st.lists(st.sampled_from([0.5, 1.0, 2.0, 7.5]), min_size=1,
                     max_size=4).map(lambda xs: [(1.0, 0.5, x) for x in xs])


class TestFrozenPrimitives:
    """``_pointwise`` and ``_coefficientwise`` against the frozen copies."""

    @settings(max_examples=400, deadline=None)
    @given(pairs=st.lists(st.tuples(deviations, deviations), max_size=8),
           tolerance=tolerances, mode=st.sampled_from(["abs", "rel"]))
    @example(pairs=[], tolerance=None, mode="abs")  # empty grid
    @example(pairs=[(math.inf, math.inf)], tolerance=math.inf, mode="abs")
    @example(pairs=[(1.0, math.nan), (2.0, 0.0)], tolerance=None, mode="rel")
    def test_pointwise(self, pairs, tolerance, mode):
        rows = [(float(i), 0.5, 1.0 + i) for i in range(len(pairs))]

        def deviation(p, a, x):
            return pairs[int(p)]

        args = ("frozen", rows, deviation, tolerance, mode)
        assert (report_outcome(_pointwise, *args)
                == report_outcome(ref_pointwise, *args))

    @settings(max_examples=400, deadline=None)
    @given(lhs=coefficients, rhs=coefficients,
           steps=st.sampled_from([-2, -1, 0, 1, 2, 0.5]),
           rows=spot_rows, tolerance=tolerances)
    @example(lhs=[1.0], rhs=[1.0, 2.0], steps=-1, rows=[(1.0, 0.5, 1.0)],
             tolerance=None)  # leading coefficients are nonzero
    @example(lhs=[1.0], rhs=[1.0], steps=0.5, rows=[(1.0, 0.5, 2.0)],
             tolerance=math.inf)  # half a step apart
    @example(lhs=[1.0], rhs=[1.0], steps=0, rows=[], tolerance=None)
    @example(lhs=[1.0], rhs=[1.0], steps=0.5, rows=[], tolerance=None)
    @example(lhs=[1e300, 1.0], rhs=[-1e300], steps=0,
             rows=[(1.0, 0.5, 1.0)], tolerance=math.inf)
    def test_coefficientwise(self, lhs, rhs, steps, rows, tolerance):
        sides = (FracSeries(0.5, 1.0, lhs), FracSeries(0.5, 1.0 + steps, rhs))
        args = ("frozen", rows, sides, tolerance)
        want = report_outcome(ref_coefficientwise, *args)
        if want[0] is AlignmentError:
            # an intended change: misaligned sides fail the check (exit 1
            # from the CLI) instead of raising (exit 2)
            want = report_outcome(ref_misaligned, *args)
            assert want[0] is ValueError or want[4] is False
        assert report_outcome(_coefficientwise, *args) == want
