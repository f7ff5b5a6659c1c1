"""Tests for the numeric conformable derivative operators."""

import math

import pytest

from confbessel import (
    bessel_j_series,
    conformable_diff_exact,
    eval_series,
    second_solution_order_zero,
)
from confbessel.conformable import (
    DiffConfig,
    conformable_diff2_numeric,
    conformable_diff_numeric,
)
from confbessel.errors import DomainError, EvaluationError


def ref_diff(f, x, alpha, step_scale):
    """The operator as it stood with a ``step_scale`` option: the prefactor
    times a central difference of step ``step_scale * max(x, 1)``."""
    h = step_scale * max(x, 1.0)
    return x ** (1.0 - alpha) * ((f(x + h) - f(x - h)) / (2.0 * h))


class TestDiffConfig:
    def test_holds_alpha_only(self):
        cfg = DiffConfig(0.5)
        assert cfg.alpha == 0.5 and type(cfg)._fields == ("alpha",)

    def test_coerces_float_alpha(self):
        alpha = DiffConfig(1).alpha
        assert alpha == 1.0 and type(alpha) is float

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("x", [0.4, 1.0, 3.7, 3, 2**60 + 1])
    def test_steps_are_the_old_default_bit_for_bit(self, alpha, x):
        # the first derivative steps by 1e-6 * max(x, 1), each stage of the
        # second by sqrt(1e-6) * max(x, 1), as the one-time default did; an
        # int x gives the bits of the int arithmetic it once went through
        f = math.sin
        cfg = DiffConfig(alpha)
        assert conformable_diff_numeric(f, x, cfg) \
            == ref_diff(f, x, alpha, 1e-6)
        stage = math.sqrt(1e-6)
        assert conformable_diff2_numeric(f, x, cfg) == ref_diff(
            lambda t: ref_diff(f, t, alpha, stage), x, alpha, stage)


class TestFirstDerivative:
    def test_power_rule_spot_value(self):
        # d^alpha(x**2) = 2 x**(2-alpha); at alpha=1/2, x=4 this is 16
        got = conformable_diff_numeric(lambda t: t * t, 4.0, DiffConfig(0.5))
        assert got == pytest.approx(16.0, abs=1e-6)

    def test_constant_maps_to_zero(self):
        got = conformable_diff_numeric(lambda t: 42.0, 1.7, DiffConfig(0.3))
        assert got == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("x", [0.4, 1.0, 3.0])
    def test_x_to_alpha_differentiates_to_alpha(self, alpha, x):
        got = conformable_diff_numeric(lambda t: t ** alpha, x,
                                       DiffConfig(alpha))
        assert got == pytest.approx(alpha, abs=1e-6)

    def test_reduces_to_classical_derivative_at_alpha_one(self):
        got = conformable_diff_numeric(math.sin, 1.2, DiffConfig(1.0))
        assert got == pytest.approx(math.cos(1.2), abs=1e-9)

    def test_linearity(self):
        cfg = DiffConfig(0.6)
        f = math.sin
        g = math.exp

        def combo(t):
            return 2.0 * f(t) - 3.0 * g(t)

        lhs = conformable_diff_numeric(combo, 1.5, cfg)
        rhs = 2.0 * conformable_diff_numeric(f, 1.5, cfg) \
            - 3.0 * conformable_diff_numeric(g, 1.5, cfg)
        assert lhs == pytest.approx(rhs, abs=1e-7)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_product_rule(self, x):
        # d^alpha(fg) = f d^alpha(g) + g d^alpha(f), with f=x**a, g=x**2a
        a = 0.7
        cfg = DiffConfig(a)
        f = lambda t: t ** a
        g = lambda t: t ** (2 * a)
        lhs = conformable_diff_numeric(lambda t: f(t) * g(t), x, cfg)
        rhs = f(x) * conformable_diff_numeric(g, x, cfg) \
            + g(x) * conformable_diff_numeric(f, x, cfg)
        assert lhs == pytest.approx(rhs, abs=1e-5)

    def test_rejects_non_positive_x(self):
        with pytest.raises(DomainError):
            conformable_diff_numeric(math.sin, 0.0, DiffConfig(0.5))
        with pytest.raises(DomainError):
            conformable_diff_numeric(math.sin, -1.0, DiffConfig(0.5))

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    @pytest.mark.parametrize("operator", [conformable_diff_numeric,
                                          conformable_diff2_numeric])
    def test_rejects_non_finite_x(self, operator, x):
        # refused before f is called: inf would reach math.sin, and NaN a
        # step h = nan
        def f(t):
            raise AssertionError(f"f called at {t}")

        with pytest.raises(DomainError) as info:
            operator(f, x, DiffConfig(0.5))
        assert type(info.value) is DomainError
        assert str(info.value) == ("conformable derivative requires a "
                                   f"finite x > 0, got {x}")

    @pytest.mark.parametrize("x, shown", [(10**400, "inf"),
                                          (-10**400, "-inf")],
                             ids=["10**400", "-10**400"])
    @pytest.mark.parametrize("operator", [conformable_diff_numeric,
                                          conformable_diff2_numeric])
    def test_int_beyond_float_range_is_refused(self, operator, x, shown):
        # read as +-inf, as every other entry point reads such an int,
        # instead of escaping as OverflowError from the step arithmetic
        with pytest.raises(DomainError) as info:
            operator(math.sin, x, DiffConfig(0.5))
        assert type(info.value) is DomainError
        assert str(info.value) == ("conformable derivative requires a "
                                   f"finite x > 0, got {shown}")

    def test_non_finite_function_value_raises(self):
        with pytest.raises(EvaluationError):
            conformable_diff_numeric(lambda t: float("nan"), 1.0,
                                     DiffConfig(0.5))


class TestSecondDerivative:
    @pytest.mark.parametrize("alpha", [0.4, 0.7, 1.0])
    @pytest.mark.parametrize("x", [0.7, 1.3, 2.0])
    def test_two_power_rule_steps_give_constant(self, alpha, x):
        # d^alpha d^alpha (x**(2 alpha)) = 2 alpha**2, independent of x
        got = conformable_diff2_numeric(lambda t: t ** (2 * alpha), x,
                                        DiffConfig(alpha))
        assert got == pytest.approx(2.0 * alpha * alpha, abs=1e-4)

    def test_constant_maps_to_zero(self):
        got = conformable_diff2_numeric(lambda t: -3.5, 1.1, DiffConfig(0.8))
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_agrees_with_exact_twice_differentiated_series(self):
        j0 = bessel_j_series(0.0, 1.0, 60)
        d2 = conformable_diff_exact(conformable_diff_exact(j0))
        f = lambda t: eval_series(j0, t).value
        for x in (0.8, 1.0, 2.0):
            got = conformable_diff2_numeric(f, x, DiffConfig(1.0))
            want = eval_series(d2, x).value
            assert got == pytest.approx(want, abs=1e-4)

    def test_rejects_non_positive_x(self):
        with pytest.raises(DomainError):
            conformable_diff2_numeric(math.sin, 0.0, DiffConfig(0.5))


class TestOracleAgreement:
    """Numeric operator vs the exact termwise operator, shared code: none."""

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("alpha", [0.4, 0.7, 1.0])
    def test_on_first_kind_series(self, p, alpha):
        s = bessel_j_series(p, alpha, 60)
        exact = conformable_diff_exact(s)
        f = lambda t: eval_series(s, t).value
        cfg = DiffConfig(alpha)
        for x in (0.5, 1.0, 2.0, 4.0):
            num = conformable_diff_numeric(f, x, cfg)
            ref = eval_series(exact, x).value
            assert abs(num - ref) <= 1e-5 * (1.0 + abs(ref))

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_on_log_solution(self, alpha):
        # d^alpha(u ln x + v) = d^alpha(u) ln x + u x**-alpha + d^alpha(v)
        sol = second_solution_order_zero(alpha, 60)
        du = conformable_diff_exact(sol.log_part)
        dv = conformable_diff_exact(sol.plain_part)

        def f(t):
            return (eval_series(sol.log_part, t).value * math.log(t)
                    + eval_series(sol.plain_part, t).value)

        cfg = DiffConfig(alpha)
        for x in (0.5, 1.0, 2.0):
            num = conformable_diff_numeric(f, x, cfg)
            ref = (eval_series(du, x).value * math.log(x)
                   + eval_series(sol.log_part, x).value * x ** -alpha
                   + eval_series(dv, x).value)
            assert abs(num - ref) <= 1e-5 * (1.0 + abs(ref))
