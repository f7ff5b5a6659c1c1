"""Tests for the fractional power series type and its calculus."""

import math
import struct
from unittest.mock import patch

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confbessel import (
    EvalResult,
    FracSeries,
    LogSolution,
    bessel_j_neg_series,
    bessel_j_series,
    conformable_diff_exact,
    eval_log_solution,
    eval_series,
    gamma,
    second_solution_integer_order,
    second_solution_order_zero,
    series_rebase,
    series_scale,
    series_shift,
)
from confbessel import series
from confbessel.errors import AlignmentError, DomainError


def S(alpha, offset, coeffs):
    return FracSeries(alpha, offset, tuple(coeffs))


def full_sum(s, x):
    """``eval_series`` without its early stop: every slot is summed."""
    with patch.object(series, "STOP_REL", 0.0):
        return EvalResult(*series.eval_series_kernel(s, x))


class TestAlpha:
    """The one alpha validator, which every holder of alpha calls."""

    def test_accepts_half_open_interval(self):
        assert series.checked_alpha(1.0) == 1.0
        assert series.checked_alpha(0.3) == 0.3
        assert series.checked_alpha(1e-6) == 1e-6

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, float("inf"), float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            series.checked_alpha(bad)

    def test_of_is_idempotent(self):
        a = series.checked_alpha(0.5)
        assert series.checked_alpha(a) is a


class TestFracSeries:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            S(1.0, 0.0, [])
        with pytest.raises(ValueError):
            S(1.0, 0.0, [1.0, float("nan")])
        with pytest.raises(ValueError):
            S(1.0, float("inf"), [1.0])

    def test_error_names_first_non_finite_coefficient(self):
        with pytest.raises(ValueError,
                           match=r"^non-finite coefficient inf$"):
            S(1.0, 0.0, [1.0, float("inf"), float("nan")])
        with pytest.raises(ValueError,
                           match=r"^non-finite coefficient nan$"):
            S(1.0, 0.0, [float("nan"), 2.0])

    def test_immutable(self):
        s = S(1.0, 0.0, [1.0])
        with pytest.raises(AttributeError):
            s.offset = 2.0

    def test_len_and_dunders(self):
        a = S(1.0, 0.0, [1.0, 2.0])
        assert len(a) == 2


class TestEvenSlots:
    """``FracSeries._walk``: the even slots when they hold every nonzero
    coefficient, else every slot, as ``(coeffs[::stride], stride)``."""

    def test_list_and_tuple_build_equal_values(self):
        coeffs = [1.0, 0.0, -0.25, -0.0, 1 / 64]
        a = FracSeries(0.5, 1.0, coeffs)
        b = FracSeries(0.5, 1.0, tuple(coeffs))
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert "_walk" not in repr(a)
        assert a._walk == b._walk == ((1.0, -0.25, 1 / 64), 2)

    def test_every_slot_when_an_odd_slot_is_nonzero(self):
        assert FracSeries(1, 0, [1, 1])._walk == ((1.0, 1.0), 1)
        assert FracSeries(1, 0, [0, 1, -0.0, 2])._walk == (
            (0.0, 1.0, -0.0, 2.0), 1)
        assert FracSeries(1, 0, [0, -0.0, 0])._walk == ((0.0, 0.0), 2)
        j = bessel_j_series(0.0, 0.5, 10)
        assert j._walk == (j.coeffs[::2], 2)
        odd = FracSeries(0.5, 0.0, (0.0,) + j.coeffs)
        assert odd._walk == (odd.coeffs, 1)
        # a rebase by an odd number of steps walks every slot, by an even
        # number its even slots; a shift keeps the walk it was given
        assert series_rebase(j, -1.0)._walk == (odd.coeffs, 1)
        assert series_rebase(j, -2.0)._walk == ((0.0,) + j.coeffs[::2], 2)
        assert series_shift(j, 1)._walk is j._walk

    def test_every_family_records_its_even_slots(self):
        parts = [bessel_j_series(2.5, 0.8, 30),
                 bessel_j_neg_series(1.5, 0.8, 31)]
        for sol in (second_solution_order_zero(0.8, 30),
                    second_solution_integer_order(2, 0.8, 30)):
            parts += [sol.log_part, sol.plain_part]
        for part in parts:
            assert part._walk == (part.coeffs[::2], 2)

    def test_assignment_still_raises(self):
        a = S(1.0, 0.0, [1.0, 0.0, 2.0])
        for name in ("coeffs", "_walk"):
            with pytest.raises(AttributeError):
                setattr(a, name, (3.0,))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a._walk == ((1.0, 2.0), 2)


class TestSeriesScale:
    def test_scale_by_zero_and_one(self):
        a = S(1.0, 0.0, [1.0, -0.25])
        assert series_scale(a, 0.0).coeffs == (0.0, 0.0)
        assert series_scale(a, 1.0).coeffs == a.coeffs

    def test_scales_each_coefficient(self):
        a = S(1.0, 0.0, [1.0, -0.25])
        assert series_scale(a, 2.0).coeffs == (2.0, -0.5)

    def test_non_finite_factor_raises(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError) as info:
                series_scale(S(1.0, 0.0, [1.0]), value)
            assert str(info.value) == (
                f"scale factor must be finite, got {value!r}")


class TestSeriesShift:
    @pytest.mark.parametrize("k", [1, 2, 3, 10**18, 10**19])
    def test_whole_step_moves_offset(self, k):
        # no zeros are prepended: the tuple and its walk, even slots or
        # every slot, are the ones given
        for a in (bessel_j_series(1.0, 0.5), S(1.0, 0.5, [1.0, 2.0])):
            shifted = series_shift(a, k)
            assert shifted.coeffs is a.coeffs
            assert shifted._walk is a._walk
            assert shifted.offset == a.offset + k
            assert shifted.alpha == a.alpha

    def test_zero_is_identity(self):
        a = S(1.0, 0.0, [1.0, 2.0])
        assert series_shift(a, 0) is a

    def test_non_integer_moves_offset(self):
        a = S(1.0, 0.0, [1.0])
        for dr in (-0.5, 1.0 + 1e-13, 1.0 - 1e-13):
            shifted = series_shift(a, dr)
            assert shifted.offset == dr
            assert shifted.coeffs == (1.0,)

    def test_negative_integer_moves_offset(self):
        a = S(1.0, 1.0, [1.0, 2.0])
        shifted = series_shift(a, -1)
        assert shifted.offset == 0.0
        assert shifted.coeffs == (1.0, 2.0)

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(["J", "Jneg", "log", "plain"]),
           twice_p=st.integers(min_value=0, max_value=40),
           alpha=st.floats(min_value=0.05, max_value=1.0),
           n_terms=st.integers(min_value=1, max_value=60),
           k=st.integers(min_value=1, max_value=3))
    @example(family="J", twice_p=0, alpha=1.0, n_terms=1, k=1)
    @example(family="Jneg", twice_p=3, alpha=0.5, n_terms=7, k=2)
    @example(family="plain", twice_p=4, alpha=0.8, n_terms=6, k=3)
    def test_rebased_whole_shift_is_the_padded_series(
            self, family, twice_p, alpha, n_terms, k):
        # whole and half-integer orders, so offset + k is exact
        p = twice_p / 2
        if family == "J":
            a = bessel_j_series(p, alpha, n_terms)
        elif family == "Jneg":
            a = bessel_j_neg_series(p, alpha, n_terms)
        else:
            m = twice_p // 2
            sol = (second_solution_integer_order(m, alpha, n_terms) if m
                   else second_solution_order_zero(alpha, n_terms))
            a = sol.log_part if family == "log" else sol.plain_part
        got = series_rebase(series_shift(a, k), a.offset)
        want = FracSeries(a.alpha, a.offset, (0.0,) * k + a.coeffs)
        assert repr(got) == repr(want)
        assert got == want and got._walk == want._walk

    @pytest.mark.parametrize("dr", [1, 3, 0.5, -1.5, -2])
    def test_shift_multiplies_by_power(self, dr):
        a = S(0.7, 0.5, [1.0, -0.5, 0.25, 0.1])
        for x in (0.5, 1.0, 2.5):
            lhs = eval_series(series_shift(a, dr), x).value
            rhs = x ** (dr * 0.7) * eval_series(a, x).value
            assert lhs == pytest.approx(rhs, rel=5e-15)


class TestSeriesRebase:
    def test_lowering_offset_prepends_zeros(self):
        a = S(1.0, 2.0, [1.0, 2.0])
        r = series_rebase(a, 0.0)
        assert r.offset == 0.0
        assert r.coeffs == (0.0, 0.0, 1.0, 2.0)

    def test_raising_offset_drops_zero_leads(self):
        a = S(1.0, 0.0, [0.0, 0.0, 1.0, 2.0])
        r = series_rebase(a, 2.0)
        assert r.offset == 2.0
        assert r.coeffs == (1.0, 2.0)

    def test_raising_past_nonzero_lead_raises(self):
        a = S(1.0, 0.0, [1.0, 2.0])
        with pytest.raises(AlignmentError):
            series_rebase(a, 1.0)

    def test_fractional_step_raises(self):
        # near-whole steps too: a relabelled offset, or zeros prepended,
        # would change the function by x**(1e-13*alpha)
        a = S(1.0, 0.0, [1.0])
        for offset in (0.25, -1e-13, -1.0 + 1e-13):
            with pytest.raises(AlignmentError):
                series_rebase(a, offset)

    def test_preserves_represented_function(self):
        a = S(0.5, 1.0, [1.0, -0.5, 0.25])
        r = series_rebase(a, -1.0)
        for x in (0.5, 1.0, 3.0):
            assert eval_series(r, x).value == pytest.approx(
                eval_series(a, x).value, rel=1e-15)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_shift_or_offset_is_refused(value):
    # each is refused before round(), which raises OverflowError or a bare
    # ValueError on a non-finite float
    a = S(1.0, 0.0, [1.0, 2.0])
    with pytest.raises(ValueError) as info:
        series_shift(a, value)
    assert type(info.value) is ValueError
    assert str(info.value) == f"shift must be finite, got {value!r}"
    with pytest.raises(ValueError) as info:
        S(1.0, value, [1.0])
    assert str(info.value) == f"offset must be finite, got {value!r}"
    with pytest.raises(AlignmentError) as info:
        series_rebase(a, value)
    assert str(info.value) == (f"cannot rebase offset 0.0 to {value}: "
                               "difference is not a whole number of "
                               "alpha-steps")


HUGE_INT_ENTRY_POINTS = {
    "checked_alpha": (DomainError, "alpha must be a finite real number",
                      series.checked_alpha),
    "FracSeries alpha": (DomainError, "alpha must be a finite real number",
                         lambda v: FracSeries(v, 0.0, (1.0,))),
    "bessel_j_series alpha": (DomainError,
                              "alpha must be a finite real number",
                              lambda v: bessel_j_series(1.0, v)),
    "FracSeries offset": (ValueError, "offset must be finite",
                          lambda v: FracSeries(1.0, v, (1.0,))),
    "FracSeries coefficient": (ValueError, "non-finite coefficient",
                               lambda v: FracSeries(1.0, 0.0, (1.0, v))),
    "series_scale": (ValueError, "scale factor must be finite",
                     lambda v: series_scale(S(1.0, 0.0, [1.0]), v)),
    "series_shift": (ValueError, "shift must be finite",
                     lambda v: series_shift(S(1.0, 0.0, [1.0]), v)),
    "series_rebase": (AlignmentError, "cannot rebase offset 0.0 to",
                      lambda v: series_rebase(S(1.0, 0.0, [1.0]), v)),
    "eval_series": (DomainError, "x must be a finite real number",
                    lambda v: eval_series(S(1.0, 0.0, [1.0]), v)),
    "eval_log_solution": (DomainError, "x must be a finite real number",
                          lambda v: eval_log_solution(
                              second_solution_order_zero(1.0, 10), v)),
    "eval_series_kernel": (DomainError, "x must be a finite real number",
                           lambda v: series.eval_series_kernel(
                               S(1.0, 0.0, [1.0]), v)),
    "gamma": (ValueError, "gamma requires a finite argument", gamma),
}


@pytest.mark.parametrize("value", [10**400, -10**400],
                         ids=["10**400", "-10**400"])
@pytest.mark.parametrize("entry", sorted(HUGE_INT_ENTRY_POINTS))
def test_int_beyond_float_range_raises_the_entry_points_error(entry, value):
    # every outside number goes through one float conversion, which reads
    # such an int as +-inf instead of raising OverflowError
    error, message, call = HUGE_INT_ENTRY_POINTS[entry]
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("steps", [1e300, 1e19, 10**19])
def test_whole_step_count_beyond_an_index_is_refused(steps):
    # counts beyond sys.maxsize only: a count that fits an index but not
    # memory would really try to build the tuple of zeros
    a = bessel_j_series(0.0, 1.0, 10)
    with pytest.raises(AlignmentError) as info:
        series_rebase(a, -steps)
    assert str(info.value) == f"cannot rebase by {float(steps):g} steps"


def test_long_whole_shift_builds_no_slots():
    # 10**6 + 1 steps move the offset only; the first power x**offset
    # underflows to 0.0 at x = 0.999, as the true value does, and
    # overflows at x = 1.5
    j = bessel_j_series(0.0, 1.0)
    a = series_shift(j, 10**6 + 1)
    assert a.coeffs is j.coeffs
    assert eval_series(a, 0.999).value == 0.0
    with pytest.raises(DomainError):
        eval_series(a, 1.5)


class TestCheckOnce:
    """A derived series reuses the checked coefficients it came from: only
    newly computed slots are checked, each series once."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = series._check_finite

        def counted(values):
            calls.append(len(values))
            return check(values)

        monkeypatch.setattr(series, "_check_finite", counted)
        return calls

    @pytest.mark.parametrize("derive", [
        lambda a: series_shift(a, 0.5),
        lambda a: series_shift(a, -1.5),
        lambda a: series_shift(a, 1),
        lambda a: series_shift(a, 2),
        lambda a: series_rebase(a, a.offset - 3.0),
        lambda a: series_rebase(series_rebase(a, a.offset - 2.0), a.offset),
    ], ids=["shift-half", "shift-negative", "shift-odd", "shift-even",
            "rebase-down", "rebase-up"])
    def test_shift_and_rebase_check_nothing(self, checks, derive):
        j1 = bessel_j_series(1.0, 0.5)
        checks.clear()
        got = derive(j1)
        assert checks == []
        # the same series the validating constructor builds
        want = FracSeries(got.alpha, got.offset, got.coeffs)
        assert got == want and got._walk == want._walk

    def test_fractional_shift_keeps_coefficients_and_walk(self):
        j1 = bessel_j_series(1.0, 0.5)
        shifted = series_shift(j1, 0.5)
        assert shifted.coeffs is j1.coeffs
        assert shifted._walk is j1._walk
        assert shifted.offset == 1.5

    @pytest.mark.parametrize("derive", [
        lambda a: series_scale(a, -2.0),
        conformable_diff_exact,
    ], ids=["scale", "diff"])
    def test_scale_and_diff_check_their_slots_once(self, checks, derive):
        j1 = bessel_j_series(1.0, 0.5)
        checks.clear()
        derive(j1)
        assert checks == [len(j1._walk[0])]

    def test_overflowing_shift_offset_is_still_refused(self):
        a = S(1.0, -1.7e308, [1.0])
        with pytest.raises(ValueError) as info:
            series_shift(a, -1.7e308)
        assert type(info.value) is ValueError
        assert str(info.value) == "offset must be finite, got -inf"


class TestConformableDiffExact:
    def test_constant_series_maps_to_zero(self):
        d = conformable_diff_exact(S(0.5, 0.0, [7.0]))
        assert d.coeffs == (0.0,)
        assert d.offset == -1.0

    def test_power_rule_on_x_alpha(self):
        # x**alpha differentiates to the constant alpha
        d = conformable_diff_exact(S(0.3, 1.0, [1.0]))
        assert d.offset == 0.0
        assert d.coeffs == (0.3,)

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_power_rule_on_monomials(self, k):
        coeffs = [0.0] * (k + 1)
        coeffs[k] = 1.0
        d = conformable_diff_exact(S(0.6, 0.0, coeffs))
        assert d.coeffs[k] == pytest.approx(0.6 * k)
        assert sum(1 for c in d.coeffs if c != 0.0) == (0 if k == 0 else 1)

    def test_second_application_coefficient_formula(self):
        # twice-differentiated coefficients are alpha**2 (n+r)(n+r-1) c_n
        a = S(0.5, 0.25, [1.0, 2.0, 3.0])
        d2 = conformable_diff_exact(conformable_diff_exact(a))
        assert d2.offset == pytest.approx(0.25 - 2.0)
        for n, c in enumerate(a.coeffs):
            e = n + 0.25
            assert d2.coeffs[n] == pytest.approx(0.25 * e * (e - 1.0) * c)

    def test_scale_commutes_exactly_for_powers_of_two(self):
        a = S(0.7, 0.5, [1.0, -0.3, 0.07])
        lhs = conformable_diff_exact(series_scale(a, 4.0))
        rhs = series_scale(conformable_diff_exact(a), 4.0)
        assert lhs.coeffs == rhs.coeffs


class TestEvalSeries:
    def test_rejects_bad_x(self):
        a = S(1.0, 0.0, [1.0])
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                eval_series(a, bad)

    @pytest.mark.parametrize("bad, message", [
        (0.0, "series evaluation requires x > 0, got 0.0"),
        (-0.0, "series evaluation requires x > 0, got -0.0"),
        (-1, "series evaluation requires x > 0, got -1"),
        (float("nan"), "x must be a finite real number, got nan"),
        (float("inf"), "x must be a finite real number, got inf"),
        (float("-inf"), "x must be a finite real number, got -inf"),
        ("2.0", "x must be a finite real number, got '2.0'"),
        (None, "x must be a finite real number, got None"),
    ])
    def test_both_evaluators_refuse_bad_x_alike(self, bad, message):
        a = S(1.0, 0.0, [1.0])
        for evaluate, value in ((eval_series, a),
                                (eval_log_solution, LogSolution(a, a)),
                                (series.eval_series_kernel, a)):
            with pytest.raises(DomainError) as excinfo:
                evaluate(value, bad)
            assert str(excinfo.value) == message

    def test_int_bool_and_float_subclass_x_are_converted(self):
        class MyFloat(float):
            pass

        a = bessel_j_series(0.0, 0.5, 30)
        sol = second_solution_order_zero(0.5, 30)
        for x, same in ((2, 2.0), (True, 1.0), (MyFloat(2.5), 2.5)):
            assert eval_series(a, x) == eval_series(a, same)
            assert eval_log_solution(sol, x) == eval_log_solution(sol, same)

    def test_near_origin_leading_term_dominates(self):
        a = S(1.0, 0.0, [1.0, 0.0, -0.25])
        assert eval_series(a, 1e-8).value == pytest.approx(1.0, abs=1e-15)

    def test_polynomial_value(self):
        # alpha=1, offset=0: plain polynomial in x
        a = S(1.0, 0.0, [1.0, 2.0, 3.0])
        assert eval_series(a, 2.0).value == pytest.approx(1 + 4 + 12, rel=1e-15)

    def test_early_stop_reports_fewer_terms(self):
        j0 = bessel_j_series(0.0, 1.0, 60)
        res = eval_series(j0, 0.5)
        assert res.terms_used < 60
        assert res.tail_estimate < 1e-16

    def test_stop_rel_zero_uses_all_terms(self):
        j0 = bessel_j_series(0.0, 1.0, 60)
        res = full_sum(j0, 0.5)
        assert res.terms_used == 60

    def test_early_stop_does_not_change_value_materially(self):
        j0 = bessel_j_series(0.0, 1.0, 60)
        eager = eval_series(j0, 2.0)
        full = full_sum(j0, 2.0)
        assert eager.value == pytest.approx(full.value, rel=1e-14)

    def test_tail_soundness_on_alternating_series(self):
        # extending the truncation moves the value by less than the
        # reported tail estimate, for x**alpha <= 2
        full = bessel_j_series(0.0, 1.0, 60)
        for n in (8, 10, 12):
            trunc = S(1.0, 0.0, full.coeffs[:n])
            for x in (0.5, 1.0, 2.0):
                longer = S(1.0, 0.0, full.coeffs[:n + 5])
                res = full_sum(trunc, x)
                drift = abs(full_sum(longer, x).value - res.value)
                assert drift <= res.tail_estimate

    def test_underflowed_tail_is_positive_zero(self):
        # c_2 * x**1.5 with c_2 < 0 underflows to -0.0 and is the last term
        # added, on an early stop and at the end of a three-slot walk; its
        # magnitude is +0.0
        short = bessel_j_neg_series(0.5, 1.0, 3)
        for res in (eval_series(bessel_j_neg_series(0.5, 1.0), 1e-300),
                    full_sum(short, 1e-300)):
            assert res.terms_used == 3
            assert math.copysign(1.0, res.tail_estimate) == 1.0

    def test_negative_offset_singularity_growth(self):
        a = S(0.5, -1.0, [1.0])
        assert eval_series(a, 0.25).value == pytest.approx(0.25 ** -0.5)


class TestLogSolution:
    def test_alpha_agreement_enforced(self):
        # equal, not merely close
        for other in (0.75, 0.5 + 1e-13):
            with pytest.raises(AlignmentError):
                LogSolution(S(0.5, 0.0, [1.0]), S(other, 0.0, [1.0]))

    def test_zero_log_part_reduces_to_plain(self):
        sol = LogSolution(S(1.0, 0.0, [0.0]), S(1.0, 0.0, [1.0, 2.0]))
        for x in (0.5, 3.0):
            assert eval_log_solution(sol, x).value == pytest.approx(
                eval_series(sol.plain_part, x).value, rel=1e-15)

    def test_at_one_log_term_vanishes(self):
        sol = LogSolution(S(1.0, 0.0, [5.0]), S(1.0, 0.0, [1.0, 2.0]))
        assert eval_log_solution(sol, 1.0).value == pytest.approx(3.0)

    def test_combines_value_terms_and_tail(self):
        lg = S(1.0, 0.0, [1.0, 1.0, 1.0])
        pl = S(1.0, 0.0, [1.0])
        sol = LogSolution(lg, pl)
        res = eval_log_solution(sol, 2.0)
        assert res.value == pytest.approx(7.0 * math.log(2.0) + 1.0, rel=1e-15)
        assert res.terms_used == 3

    def test_rejects_non_positive_x(self):
        sol = LogSolution(S(1.0, 0.0, [1.0]), S(1.0, 0.0, [1.0]))
        with pytest.raises(DomainError):
            eval_log_solution(sol, 0.0)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_negative_and_non_finite_x(self, bad):
        sol = LogSolution(S(1.0, 0.0, [1.0]), S(1.0, 0.0, [1.0]))
        with pytest.raises(DomainError):
            eval_log_solution(sol, bad)

    @pytest.mark.parametrize("log_offset, plain_offset, x", [
        (2.0, 0.0, 1e200),     # the log part's power overflows
        (0.0, 2.0, 1e200),     # the plain part's power overflows
        (0.0, -2.0, 1e-200),   # a negative offset at a tiny x
    ])
    def test_overflow_raises_domain_error(self, log_offset, plain_offset, x):
        sol = LogSolution(S(1.0, log_offset, [1.0]),
                          S(1.0, plain_offset, [1.0]))
        part = sol.log_part if log_offset else sol.plain_part
        for evaluate, value in ((eval_log_solution, sol), (eval_series, part),
                                (series.eval_series_kernel, part)):
            with pytest.raises(DomainError) as excinfo:
                evaluate(value, x)
            assert str(excinfo.value) == (
                f"x = {x:g} is out of range: x**(offset*alpha) overflows "
                "a double")

    @settings(max_examples=150, deadline=None)
    @given(
        which=st.sampled_from(["y2zero", "K1", "K2", "K3"]),
        alpha=st.floats(min_value=0.1, max_value=1.0),
        t=st.floats(min_value=1e-3, max_value=20.0),
        n_terms=st.sampled_from([30, 60, 120]),
    )
    def test_bit_identical_to_two_eval_series_calls(self, which, alpha, t,
                                                    n_terms):
        # the composition eval_log_solution had before it summed the parts
        # directly
        if which == "y2zero":
            sol = second_solution_order_zero(alpha, n_terms)
        else:
            sol = second_solution_integer_order(int(which[1]), alpha, n_terms)
        x = t ** (1.0 / alpha)
        lg = eval_series(sol.log_part, x)
        pl = eval_series(sol.plain_part, x)
        lnx = math.log(x)
        expected = EvalResult(
            lg.value * lnx + pl.value,
            max(lg.terms_used, pl.terms_used),
            abs(lnx) * lg.tail_estimate + pl.tail_estimate,
        )
        got = eval_log_solution(sol, x)
        assert struct.pack("d", got.value) == struct.pack("d", expected.value)
        assert got.terms_used == expected.terms_used
        assert struct.pack("d", got.tail_estimate) == \
            struct.pack("d", expected.tail_estimate)

    def test_kernel_is_looked_up_as_module_global(self, monkeypatch):
        # a tracer rebinds series.eval_series_kernel; both evaluators must
        # reach the kernel through that name, once per series summed
        calls = []
        kernel = series.eval_series_kernel

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(series, "eval_series_kernel", counting)
        sol = second_solution_integer_order(1, 0.5)
        eval_log_solution(sol, 1.5)
        assert len(calls) == 2
        eval_series(sol.plain_part, 1.5)
        assert len(calls) == 3

    def test_evaluators_pass_the_walk(self, monkeypatch):
        # the kernel receives each part series itself; every part of a
        # family walks its even slots, and J_0 one slot later, built as a
        # literal, walks every slot
        calls = []
        kernel = series.eval_series_kernel

        def recording(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(series, "eval_series_kernel", recording)
        sol = second_solution_order_zero(0.5)
        eval_log_solution(sol, 1.5)
        odd = FracSeries(0.5, 0.0, (0.0,) + bessel_j_series(0.0, 0.5).coeffs)
        eval_series(odd, 1.5)
        parts = [sol.log_part, sol.plain_part, odd]
        assert len(calls) == len(parts)
        for (a, x), part in zip(calls, parts):
            assert a is part and x == 1.5
        assert [part._walk for part in parts] == [
            (sol.log_part.coeffs[::2], 2),
            (sol.plain_part.coeffs[::2], 2),
            (odd.coeffs, 1)]


coeff_lists = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=1, max_size=8)


def coeff_sum(a, b):
    """Coefficient-wise sum, the shorter list padded with zeros."""
    n = max(len(a), len(b))
    return [x + y for x, y in zip(a + [0.0] * (n - len(a)),
                                  b + [0.0] * (n - len(b)))]


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=coeff_lists, b=coeff_lists,
           alpha=st.floats(min_value=0.1, max_value=1.0),
           x=st.floats(min_value=0.3, max_value=2.0))
    def test_evaluation_is_linear_in_coefficients(self, a, b, alpha, x):
        sa = S(alpha, 0.0, a)
        sb = S(alpha, 0.0, b)
        lhs = full_sum(S(alpha, 0.0, coeff_sum(a, b)), x).value
        rhs = full_sum(sa, x).value + full_sum(sb, x).value
        majorant = sum(abs(c) * x ** (n * alpha)
                       for n, c in enumerate(a + b))
        assert abs(lhs - rhs) <= 1e-13 * majorant + 1e-300

    @settings(max_examples=60, deadline=None)
    @given(a=coeff_lists, b=coeff_lists,
           alpha=st.floats(min_value=0.1, max_value=1.0),
           offset=st.sampled_from([0.0, 0.5, 1.0, -0.5]))
    def test_differentiation_is_linear(self, a, b, alpha, offset):
        sa = S(alpha, offset, a)
        sb = S(alpha, offset, b)
        lhs = conformable_diff_exact(S(alpha, offset, coeff_sum(a, b)))
        da = conformable_diff_exact(sa)
        db = conformable_diff_exact(sb)
        assert lhs.offset == da.offset == db.offset
        rhs = coeff_sum(list(da.coeffs), list(db.coeffs))
        for n, (l, r) in enumerate(zip(lhs.coeffs, rhs)):
            slack = 4e-16 * abs(alpha * (n + offset)) * (
                abs(sa.coeffs[n] if n < len(sa.coeffs) else 0.0)
                + abs(sb.coeffs[n] if n < len(sb.coeffs) else 0.0))
            assert abs(l - r) <= slack + 1e-300

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(min_value=0, max_value=3),
           alpha=st.floats(min_value=0.2, max_value=1.0),
           x=st.floats(min_value=0.3, max_value=3.0))
    # four O(1) terms cancel to -0.0047 here: relative error 2.9e-14,
    # absolute error 0.3 u times the sum of the terms' magnitudes
    @example(m=1, alpha=0.6875, x=2.75)
    def test_integer_shift_matches_power_multiplication(self, m, alpha, x):
        coeffs = [1.0, -0.5, 0.25, -0.125]
        a = S(alpha, 0.0, coeffs)
        lhs = eval_series(series_shift(a, m), x).value
        rhs = x ** (m * alpha) * eval_series(a, x).value
        # The gate scales with sum |terms|, not |value|: the terms can cancel.
        # First-order error analysis (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2nd ed., ch. 3-4): the k-th power of x**alpha
        # takes k roundings plus k times the error of x**alpha itself (libm
        # pow is good to about u), at most 2k u in all (k <= 3 on either
        # side, whose first power is one pow); the coefficients are
        # powers of two, so each product with them is exact; compensated
        # summation adds at most 2u sum|terms| (eq. 4.8); x**(m*alpha) and the
        # final product add 2u.  So |lhs - rhs| <= (14 + 10) u sum|terms|.
        u = 2.0 ** -53
        magnitude = x ** (m * alpha) * sum(
            abs(c) * x ** (n * alpha) for n, c in enumerate(coeffs))
        assert abs(lhs - rhs) <= 24 * u * magnitude


class TestMpmathPins:
    """``eval_series`` against mpmath through J_{alpha,p}(x) = J_p(x**alpha).

    The gate is 1e-13 relative plus the rounding floor of the sum itself,
    16u times the sum of |terms|.  The floor matters near the zeros of J_p
    and towards t = 10, where the alternating terms cancel (at t = 10 and
    p = 1 the relative error is 2.5e-12 while the absolute one is 1.1e-13).
    ``eval_log_solution`` is pinned the same way at t <= 3, where a flat
    1e-14 * max(1, |ref|) holds.
    """

    @pytest.mark.parametrize("p", [0.0, 1.0, 2.5,
                                   # near-integer orders, built as given
                                   5e-10, 1.0 + 1e-10, 2.0000000009,
                                   3.0 - 1e-10])
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    def test_first_kind_matches_classical_bessel(self, p, alpha):
        s = bessel_j_series(p, alpha)
        u = 2.0 ** -53
        with mpmath.workdps(40):
            for k in range(1, 41):
                t = k / 4
                x = t ** (1.0 / alpha)
                ref = mpmath.besselj(p, mpmath.mpf(x) ** alpha)
                got = eval_series(s, x).value
                mag = math.fsum(abs(c) * x ** ((n + s.offset) * alpha)
                                for n, c in enumerate(s.coeffs))
                assert abs(got - ref) <= 1e-13 * abs(ref) + 16 * u * mag, \
                    (p, alpha, t)

    @pytest.mark.parametrize("step", [
        1e-10, -1e-10, 5e-10, 9e-10, -9e-10, 1e-13, -1e-13,
        # one ulp either side of m
        math.inf, -math.inf])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_negative_order_near_an_integer_matches_classical_bessel(
            self, m, step):
        # J_{-p} at p = m + delta, built as given, at alpha = 1 on
        # x in [0.01, 9].  c0 takes gamma(1 - p) through the reflection,
        # whose sine is reduced exactly near the pole: with
        # math.sin(math.pi * z) c0 was off by about m u / delta (1.8e-6 at
        # m = 5 and delta = -1e-10, 45 % at one ulp).  Taking p for m,
        # (-1)**m J_m, drops the x**(-p) terms of size delta and is off by
        # up to 156 % here.  The gate is the first kind's but 1e-11 for
        # 1e-13: one ulp from 5, at x = 0.01, the terms of size delta fall
        # below STOP_REL at n = 8 and the kernel stops before the J_5 part
        # at n = 10, a 3.8e-12 loss.  Every other case is within 1e-13.
        p = math.nextafter(m, step) if math.isinf(step) else m + step
        s = bessel_j_neg_series(p, 1.0)
        u = 2.0 ** -53
        with mpmath.workdps(40):
            for x in (0.01, *(k / 4 for k in range(1, 37))):
                ref = mpmath.besselj(-mpmath.mpf(p), x)
                got = eval_series(s, x).value
                mag = math.fsum(abs(c) * x ** (n + s.offset)
                                for n, c in enumerate(s.coeffs))
                assert abs(got - ref) <= 1e-11 * abs(ref) + 16 * u * mag, \
                    (p, x)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3a: the early stop assumes falling terms; the terms "
        "of size delta fall below STOP_REL at n = 8, before the J_5 part"))
    def test_negative_order_one_ulp_from_five_sums_its_j5_part(self):
        # 9 slots summed, tail estimate 4.6e-24, 3.8e-12 relative off
        p = math.nextafter(5.0, math.inf)
        got = eval_series(bessel_j_neg_series(p, 1.0), 0.01).value
        with mpmath.workdps(40):
            ref = mpmath.besselj(-mpmath.mpf(p), 0.01)
            assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
    def test_log_solutions_match_closed_form(self, m, alpha):
        # y2zero and K_m are (1/alpha)[(pi/2) Y_m(t) + (ln 2 - gamma) J_m(t)]
        # at t = x**alpha: the J_m term is K's normalization, which neither
        # the residual nor the Wronskian can see
        s = (second_solution_order_zero(alpha, 120) if m == 0
             else second_solution_integer_order(m, alpha, 120))
        with mpmath.workdps(40):
            for k in range(2, 31):
                x = k / 10
                t = mpmath.mpf(x) ** alpha
                ref = (mpmath.pi / 2 * mpmath.bessely(m, t)
                       + (mpmath.log(2) - mpmath.euler)
                       * mpmath.besselj(m, t)) / alpha
                got = eval_log_solution(s, x).value
                assert abs(got - ref) <= 1e-14 * max(1, abs(ref)), \
                    (m, alpha, x)
