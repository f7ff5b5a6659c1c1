"""Tests for the summation kernel."""

import math
import struct
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confbessel import (
    FracSeries,
    bessel_j_neg_series,
    bessel_j_series,
    eval_log_solution,
    eval_series,
    kernel_backend,
    second_solution_integer_order,
    second_solution_order_zero,
)
from confbessel import series
from confbessel.series import eval_series_kernel


def while_loop_kernel(coeffs, alpha, offset, x, stop_rel):
    """The indexed ``while`` loop the kernel replaced, kept as the oracle.

    ``eval_series_kernel`` must return the same ``(value, terms_used, tail)``
    bit for bit over every walk: same Kahan step, same stop test, same order
    of the ``power *= xa`` multiplications.
    """
    xa = x ** alpha
    power = x ** (offset * alpha)

    total = 0.0
    carry = 0.0
    tail = 0.0
    used = 0

    n = 0
    n_coeffs = len(coeffs)
    while n < n_coeffs:
        c = coeffs[n]
        if c != 0.0:
            term = c * power
            # Kahan step
            yk = term - carry
            t = total + yk
            carry = (t - total) - yk
            total = t
            tail = term if term >= 0.0 else -term
            used = n + 1
            at = total if total >= 0.0 else -total
            if tail < stop_rel * at:
                return total, used, tail + 0.0
        power *= xa
        n += 1

    return total, n_coeffs, tail + 0.0


def bits(result):
    value, used, tail = result
    return struct.pack("d", value), used, struct.pack("d", tail)


def walk_of(coeffs):
    """The walk a series of ``coeffs`` records: its even slots when every
    odd slot is 0.0 or -0.0, else all of its slots."""
    return (coeffs, 1) if any(coeffs[1::2]) else (coeffs[::2], 2)


def kernel_at(a, x, stop_rel):
    """``eval_series_kernel(a, x)`` with ``series.STOP_REL`` set to
    ``stop_rel``; a patch, since hypothesis refuses the function-scoped
    ``monkeypatch`` fixture."""
    with patch.object(series, "STOP_REL", stop_rel):
        return eval_series_kernel(a, x)


def assert_bit_identical(a, x, stop_rel):
    """The kernel over the walk the series ``a`` records, against the
    while-loop oracle over its every slot."""
    expected = bits(while_loop_kernel(a.coeffs, a.alpha, a.offset, x,
                                      stop_rel))
    assert bits(kernel_at(a, x, stop_rel)) == expected


class TestPythonKernel:
    def test_reports_backend_name(self):
        assert kernel_backend() == "python"

    def test_early_stop_and_tail(self):
        j0 = bessel_j_series(0.0, 1.0, 60)
        value, used, tail = eval_series_kernel(j0, 0.5)
        assert used < 60
        assert tail >= 0.0
        assert value == pytest.approx(0.93846980724081283, rel=1e-12)

    def test_zero_coefficients_do_not_trigger_stop(self):
        # a zero term must not satisfy the relative stop test or every
        # series would stop after its first gap; each walk here holds zeros
        for coeffs, stride in (((1.0, 0.0, 0.0, 0.0, 1.0), 2),
                               ((1.0, 0.0, 1.0, 1.0, 0.0), 1)):
            a = FracSeries(1.0, 0.0, coeffs)
            assert a._walk[1] == stride
            value, used, _ = eval_series_kernel(a, 1.0)
            assert used == 5
            assert value == pytest.approx(sum(coeffs))


# Coefficients with a good share of exact zeros, as in every even series.
slot = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def even_parity(draw):
    """A tuple of 1-130 slots whose odd slots are all 0.0 or -0.0."""
    n = draw(st.integers(min_value=1, max_value=130))
    out = [None] * n
    out[::2] = draw(st.lists(slot, min_size=(n + 1) // 2,
                             max_size=(n + 1) // 2))
    out[1::2] = draw(st.lists(st.sampled_from([0.0, -0.0]),
                              min_size=n // 2, max_size=n // 2))
    return tuple(out)


def odd_parity():
    """A tuple of 2-131 slots whose even slots are all 0.0 or -0.0: a zero
    slot before an even-parity tuple."""
    return st.tuples(st.sampled_from([0.0, -0.0]), even_parity()).map(
        lambda zero_and_rest: (zero_and_rest[0],) + zero_and_rest[1])


class TestBitIdentity:
    """The kernel over the walk each series records against the while-loop
    oracle."""

    @settings(max_examples=600, deadline=None)
    @given(
        coeffs=st.one_of(st.lists(slot, min_size=1, max_size=40).map(tuple),
                         even_parity(), odd_parity()),
        alpha=st.floats(min_value=0.05, max_value=1.0),
        offset=st.floats(min_value=-3.0, max_value=3.0),
        x=st.floats(min_value=1e-3, max_value=30.0),
        stop_rel=st.sampled_from([0.0, 1e-18, 1e-12, 1e-6, 0.5, 1.0]),
    )
    @example(coeffs=(0.0,), alpha=1.0, offset=0.0, x=2.0, stop_rel=1e-18)
    @example(coeffs=(0.0,) * 7, alpha=0.5, offset=-1.5, x=0.3, stop_rel=1e-18)
    @example(coeffs=(1.0, 0.0, 1e-30), alpha=1.0, offset=-2.0, x=0.5,
             stop_rel=1e-18)
    @example(coeffs=(1.0, 0.0, 1.0, 0.0, 1.0), alpha=1.0, offset=0.0, x=1.0,
             stop_rel=1e-18)
    # the stop test is strict: at n = 1 the tail equals stop_rel * |total|
    @example(coeffs=(1.0, 1.0, 1.0), alpha=1.0, offset=0.0, x=1.0,
             stop_rel=0.5)
    @example(coeffs=(2.5,), alpha=0.5, offset=0.5, x=3.0, stop_rel=0.0)
    @example(coeffs=(1.0, -0.0), alpha=1.0, offset=0.0, x=0.5, stop_rel=1.0)
    @example(coeffs=(0.0, -0.0, 0.0, 0.0), alpha=0.3, offset=-1.0, x=7.0,
             stop_rel=1e-18)
    # slot 2 sits on the stop test's equality (1 == 0.5 * 2) and must not
    # stop; slot 4 stops, so terms_used is 5 of 7
    @example(coeffs=(1.0, 0.0, 1.0, -0.0, 1.0, 0.0, 1.0), alpha=1.0,
             offset=0.0, x=1.0, stop_rel=0.5)
    # the same on every slot of an odd-parity tuple: slot 3 does not stop,
    # slot 5 does (6 of 7)
    @example(coeffs=(0.0, 1.0, -0.0, 1.0, 0.0, 1.0, 0.0), alpha=1.0,
             offset=0.0, x=1.0, stop_rel=0.5)
    def test_matches_while_loop(self, coeffs, alpha, offset, x, stop_rel):
        assert_bit_identical(FracSeries(alpha, offset, coeffs), x, stop_rel)

    @pytest.mark.parametrize("coeffs, offset, x, used", [
        ((1.0, 0.0, 1e-30, 5.0), 0.0, 1.0, 3),  # early stop inside the loop
        ((1.0, 0.0, 1.0), -2.0, 0.5, 3),        # runs out of coefficients
    ])
    def test_both_returns(self, coeffs, offset, x, used):
        a = FracSeries(1.0, offset, coeffs)
        assert eval_series_kernel(a, x)[1] == used
        assert_bit_identical(a, x, 1e-18)

    @pytest.mark.parametrize("alpha", [0.35, 0.8, 1.0])
    @pytest.mark.parametrize("n_terms", [30, 60, 120])
    def test_constructed_series(self, alpha, n_terms):
        parts = [
            bessel_j_series(0.0, alpha, n_terms),
            bessel_j_series(2.5, alpha, n_terms),
            bessel_j_neg_series(1.5, alpha, n_terms),
        ]
        for log_solution in (second_solution_order_zero(alpha, n_terms),
                             second_solution_integer_order(2, alpha, n_terms)):
            parts += [log_solution.log_part, log_solution.plain_part]
        # J_0 one slot later, as outside input: it walks every slot
        parts.append(FracSeries(alpha, 0.0, (0.0,) + parts[0].coeffs))
        assert parts[-1]._walk[1] == 1
        for part in parts:
            assert part._walk == walk_of(part.coeffs)
            for t in (0.01, 0.5, 1.0, 3.3, 9.0, 20.0):
                assert_bit_identical(part, t ** (1.0 / alpha), 1e-18)


def log_solution_bits(sol, x):
    """``eval_log_solution``'s result, summed by the while-loop oracle."""
    lg, lg_used, lg_tail = while_loop_kernel(
        sol.log_part.coeffs, sol.log_part.alpha, sol.log_part.offset,
        x, 1e-18)
    pl, pl_used, pl_tail = while_loop_kernel(
        sol.plain_part.coeffs, sol.plain_part.alpha,
        sol.plain_part.offset, x, 1e-18)
    lnx = math.log(x)
    return bits((lg * lnx + pl, max(lg_used, pl_used),
                 abs(lnx) * lg_tail + pl_tail))


class TestEvenSlots:
    """The walk a series records: even slots, or every slot once an odd slot
    is nonzero.  Slot counts, and through the evaluators every family (each
    part walks its even slots) and J_0 one slot later, built as a literal
    (it walks every slot)."""

    @settings(max_examples=250, deadline=None)
    @given(
        coeffs=st.one_of(even_parity(), odd_parity()),
        alpha=st.floats(min_value=0.05, max_value=1.0),
        offset=st.floats(min_value=-3.0, max_value=3.0),
        x=st.floats(min_value=1e-3, max_value=30.0),
        stop_rel=st.sampled_from([0.0, 1e-18, 1e-12, 1e-6, 0.5, 1.0]),
    )
    @example(coeffs=(0.0,), alpha=1.0, offset=0.0, x=2.0, stop_rel=1e-18)
    @example(coeffs=(2.5,), alpha=0.5, offset=0.5, x=3.0, stop_rel=0.0)
    @example(coeffs=(1.0, -0.0), alpha=1.0, offset=0.0, x=0.5, stop_rel=1.0)
    @example(coeffs=(0.0, -0.0, 0.0, 0.0), alpha=0.3, offset=-1.0, x=7.0,
             stop_rel=1e-18)
    @example(coeffs=(1.0, 0.0, 1.0, -0.0, 1.0, 0.0, 1.0), alpha=1.0,
             offset=0.0, x=1.0, stop_rel=0.5)
    @example(coeffs=(0.0, 1.0, -0.0, 1.0, 0.0, 1.0, 0.0), alpha=1.0,
             offset=0.0, x=1.0, stop_rel=0.5)
    def test_matches_while_loop(self, coeffs, alpha, offset, x, stop_rel):
        a = FracSeries(alpha, offset, coeffs)
        assert a._walk == walk_of(coeffs)
        assert_bit_identical(a, x, stop_rel)

    @pytest.mark.parametrize("coeffs, used", [
        ((1.0, 0.0, 1.0, -0.0, 1.0, 0.0, 1.0), 5),  # early stop at slot 4
        ((1.0, 0.0, 1.0, 0.0), 4),                  # runs out, even length
        ((1.0, 0.0, 1.0), 3),                       # runs out, odd length
        ((0.0, 1.0, -0.0, 1.0, 0.0, 1.0, 0.0), 6),  # early stop at slot 5
        ((0.0, 1.0, 0.0, 1.0), 4),                  # runs out, every slot
    ])
    def test_terms_used_counts_slots_of_the_full_tuple(self, coeffs, used):
        a = FracSeries(1.0, 0.0, coeffs)
        assert kernel_at(a, 1.0, 0.5)[1] == used

    @pytest.mark.parametrize("n_terms", [30, 60, 120])
    @pytest.mark.parametrize("alpha", [0.35, 0.8, 1.0])
    def test_families_through_the_evaluators(self, alpha, n_terms):
        plain = [bessel_j_series(0.0, alpha, n_terms),
                 bessel_j_series(2.5, alpha, n_terms),
                 bessel_j_neg_series(1.5, alpha, n_terms)]
        logs = [second_solution_order_zero(alpha, n_terms),
                second_solution_integer_order(2, alpha, n_terms)]
        for part in plain:
            assert part._walk == (part.coeffs[::2], 2)
        plain.append(FracSeries(alpha, 0.0, (0.0,) + plain[0].coeffs))
        assert plain[-1]._walk == (plain[-1].coeffs, 1)
        for t in (1e-3, 0.01, 0.5, 1.0, 3.3, 9.0, 14.5, 20.0):
            x = t ** (1.0 / alpha)
            for part in plain:
                expected = bits(while_loop_kernel(
                    part.coeffs, alpha, part.offset, x, 1e-18))
                assert bits(eval_series(part, x)) == expected
            for sol in logs:
                assert bits(eval_log_solution(sol, x)) == \
                    log_solution_bits(sol, x)


class TestSelection:
    def test_active_backend_is_known(self):
        assert kernel_backend() in ("python",)
