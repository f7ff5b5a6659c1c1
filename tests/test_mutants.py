"""The mutation table: which check catches each fault.

Each fault is put into the running package by a monkeypatch: a wrapped or
replaced function, or a patched constant.  No source file is edited.  The
patched name is rebound in every loaded module that binds it, tests
included, as ``perfbench/spans.py`` does for its spans.  The coefficient
tables are dropped before and after each fault, so no table built under a
fault outlives it.

A row names the suites that its fault makes fail: the four parts of
``all_suites()`` and the seeded fuzz ``random_residual_suite(0..19)``.  A
fault that every suite misses, a survivor, names instead the tier-1 test
that compares with an independent truth and catches it: the mpmath closed
form of the log families, mpmath's J and J_{-p} at near-integer orders,
the frozen while-loop kernel, or gamma against ``math.gamma``.  A new
check that catches a survivor moves its row.
"""

import math
import sys
from typing import Callable, NamedTuple

import pytest

import test_bessel as bessel_tests
import test_gamma as gamma_tests
import test_kernels as kernel_tests
import test_series as series_tests
from confbessel import bessel as B
from confbessel import checks as C
from confbessel import cli
from confbessel import series as S

#: The cached table builder itself, whatever a fault rebinds ``_table`` to.
TABLE = B._table

SUITES = {
    "residual": lambda: C.residual_suite(),
    "identities": lambda: C.identity_suite(),
    "half-order": lambda: C.half_order_suite(),
    "scaling": lambda: C.scaling_suite(),
    "fuzz": lambda: [r for seed in range(20)
                     for r in C.random_residual_suite(seed)],
}


def failing_suites() -> set[str]:
    return {name for name, run in SUITES.items()
            if not all(r.passed for r in run())}


# The truth tests that catch the survivors; each must raise AssertionError.

def log_closed_form():
    series_tests.TestMpmathPins().test_log_solutions_match_closed_form(1, 0.5)


def near_integer_first_kind():
    series_tests.TestMpmathPins().test_first_kind_matches_classical_bessel(
        2.0000000009, 0.5)


def near_integer_negative_order():
    series_tests.TestMpmathPins(
    ).test_negative_order_near_an_integer_matches_classical_bessel(3, 1e-10)


def while_loop_oracle():
    kernel_tests.TestEvenSlots().test_families_through_the_evaluators(1.0, 30)


def gamma_against_stdlib():
    gamma_tests.TestGammaAccuracy().test_matches_stdlib_to_twelve_digits()


def gamma_near_a_pole():
    gamma_tests.TestGammaAccuracy().test_near_a_pole(3)


class Fault(NamedTuple):
    """``make(original)`` is the faulty value of ``module.name``."""

    module: object
    name: str
    make: Callable
    caught: frozenset[str]
    truth: Callable[[], None] | None = None


def table_entry(change):
    """A wrapped ``_table`` whose entries pass through
    ``change(table, family, order, n_terms, entry)``."""
    def make(table):
        def faulty(family, order, n_terms):
            return change(table, family, order, n_terms,
                          table(family, order, n_terms))
        return faulty
    return make


def k_entry(change):
    """A fault in K's table entry: ``change(table, m, n_terms, b0_num,
    ratios, tail)`` gives the new one."""
    return table_entry(lambda table, family, m, n_terms, entry:
                       change(table, m, n_terms, *entry) if family == "K"
                       else entry)


@table_entry
def fractional_c0(table, family, order, n_terms, entry):
    # c0 off by 1e-6 relative at a non-integer order: the whole J or Jneg
    # series scales with it
    if family == "K" or float(order).is_integer():
        return entry
    return S.series_scale(entry, 1.0 + 1e-6)


@k_entry
def harmonic_step(table, m, n_terms, b0_num, ratios, tail):
    # h_n += 2/(n + 1): each tail slot takes H_n once more
    c = table("J", float(m), n_terms).coeffs[::2]
    return b0_num, ratios, tuple(t - c[n] * bessel_tests.harmonic(n)
                                 for n, t in enumerate(tail))


@k_entry
def harmonic_m_minus_1(table, m, n_terms, b0_num, ratios, tail):
    # H_{m+n} - 1/m for H_{m+n}, as from H_{m-1} for H_m: each tail slot
    # gains c_{2n}/m; y2zero (m = 0) keeps H_n
    if not m:
        return b0_num, ratios, tail
    c = table("J", float(m), n_terms).coeffs[::2]
    return b0_num, ratios, tuple(t + c[n] / m for n, t in enumerate(tail))


@k_entry
def block_ratio(table, m, n_terms, b0_num, ratios, tail):
    # b_{2j} = b_{2j-2} / (2 j (m - j)), a factor 2 short at every step
    return b0_num, tuple(r * 2.0 ** j for j, r in enumerate(ratios)), tail


@k_entry
def doubled_b0(table, m, n_terms, b0_num, ratios, tail):
    return 2.0 * b0_num, ratios, tail


def snapped_order(build):
    # the first kind built at the integer within 1e-9 of its order
    def faulty(p, alpha, n_terms=S.DEFAULT_TERMS):
        m = round(p)
        return build(float(m) if abs(p - m) <= 1e-9 else p, alpha, n_terms)
    return faulty


def snapped_negative_order(build):
    # the series of order -p within 1e-9 of a whole m replaced by the sign
    # reduction of order -m
    def faulty(p, alpha, n_terms=S.DEFAULT_TERMS):
        series, m = build(p, alpha, n_terms), round(p)
        if abs(p - m) <= 1e-9:
            return B.bessel_j_neg_integer_series(m, alpha, n_terms)
        return series
    return faulty


def shifted_offset(diff):
    # the derivative's offset half a step off: r - 0.5 for r - 1
    def faulty(a):
        d = diff(a)
        return S.FracSeries(d.alpha, d.offset + 0.5, d.coeffs)
    return faulty


def log_evaluator(combine):
    """``eval_log_solution`` with ``combine(lg, lnx, pl)`` as its value."""
    def evaluate(s, x):
        lg, lg_used, lg_tail = S.eval_series_kernel(s.log_part, x)
        pl, pl_used, pl_tail = S.eval_series_kernel(s.plain_part, x)
        lnx = math.log(x)
        return S.EvalResult(combine(lg, lnx, pl), max(lg_used, pl_used),
                            abs(lnx) * lg_tail + pl_tail)
    return evaluate


def stride_one_steps_twice(kernel):
    # a stride-1 walk stepped as power * xa * xa: the kernel on a view of
    # the series whose walk says stride 2 for the same slots
    def faulty(a, x):
        if a._walk[1] == 2:
            return kernel(a, x)
        view = object.__new__(S.FracSeries)
        view.__dict__.update(vars(a), _walk=(a.coeffs, 2))
        return kernel(view, x)
    return faulty


def cut_to_7_digits(k):
    def make(coeffs):
        return (*coeffs[:k], float(f"{coeffs[k]:.7g}"), *coeffs[k + 1:])
    return make


FAULTS = {
    "diff-offset-half-step": Fault(
        S, "conformable_diff_exact", shifted_offset,
        frozenset({"residual", "identities", "fuzz"})),
    "fractional-c0": Fault(B, "_table", fractional_c0,
                           frozenset({"half-order"})),
    "neg-integer-sign": Fault(
        B, "bessel_j_neg_integer_series",
        lambda build: lambda m, alpha, n_terms=S.DEFAULT_TERMS:
            S.series_scale(build(m, alpha, n_terms), -1.0),
        frozenset({"identities"})),
    "shift-sign": Fault(S, "series_shift",
                        lambda shift: lambda a, dr: shift(a, -dr),
                        frozenset({"identities"})),
    "log-harmonic-step": Fault(B, "_table", harmonic_step,
                               frozenset({"residual"})),
    "log-block-ratio": Fault(B, "_table", block_ratio,
                             frozenset({"residual"})),
    "log-b0": Fault(B, "_table", doubled_b0, frozenset({"residual"})),
    # the survivors
    "log-minus-plain": Fault(
        S, "eval_log_solution",
        lambda _: log_evaluator(lambda lg, lnx, pl: lg * lnx - pl),
        frozenset(), log_closed_form),
    "log-lnx-scaled": Fault(
        S, "eval_log_solution",
        lambda _: log_evaluator(
            lambda lg, lnx, pl: lg * (lnx * (1.0 + 1e-7)) + pl),
        frozenset(), log_closed_form),
    "K-harmonic-m-minus-1": Fault(B, "_table", harmonic_m_minus_1,
                                  frozenset(), log_closed_form),
    "J-order-snapped": Fault(B, "bessel_j_series", snapped_order,
                             frozenset(), near_integer_first_kind),
    "Jneg-order-snapped": Fault(B, "bessel_j_neg_series",
                                snapped_negative_order, frozenset(),
                                near_integer_negative_order),
    "stop-rel-1e-9": Fault(S, "STOP_REL", lambda _: 1e-9, frozenset(),
                           while_loop_oracle),
    "stride-1-power-step": Fault(S, "eval_series_kernel",
                                 stride_one_steps_twice, frozenset(),
                                 while_loop_oracle),
    # the seventh coefficient: a cut of the second to sixth is caught by
    # the half-order check, and of the first, eighth or ninth (1e-13 or
    # less in gamma) by no truth test
    # the reflection's sine at math.pi * z everywhere, the pole's too: c0
    # of Jneg at p = m + delta is off by about m u / delta, and no suite
    # draws such p
    "reflection-unreduced": Fault(B, "_NEAR_POLE", lambda _: 0.0,
                                  frozenset(), gamma_near_a_pole),
    "lanczos-7-digits": Fault(B, "_LANCZOS_COEFFS", cut_to_7_digits(6),
                              frozenset(), gamma_against_stdlib),
}


@pytest.fixture
def install(monkeypatch):
    """``install(fault)`` rebinds the name in every module that binds it."""
    def install(fault: Fault) -> None:
        original = getattr(fault.module, fault.name)
        faulty = fault.make(original)
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(fault.name) is original:
                monkeypatch.setattr(module, fault.name, faulty)

    TABLE.cache_clear()
    yield install
    monkeypatch.undo()
    TABLE.cache_clear()


@pytest.mark.parametrize("name", FAULTS)
def test_each_fault_is_caught(name, install):
    fault = FAULTS[name]
    assert fault.caught or fault.truth
    install(fault)
    assert failing_suites() == fault.caught
    if fault.truth is not None:
        with pytest.raises(AssertionError):
            fault.truth()


def test_the_log_evaluator_without_a_fault_is_the_package():
    sound = log_evaluator(lambda lg, lnx, pl: lg * lnx + pl)
    for s in (B.second_solution_order_zero(0.7),
              B.second_solution_integer_order(2, 0.7)):
        for x in (0.3, 1.0, 2.5):
            assert sound(s, x) == S.eval_log_solution(s, x)


def test_misaligned_sides_fail_the_check_and_exit_one(install, capsys):
    # derivatives whose offset is half a step off: the weighted identities
    # compare sides that no whole number of steps aligns
    install(FAULTS["diff-offset-half-step"])
    reports = C.identity_suite()
    weighted = [r for r in reports
                if r.check_name.startswith("derivative-weighted-")]
    assert weighted and all(r.passed is False and r.max_rel_err == math.inf
                            for r in weighted)
    assert cli.main(["check", "--name", "identities"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == ""
    assert sum(line.startswith("FAIL derivative-weighted-")
               and " max_rel=inf " in line for line in lines) == len(weighted)
    assert lines[-1] == (f"{sum(r.passed for r in reports)}/{len(reports)} "
                         "checks passed")
