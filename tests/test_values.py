"""The package's value types: equality, hashing, repr, field order, immutability.

The validated values (``FracSeries``, ``LogSolution``, ``DiffConfig``) are
plain classes on one immutable base; the plain records (``EvalResult``,
``CheckReport``) are named tuples.  Both kinds keep the hash and field
order the package's earlier frozen records had, and both reject
assignment.  The derivative order alpha is a plain float, validated by
every function and value that takes it.
"""

import math

import numpy as np
import pytest

from confbessel import (
    EvalResult,
    FracSeries,
    LogSolution,
    bessel_j_neg_integer_series,
    bessel_j_neg_series,
    bessel_j_series,
    second_solution_integer_order,
    second_solution_order_zero,
)
from confbessel.checks import CheckReport, check_identity, check_ode_residual
from confbessel.conformable import DiffConfig
from confbessel.errors import DomainError


def _log_solution(scale=2.0):
    return LogSolution(FracSeries(1.0, 0.0, (1.0,)),
                       FracSeries(1.0, 1.0, (0.0, scale)))


# (build, a different value of the same class, exact repr, field names)
CASES = {
    "FracSeries": (
        lambda: FracSeries(0.5, 1.0, (1, -0.25)),
        lambda: FracSeries(0.5, 1.0, (1, -0.5)),
        "FracSeries(alpha=0.5, offset=1.0, coeffs=(1.0, -0.25))",
        ("alpha", "offset", "coeffs")),
    "LogSolution": (
        _log_solution, lambda: _log_solution(3.0),
        "LogSolution(log_part=FracSeries(alpha=1.0, offset=0.0, "
        "coeffs=(1.0,)), plain_part=FracSeries(alpha=1.0, "
        "offset=1.0, coeffs=(0.0, 2.0)))",
        ("log_part", "plain_part")),
    "DiffConfig": (
        lambda: DiffConfig(0.75), lambda: DiffConfig(0.5),
        "DiffConfig(alpha=0.75)", ("alpha",)),
    "EvalResult": (
        lambda: EvalResult(1.5, 3, 2e-17), lambda: EvalResult(1.5, 4, 2e-17),
        "EvalResult(value=1.5, terms_used=3, tail_estimate=2e-17)",
        ("value", "terms_used", "tail_estimate")),
    "CheckReport": (
        lambda: CheckReport("residual[J]", ((0.0, 1.0, 0.5),), 1e-12, 2e-12,
                            1e-08, "rel", True),
        lambda: CheckReport("residual[J]", ((0.0, 1.0, 0.5),), 1e-12, 2e-12,
                            1e-08, "rel", False),
        "CheckReport(check_name='residual[J]', grid=((0.0, 1.0, 0.5),), "
        "max_abs_err=1e-12, max_rel_err=2e-12, tolerance=1e-08, mode='rel', "
        "passed=True)",
        ("check_name", "grid", "max_abs_err", "max_rel_err", "tolerance",
         "mode", "passed")),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_equality_and_hash(case):
    build, other, _, fields = case
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in fields))
    assert a != other()
    assert a != object()


def test_repr_is_unchanged(case):
    build, _, text, _ = case
    assert repr(build()) == text


def test_field_order(case):
    build, _, _, fields = case
    assert type(build())._fields == fields


def test_assignment_raises(case):
    build, _, _, fields = case
    value = build()
    for name in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert repr(value) == case[2]


def test_keyword_construction_matches_positional():
    assert FracSeries(alpha=0.5, offset=1.0, coeffs=(1.0,)) \
        == FracSeries(0.5, 1.0, (1.0,))
    assert DiffConfig(alpha=0.5) == DiffConfig(0.5)



# Every holder of alpha: each builds a value from alpha alone.  The check
# functions hold it in the rows of their report.
def j0_at(alpha):
    """J_0's first slots at alpha, which the residual must be taken at; at
    alpha = 1 where alpha is refused, so the refusal is the check's own."""
    try:
        return FracSeries(alpha, 0.0, (1.0, 0.0, -0.25))
    except DomainError:
        return FracSeries(1.0, 0.0, (1.0, 0.0, -0.25))


ALPHA_HOLDERS = {
    "FracSeries": lambda a: FracSeries(a, 0.0, (1.0,)),
    "DiffConfig": DiffConfig,
    "bessel_j_series": lambda a: bessel_j_series(0.5, a, 4),
    "bessel_j_neg_series": lambda a: bessel_j_neg_series(0.5, a, 4),
    "bessel_j_neg_integer_series":
        lambda a: bessel_j_neg_integer_series(1, a, 4),
    "second_solution_order_zero": lambda a: second_solution_order_zero(a, 4),
    "second_solution_integer_order":
        lambda a: second_solution_integer_order(1, a, 4),
    "check_ode_residual":
        lambda a: check_ode_residual(0.0, a, j0_at(a), (1.0,)),
    "check_identity":
        lambda a: check_identity("three-term-recurrence", 1, a, (1.0,)),
}


def stored_alphas(value) -> list:
    if isinstance(value, LogSolution):
        return [value.log_part.alpha, value.plain_part.alpha]
    if isinstance(value, CheckReport):
        return [a for _, a, _ in value.grid]
    return [value.alpha]


@pytest.fixture(params=sorted(ALPHA_HOLDERS))
def holder(request):
    return ALPHA_HOLDERS[request.param]


@pytest.mark.parametrize("bad, message", [
    (math.nan, "alpha must be a finite real number, got nan"),
    (math.inf, "alpha must be a finite real number, got inf"),
    (-math.inf, "alpha must be a finite real number, got -inf"),
    (0, "alpha must lie in (0, 1], got 0.0"),
    (-0.5, "alpha must lie in (0, 1], got -0.5"),
    (1.5, "alpha must lie in (0, 1], got 1.5"),
])
def test_alpha_holders_refuse(holder, bad, message):
    with pytest.raises(DomainError) as excinfo:
        holder(bad)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("good", [1, np.float64(0.5)])
def test_alpha_holders_store_a_float(holder, good):
    alphas = stored_alphas(holder(good))
    assert alphas
    for a in alphas:
        assert type(a) is float and a == good
