"""Acceptance gate: one test per shipping criterion, one printed verdict each.

Every test prints a single ``[criterion N] PASS/FAIL`` line directly to the
terminal (bypassing capture) and then asserts, so a plain ``pytest`` run
shows the full scorecard even when everything is green.  Grids and
tolerances are spelled out as literals here on purpose: this file is the
contract, independent of whatever defaults the library modules carry.
"""

import math

import numpy as np
import pytest

from confbessel import (
    FracSeries,
    LogSolution,
    bessel_j_neg_series,
    bessel_j_series,
    conformable_diff_exact,
    eval_log_solution,
    eval_series,
    second_solution_integer_order,
)
from confbessel.checks import (
    check_half_order_closed_forms,
    check_identity,
    check_ode_residual,
    check_second_solution_scaling,
    check_series_vs_quadrature,
    solution_corpus,
)
from confbessel.conformable import DiffConfig, conformable_diff_numeric
from confbessel.cli import main as cli_main

HALF_ORDER_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
ALPHAS_FOUR = (0.3, 0.5, 0.75, 1.0)


def _verdict(capsys, num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num}] {status} {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_half_order_closed_forms(capsys):
    """Orders +-1/2 match the sine/cosine closed forms to 1e-10."""
    tol = 1e-10
    worst = 0.0
    for a in ALPHAS_FOUR:
        report = check_half_order_closed_forms(a, HALF_ORDER_GRID,
                                               tolerance=tol)
        worst = max(worst, report.max_abs_err)
    _verdict(capsys, 1, "half-order closed forms", worst <= tol,
             f"max |dev| = {worst:.3e} on 6 x-points x 4 alphas, "
             f"both signs (tol {tol:g} abs)")


def test_ode_residuals(capsys):
    """Every solution family annihilates the equation on its grid."""
    plain_tol, log_tol = 1e-8, 1e-7
    plain_xs = tuple(np.linspace(0.5, 5.0, 9))
    log_xs = tuple(np.linspace(0.5, 3.0, 6))
    worst_plain = 0.0
    worst_log = 0.0
    for a in (0.4, 0.7, 1.0):
        for p in (0.0, 0.5, 1.0, 2.5, 3.0):
            r = check_ode_residual(p, a, bessel_j_series(p, a), plain_xs,
                                   plain_tol)
            worst_plain = max(worst_plain, r.max_rel_err)
        for p in (0.5, 2.5):
            r = check_ode_residual(p, a, bessel_j_neg_series(p, a), plain_xs,
                                   plain_tol)
            worst_plain = max(worst_plain, r.max_rel_err)
        for label, p, sol in solution_corpus(a):
            if isinstance(sol, LogSolution):
                r = check_ode_residual(p, a, sol, log_xs, log_tol)
                worst_log = max(worst_log, r.max_rel_err)
    ok = worst_plain <= plain_tol and worst_log <= log_tol
    _verdict(capsys, 2, "equation residuals", ok,
             f"max rel residual {worst_plain:.3e} plain (tol {plain_tol:g}), "
             f"{worst_log:.3e} logarithmic (tol {log_tol:g})")


def test_quadrature_oracle_agreement(capsys):
    """Series values match the independent integral oracle at x**alpha."""
    tol = 1e-9
    worst = 0.0
    for a in (0.5, 1.0):
        xs = [x for x in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 36.0, 64.0)
              if x ** a <= 8.0]
        for p in (0, 1, 2):
            report = check_series_vs_quadrature(p, a, xs, tolerance=tol)
            worst = max(worst, report.max_abs_err)
    _verdict(capsys, 3, "series vs quadrature oracle", worst <= tol,
             f"max |series - integral| = {worst:.3e} for p in 0..2, "
             f"alpha in (0.5, 1), arguments up to 8 (tol {tol:g} abs)")


def test_derivative_and_recurrence_identities(capsys):
    """Six identities: three coefficient-wise, three pointwise."""
    coeff_tol, point_tol = 1e-14, 1e-9
    worst_coeff = 0.0
    worst_point = 0.0
    for a in ALPHAS_FOUR:
        for p in (1, 2, 3):
            for name in ("derivative-weighted-lower",
                         "derivative-weighted-raise",
                         "negative-order-reflection"):
                r = check_identity(name, p, a, HALF_ORDER_GRID,
                                   tolerance=coeff_tol)
                worst_coeff = max(worst_coeff, r.max_rel_err)
            for name in ("derivative-lower", "derivative-raise",
                         "three-term-recurrence"):
                r = check_identity(name, p, a, HALF_ORDER_GRID,
                                   tolerance=point_tol)
                worst_point = max(worst_point, r.max_abs_err)
        for name in ("derivative-weighted-raise",
                     "negative-order-reflection"):
            r = check_identity(name, 0, a, HALF_ORDER_GRID,
                               tolerance=coeff_tol)
            worst_coeff = max(worst_coeff, r.max_rel_err)
    ok = worst_coeff <= coeff_tol and worst_point <= point_tol
    _verdict(capsys, 4, "derivative and recurrence identities", ok,
             f"max coeff rel dev {worst_coeff:.3e} over 30 coeffs "
             f"(tol {coeff_tol:g}), max pointwise dev {worst_point:.3e} "
             f"(tol {point_tol:g})")


def test_second_solution_scaling(capsys):
    """Alpha-instances equal 1/alpha times the alpha=1 instance at x**alpha."""
    tol = 1e-10
    xs = tuple(np.linspace(0.5, 3.0, 6))
    worst = 0.0
    for a in (0.3, 0.5, 0.8):
        for m in (None, 1, 2):
            report = check_second_solution_scaling(a, xs, m, tolerance=tol)
            worst = max(worst, report.max_abs_err)
    _verdict(capsys, 5, "second-solution rescaling", worst <= tol,
             f"max |alpha-instance - rescaled| = {worst:.3e} for the "
             f"order-zero and m in (1, 2) solutions (tol {tol:g} abs)")


def test_numeric_operator_cross_check(capsys):
    """Finite-difference operator agrees with exact series differentiation."""
    tol, spot_tol = 1e-5, 1e-6
    xs = (0.5, 1.0, 2.0, 3.0)
    worst = 0.0
    for a in (0.4, 1.0):
        cfg = DiffConfig(a)
        for label, p, sol in solution_corpus(a):
            if isinstance(sol, LogSolution):
                du = conformable_diff_exact(sol.log_part)
                dv = conformable_diff_exact(sol.plain_part)

                def exact(x, sol=sol, du=du, dv=dv, a=a):
                    u = eval_series(sol.log_part, x).value
                    return (eval_series(du, x).value * math.log(x)
                            + u * x ** -a + eval_series(dv, x).value)

                def func(x, sol=sol):
                    return eval_log_solution(sol, x).value
            else:
                ds = conformable_diff_exact(sol)

                def exact(x, ds=ds):
                    return eval_series(ds, x).value

                def func(x, sol=sol):
                    return eval_series(sol, x).value
            for x in xs:
                worst = max(worst, abs(conformable_diff_numeric(func, x, cfg)
                                       - exact(x)))
    spot = conformable_diff_numeric(lambda t: t * t, 4.0, DiffConfig(0.5))
    spot_dev = abs(spot - 16.0)
    ok = worst <= tol and spot_dev <= spot_tol
    _verdict(capsys, 6, "numeric vs exact operator", ok,
             f"max |numeric - exact| = {worst:.3e} on the 10-solution corpus "
             f"(tol {tol:g}), power-rule spot |T(x^2)(4) - 16| = "
             f"{spot_dev:.3e} (tol {spot_tol:g})")


def test_cli_contract(capsys, tmp_path):
    """Exit codes 0/1/2 behave as documented; table output is reproducible."""
    matrix = [
        (["eval", "--family", "J", "--order", "0", "--x", "1"], 0),
        (["table", "--family", "K", "--order", "2", "--alpha", "0.5",
          "--range", "0.5:3:6"], 0),
        (["check", "--name", "halforder"], 0),
        (["check", "--name", "residual", "--family", "Jneg", "--order",
          "0.5", "--alpha", "0.7"], 0),
        (["check", "--name", "halforder", "--tolerance", "1e-30"], 1),
        (["eval", "--family", "K", "--order", "0.5", "--x", "1"], 2),
        (["eval", "--family", "J", "--x", "-2"], 2),
        (["eval", "--family", "J", "--x", "1", "--alpha", "1.5"], 2),
        (["eval", "--family", "J", "--x", "1", "--range", "1:2:3"], 2),
        (["table", "--family", "J", "--range", "3:1:5"], 2),
        (["table", "--family", "J", "--range", "1:2:0"], 2),
        (["check", "--name", "nosuch"], 2),
        (["frobnicate"], 2),
    ]
    mismatches = []
    for argv, expected in matrix:
        got = cli_main(list(argv))
        if got != expected:
            mismatches.append((argv, expected, got))
    capsys.readouterr()

    table_argv = ["table", "--family", "J", "--order", "1", "--alpha", "0.7",
                  "--range", "0.5:4:30", "--format", "csv"]
    blobs = []
    for i in (0, 1):
        out = tmp_path / f"run{i}.csv"
        assert cli_main(table_argv + ["--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    deterministic = blobs[0] == blobs[1]

    ok = not mismatches and deterministic
    detail = (f"{len(matrix) - len(mismatches)}/{len(matrix)} exit codes as "
              f"expected, table bytes "
              f"{'identical' if deterministic else 'DIFFER'} across two runs")
    if mismatches:
        detail += f"; mismatches: {mismatches}"
    _verdict(capsys, 7, "command-line contract", ok, detail)


def test_pivot_normalization_regression(capsys):
    """The adopted matching-coefficient normalization is the correct one.

    In the integer-order logarithmic solution the two coefficient chains
    meet at one exponent whose coefficient admits a competing reading that
    divides it by m!.  At m = 1 the factor is 1/1! = 1 and the readings
    coincide, so the discriminating case is m = 2: the adopted form must
    satisfy the equation while the divided-by-m! variant must miss by at
    least three orders of magnitude.
    """
    m, a, x, tol = 2, 1.0, 2.0, 1e-7
    adopted = second_solution_integer_order(m, a)
    good = check_ode_residual(float(m), a, adopted, (x,), tol)

    pivot_slot = 2 * m
    pivot = adopted.plain_part.coeffs[pivot_slot]
    bump = (1.0 / math.factorial(m) - 1.0) * pivot
    coeffs = list(adopted.plain_part.coeffs)
    coeffs[pivot_slot] += bump
    alternative = LogSolution(
        log_part=adopted.log_part,
        plain_part=FracSeries(a, adopted.plain_part.offset, coeffs),
    )
    bad = check_ode_residual(float(m), a, alternative, (x,), tol)

    ok = (good.passed
          and bad.max_rel_err >= 1e3 * tol
          and bad.max_rel_err >= 1e3 * max(good.max_rel_err, 1e-300))
    _verdict(capsys, 8, "matching-coefficient normalization", ok,
             f"adopted residual {good.max_rel_err:.3e} (tol {tol:g}), "
             f"divided-by-m! variant {bad.max_rel_err:.3e} at m=2, x=2, "
             f"alpha=1 (separation {bad.max_rel_err / max(good.max_rel_err, 1e-300):.1e}x)")
