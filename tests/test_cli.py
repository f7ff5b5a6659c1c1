"""Tests for the command-line interface: exit codes, formats, determinism."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import confbessel
from confbessel import cli
from confbessel.cli import (
    CHECK_NAMES,
    CSV_HEADER,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    FAMILIES,
    MAX_POINTS,
    MAX_TERMS,
    build_solution,
    main,
    parse_range,
    UsageError,
)
from confbessel import LogSolution, bessel_j_neg_series, eval_series

#: Environment for ``python -m confbessel`` in a child process: it imports
#: the package under test, whatever sys.path pytest was given.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(Path(confbessel.__file__).resolve().parent.parent),
                os.environ.get("PYTHONPATH")) if p)}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseRange:
    def test_inclusive_linear_grid(self):
        assert parse_range("1:2:2") == (1.0, 2.0, 2)
        assert parse_range("0.5:4:8") == (0.5, 4.0, 8)

    @pytest.mark.parametrize("bad", ["1:2", "1:2:3:4", "a:b:c", "1:2:0",
                                     "2:1:3", "inf:2:3", "1:2:2.5"])
    def test_malformed_range_strings_rejected(self, bad):
        with pytest.raises(UsageError):
            parse_range(bad)


class TestBuildSolution:
    def test_families_dispatch(self):
        assert build_solution("J", 0.5, 0.5, 60).offset == 0.5
        assert build_solution("Jneg", 0.5, 0.5, 60).offset == -0.5
        assert isinstance(build_solution("y2zero", 0.0, 0.5, 60), LogSolution)
        assert isinstance(build_solution("K", 2.0, 0.5, 60), LogSolution)

    def test_jneg_integer_routes_through_reduction(self):
        got = build_solution("Jneg", 2.0, 1.0, 60)
        ref = build_solution("J", 2.0, 1.0, 60)
        assert got.offset == 2.0
        assert got.coeffs == ref.coeffs

    def test_jneg_odd_integer_flips_sign(self):
        got = build_solution("Jneg", 3.0, 1.0, 60)
        ref = build_solution("J", 3.0, 1.0, 60)
        assert got.coeffs == tuple(-c for c in ref.coeffs)

    def test_k_requires_integer_order(self):
        with pytest.raises(UsageError):
            build_solution("K", 0.5, 0.5, 60)

    def test_k_refuses_a_near_integer_by_its_repr(self):
        with pytest.raises(UsageError, match=r"got 1\.0000000001$"):
            build_solution("K", 1.0000000001, 0.5, 60)

    def test_jneg_near_zero_prints_the_library_bytes(self, capsys):
        # built at order -5e-10 as the library builds it, not as J_0
        argv = ["eval", "--family", "Jneg", "--x", "0.5", "--format", "json"]
        code, out, err = run(capsys, *argv, "--order", "5e-10")
        assert (code, err) == (EXIT_OK, "")
        library = eval_series(bessel_j_neg_series(5e-10, 1.0), 0.5)
        assert json.loads(out)["value"] == library.value
        assert out != run(capsys, *argv, "--order", "0")[1]


class TestY2zeroOrder:
    """y2zero exists at order 0 only: any other ``--order`` is refused."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--family", "y2zero", "--order", "5", "--x", "1"],
        ["eval", "--family", "y2zero", "--order", "2e-9", "--x", "1"],
        ["table", "--family", "y2zero", "--order", "0.5", "--range", "1:2:2"],
        ["table", "--family", "y2zero", "--order=-1", "--x", "1"],
        ["check", "--family", "y2zero", "--order", "5"],
        ["check", "--name", "residual", "--family", "y2zero", "--order", "1",
         "--alpha", "0.6"],
    ])
    def test_nonzero_order_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("confbessel: error: family y2zero takes "
                              "--order 0 only, got ")

    @pytest.mark.parametrize("argv", [
        ["eval", "--family", "y2zero", "--alpha", "0.5", "--x", "1.5"],
        ["table", "--family", "y2zero", "--range", "0.5:3:4"],
        ["check", "--family", "y2zero"],
    ])
    def test_orders_near_zero_are_refused(self, capsys, argv):
        # no snap: only 0 itself is order 0
        assert run(capsys, *argv, "--order=0")[0] == EXIT_OK
        for order in ("5e-10", "-5e-10"):
            assert run(capsys, *argv, f"--order={order}") == (
                EXIT_USAGE, "", "confbessel: error: family y2zero takes "
                                f"--order 0 only, got {order}\n")


class TestNegativeExponentValues:
    """A negative value written with an exponent is a value, not a flag."""

    @pytest.mark.parametrize("family", ["y2zero", "Jneg"])
    @pytest.mark.parametrize("points", [
        ["eval", "--x", "1.5"],
        ["table", "--range", "0.5:3:4"],
        ["check", "--x", "1.5"],
    ])
    def test_spaced_order_prints_the_joined_bytes(self, capsys, family,
                                                 points):
        argv = [points[0], "--family", family, *points[1:]]
        want = run(capsys, *argv, "--order=-5e-10")
        # -5e-10 is no order 0: y2zero and Jneg both refuse it by name
        assert want[2].endswith(" got -5e-10\n")
        assert run(capsys, *argv, "--order", "-5e-10") == want

    def test_alpha_reaches_its_check(self, capsys):
        code, out, err = run(capsys, "eval", "--alpha", "-1e-3", "--x", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("confbessel: error: alpha must lie in (0, 1], "
                       "got -0.001\n")

    def test_k_order_reaches_its_check(self, capsys):
        code, out, err = run(capsys, "eval", "--family", "K", "--order",
                             "-1e308", "--x", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("confbessel: error: family K requires an integer "
                       "order >= 1, got -1e+308\n")

    def test_range_without_exponent_is_still_a_flag(self, capsys):
        code, out, err = run(capsys, "table", "--range", "-1:2:3")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith("error: argument --range: expected one "
                            "argument\n")

    @pytest.mark.parametrize("flag", ["--order", "--alpha", "--x"])
    @pytest.mark.parametrize("value", [
        "-inf", "-INF", "-Infinity", "-infinity", "-nan", "-NaN", "-5.",
        "-5.e3", "-5.E-3", "-.5", "-5e-10"])
    def test_spaced_value_prints_the_joined_bytes(self, capsys, flag, value):
        argv = ["eval"] if flag == "--x" else ["eval", "--x", "1"]
        want = run(capsys, *argv, f"{flag}={value}")
        assert want[0] == EXIT_USAGE and "expected one argument" not in want[2]
        assert run(capsys, *argv, flag, value) == want

    @pytest.mark.parametrize("argv", [
        ["-h"], ["eval", "-h"], ["table", "--range", "-1:2:3"],
        ["eval", "--order", "-e5", "--x", "1"]])
    def test_non_numbers_keep_argparse_bytes(self, capsys, monkeypatch, argv):
        want = run(capsys, *argv)
        monkeypatch.setattr(cli, "_NEGATIVE_NUMBER",
                            re.compile(r"^-\d+$|^-\d*\.\d+$"))  # argparse's
        assert run(capsys, *argv) == want


class TestEval:
    def test_half_order_example(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "J", "--order", "0.5",
                           "--alpha", "0.5", "--x", "4")
        assert code == EXIT_OK
        value = float(out.split("value = ")[1].splitlines()[0])
        assert value == pytest.approx(math.sqrt(1 / math.pi) * math.sin(2.0),
                                      rel=1e-12)

    def test_near_origin_is_one(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "J", "--order", "0",
                           "--alpha", "1", "--x", "0.000001")
        assert code == EXIT_OK
        value = float(out.split("value = ")[1].splitlines()[0])
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_underflowed_tail_prints_as_zero(self, capsys):
        # the last term added underflows to -0.0; the tail is its magnitude
        _, out, _ = run(capsys, "eval", "--family", "Jneg", "--order", "0.5",
                        "--x", "1e-300")
        assert out.splitlines()[-1] == "tail_estimate = 0"
        _, out, _ = run(capsys, "table", "--range", "1e-320:1:3")
        assert out.splitlines()[1].endswith(",3,0")

    def test_json_format_single_object(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "J", "--order", "0",
                           "--alpha", "1", "--x", "1", "--format", "json")
        assert code == EXIT_OK
        record = json.loads(out)
        assert set(record) == {"x", "value", "terms_used", "tail_estimate"}
        assert record["value"] == pytest.approx(0.76519768655796655,
                                                rel=1e-12)

    def test_csv_format_has_header(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "J", "--x", "1",
                           "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == CSV_HEADER

    def test_seventeen_digit_round_trip(self, capsys):
        _, out, _ = run(capsys, "eval", "--family", "J", "--order", "0",
                        "--alpha", "1", "--x", "1", "--format", "csv")
        printed = float(out.splitlines()[1].split(",")[1])
        from confbessel import bessel_j_series
        exact = eval_series(bessel_j_series(0.0, 1.0), 1.0).value
        assert printed == exact


class TestTable:
    def test_range_produces_ascending_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "J", "--order", "0",
                           "--alpha", "1", "--range", "1:2:2")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == [1.0, 2.0]

    def test_default_format_is_csv(self, capsys):
        _, out, _ = run(capsys, "table", "--family", "J", "--range", "1:2:2")
        assert out.splitlines()[0] == CSV_HEADER

    def test_single_point_table(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "y2zero", "--alpha",
                           "1", "--x", "1")
        assert code == EXIT_OK
        row = out.splitlines()[1].split(",")
        # at x = 1 the ln-term vanishes, leaving the plain part
        from confbessel import second_solution_order_zero
        plain = eval_series(second_solution_order_zero(1.0).plain_part, 1.0)
        assert float(row[1]) == pytest.approx(plain.value, rel=1e-15)

    def test_json_rows_are_newline_delimited(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "J", "--range",
                           "1:3:3", "--format", "json")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["x"] for r in rows] == [1.0, 2.0, 3.0]

    def test_byte_determinism(self, capsys, tmp_path):
        argv = ["table", "--family", "Jneg", "--order", "2.5", "--alpha",
                "0.7", "--range", "0.5:4:25", "--format", "csv"]
        paths = []
        for i in (0, 1):
            out_path = tmp_path / f"run{i}.csv"
            assert main(argv + ["--out", str(out_path)]) == EXIT_OK
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_out_file_uses_lf_endings(self, tmp_path):
        out_path = tmp_path / "t.csv"
        main(["table", "--family", "J", "--range", "1:2:2", "--out",
              str(out_path)])
        data = out_path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")


class TestCheck:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--name", "all")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "checks passed" in out.splitlines()[-1]

    def test_identities_with_tolerance(self, capsys):
        code, _, _ = run(capsys, "check", "--name", "identities",
                         "--tolerance", "1e-9")
        assert code == EXIT_OK

    def test_impossible_tolerance_sets_exit_one(self, capsys):
        code, out, _ = run(capsys, "check", "--name", "halforder",
                           "--tolerance", "1e-30")
        assert code == EXIT_CHECK_FAILED
        assert "FAIL" in out

    def test_nan_residual_sets_exit_one(self, capsys):
        for tolerance in ([], ["--tolerance", "inf"]):
            code, out, _ = run(capsys, "check", "--name", "residual",
                               "--family", "J", "--order", "1", "--alpha",
                               "1", "--x", "1e10", *tolerance)
            assert code == EXIT_CHECK_FAILED
            assert out.startswith("FAIL ")

    def test_family_narrows_to_residual(self, capsys):
        code, out, _ = run(capsys, "check", "--name", "residual", "--family",
                           "K", "--order", "1", "--alpha", "0.5")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "1/1 checks passed"

    def test_jneg_residual_runs_at_the_order_given(self, capsys):
        # Jneg is built at order -1.0000000001, not reduced to J_1, and the
        # residual is taken there: the grid carries the order checked
        reports = [run(capsys, "check", "--name", "residual", "--family",
                       "Jneg", "--order", order, "--alpha", "0.5",
                       "--tolerance", "1e-13", "--format", "json")
                   for order in ("1.0000000001", "1")]
        assert reports[0] != reports[1]
        for (code, out, err), p in zip(reports, (1.0000000001, 1.0)):
            assert (code, err) == (EXIT_OK, "")
            report = json.loads(out)
            assert report["passed"] is True
            assert {row[0] for row in report["grid"]} == {p}

    def test_residual_runs_at_the_order_given(self, capsys):
        # J is built at order 1.0000000001, the residual is taken there, and
        # the report's name says so
        reports = [run(capsys, "check", "--name", "residual", "--family",
                       "J", "--order", order, "--alpha", "0.5",
                       "--tolerance", "1e-13", "--format", "json")
                   for order in ("1.0000000001", "1")]
        assert reports[0] != reports[1]
        for (code, out, err), p, text in zip(reports, (1.0000000001, 1.0),
                                             ("1.0000000001", "1")):
            assert (code, err) == (EXIT_OK, "")
            report = json.loads(out)
            assert (report["check_name"]
                    == f"residual[J order={text} alpha=0.5]")
            assert report["passed"] is True
            assert {row[0] for row in report["grid"]} == {p}

    @pytest.mark.parametrize("order, alpha, name", [
        ("2.0000000009", "1", "residual[Jneg order=2.0000000009 alpha=1]"),
        ("0.5", "0.3333333", "residual[Jneg order=0.5 alpha=0.3333333]"),
    ])
    def test_residual_name_shows_order_and_alpha(self, capsys, order, alpha,
                                                 name):
        # :g where it reads back as the number, else its repr
        code, out, err = run(capsys, "check", "--family", "Jneg", "--order",
                             order, "--alpha", alpha, "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[1].startswith(name + ",true,")

    def test_family_without_name_defaults_to_residual(self, capsys):
        code, out, _ = run(capsys, "check", "--family", "J", "--order", "0.5",
                           "--alpha", "0.7")
        assert code == EXIT_OK
        assert "residual[" in out

    def test_family_with_non_residual_name_rejected(self, capsys):
        code, _, err = run(capsys, "check", "--family", "J", "--name",
                           "identities")
        assert code == EXIT_USAGE
        assert "residual" in err

    @pytest.mark.parametrize("argv, flag", [
        (["check", "--name", "halforder", "--x", "1.5"], "--x"),
        (["check", "--range", "1:2:2"], "--range"),
        (["check", "--name", "identities", "--x", "1", "--range", "1:2:2"],
         "--x"),
        (["check", "--order", "5", "--terms", "3", "--alpha", "0.5",
          "--name", "halforder"], "--order"),
        (["check", "--alpha", "1"], "--alpha"),
        (["check", "--terms", "60", "--name", "scaling"], "--terms"),
    ])
    def test_points_without_family_rejected(self, capsys, argv, flag):
        # the suites run on their own grids of points, orders and alphas,
        # with their own series lengths, and would ignore these flags; a
        # flag given at its default value is refused too
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"check takes {flag} only with --family" in err

    def test_json_reports_are_parseable(self, capsys):
        code, out, _ = run(capsys, "check", "--name", "halforder", "--format",
                           "json")
        assert code == EXIT_OK
        reports = [json.loads(line) for line in out.splitlines()]
        assert len(reports) == 4
        assert all(r["passed"] for r in reports)
        assert set(reports[0]) == {"check_name", "grid", "max_abs_err",
                                   "max_rel_err", "tolerance", "mode",
                                   "passed"}

    @pytest.mark.parametrize("flags,code,strings", [
        (["--x", "1e150"], EXIT_CHECK_FAILED,
         {"max_abs_err": "inf", "max_rel_err": "inf"}),
        (["--tolerance", "inf"], EXIT_OK, {"tolerance": "inf"}),
    ], ids=["x-1e150", "tolerance-inf"])
    def test_non_finite_numbers_are_strict_json(self, capsys, flags, code,
                                                strings):
        # RFC 8259 has no Infinity or NaN; a non-finite number is written as
        # the string the CSV prints
        def refuse(constant):
            raise ValueError(f"non-JSON constant {constant}")

        got, out, _ = run(capsys, "check", "--name", "residual", "--family",
                          "J", *flags, "--format", "json")
        assert got == code
        records = [json.loads(line, parse_constant=refuse)
                   for line in out.splitlines()]
        assert len(records) == 1
        assert {k: records[0][k] for k in strings} == strings

    def test_csv_report_stream(self, capsys):
        code, out, _ = run(capsys, "check", "--name", "scaling", "--format",
                           "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "check_name,passed,max_abs_err,max_rel_err," \
                           "tolerance,mode"
        assert all(",true," in line for line in lines[1:])

    def test_plain_output_has_no_ansi_when_not_a_tty(self, capsys):
        _, out, _ = run(capsys, "check", "--name", "halforder")
        assert "\x1b[" not in out

    def test_plain_output_is_colored_on_a_tty(self, capsys, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        _, out, _ = run(capsys, "check", "--name", "halforder")
        assert out.startswith("\x1b[32mPASS\x1b[0m ")

    def test_no_color_suppresses_the_color_on_a_tty(self, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        _, out, _ = run(capsys, "check", "--name", "halforder")
        assert out.startswith("PASS ")
        assert "\x1b[" not in out

    def test_out_file_is_never_colored(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        path = tmp_path / "reports.txt"
        run(capsys, "check", "--name", "halforder", "--out", str(path))
        text = path.read_text(encoding="utf-8")
        assert text.startswith("PASS ")
        assert "\x1b[" not in text


#: ``--range`` grids starting at x <= 0.  ``--range -1:2:3`` does not reach
#: the check: argparse reads ``-1:2:3`` as a flag and refuses the value.
NON_POSITIVE_RANGES = [
    ["table", "--range", "0:2:5"],
    ["table", "--range=-1:2:3"],
    ["check", "--family", "J", "--range", "0:2:5"],
]


class TestExitCodeMatrix:
    @pytest.mark.parametrize("argv", [
        ["eval", "--family", "J", "--x", "1"],
        ["table", "--family", "J", "--range", "1:2:2"],
        ["check", "--name", "halforder"],
    ])
    def test_valid_invocations_exit_zero(self, capsys, argv):
        assert run(capsys, *argv)[0] == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["eval", "--family", "K", "--order", "0.5", "--x", "1"],
        ["eval", "--family", "J", "--x", "-1"],
        ["eval", "--family", "J", "--x", "0"],
        ["eval", "--family", "J"],
        ["eval", "--family", "J", "--x", "1", "--alpha", "1.5"],
        ["eval", "--family", "J", "--x", "1", "--alpha", "0"],
        ["eval", "--family", "J", "--x", "1", "--range", "1:2:3"],
        ["table", "--x", "1", "--range", "1:2:3"],
        ["check", "--name", "residual", "--family", "J", "--x", "7",
         "--range", "1:2:3"],
        ["eval", "--family", "J", "--order", "-1", "--x", "1"],
        ["table", "--family", "J"],
        ["table", "--family", "J", "--range", "2:1:3"],
        ["table", "--family", "J", "--range", "1:2:0"],
        ["table", "--family", "J", "--range", "-1:2:3"],
        ["table", "--family", "J", "--range", "1:2:2", "--out",
         "/nonexistent-dir/t.csv"],
        ["eval", "--family", "J", "--x", "1", "--terms", "0"],
        ["eval", "--family", "J", "--x", "1", "--tolerance", "-1"],
        ["check", "--family", "J", "--name", "scaling"],
        # orders that are not finite, or whose leading coefficient overflows
        ["eval", "--order", "nan", "--x", "1"],
        ["eval", "--order", "inf", "--x", "1"],
        ["eval", "--order", "200", "--x", "1"],
        ["eval", "--order", "171.5", "--x", "1"],
        ["eval", "--family", "K", "--order", "200", "--x", "1"],
        ["eval", "--family", "K", "--order", "160", "--x", "1"],
        ["eval", "--family", "Jneg", "--order", "170.5", "--x", "1"],
        ["eval", "--family", "Jneg", "--order", "150.5", "--x", "1"],
        ["check", "--family", "J", "--order", "nan"],
        # leading coefficients that underflow to 0 or to a subnormal (or
        # gamma rounding to inf)
        ["eval", "--order", "160", "--x", "2"],
        ["eval", "--order", "150", "--x", "2"],
        ["eval", "--order", "141.3", "--x", "2"],
        ["eval", "--family", "Jneg", "--order", "142.3", "--x", "1"],
        ["check", "--name", "residual", "--family", "J", "--order", "160"],
        # powers of x that overflow a double
        ["check", "--name", "residual", "--family", "J", "--order", "1",
         "--alpha", "1", "--x", "1e200"],
        ["check", "--name", "residual", "--family", "J", "--order", "1",
         "--alpha", "1", "--range", "1:1e308:3"],
        ["eval", "--order", "3", "--x", "1e200"],
        # sums that are not finite (nan value, inf tail)
        ["eval", "--order", "1", "--x", "1e200"],
        ["eval", "--order", "1", "--x", "1e200", "--format", "json"],
        ["table", "--order", "0", "--range", "1e150:1e200:3"],
        ["eval", "--family", "y2zero", "--x", "1e200"],
        ["eval", "--family", "K", "--order", "1", "--x", "1e200"],
        # coefficients that overflow at a subnormal alpha
        ["eval", "--family", "y2zero", "--alpha", "1e-310", "--x", "2"],
        ["check", "--family", "y2zero", "--alpha", "1e-309"],
        # sizes above the caps, refused before anything is allocated
        ["eval", "--x", "1", "--terms", "100000000"],
        ["table", "--range", "1:2:100000000"],
        # an order so negative that 2p overflows a double
        ["eval", "--family", "K", "--order=-1e308", "--x", "1"],
        ["check", "--family", "K", "--order=-1.7976931348623157e308"],
        # grids that reach x <= 0
        *NON_POSITIVE_RANGES,
    ])
    def test_usage_and_domain_errors_exit_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err != ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flags", [
        ("table", []), ("check", ["--name", "residual", "--family", "J"])])
    def test_x_with_range_rejected(self, capsys, command, flags):
        code, out, err = run(capsys, command, *flags, "--x", "7",
                             "--range", "1:2:3")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"confbessel: error: {command} takes --x or --range, "
                       "not both\n")

    @pytest.mark.parametrize("argv", NON_POSITIVE_RANGES)
    def test_non_positive_range_names_the_rule(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "confbessel: error: --range points must be positive\n"

    def test_k_leading_coefficient_overflow_names_alpha(self, capsys):
        code, out, err = run(capsys, "eval", "--family", "K", "--order", "1",
                             "--alpha", "1e-310", "--x", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("confbessel: error: alpha = 1e-310 is too small for "
                       "order 1: the leading coefficient overflows a "
                       "double\n")

    @pytest.mark.parametrize("argv, limit", [
        (["eval", "--x", "1", "--terms", "100000000"], MAX_TERMS),
        (["table", "--range", "1:2:100000000"], MAX_POINTS),
    ])
    def test_caps_name_their_limit(self, capsys, argv, limit):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert str(limit) in err

    @pytest.mark.parametrize("argv", [
        ["check", "--name", "nosuch"],
        ["frobnicate"],
        ["eval", "--family", "X", "--x", "1"],
        ["eval", "--format", "xml", "--x", "1"],
        [],
    ])
    def test_argparse_rejections_exit_two(self, capsys, argv):
        # argparse prints its own message to stderr and signals code 2
        assert main(list(argv)) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


#: Flag values for the argv fuzz, ``(plain, edge)`` per flag.  The edges
#: are numbers a float reads as non-finite or out of range, signed zeros,
#: orders at the limits of the constructions (141.3: gamma overflows; 149:
#: the highest K; 150: subnormal c0; 170.5 and 171: too large) and
#: near-integers, and malformed ranges and term counts.
FUZZ_POOL = {
    "--family": (FAMILIES, ("X",)),
    "--order": (("0", "0.5", "1", "2", "3", "2.5"),
                ("nan", "inf", "-inf", "1e400", "-0", "-1", "141.3", "149",
                 "150", "170.5", "171", "2.0000000009", "1.9999999999",
                 "5e-10", "1e-320", "x")),
    "--alpha": (("1", "0.5", "0.3"),
                ("nan", "inf", "-inf", "1e400", "0", "-0", "-1", "1e-310",
                 "1.0000001")),
    "--x": (("0.5", "1", "2.5", "7"),
            ("nan", "inf", "-inf", "1e400", "0", "-0", "-1", "1e-300", "700",
             "1e200", "")),
    "--range": (("1:2:3", "0.5:7:4", "1:1:2"),
                ("1e-300:1:2", "0:1:2", "-1:1:2", "2:1:3", "1:2", "1:2:3:4",
                 "1:2:0", "1:2:-1", "1:2:2.5", "a:b:c", "inf:2:3", "1:nan:2",
                 "1:1e400:2", "1:2:100001", "1e150:1e200:3", "")),
    "--terms": (("1", "2", "30", "60", "400"),
                ("0", "-1", "2.5", "1e400", "nan", "10001", "x")),
    "--tolerance": (("1e-13", "1e-3", "1"),
                    ("nan", "inf", "-inf", "1e400", "0", "-0", "-1",
                     "1e-300")),
    "--format": (("csv", "json", "plain"), ("xml",)),
}


def printed_points(out: str, command: str, fmt: str) -> list[tuple[str, str]]:
    """The ``(value, tail_estimate)`` texts of each printed point."""
    lines = out.splitlines()
    if fmt == "json":
        return [(r["value"], r["tail_estimate"])
                for r in map(json.loads, lines)]
    if fmt == "plain" and command == "eval":
        fields = dict(line.split(" = ") for line in lines)
        return [(fields["value"], fields["tail_estimate"])]
    if fmt == "plain":
        return [(r.split()[1], r.split()[3]) for r in lines[1:]]
    assert lines[0] == CSV_HEADER
    return [(r.split(",")[1], r.split(",")[3]) for r in lines[1:]]


@st.composite
def fuzz_argv(draw) -> list[str]:
    """``eval`` with --x, ``table`` with --range or --x, or ``check`` with
    --family (without it, check runs the whole suites), then up to three
    more flags; each value is a plain or an edge value of its flag."""
    command = draw(st.sampled_from(["eval", "table", "check"]))
    first = {"eval": "--x", "check": "--family"}.get(command) \
        or draw(st.sampled_from(["--range", "--x"]))
    flags = [first, *draw(st.lists(
        st.sampled_from(sorted(FUZZ_POOL.keys() - {first})), unique=True,
        max_size=3))]
    argv = [command]
    for flag in draw(st.permutations(flags)):
        value = draw(st.sampled_from(FUZZ_POOL[flag][draw(st.booleans())]))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if command == "check" and draw(st.booleans()):
        argv += ["--name", draw(st.sampled_from(CHECK_NAMES))]
    return argv


class TestArgvFuzz:
    """Any argv drawn from the pool exits 0, 1 or 2 without a traceback,
    and what ``eval`` and ``table`` print on exit 0 is finite."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=fuzz_argv())
    # sums that are not finite, which must be refused, not printed
    @example(argv=["eval", "--x", "1e200"])
    @example(argv=["table", "--range=1e150:1e200:3", "--format", "json"])
    @example(argv=["eval", "--family", "K", "--order", "1", "--x", "1e200",
                   "--format=plain"])
    def test_exit_codes_and_finite_output(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE)
        assert "Traceback" not in err
        if code == EXIT_OK and argv[0] != "check":
            ns = cli.build_parser().parse_args(argv)
            points = printed_points(out, ns.command, ns.format)
            assert points
            for value, tail in points:
                assert math.isfinite(float(value))
                assert math.isfinite(float(tail))


class TestWriteErrors:
    """A failed write is exit 2 with one error line, never a traceback."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="host has no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["eval", "--x", "2"],
        ["table", "--range", "1:2:5", "--format", "json"],
        ["check", "--name", "residual", "--family", "J"],
    ])
    def test_full_device_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--out", "/dev/full")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("confbessel: error: cannot write output path "
                              "'/dev/full': ")
        assert err.count("\n") == 1

    def test_reader_closing_the_pipe_early_exits_two(self):
        # as in `confbessel table ... | head -1`: the output is far larger
        # than a pipe buffer, so the child is still writing when the pipe
        # closes
        proc = subprocess.Popen(
            [sys.executable, "-m", "confbessel", "table",
             "--range", "1:2:100000"], env=CHILD_ENV,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == CSV_HEADER + "\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_USAGE
        assert err == ("confbessel: error: cannot write to stdout: "
                       "[Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="host has no /dev/full")
    def test_full_stdout_exits_two(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "confbessel", "eval", "--x", "1"],
                env=CHILD_ENV, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == ("confbessel: error: cannot write to stdout: "
                               "[Errno 28] No space left on device\n")

    @pytest.mark.parametrize("argv", [
        ["eval", "--x", "1"],
        ["table", "--range", "1:2:3"],
        ["check", "--name", "halforder"],
    ])
    def test_closed_stdout_exits_two(self, argv):
        # with fd 1 closed at start-up the interpreter sets sys.stdout to
        # None, which no writer may be handed
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m confbessel "$@" >&-', sys.executable,
             *argv], env=CHILD_ENV, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == ("confbessel: error: cannot write to stdout: "
                               "it is closed\n")

    def test_out_path_is_written_with_stdout_closed(self, tmp_path, capsys):
        path = tmp_path / "eval.txt"
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m confbessel "$@" >&-', sys.executable,
             "eval", "--x", "1", "--out", str(path)],
            env=CHILD_ENV, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == EXIT_OK and proc.stderr == ""
        assert path.read_text() == run(capsys, "eval", "--x", "1")[1]


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("confbessel") is None,
                        reason="entry point not on PATH")
    def test_installed_entry_point(self):
        out = subprocess.run(["confbessel", "eval", "--family", "J",
                              "--order", "0", "--alpha", "1", "--x", "1",
                              "--format", "json"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert json.loads(out.stdout)["value"] == pytest.approx(
            0.76519768655796655, rel=1e-12)

    def test_module_invocation(self):
        out = subprocess.run([sys.executable, "-m", "confbessel", "table",
                              "--family", "J", "--range", "1:2:2"],
                             env=CHILD_ENV, capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == CSV_HEADER
