"""Command-line front end.

Three subcommands:

* ``eval``   -- one solution, one point, one record
* ``table``  -- one solution over a grid, CSV/JSON/plain rows
* ``check``  -- run the verification suites, stream one report per check

Exit codes: 0 success (all checks passed), 1 at least one check failed,
2 usage or domain error.  Output for a given config is byte-identical
across runs; CSV uses 17 significant digits so values round-trip through
text.  ``NO_COLOR`` suppresses the PASS/FAIL coloring of plain check
output (color is only attempted on a terminal anyway).

An argv of the plain form -- a subcommand, then ``--flag value`` pairs
with full flag names and values that convert and lie in their choices --
is read straight from the flag table, ``COMMANDS``, into the namespace
argparse would build.  argparse is imported only for help and for the argv
that this reader refuses, and prints and exits for them as it always has.
"""

import contextlib
import math
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, Sequence, TextIO

from .bessel import (
    bessel_j_neg_integer_series,  # not called; perfbench/spans.py rebinds it
    bessel_j_neg_series,
    bessel_j_series,
    second_solution_integer_order,
    second_solution_order_zero,
)
from .errors import ConfBesselError, DomainError
from .series import (
    DEFAULT_TERMS,
    FracSeries,
    LogSolution,
    _finite,
    eval_log_solution,
    eval_series,
    linspace,
)

if TYPE_CHECKING:
    from argparse import ArgumentParser, Namespace

    from .checks import CheckReport

    #: What the run functions read: argparse's namespace, or the reader's.
    Args = Namespace | SimpleNamespace

__all__ = ["main", "console_entry", "build_solution", "parse_range"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

FAMILIES = ("J", "Jneg", "y2zero", "K")
#: ``check --name`` value -> suite function in :mod:`confbessel.checks`.
_SUITES = {
    "residual": "residual_suite",
    "identities": "identity_suite",
    "halforder": "half_order_suite",
    "scaling": "scaling_suite",
    "all": "all_suites",
}
CHECK_NAMES = tuple(_SUITES)
#: The row fields plain ``eval`` and CSV write; JSON writes every field.
ROW_FIELDS = ("x", "value", "terms_used", "tail_estimate")
CSV_HEADER = ",".join(ROW_FIELDS)
REPORT_CSV_HEADER = "check_name,passed,max_abs_err,max_rel_err,tolerance,mode"

#: Upper limits on ``--terms`` and on the ``--range`` count.  Both are
#: allocated eagerly, so an unchecked value could exhaust memory.
MAX_TERMS = 10_000
MAX_POINTS = 100_000

#: A negative value that ``float`` reads: argparse's pattern (``-5``,
#: ``-.5``) with a trailing dot (``-5.``), an exponent (``-5e-10``) and
#: ``-inf``, ``-infinity`` and ``-nan`` in any case added, so that each of
#: them after ``--order`` is a value, as in ``--order=-5e-10``.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$",
    re.IGNORECASE)


class UsageError(Exception):
    """Bad flag combination, malformed value or failed output; exit code 2."""


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def parse_range(text: str) -> tuple[float, float, int]:
    """Parse ``start:stop:count`` into an inclusive linear grid description."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"range must be start:stop:count, got {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"range endpoints must be finite, got {text!r}")
    if count < 1:
        raise UsageError(f"range count must be >= 1, got {count}")
    if count > MAX_POINTS:
        raise UsageError(f"range count must be <= {MAX_POINTS}, got {count}")
    if start > stop:
        raise UsageError(f"range start must not exceed stop, got {text!r}")
    return start, stop, count


def build_solution(family: str, order: float, alpha: float,
                   terms: int) -> FracSeries | LogSolution:
    """Construct the requested solution family.

    ``J`` and ``Jneg`` take the order as their constructors do;
    ``bessel_j_neg_series`` itself takes a whole order to the signed
    first-kind series.  ``K`` insists on a whole order >= 1; ``y2zero``
    exists at order 0 only and refuses any other order.
    """
    if family == "J":
        return bessel_j_series(order, alpha, terms)
    if family == "Jneg":
        return bessel_j_neg_series(order, alpha, terms)
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    order = _finite(order, DomainError, "order must be finite, got {}")
    if family == "y2zero":
        if order != 0.0:
            raise UsageError("family y2zero takes --order 0 only, got "
                             + _order_text(order))
        return second_solution_order_zero(alpha, terms)
    if not (order.is_integer() and order >= 1.0):
        raise UsageError("family K requires an integer order >= 1, got "
                         + _order_text(order))
    return second_solution_integer_order(int(order), alpha, terms)


def _order_text(order: float) -> str:
    """``f"{order:g}"`` where it reads back as order, else the repr; alpha
    in a report name is written the same way."""
    short = f"{order:g}"
    return short if float(short) == order else repr(order)


def _row(solution: FracSeries | LogSolution, x: float) -> dict:
    """One output record: ``x`` and the fields of its ``EvalResult``."""
    if isinstance(solution, LogSolution):
        result = eval_log_solution(solution, x)
    else:
        result = eval_series(solution, x)
    if not (math.isfinite(result.value)
            and math.isfinite(result.tail_estimate)):
        raise DomainError(f"x = {x:g} is out of range: the series sum is "
                          "not finite there")
    return {"x": x, **result._asdict()}


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """stdout, flushed on the way out, or the file at ``path``, closed.

    A closed stdout (None), or a failed write, flush or close, becomes a
    UsageError.  On a broken stdout pipe, stdout is pointed at the null
    device so the interpreter's final flush does not fail a second time.
    """
    if path is None:
        if sys.stdout is None:
            raise UsageError("cannot write to stdout: it is closed")
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            if isinstance(exc, BrokenPipeError):
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            raise UsageError(f"cannot write to stdout: {exc}") from exc
        return
    try:
        out = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise UsageError(f"cannot open output path {path!r}: {exc}") from exc
    try:
        with out:
            yield out
    except OSError as exc:
        raise UsageError(f"cannot write output path {path!r}: {exc}") from exc


def _emit_json(records: list[dict], out: TextIO) -> None:
    """One strict JSON object per line; a non-finite float as CSV prints it."""
    import json  # loaded only for --format json

    for r in records:
        r = {k: _fmt(v) if v.__class__ is float and not math.isfinite(v)
             else v for k, v in r.items()}
        out.write(json.dumps(r, allow_nan=False) + "\n")


def _emit_rows(rows: list[dict], fmt: str, out: TextIO) -> None:
    if fmt == "csv":
        out.write(CSV_HEADER + "\n")
        for r in rows:
            out.write(",".join(_fmt(r[key]) for key in ROW_FIELDS) + "\n")
    elif fmt == "json":
        _emit_json(rows, out)
    else:
        out.write(f"{'x':>22} {'value':>24} {'terms':>6} {'tail':>12}\n")
        for r in rows:
            out.write(f"{_fmt(r['x']):>22} {_fmt(r['value']):>24} "
                      f"{r['terms_used']:>6d} {r['tail_estimate']:>12.3e}\n")


def run_points(ns: "Args") -> int:
    """``eval`` and ``table``: every point is evaluated before any is written.

    A one-row ``table`` prints the same JSON and CSV bytes as ``eval``; only
    ``eval --format plain`` has its own ``key = value`` layout.
    """
    if ns.xs is None:
        raise UsageError("eval requires --x" if ns.command == "eval" else
                         "table requires --range (or --x for a single row)")
    solution = build_solution(ns.family, ns.order, ns.alpha, ns.terms)
    rows = [_row(solution, x) for x in ns.xs]
    with _output(ns.output_path) as out:
        if ns.command == "eval" and ns.format == "plain":
            for key in ROW_FIELDS:
                out.write(f"{key} = {_fmt(rows[0][key])}\n")
        else:
            _emit_rows(rows, ns.format, out)
    return EXIT_OK


def _plain_report_lines(reports: "list[CheckReport]",
                        color: bool) -> list[str]:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        if color:
            code = "32" if r.passed else "31"
            status = f"\x1b[{code}m{status}\x1b[0m"
        lines.append(f"{status} {r.check_name} max_abs={r.max_abs_err:.3e} "
                     f"max_rel={r.max_rel_err:.3e} tol={r.tolerance:g} "
                     f"mode={r.mode}")
    n_pass = sum(1 for r in reports if r.passed)
    lines.append(f"{n_pass}/{len(reports)} checks passed")
    return lines


def _collect_reports(ns: "Args") -> "list[CheckReport]":
    from . import checks  # loaded only by the check command

    if ns.family is None:
        return getattr(checks, _SUITES[ns.check_name])(ns.tolerance)
    if ns.check_name != "residual":
        raise UsageError("--family narrows the residual check only; drop "
                         "--family or use --name residual")
    solution = build_solution(ns.family, ns.order, ns.alpha, ns.terms)
    # every family is built at --order as given, so the residual is taken
    # there; abs reads -0.0 as the order 0.0 that is built
    return [checks.check_ode_residual(
        abs(ns.order), ns.alpha, solution, ns.xs, ns.tolerance,
        name=f"residual[{ns.family} order={_order_text(ns.order)} "
             f"alpha={_order_text(ns.alpha)}]")]


def run_check(ns: "Args") -> int:
    reports = _collect_reports(ns)
    with _output(ns.output_path) as out:
        if ns.format == "json":
            _emit_json([r._asdict() for r in reports], out)
        elif ns.format == "csv":
            out.write(REPORT_CSV_HEADER + "\n")
            for r in reports:
                out.write(f"{r.check_name},{str(r.passed).lower()},"
                          f"{_fmt(r.max_abs_err)},{_fmt(r.max_rel_err)},"
                          f"{_fmt(r.tolerance)},{r.mode}\n")
        else:
            color = (ns.output_path is None and sys.stdout.isatty()
                     and not os.environ.get("NO_COLOR"))
            for line in _plain_report_lines(reports, color):
                out.write(line + "\n")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _flags(family_default: str | None, format_default: str,
           *extra: tuple) -> dict[str, tuple]:
    """``flag -> (dest, type, choices, default, metavar, help)``; a None
    type keeps the text as given."""
    return dict((
        ("--family", ("family", None, FAMILIES, family_default, None,
                      "solution family (default %(default)s)")),
        ("--order", ("order", float, None, None, None,
                     "order p (default 0.0)")),
        ("--alpha", ("alpha", float, None, None, None,
                     "derivative order in (0, 1] (default 1.0)")),
        ("--x", ("x", float, None, None, None,
                 "evaluation point, must be > 0")),
        ("--range", ("range_spec", None, None, None, "a:b:n",
                     "inclusive linear grid start:stop:count")),
        ("--terms", ("terms", int, None, None, None,
                     f"series length (default {DEFAULT_TERMS})")),
        ("--format", ("format", None, ("csv", "json", "plain"),
                      format_default, None, "output format")),
        ("--tolerance", ("tolerance", float, None, None, None,
                         "override check tolerance")),
        ("--out", ("output_path", None, None, None, None,
                   "write output to this file instead of stdout")),
        *extra))


#: The flag table: subcommand -> (help, flags).  ``build_parser`` hands
#: every row to argparse and ``_read_plain`` reads argv with the same rows,
#: so both paths take the same flags, types, choices and defaults.
COMMANDS = {
    "eval": ("evaluate one solution at one point", _flags("J", "plain")),
    "table": ("tabulate one solution on a grid", _flags("J", "csv")),
    "check": ("run the verification suites", _flags(None, "plain", (
        "--name", ("check_name", None, CHECK_NAMES, None, None,
                   "which suite to run (default: all, or residual when "
                   "--family is given)")))),
}


def build_parser() -> "ArgumentParser":
    import argparse  # loaded only for help and for argv _read_plain refuses

    parser = argparse.ArgumentParser(
        prog="confbessel",
        description="Evaluate and verify conformable fractional Bessel "
                    "solutions.")
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, flags) in COMMANDS.items():
        sub = subs.add_parser(command, help=command_help)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        for flag, (dest, kind, choices, default, metavar, flag_help) \
                in flags.items():
            sub.add_argument(flag, dest=dest, type=kind, choices=choices,
                             default=default, metavar=metavar, help=flag_help)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for a plain argv, else None.

    Plain is a subcommand, then ``--flag value`` pairs: each flag a full
    flag name of that subcommand, each value not starting with ``-``,
    converted by the flag's type and, where it has choices, one of them.
    Anything else -- help, ``--flag=value``, an abbreviation, a value that
    starts with ``-`` or fails its type or choices -- is for argparse.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    flags = COMMANDS[argv[0]][1]
    values = {"command": argv[0],
              **{row[0]: row[3] for row in flags.values()}}
    for flag, text in zip(argv[1::2], argv[2::2]):
        row = flags.get(flag)
        if row is None or text.startswith("-"):
            return None
        dest, kind, choices = row[:3]
        try:
            value = text if kind is None else kind(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def _validate(ns: "Args") -> None:
    """Refuse malformed flags, then fill what depends on them.

    Fills the defaults of ``--order``, ``--alpha`` and ``--terms`` (None
    until here, so that ``check`` can tell them from given values) and sets
    ``ns.xs``: the ``--range`` points, else ``[--x]``, else None.
    """
    given = [flag for flag, value in (
        ("--x", ns.x), ("--range", ns.range_spec), ("--order", ns.order),
        ("--alpha", ns.alpha), ("--terms", ns.terms)) if value is not None]
    ns.order = 0.0 if ns.order is None else ns.order
    ns.alpha = 1.0 if ns.alpha is None else ns.alpha
    ns.terms = DEFAULT_TERMS if ns.terms is None else ns.terms
    if ns.command == "eval" and ns.range_spec is not None:
        raise UsageError("eval takes --x, not --range")
    range_spec = parse_range(ns.range_spec) if ns.range_spec is not None \
        else None
    if ns.x is not None and not (math.isfinite(ns.x) and ns.x > 0.0):
        raise UsageError(f"--x must be a finite positive number, got {ns.x}")
    if range_spec is not None and range_spec[0] <= 0.0:
        raise UsageError("--range points must be positive")
    if ns.terms < 1:
        raise UsageError(f"--terms must be >= 1, got {ns.terms}")
    if ns.terms > MAX_TERMS:
        raise UsageError(f"--terms must be <= {MAX_TERMS}, got {ns.terms}")
    if ns.tolerance is not None and not (ns.tolerance > 0.0):
        raise UsageError(f"--tolerance must be > 0, got {ns.tolerance}")
    if ns.command == "check" and ns.family is None and given:
        raise UsageError(f"check takes {given[0]} only with --family: the "
                         "suites run on their own grids")
    if ns.x is not None and range_spec is not None:
        raise UsageError(f"{ns.command} takes --x or --range, not both")
    if ns.command == "check" and ns.check_name is None:
        ns.check_name = "residual" if ns.family is not None else "all"
    if range_spec is not None:
        ns.xs = linspace(*range_spec)
    else:
        ns.xs = None if ns.x is None else [ns.x]


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _read_plain(argv)
    if ns is None:
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        _validate(ns)
        if ns.command == "check":
            return run_check(ns)
        return run_points(ns)
    except (UsageError, ConfBesselError) as exc:
        print(f"confbessel: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    sys.exit(main())
