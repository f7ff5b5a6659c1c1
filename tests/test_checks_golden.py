"""The check reports, frozen: one SHA-256 per report, floats by ``float.hex``.

Each report of ``all_suites()``, ``all_suites(1e-3)`` and
``random_residual_suite(seed)`` for seeds 0-19 is hashed over its
``check_name``, ``grid``, ``max_abs_err.hex()``, ``max_rel_err.hex()``,
``tolerance.hex()``, ``mode`` and ``passed``, and compared with the table
in ``checks_golden.json``.  A refactor of the check machinery must leave
every entry in place, bit for bit.

An intended change to the reports regenerates the table with

    PYTHONPATH=src python tests/test_checks_golden.py > tests/checks_golden.json

and names every entry that moved.
"""

import hashlib
import json
import pathlib

from confbessel.checks import all_suites, random_residual_suite

TABLE = pathlib.Path(__file__).with_name("checks_golden.json")
FUZZ_SEEDS = range(20)


def runs():
    """(label, reports) for every suite call the table covers."""
    yield "all_suites()", all_suites()
    yield "all_suites(1e-3)", all_suites(1e-3)
    for seed in FUZZ_SEEDS:
        yield f"random_residual_suite({seed})", random_residual_suite(seed)


def digest(report):
    """SHA-256 of one report's fields, floats written as ``float.hex``."""
    grid = ";".join(",".join(v.hex() for v in row) for row in report.grid)
    blob = "\0".join((report.check_name, grid, report.max_abs_err.hex(),
                      report.max_rel_err.hex(), report.tolerance.hex(),
                      report.mode, str(report.passed)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_table():
    table = {}
    for label, reports in runs():
        for i, report in enumerate(reports):
            table[f"{label} #{i} {report.check_name}"] = digest(report)
    return table


def test_reports_are_unchanged():
    golden = json.loads(TABLE.read_text(encoding="utf-8"))
    got = run_table()
    added, removed = sorted(got.keys() - golden), sorted(golden.keys() - got)
    assert not (added or removed), \
        f"report list and table differ: added {added}, removed {removed}"
    changed = [k for k in got if got[k] != golden[k]]
    assert not changed, f"{len(changed)} reports moved: {changed}"


if __name__ == "__main__":
    print(json.dumps(run_table(), indent=1, sort_keys=True))
