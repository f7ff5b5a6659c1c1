"""The command line's bytes, frozen: exit code, stdout and stderr per argv.

``cli.main`` runs in-process over a fixed argv matrix, and a SHA-256 of
``(exit code, stdout, stderr)`` for each argv is compared with the table in
``cli_golden.json``.  The matrix covers ``eval``, ``table`` and ``check``
over ten family/order pairs, every ``--format`` choice (and none), ``--x``,
``--range`` and ``--tolerance``, every suite with and without
``--tolerance``, malformed argvs whose error order matters, and ``--help``
at a fixed ``COLUMNS``.

An intended output change regenerates the table with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json

and names every argv whose entry moved.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib

from confbessel.cli import main

TABLE = pathlib.Path(__file__).with_name("cli_golden.json")
COLUMNS = "80"

PAIRS = [("J", "0"), ("J", "0.5"), ("J", "2"), ("Jneg", "0"), ("Jneg", "2"),
         ("Jneg", "2.5"), ("y2zero", "0"), ("K", "1"), ("K", "2"), ("K", "3")]
FORMATS = [[], ["--format", "plain"], ["--format", "json"],
           ["--format", "csv"]]
SUITES = ["residual", "identities", "halforder", "scaling", "all"]

MALFORMED = [
    ["eval"],
    ["table"],
    ["eval", "--family", "K", "--order", "0.5"],
    ["table", "--family", "K", "--order", "0.5"],
    ["eval", "--family", "K", "--order", "0.5", "--x", "1"],
    ["eval", "--family", "J", "--x", "-1"],
    ["eval", "--family", "J", "--x", "0"],
    ["eval", "--x", "inf"],
    ["eval", "--family", "J", "--x", "1", "--alpha", "1.5"],
    ["eval", "--family", "J", "--x", "1", "--alpha", "0"],
    ["eval", "--family", "J", "--x", "1", "--range", "1:2:3"],
    ["eval", "--range", "a:b:c"],
    ["eval", "--family", "J", "--order", "-1", "--x", "1"],
    ["table", "--family", "J", "--range", "2:1:3"],
    ["table", "--family", "J", "--range", "1:2:0"],
    ["table", "--family", "J", "--range", "-1:2:3"],
    ["table", "--range", "1:2"],
    ["table", "--range", "inf:2:3"],
    ["table", "--range", "1:2:2.5"],
    ["table", "--range", "1:2:100001"],
    ["table", "--range", "a:b:c", "--x", "-1"],
    ["table", "--range", "-1:2:3", "--terms", "0"],
    ["eval", "--x", "-1", "--terms", "0", "--tolerance", "-1"],
    ["eval", "--x", "1", "--terms", "0", "--tolerance", "-1"],
    ["eval", "--x", "1", "--terms", "10001"],
    ["eval", "--family", "J", "--x", "1", "--tolerance", "-1"],
    ["eval", "--x", "1", "--tolerance", "0"],
    ["eval", "--x", "1", "--tolerance", "nan"],
    ["check", "--x", "0", "--tolerance", "0"],
    ["check", "--family", "J", "--name", "scaling"],
    ["check", "--name", "scaling", "--family", "J", "--x", "1"],
    ["check", "--family", "K", "--order", "0.5", "--name", "identities"],
    ["check", "--family", "K", "--order", "0.5"],
    ["check", "--order", "5", "--terms", "3", "--alpha", "0.5", "--name",
     "halforder"],
    ["check", "--alpha", "0.5"],
    ["check", "--terms", "3", "--name", "residual"],
    ["check", "--order", "0"],
    ["check", "--terms", "0", "--order", "1"],
    ["eval", "--order", "nan", "--x", "1"],
    ["eval", "--order", "inf", "--x", "1"],
    ["eval", "--order", "200", "--x", "1"],
    ["eval", "--order", "171.5", "--x", "1"],
    ["eval", "--family", "K", "--order", "200", "--x", "1"],
    ["eval", "--family", "K", "--order", "160", "--x", "1"],
    ["eval", "--family", "Jneg", "--order", "170.5", "--x", "1"],
    ["eval", "--family", "Jneg", "--order", "150.5", "--x", "1"],
    ["check", "--family", "J", "--order", "nan"],
    ["eval", "--order", "160", "--x", "2"],
    ["eval", "--order", "150", "--x", "2"],
    ["eval", "--order", "141.3", "--x", "2"],
    ["eval", "--family", "Jneg", "--order", "142.3", "--x", "1"],
    ["check", "--name", "residual", "--family", "J", "--order", "160"],
    ["check", "--name", "residual", "--family", "J", "--order", "1",
     "--alpha", "1", "--x", "1e200"],
    ["check", "--name", "residual", "--family", "J", "--order", "1",
     "--alpha", "1", "--range", "1:1e308:3"],
    ["check", "--name", "residual", "--family", "J", "--order", "1",
     "--alpha", "1", "--x", "1e10"],
    ["eval", "--order", "3", "--x", "1e200"],
    ["eval", "--order", "1", "--x", "1e200"],
    ["eval", "--order", "1", "--x", "1e200", "--format", "json"],
    ["table", "--order", "0", "--range", "1e150:1e200:3"],
    ["table", "--order", "0", "--range", "1:1e200:3", "--format", "json"],
    ["eval", "--family", "y2zero", "--x", "1e200"],
    ["eval", "--family", "K", "--order", "1", "--x", "1e200"],
    ["eval", "--x", "1", "--terms", "100000000"],
    ["table", "--range", "1:2:100000000"],
    ["eval", "--x", "1", "--out", "/nonexistent-dir/t.csv"],
    ["table", "--range", "1:2:2", "--out", "/nonexistent-dir/t.csv"],
    ["check", "--name", "halforder", "--out", "/nonexistent-dir/t.csv"],
    ["check", "--name", "nosuch"],
    ["frobnicate"],
    ["eval", "--family", "X", "--x", "1"],
    ["eval", "--format", "xml", "--x", "1"],
    ["eval", "--x", "abc"],
    ["table", "--terms", "1.5", "--x", "1"],
    [],
]

EDGES = [
    ["eval", "--terms", "5", "--x", "1000"],
    ["eval", "--terms", "1", "--x", "3"],
    ["table", "--terms", "1", "--range", "0.5:2:3", "--format", "plain"],
    ["table", "--x", "2", "--range", "1:3:3"],
    ["table", "--range", "2:2:1", "--format", "json"],
    ["check"],
    ["check", "--format", "csv", "--tolerance", "1e-17"],
    ["check", "--name", "halforder", "--x", "1.5", "--range", "1:2:2"],
    # long log series: y2zero's slots n = 87, 88 are subnormal from 175 terms
    ["eval", "--family", "y2zero", "--terms", "400", "--x", "3", "--format",
     "json"],
    ["table", "--family", "y2zero", "--alpha", "0.5", "--terms", "300",
     "--range", "0.5:30:7"],
    ["table", "--family", "K", "--order", "3", "--terms", "300", "--range",
     "0.5:20:5"],
]

HELP = [["--help"], ["eval", "--help"], ["table", "--help"],
        ["check", "--help"]]


def argv_matrix():
    argvs = []
    for family, order in PAIRS:
        head = ["--family", family, "--order", order]
        for fmt in FORMATS:
            for alpha in ("1", "0.5"):
                argvs.append(["eval", *head, "--alpha", alpha, "--x", "1.5",
                              *fmt])
                argvs.append(["table", *head, "--alpha", alpha,
                              "--range", "0.5:3:4", *fmt])
            argvs.append(["table", *head, "--alpha", "0.7", "--x", "2", *fmt])
            for points in ([], ["--x", "1.5"], ["--range", "0.5:3:4"],
                           ["--tolerance", "1e-16"]):
                argvs.append(["check", "--name", "residual", *head,
                              "--alpha", "0.6", *points, *fmt])
        argvs.append(["eval", *head, "--x", "2.5", "--tolerance", "1e-6"])
        argvs.append(["check", *head, "--alpha", "0.8"])
    for name in SUITES:
        for fmt in FORMATS:
            argvs.append(["check", "--name", name, *fmt])
            argvs.append(["check", "--name", name, "--tolerance", "1e-3",
                          *fmt])
    return argvs + MALFORMED + EDGES + HELP


def digest(argv):
    """SHA-256 of ``(exit code, stdout, stderr)`` for one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_matrix():
    argvs = argv_matrix()
    table = {" ".join(argv): digest(argv) for argv in argvs}
    assert len(table) == len(argvs), "the argv matrix repeats an argv"
    return table


def test_output_bytes_are_unchanged(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    golden = json.loads(TABLE.read_text(encoding="utf-8"))
    got = run_matrix()
    added, removed = sorted(got.keys() - golden), sorted(golden.keys() - got)
    assert not (added or removed), \
        f"argv matrix and table differ: added {added}, removed {removed}"
    changed = [k for k in got if got[k] != golden[k]]
    assert not changed, f"{len(changed)} argvs print other bytes: {changed}"


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    print(json.dumps(run_matrix(), indent=1, sort_keys=True))
