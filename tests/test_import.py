"""The cold path: ``import confbessel`` and the CLI load only what they run.

No path loads numpy: the package needs only the standard library, and
even the quadrature oracle (``checks.classical_bessel_j``) is plain
``math``.  The check suites (``confbessel.checks``) and the numeric operator
(``confbessel.conformable``) are imported from their own modules, never
from the package, so they load only where a caller imports them, and the
package never imports ``dataclasses``.  The CLI writes ``--format json``
itself, as ``json.dumps`` would, so no call here loads ``json``: it loads
only for a record value outside the text, bools, numbers and tuples that
CLI records hold.  The CLI loads ``argparse`` only for help and for an argv
outside the plain form, and no module imports ``__future__``.  Each case
runs in a fresh interpreter, because the test process itself has long since
imported all of them; the probe there imports nothing that it watches.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confbessel

PACKAGE_ROOT = Path(confbessel.__file__).resolve().parent.parent

WATCHED = ("numpy", "confbessel.checks", "confbessel.conformable",
           "dataclasses", "json", "__future__", "argparse", "gettext",
           "locale")

# the watched names and the argv arrive as plain arguments, and the result
# leaves as a repr, so the probe itself loads neither json nor ast
PROBE = """
import sys
import confbessel
from confbessel import cli
watched, argv = sys.argv[1].split(","), sys.argv[2:]
code = cli.main(argv) if argv else 0
loaded = {name: name in sys.modules for name in watched}
print(repr({"code": code, **loaded}), file=sys.stderr)
"""


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def run_cold(argv):
    proc = run_python("-c", PROBE, ",".join(WATCHED), *argv)
    return ast.literal_eval(proc.stderr.splitlines()[-1])


def loaded(*names):
    return {name: name in names for name in WATCHED}


@pytest.mark.parametrize("argv, code, modules", [
    ([], 0, ()),
    (["eval", "--family", "J", "--order", "0.5", "--alpha", "0.5", "--x", "4"],
     0, ()),
    (["eval", "--x", "4", "--format", "csv"], 0, ()),
    (["table", "--family", "Jneg", "--order", "2.5", "--alpha", "0.7",
      "--range", "0.5:4:25"], 0, ()),
    (["table", "--range", "0.5:4:5", "--format", "plain"], 0, ()),
    (["check", "--name", "residual", "--family", "J"], 0,
     ("confbessel.checks",)),
    (["eval", "--alpha", "1.5", "--x", "1"], 2, ()),
    (["table", "--range", "1:2"], 2, ()),
    (["table", "--x", "1", "--range", "1:2:3", "--format", "json"], 2, ()),
    (["eval", "--x", "4", "--format", "json"], 0, ()),
    (["table", "--range", "0.5:4:5", "--format", "json"], 0, ()),
    (["check", "--name", "residual", "--family", "J", "--format", "json"], 0,
     ("confbessel.checks",)),
    (["eval", "--help"], 0, ("argparse", "gettext", "locale")),
    (["eval", "--family", "Q", "--x", "1"], 2,
     ("argparse", "gettext", "locale")),
], ids=["import", "eval", "eval-csv", "table", "table-plain",
        "check-residual", "malformed-eval", "malformed-table",
        "malformed-table-json", "eval-json", "table-json", "check-json",
        "help", "bad-choice"])
def test_cold_path_leaves_numpy_unloaded(argv, code, modules):
    """eval, table and usage errors load no check code and no dataclasses;
    the residual check loads the suites but neither numpy nor dataclasses;
    no call loads json, JSON output included, nor __future__.  argparse, with
    the gettext and locale modules it pulls in, loads only for help and for
    an argv that the flag table does not read, such as a bad choice."""
    assert run_cold(argv) == {"code": code, **loaded(*modules)}


def test_check_all_still_reaches_the_oracle():
    """The suites that run the quadrature oracle load no numpy."""
    for name in ("all", "scaling"):
        assert run_cold(["check", "--name", name]) \
            == {"code": 0, **loaded("confbessel.checks")}


def test_all_suites_leaves_numpy_unloaded():
    probe = """
import sys
from confbessel.checks import all_suites
reports = all_suites()
print(len(reports), all(r.passed for r in reports), "numpy" in sys.modules)
"""
    count, passed, numpy_loaded = run_python("-c", probe).stdout.split()
    assert (int(count) > 0, passed, numpy_loaded) == (True, "True", "False")


#: ``confbessel.__all__``: the solutions, their evaluation and their exact
#: derivative.
PUBLIC = [
    "EvalResult", "FracSeries", "LogSolution", "__version__",
    "bessel_j_neg_integer_series", "bessel_j_neg_series", "bessel_j_series",
    "conformable_diff_exact", "eval_log_solution", "eval_series", "gamma",
    "kernel_backend", "second_solution_integer_order",
    "second_solution_order_zero", "series_rebase", "series_scale",
    "series_shift",
]

#: Names that ``confbessel`` does not export, each with the one module that
#: defines it.
SUBMODULE_ONLY = {
    **dict.fromkeys((
        "CheckReport", "all_suites", "check_half_order_closed_forms",
        "check_identity", "check_ode_residual",
        "check_second_solution_scaling", "check_series_vs_quadrature",
        "classical_bessel_j", "half_order_suite", "identity_suite",
        "random_residual_suite", "residual_suite", "scaling_suite",
        "solution_corpus"), "confbessel.checks"),
    **dict.fromkeys((
        "DiffConfig", "conformable_diff2_numeric",
        "conformable_diff_numeric"), "confbessel.conformable"),
}


def test_public_names_are_the_solutions_and_their_evaluation():
    assert sorted(confbessel.__all__) == PUBLIC


@pytest.mark.parametrize("name", sorted(SUBMODULE_ONLY))
def test_check_and_numeric_names_live_in_their_own_module(name):
    with pytest.raises(AttributeError):
        getattr(confbessel, name)
    module = importlib.import_module(SUBMODULE_ONLY[name])
    assert name in module.__all__
    assert getattr(module, name).__module__ == module.__name__


def test_every_public_name_resolves_to_its_submodule_object():
    probe = """
import sys
import confbessel
missing = []
for name in confbessel.__all__:
    value = getattr(confbessel, name)
    home = sys.modules[getattr(value, "__module__", "confbessel")]
    if getattr(home, name) is not value:
        missing.append(name)
print(missing)
"""
    assert run_python("-c", probe).stdout == "[]\n"


def test_star_import_binds_every_public_name():
    probe = """
import confbessel
from confbessel import *
print(sorted(n for n in confbessel.__all__ if n not in globals()))
"""
    assert run_python("-c", probe).stdout == "[]\n"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError) as info:
        confbessel.no_such_name
    assert str(info.value) == \
        "module 'confbessel' has no attribute 'no_such_name'"
