"""The cold path: ``import confbessel`` and the CLI must not load numpy.

Only the quadrature oracle (``checks.classical_bessel_j``) uses numpy, and it
imports it on first call.  Each case runs in a fresh interpreter, because
the test process itself has long since imported numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confbessel

PACKAGE_ROOT = Path(confbessel.__file__).resolve().parent.parent

PROBE = """
import json, sys
import confbessel
from confbessel import cli
argv = json.loads(sys.argv[1])
code = cli.main(argv) if argv else 0
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}),
      file=sys.stderr)
"""


def run_cold(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["eval", "--family", "J", "--order", "0.5", "--alpha", "0.5", "--x", "4"],
    ["table", "--family", "Jneg", "--order", "2.5", "--alpha", "0.7",
     "--range", "0.5:4:25"],
    ["check", "--name", "residual", "--family", "J"],
], ids=["import", "eval", "table", "check-residual"])
def test_cold_path_leaves_numpy_unloaded(argv):
    assert run_cold(argv) == {"code": 0, "numpy": False}


def test_check_all_still_reaches_the_oracle():
    assert run_cold(["check", "--name", "all"]) == {"code": 0, "numpy": True}
