"""Tests of the benchmark itself; they are not part of the package's suite.

    python3 -m pytest perfbench/test_run.py -q

Most runs use ``--seconds 1`` (the quick mode: one whole pass, or a few).
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics that are counts of work and must repeat exactly.
EXACT = ("kernels.terms_summed", "kernels.early_stop_ratio",
         "series.pack_cold_ratio", "bessel.coeff_slots", "checks.reports")


def invoke(cwd: Path, workload: str, trace: int, seed: int = 7, seconds: int = 1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@functools.cache
def run(workload: str, trace: int, repeat: int = 0, seconds: int = 1):
    proc = invoke(ROOT, workload, trace, seconds=seconds)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    prefix, _, summary = lines[-2].partition(" ")
    assert prefix == "perfbench-summary"
    return json.loads(lines[-1]), json.loads(summary)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_prints_every_metric_with_its_unit(workload, trace, kind):
    result, summary = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 1 <= result["attempted"]
    assert 0 <= result["failed"] <= result["attempted"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert summary["failed"] == result["failed"]
    assert summary["nondeterministic_ops"] == 0
    assert summary["environment"]["kernel_backend"] in ("python", "cython")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_checksum_repeat_exactly_at_one_seed(workload):
    (first, first_summary), (second, second_summary) = \
        run(workload, 1), run(workload, 1, repeat=1)
    for name, m in first["metrics"].items():
        if name.endswith("calls") or name in EXACT:
            assert second["metrics"][name]["value"] == m["value"], name
    assert first_summary["counts_repeat_exactly"]
    assert second_summary["value_checksum"] == first_summary["value_checksum"]


@pytest.mark.parametrize("workload, trace", [
    ("grid-eval", 0), ("verify", 0),
    ("cli-oneshot", 1),  # traced: an untraced pass outlasts both lengths
])
def test_failure_counts_do_not_depend_on_run_length(workload, trace):
    (short, short_summary), (long, long_summary) = \
        run(workload, trace), run(workload, trace, seconds=4)
    passes = "passes" if trace == 0 else "passes_traced"
    assert long_summary[passes] > short_summary[passes]
    assert (long["attempted"], long["failed"]) == \
        (short["attempted"], short["failed"])
    assert long_summary["value_checksum"] == short_summary["value_checksum"]


def test_untraced_and_traced_runs_agree_on_the_checksum():
    for workload in WORKLOADS:
        assert run(workload, 0)[1]["value_checksum"] == \
            run(workload, 1)[1]["value_checksum"], workload


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = invoke(tmp_path, "grid-eval", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
