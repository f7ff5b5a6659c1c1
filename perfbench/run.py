"""confbessel benchmark: one command for every workload, untraced or traced.

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs building):

    python3 perfbench/run.py --workload grid-eval --seed 1 --seconds 35 --trace 0

``--trace 0`` times the workload for ``--seconds`` and prints the end-to-end
metrics; ``--trace 1`` runs whole passes alternately untraced and traced (the
difference is the tracing overhead) and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, prefixed
``perfbench-summary``, carries the checksum, failure shares and the
environment.  See ``perfbench/README.md`` for what each metric means and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Fresh interpreters per run for the set-up and start-up samples (medians).
SETUP_SAMPLES = 9

#: Other tenants of a shared host change its speed by up to a half, in
#: phases from seconds to minutes.  Each timing in the untraced loop is
#: therefore scaled to a nominal host: a reference task is timed every
#: SPEED_INTERVAL_S (before every CLI request) and operation times are
#: multiplied by nominal / measured.  In-process workloads use
#: ``reference_loop`` (2 ms nominal); the CLI workload uses a bare
#: interpreter start, ``python -c pass`` (50 ms nominal), which tracks
#: process start-up far better than an in-process loop does.  README.md
#: gives the spread over ten seeds with and without the scaling.
SPEED_INTERVAL_S = 0.1
REFERENCE_NOMINAL_S = 2e-3
INTERP_NOMINAL_S = 50e-3

IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import confbessel; "
                "t1 = time.perf_counter(); print(t1 - t0); print(confbessel.__file__)")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import confbessel from this checkout's src/, never from elsewhere."""
    if not (SRC / "confbessel" / "__init__.py").is_file():
        fail(f"no program sources at {SRC}; run from a confbessel checkout")
    sys.path.insert(0, str(SRC))
    import confbessel
    if SRC not in Path(confbessel.__file__).resolve().parents:
        fail(f"imported confbessel from {confbessel.__file__}, not {SRC}")
    return confbessel


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def child_import_seconds(env: dict) -> float:
    """``import confbessel`` in a fresh interpreter, timed inside the child."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 \
            or SRC not in Path(lines[1]).resolve().parents:
        fail(f"import probe failed: {proc.stderr.strip() or proc.stdout}")
    return float(lines[0])


def interp_start_seconds(env: dict) -> float:
    """``python -c pass``, started the way the CLI workload starts requests."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT,
                   capture_output=True, check=True, timeout=120)
    return time.perf_counter() - t0


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def environment(confbessel) -> dict:
    import mpmath
    import numpy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "kernel_backend": confbessel.kernel_backend(),
        "CONFBESSEL_PURE_PYTHON": os.environ.get("CONFBESSEL_PURE_PYTHON"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python compensated sum.

    It is benchmark code, not program code, so it runs the same on every
    commit and only tracks the host's speed.
    """
    t0 = time.perf_counter()
    total = carry = 0.0
    for i in range(20000):
        y = i * 0.5 - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return time.perf_counter() - t0


def timed_loop(wl, seconds: float, reference, nominal_s: float) -> dict:
    """Cycle through the pass until ``seconds`` have elapsed.

    At least one whole pass always runs, so the checksum covers every
    operation.  Every SPEED_INTERVAL_S the reference task is timed, outside
    the operations' timings; ``nominal_s / reference`` is the host factor
    that scales the operations that follow.  Returns one column per field
    (op index, start, duration, host factor, units), one entry per
    operation, as compact arrays so that they add little to the peak RSS.
    """
    ops = wl.inputs
    records = {"index": array("l"), "start": array("d"), "dt": array("d"),
               "factor": array("d"), "units": array("l")}
    deadline = time.perf_counter() + seconds
    measured_at = -SPEED_INTERVAL_S
    n = 0
    while n < len(ops) or time.perf_counter() < deadline:
        if time.perf_counter() - measured_at >= SPEED_INTERVAL_S:
            factor = nominal_s / reference()
            measured_at = time.perf_counter()
        index = n % len(ops)
        t0 = time.perf_counter()
        try:
            output = wl.run_op(ops[index])
        except Exception as exc:  # counted as a failed operation
            output = exc
        dt = time.perf_counter() - t0
        units = wl.judge(index, ops[index], output)
        for column, value in zip(records.values(), (index, t0, dt, factor, units)):
            column.append(value)
        n += 1
    return records


def traced_loop(wl, seconds: float) -> dict:
    """Alternate untraced and traced passes; layer metrics from the spans."""
    from spans import Tracer
    from workloads import layer_probe

    ops = wl.inputs

    def one_pass():
        layer_probe()
        outputs = []
        for spec in ops:
            try:
                outputs.append(wl.run_op_inprocess(spec))
            except Exception as exc:  # counted as a failed operation
                outputs.append(exc)
        return outputs

    def timed_pass():
        t0 = time.perf_counter()
        outputs = one_pass()
        dt = time.perf_counter() - t0
        for index, (spec, output) in enumerate(zip(ops, outputs)):
            wl.judge(index, spec, output)
        return dt

    one_pass()  # warm-up: lazy imports and first-call costs
    tracer = Tracer()
    untraced, traced, self_times, main_ms = [], [], [], []
    first_counts = None
    repeat_ok = True
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(timed_pass())
        tracer.install()
        try:
            traced.append(timed_pass())
        finally:
            tracer.uninstall()
        calls, self_s = tracer.layer_stats()
        counts = (dict(calls), dict(tracer.counts))
        if first_counts is None:
            first_counts = counts
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.tsv")
        repeat_ok &= counts == first_counts
        self_times.append(self_s)
        main_ms += [(t1 - t0) * 1e3 for name, t0, t1, _ in tracer.spans()
                    if name == "cli.main"]
        tracer.reset()
        if time.perf_counter() >= deadline:
            break
    return {"untraced": untraced, "traced": traced, "self_times": self_times,
            "counts": first_counts, "repeat_ok": repeat_ok, "main_ms": main_ms}


def layer_metrics(tr: dict, import_s: list, interp_s: list) -> dict:
    calls, counts = tr["counts"]

    def self_s(*names):
        return statistics.median(sum(st[n] for n in names)
                                 for st in tr["self_times"])

    kernel_s = self_s("kernels")
    terms = counts.get("kernels.terms_summed", 0)
    kcalls = calls.get("kernels", 0)
    evals = calls.get("series.eval", 0)
    return {
        "kernels.calls": (kcalls, "count"),
        "kernels.self_s": (kernel_s, "s"),
        "kernels.terms_summed": (terms, "count"),
        "kernels.ns_per_term": (kernel_s / terms * 1e9 if terms else 0.0, "ns"),
        "kernels.early_stop_ratio":
            (counts.get("kernels.early_stops", 0) / kcalls if kcalls else 0.0,
             "ratio"),
        "series.eval_calls": (evals, "count"),
        "series.eval_self_s": (self_s("series.eval", "series.eval_log"), "s"),
        "series.pack_cold_ratio":
            (counts.get("series.pack_cold", 0) / evals if evals else 0.0, "ratio"),
        "series.diff_exact_calls": (calls.get("series.diff_exact", 0), "count"),
        "series.diff_exact_self_s": (self_s("series.diff_exact"), "s"),
        "series.algebra_calls": (calls.get("series.algebra", 0), "count"),
        "series.algebra_self_s": (self_s("series.algebra"), "s"),
        "bessel.calls": (calls.get("bessel", 0), "count"),
        "bessel.self_s": (self_s("bessel"), "s"),
        "bessel.coeff_slots": (counts.get("bessel.coeff_slots", 0), "count"),
        "checks.reports": (counts.get("checks.reports", 0), "count"),
        "checks.self_s": (self_s("checks"), "s"),
        "checks.oracle_calls": (calls.get("checks.oracle", 0), "count"),
        "checks.oracle_s": (self_s("checks.oracle"), "s"),
        "conformable.calls": (calls.get("conformable", 0), "count"),
        "conformable.self_s": (self_s("conformable"), "s"),
        "cli.interp_start_ms": (statistics.median(interp_s) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(import_s) * 1e3, "ms"),
        "cli.main_ms": (statistics.median(tr["main_ms"]), "ms"),
        "trace.overhead_s": (statistics.median(tr["traced"])
                             - statistics.median(tr["untraced"]), "s"),
    }


def end_to_end_metrics(wl, records: dict, peak_rss_mb: float,
                       setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics from host-scaled timings, and the raw figures."""
    raw = records["dt"]
    scaled = [dt * f for dt, f in zip(raw, records["factor"])]
    units = sum(records["units"])
    lat_ms = [t * 1e3 for t in scaled]
    metrics = {
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "throughput_per_s": (units / sum(scaled), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    p90 = metrics["latency_p90_ms"][0]
    summary = {
        "ops_run": len(raw),
        "passes": len(raw) / len(wl.inputs),
        "samples_beyond_p90": sum(t > p90 for t in lat_ms),
        "host_factor_median": statistics.median(records["factor"]),
        "unscaled_latency_p50_ms": statistics.median(raw) * 1e3,
        "unscaled_latency_p90_ms": percentile(raw, 90) * 1e3,
        "unscaled_throughput_per_s": units / sum(raw),
    }
    return metrics, summary


#: Workload-specific names under which the end-to-end metrics are printed.
DISPLAY_NAMES = {
    "cli-oneshot": {"latency_p50_ms": "cli_latency_p50_ms",
                    "latency_p90_ms": "cli_latency_p90_ms",
                    "throughput_per_s": "cli_invocations_per_s"},
    "grid-eval": {"latency_p50_ms": "grid_latency_p50_ms",
                  "latency_p90_ms": "grid_latency_p90_ms",
                  "throughput_per_s": "grid_points_per_s"},
    "verify": {"latency_p50_ms": "verify_latency_p50_ms",
               "latency_p90_ms": "verify_latency_p90_ms",
               "throughput_per_s": "verify_checks_per_s"},
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="confbessel benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("cli-oneshot", "grid-eval", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    confbessel = import_program()
    import workloads as W

    env = child_env()
    if args.workload == "cli-oneshot":
        wl = W.CliOneshot(args.seed, sys.executable, env, str(ROOT))
    elif args.workload == "grid-eval":
        wl = W.GridEval(args.seed)
    else:
        wl = W.Verify(args.seed)

    # set-up: a fresh interpreter importing the package, then input
    # generation in this process, scaled by the interpreter-start reference;
    # repeated, median reported
    interp_s, import_s, setup = [], [], []
    for _ in range(SETUP_SAMPLES):
        interp_s.append(interp_start_seconds(env))
        import_s.append(child_import_seconds(env))
        t0 = time.perf_counter()
        wl.setup()
        setup.append((import_s[-1] + time.perf_counter() - t0)
                     * INTERP_NOMINAL_S / interp_s[-1])
    setup_s = statistics.median(setup)
    wl.prepare()

    if args.trace:
        tr = traced_loop(wl, args.seconds)
        metrics = layer_metrics(tr, import_s, interp_s)
        samples = {"passes_traced": len(tr["traced"]),
                   "counts_repeat_exactly": tr["repeat_ok"]}
        ok = tr["repeat_ok"]
    else:
        if wl.in_process:
            reference, nominal_s = reference_loop, REFERENCE_NOMINAL_S
        else:
            reference, nominal_s = (lambda: interp_start_seconds(env),
                                    INTERP_NOMINAL_S)
        records = timed_loop(wl, args.seconds, reference, nominal_s)
        # read before anything else allocates: the in-process figure is the
        # program, its imports and its inputs, plus the compact timing
        # columns; the oracle is imported only by wl.finish() below
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        metrics, samples = end_to_end_metrics(wl, records, peak_rss_mb, setup_s)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"ops-{wl.name}-seed{wl.seed}.json").write_text(
            json.dumps({field: list(col) for field, col in records.items()}))
        ok = True
    wl.finish()
    ok = ok and wl.nondeterministic == 0

    summary = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "value_checksum": wl.checksum(),
        "attempted": wl.attempted, "failed": wl.failed,
        "ops_failed_frac": wl.failed / wl.attempted,
        "nondeterministic_ops": wl.nondeterministic,
        "throughput_unit": wl.unit, **samples, **wl.extras(),
        "environment": environment(confbessel),
    }
    for name, (value, unit) in metrics.items():
        shown = DISPLAY_NAMES[wl.name].get(name, name)
        print(f"{shown} = {value!r} {unit}")
    print("perfbench-summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": ok,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
