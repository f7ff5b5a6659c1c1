"""The traced benchmark run rebinds package attributes by name.

``perfbench/spans.py`` wraps every ``(module, attribute)`` pair listed by
its ``_targets()``; a name removed from the package would only break
``perfbench/run.py --trace 1``.  This test catches that in the unit suite.
"""

import importlib.util
import math
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_attribute_exists():
    spans = _load_spans()
    targets = spans._targets()
    assert targets
    missing = [(module.__name__, attr) for module, attr, _ in targets
               if not hasattr(module, attr)]
    assert missing == []


def test_traced_calls_record_spans():
    """One traced evaluation of each kind and one suite record spans.

    The recorder reads ``vars()`` of each series it sees, so a value type
    without a ``__dict__`` would fail here, not only in the benchmark.
    """
    spans = _load_spans()
    from confbessel import bessel, checks, series

    tracer = spans.Tracer()
    tracer.install()
    try:
        plain = series.eval_series(bessel.bessel_j_series(0.5, 0.5), 2.0)
        log = series.eval_log_solution(
            bessel.second_solution_order_zero(0.5), 2.0)
        reports = checks.residual_suite()
    finally:
        tracer.uninstall()
    calls, _ = tracer.layer_stats()
    for layer in ("kernels", "series.eval", "series.eval_log", "bessel",
                  "checks"):
        assert calls[layer] > 0, layer
    assert tracer.counts["checks.reports"] == len(reports)
    assert math.isfinite(plain.value) and math.isfinite(log.value)
