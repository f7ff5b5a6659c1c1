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


def test_kernel_counters_match_the_while_loop():
    """Per-layer kernel counts stay comparable across kernel rewrites.

    Over a fixed set of families and points, the tracer's
    ``kernels.terms_summed`` and ``kernels.early_stops`` must equal the
    totals of the frozen while-loop kernel in ``test_kernels.py``: a faster
    loop may not change how many slots it reports.
    """
    from test_kernels import while_loop_kernel

    spans = _load_spans()
    from confbessel import bessel, series

    plain = [bessel.bessel_j_series(0.0, 0.8, 60),
             bessel.bessel_j_series(2.5, 0.5, 30),
             bessel.bessel_j_neg_series(1.5, 1.0, 120)]
    logs = [bessel.second_solution_order_zero(0.8, 60),
            bessel.second_solution_integer_order(2, 0.5, 120)]
    parts = plain + [p for s in logs for p in (s.log_part, s.plain_part)]
    # J_0 in the odd slots only, as outside input: it walks every slot
    parts.append(series.FracSeries(0.8, 0.0, (0.0,) + plain[0].coeffs))
    assert parts[-1]._walk[1] == 1
    xs = (0.01, 0.7, 2.0, 9.0, 30.0)

    terms = stops = 0
    for part in parts:
        for x in xs:
            used = while_loop_kernel(part.coeffs, part.alpha,
                                     part.offset, x, series.STOP_REL)[1]
            terms += used
            stops += used < len(part)

    tracer = spans.Tracer()
    tracer.install()
    try:
        for x in xs:
            for s in plain + parts[-1:]:
                series.eval_series(s, x)
            for s in logs:
                series.eval_log_solution(s, x)
    finally:
        tracer.uninstall()
    assert tracer.counts["kernels.terms_summed"] == terms
    assert tracer.counts["kernels.early_stops"] == stops
    assert 0 < stops < len(parts) * len(xs)


def test_identity_rows_call_through_the_traced_names():
    """The identity table builds its series through ``checks``' globals.

    Under the tracer, one ``identity_suite()`` call must record every
    constructor and series-algebra call its rows make, as direct children
    of the ``checks`` span of the report.  A row that captured those
    functions when the module loaded would record fewer.  The counts per
    report: constructor calls, and shift/scale calls plus the one rebase
    of a coefficient-wise comparison.
    """
    per_report = {
        "derivative-weighted-lower": (2, 2 + 1 + 1),
        "derivative-weighted-raise": (2, 2 + 1 + 1),
        "derivative-lower": (2, 0),
        "derivative-raise": (2, 0),
        "three-term-recurrence": (3, 0),
        "negative-order-reflection": (2, 1 + 1),
    }
    spans = _load_spans()
    from confbessel import checks

    tracer = spans.Tracer()
    tracer.install()
    try:
        reports = checks.identity_suite()
    finally:
        tracer.uninstall()
    recorded = list(tracer.spans())
    direct = {"bessel": 0, "series.algebra": 0}
    for name, _, _, parent in recorded:
        if name in direct and parent >= 0 and recorded[parent][0] == "checks":
            direct[name] += 1

    rows = [per_report[r.check_name.split("[")[0]] for r in reports]
    assert direct == {"bessel": sum(b for b, _ in rows),
                      "series.algebra": sum(a for _, a in rows)}
    assert tracer.counts["checks.reports"] == len(reports)


def test_traced_counts_do_not_depend_on_the_table_cache():
    """A cold and a warm coefficient-table cache record the same calls.

    A constructor calls the same traced functions whether its alpha-free
    table is built or found in ``bessel._table``, so every traced pass of
    ``run.py --trace 1``, which must count alike, sees the same spans and
    counters.
    """
    spans = _load_spans()
    from confbessel import bessel, checks

    def traced_pass(cold):
        if cold:
            bessel._table.cache_clear()
        tracer = spans.Tracer()
        tracer.install()
        try:
            checks.residual_suite()
            list(checks.solution_corpus(0.6))
        finally:
            tracer.uninstall()
        return tracer.layer_stats()[0], tracer.counts, bessel._table.cache_info()

    cold_calls, cold_counts, cold = traced_pass(cold=True)
    warm_calls, warm_counts, warm = traced_pass(cold=False)
    assert cold.misses > 0 and warm.misses == cold.misses
    assert cold_calls == warm_calls and cold_counts == warm_counts
    assert cold_calls["bessel"] > 0 and cold_counts["bessel.coeff_slots"] > 0
