"""Span recorder for the traced benchmark run.

The recorder wraps the package's public functions from outside, by rebinding
the module attributes that callers look up at call time (``from .series
import eval_series`` binds a name in the importing module, so each importing
module is patched separately).  Nothing under ``src/`` is edited.

Each wrapped call records one span ``(name, start, end, parent)`` in
memory; ``parent`` is the index of the enclosing span or -1.  A
layer's self time is its spans' durations minus the part covered by their
direct children.  Counters that only make sense at a boundary (terms summed
by the kernel, cold coefficient buffers, constructed coefficient slots,
check reports) are taken in the same wrappers.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import confbessel.bessel as B
import confbessel.checks as C
import confbessel.cli as CLI
import confbessel.conformable as CF
import confbessel.series as S

BESSEL_CONSTRUCTORS = (
    "bessel_j_series",
    "bessel_j_neg_series",
    "bessel_j_neg_integer_series",
    "second_solution_order_zero",
    "second_solution_integer_order",
)
ALGEBRA = ("series_shift", "series_scale", "series_rebase")
EVALUATORS = {"eval_series": "series.eval", "eval_log_solution": "series.eval_log"}
CHECK_SUITES = ("residual_suite", "identity_suite", "half_order_suite",
                "scaling_suite", "all_suites", "random_residual_suite")


def _targets():
    """(module, attribute, span name) for every call site the trace covers."""
    out = [(S, "eval_series_kernel", "kernels"),
           (S, "conformable_diff_exact", "series.diff_exact")]
    out += [(S, name, span) for name, span in EVALUATORS.items()]
    out += [(S, name, "series.algebra") for name in ALGEBRA]
    out += [(B, name, "bessel") for name in BESSEL_CONSTRUCTORS]
    out += [(B, "series_scale", "series.algebra")]
    out += [(C, name, "bessel") for name in BESSEL_CONSTRUCTORS]
    out += [(C, name, span) for name, span in EVALUATORS.items()]
    out += [(C, "conformable_diff_exact", "series.diff_exact")]
    out += [(C, name, "series.algebra") for name in ALGEBRA]
    out += [(C, name, "checks") for name in C.__all__ if name.startswith("check_")]
    out += [(C, name, "checks") for name in CHECK_SUITES]
    out += [(C, "classical_bessel_j", "checks.oracle")]
    out += [(CF, "conformable_diff_numeric", "conformable"),
            (CF, "conformable_diff2_numeric", "conformable")]
    out += [(CLI, "main", "cli.main")]
    out += [(CLI, name, "bessel") for name in BESSEL_CONSTRUCTORS]
    out += [(CLI, name, span) for name, span in EVALUATORS.items()]
    return out


def _coeff_slots(solution) -> int:
    if isinstance(solution, S.LogSolution):
        return len(solution.log_part) + len(solution.plain_part)
    return len(solution)


class Tracer:
    """Records spans and boundary counters while installed.

    Spans are kept in flat arrays (about 20 bytes each) because a traced
    grid-eval pass records over half a million of them.
    """

    def __init__(self):
        self.names: list[str] = []
        self.code: array = array("B")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def reset(self) -> None:
        for column in (self.code, self.start, self.end, self.parent):
            del column[:]
        self.counts.clear()

    def _wrap(self, name: str, fn, check: bool):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        codes, starts, ends, parents = self.code, self.start, self.end, self.parent
        stack, counts = self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "series.eval" and "_packed" not in vars(args[0]):
                counts["series.pack_cold"] += 1
            idx = len(starts)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if name == "kernels":
                used = result[1]
                counts["kernels.terms_summed"] += used
                if used < len(args[0]):
                    counts["kernels.early_stops"] += 1
            elif name == "bessel":
                counts["bessel.coeff_slots"] += _coeff_slots(result)
            elif check:
                counts["checks.reports"] += 1
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for module, attr, span in _targets():
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(
                    span, original, attr.startswith("check_"))
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []
        self._stack.clear()

    def spans(self):
        """(name, start, end, parent) for every recorded span, in call order."""
        names = self.names
        return ((names[c], t0, t1, p) for c, t0, t1, p
                in zip(self.code, self.start, self.end, self.parent))

    def layer_stats(self) -> tuple[Counter, Counter]:
        """Per span name: number of calls and total self time in seconds."""
        child = [0.0] * len(self.start)
        for _, t0, t1, parent in self.spans():
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, t0, t1, _) in enumerate(self.spans()):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
        return calls, self_s

    def write(self, path) -> None:
        """Write the spans as TSV, times in ns from the first span."""
        base = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart_ns\tend_ns\tparent\n")
            for name, t0, t1, parent in self.spans():
                f.write(f"{name}\t{round((t0 - base) * 1e9)}\t"
                        f"{round((t1 - base) * 1e9)}\t{parent}\n")
