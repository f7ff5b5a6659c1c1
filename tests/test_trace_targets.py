"""The traced benchmark run rebinds package attributes by name.

``perfbench/spans.py`` wraps every ``(module, attribute)`` pair listed by
its ``_targets()``; a name removed from the package would only break
``perfbench/run.py --trace 1``.  This test catches that in the unit suite.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert targets
    missing = [(module.__name__, attr) for module, attr, _ in targets
               if not hasattr(module, attr)]
    assert missing == []
