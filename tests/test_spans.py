"""The benchmark's span targets exist in the engine.

`perfbench/spans.py` reports a function that no longer exists as 0 calls,
and every per-layer metric reads "lower is better", so a renamed function
would look like a gain.  This test reads the span table without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_exist():
    spans = load_spans()
    for layer, names in spans.SPANS.items():
        module = importlib.import_module(f"quadrica.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"quadrica.{layer}.{name}"
    assert callable(importlib.import_module("quadrica.quadform").make_diag_form)
    for metric, (layer, attr) in spans.CACHES.items():
        fn = getattr(importlib.import_module(f"quadrica.{layer}"), attr, None)
        assert hasattr(fn, "cache_info"), metric
