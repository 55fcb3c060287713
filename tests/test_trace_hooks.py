"""The benchmark's tracer still finds every library name it wraps.

``perfbench/spans.py`` replaces public symcs functions by name with timing
wrappers; a library change that deletes or renames one of them would only
surface when the benchmark runs traced.  This test loads that file unchanged
and installs and removes its wrappers once.
"""

import importlib.util
from pathlib import Path

import symcs.experiments

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_trace_hooks_resolve_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = symcs.experiments.sweep
    tracer = spans.Tracer()
    with tracer.root("probe") as index:
        assert symcs.experiments.sweep is not original
    assert symcs.experiments.sweep is original
    figures = tracer.layer_figures(index)
    assert {name for name, _ in spans.LAYER_METRICS} <= set(figures)
