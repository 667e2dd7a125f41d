"""The benchmark's traced pass wraps fronttrack functions by their names in
perfbench/tracing.py SPANS; each must stay a module-level callable."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_to_a_callable():
    tracing = load_tracing()
    assert "tracker.apply_event" in tracing.SPANS
    assert "tracker.slice_at" in tracing.SPANS
    for name in tracing.SPANS:
        mod_name, fn_name = name.split(".")
        module = importlib.import_module(f"fronttrack.{mod_name}")
        assert callable(getattr(module, fn_name, None)), name
    assert set(tracing.PARENT_SPANS) <= set(tracing.SPANS)
