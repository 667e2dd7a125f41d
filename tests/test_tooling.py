"""The benchmark's traced pass wraps fronttrack functions by their names in
perfbench/tracing.py SPANS; each must stay a module-level callable. The
shipped audit scenario is the benchmark's audit input."""

import importlib
import importlib.util
import json
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


def test_shipped_audit_scenario_is_the_benchmark_input(tmp_path):
    # scenarios/remark_audit.json is the audit-remark workload at seed 0,
    # so CI's check and run-twice steps cover the audited system path
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    (job,) = workloads.build_jobs("audit-remark", 0, str(tmp_path / "job"))
    bench = json.loads(Path(job.path).read_text())
    job.close()
    shipped = json.loads((root / "scenarios" / "remark_audit.json").read_text())
    assert shipped.pop("outputs") == {"dir": "out/remark_audit"}
    bench.pop("outputs")
    assert shipped == bench
