"""fronttrack benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload corpus-200 --seed 0 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``. With ``--trace 0`` it times whole passes over the workload and
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes and prints the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The exit code is 0 only when every correctness check held.
See perfbench/README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
WORKLOADS = ("corpus-200", "sawtooth-ladder", "audit-remark")

UNITS = {"setup_s": "s", "wall_s": "s", "events_per_s": "1/s",
         "run_p50_ms": "ms", "run_p95_ms": "ms", "event_cost_growth": "ratio",
         "peak_rss_mb": "MB"}
COUNTERS = ("events.accurate", "events.simplified", "events.crude",
            "tracker.fronts_peak", "tracker.nonphysical_peak",
            "artifact_bytes")
PEAK_COUNTERS = ("tracker.fronts_peak", "tracker.nonphysical_peak")


def load_program():
    """Import fronttrack from this checkout's src/; exits 2 when absent.
    Returns the seconds the imports took since interpreter start-up."""
    if not os.path.isfile(os.path.join(SRC, "fronttrack", "__init__.py")):
        print(f"perfbench: no fronttrack sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import fronttrack  # noqa: F401
    import numpy  # noqa: F401
    return time.perf_counter() - _T0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Pass:
    """Latencies, counters and failures of one pass over the jobs."""

    def __init__(self, traced):
        self.traced = traced
        self.lat = []
        self.job_counters = []
        self.failures = []
        self.elapsed = 0.0
        self.summary = None

    @property
    def wall(self):
        return sum(self.lat)

    @property
    def events(self):
        return sum(c["events"] for c in self.job_counters if c)

    def counters(self):
        total = dict.fromkeys(COUNTERS, 0)
        for c in self.job_counters:
            for k in COUNTERS:
                if c and k in c:
                    total[k] = (max(total[k], c[k]) if k in PEAK_COUNTERS
                                else total[k] + c[k])
        return total

    def cost_growth(self):
        """ms/event of the top tenth of runs by event count over that of
        the bottom tenth (at least one run each; runs with >= 1 event)."""
        runs = sorted(((c["events"], t) for c, t in zip(self.job_counters, self.lat)
                       if c and c["events"] > 0), key=lambda r: r[0])
        if not runs:
            return float("nan")
        k = max(1, len(runs) // 10)

        def per_event(rs):
            return sum(t for _, t in rs) / sum(e for e, _ in rs)

        return per_event(runs[-k:]) / per_event(runs[:k])


def run_pass(jobs, tracer=None):
    from fronttrack.errors import FrontTrackError
    from workloads import GateFailure

    p = Pass(traced=tracer is not None)
    start = time.perf_counter()
    mark = tracer.mark() if tracer else 0
    for job in jobs:
        err = out = None
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a failed run is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            p.lat.append(time.perf_counter() - t0)
        finally:
            if tracer:
                tracer.uninstall()
        counters = None
        if err is None:
            try:
                counters = job.check(out)
            except (GateFailure, FrontTrackError) as exc:
                err = f"{type(exc).__name__}: {exc}"
        p.job_counters.append(counters)
        if err is not None:
            p.failures.append(f"{job.label}: {err}")
    p.elapsed = time.perf_counter() - start
    if tracer:
        from tracing import summarize
        p.summary = summarize(tracer, mark, tracer.mark(), p.wall)
    return p


def measure(workload, seed, seconds, trace, import_s=0.0, toy=False,
            extra_jobs=(), min_passes=1):
    """Set up the workload, run passes for `seconds`, check them and return
    {"correct", "attempted", "failed", "metrics", "problems", "stats",
    "passes"}."""
    from workloads import build_jobs

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
    build_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = build_jobs(workload, seed, workdir, toy=toy)
        build_s.append(time.perf_counter() - t0)
    jobs += list(extra_jobs)
    setup_s = import_s + statistics.median(build_s)

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        min_passes = max(min_passes, 2)
    passes = []
    start = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(run_pass(jobs, tracer if traced else None))
            elapsed = time.perf_counter() - start
            longest = max(p.elapsed for p in passes)
            if len(passes) >= min_passes and elapsed + longest > seconds:
                break
    finally:
        for job in jobs:
            job.close()

    problems = [f for p in passes for f in p.failures]
    first = passes[0].job_counters
    if any(p.job_counters != first for p in passes[1:]):
        problems.append("exact counters differ between passes")
    attempted = sum(len(p.lat) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    plain = [p for p in passes if not p.traced]
    stats = {}
    if trace:
        traced = [p for p in passes if p.traced]
        metrics = _layer_metrics(plain, traced, problems, stats)
        tracer.save(os.path.join(OUT, f"spans-{workload}-seed{seed}.npz"))
    else:
        metrics = _end_to_end_metrics(plain, setup_s, stats)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems, "stats": stats,
            "passes": [(p.wall, p.traced) for p in passes]}


def _median(stats, name, values):
    """Median of the per-pass values of a metric; the printout adds their
    count and quartiles."""
    values = [float(v) for v in values]
    q1, q3 = _quartiles(values)
    stats[name] = {"n": len(values), "q1": q1, "q3": q3}
    return statistics.median(values)


def _end_to_end_metrics(plain, setup_s, stats):
    import numpy as np

    vals = {
        "setup_s": setup_s,
        "wall_s": _median(stats, "wall_s", [p.wall for p in plain]),
        "events_per_s": _median(stats, "events_per_s",
                                [p.events / p.wall for p in plain]),
        "run_p50_ms": _median(stats, "run_p50_ms",
                              [1e3 * np.percentile(p.lat, 50) for p in plain]),
        "run_p95_ms": _median(stats, "run_p95_ms",
                              [1e3 * np.percentile(p.lat, 95) for p in plain]),
        "event_cost_growth": _median(stats, "event_cost_growth",
                                     [p.cost_growth() for p in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in vals.items()}


def _layer_metrics(plain, traced, problems, stats):
    from tracing import PARENT_SPANS, SPANS

    if not all(p.summary["sane"] for p in traced):
        problems.append("span self times do not account for the traced pass")
    calls = traced[0].summary["calls"]
    if any(p.summary["calls"] != calls for p in traced[1:]):
        problems.append("span call counts differ between traced passes")
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        metrics[f"{name}.self_s"] = {
            "value": _median(stats, f"{name}.self_s",
                             [p.summary["self_s"][name] for p in traced]),
            "unit": "s"}
        if name in PARENT_SPANS:
            metrics[f"{name}.s"] = {
                "value": _median(stats, f"{name}.s",
                                 [p.summary["s"][name] for p in traced]),
                "unit": "s"}
    for name, value in plain[0].counters().items():
        metrics[name] = {"value": value, "unit": "count"}
    audit = [p.summary["s"]["cli.run_checks"] / p.summary["audited_run_s"]
             for p in traced if p.summary["audited_run_s"] > 0.0]
    metrics["audit_over_run"] = {
        "value": _median(stats, "audit_over_run", audit) if audit else 0.0,
        "unit": "ratio"}
    metrics["trace_overhead"] = {
        "value": (statistics.median(p.wall for p in traced)
                  / statistics.median(p.wall for p in plain)),
        "unit": "ratio"}
    metrics["trace_untimed_share"] = {
        "value": _median(stats, "trace_untimed_share",
                         [p.summary["untimed_s"] / p.wall for p in traced]),
        "unit": "ratio"}
    return metrics


def report(result):
    """Human-readable lines; the caller prints the JSON line last."""
    for prob in result["problems"]:
        print(f"FAIL {prob}")
    print(f"runs attempted {result['attempted']}, failed {result['failed']}, "
          f"failure_rate {result['failed'] / result['attempted']:.4g}")
    print("pass seconds (* traced)", " ".join(f"{t:.4g}{'*' if traced else ''}"
                                   for t, traced in result["passes"]))
    for name, m in result["metrics"].items():
        line = f"{name:44s} {m['value']:.6g} {m['unit']}"
        st = result["stats"].get(name)
        if st:
            line += (f"  (median of {st['n']} passes, q1 {st['q1']:.6g}, "
                     f"q3 {st['q3']:.6g})")
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    import_s = load_program()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     import_s=import_s)
    report(result)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
