"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Runs every workload at toy size (2 scenarios per model, ladder rung 40,
5 remark jumps), untraced and traced, and checks that
every metric BENCHMARK.json names is emitted with its unit, that the exact
counters repeat across passes, and that an over-budget input is counted in
failure_rate without stopping the benchmark. Exits 0 when all of it holds.
"""

import json
import math
import os
import sys

import run as bench


def main():
    import_s = bench.load_program()
    from workloads import TrackJob

    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            errors.append(what)

    for workload in bench.WORKLOADS:
        for trace in (False, True):
            res = bench.measure(workload, seed=3, seconds=0.0, trace=trace,
                                import_s=import_s, toy=True,
                                min_passes=4 if trace else 2)
            tag = f"{workload} trace={int(trace)}"
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            expect(got == expected[trace], f"{tag}: every metric with its unit")
            expect(all(isinstance(m["value"], (int, float))
                       and math.isfinite(m["value"])
                       for m in res["metrics"].values()),
                   f"{tag}: every value a finite number")
            if not trace:
                expect(all(m["value"] > 0 for m in res["metrics"].values()),
                       f"{tag}: every end-to-end value nonzero")
            expect(res["correct"] and res["failed"] == 0,
                   f"{tag}: gates hold and counters repeat {res['problems']}")

    # p-system TV budget is 1.2; this single jump has |uR - uL| = 2.2
    over = TrackJob("over-budget", "p-system",
                    {"kind": "breakpoints", "xs": [0.0],
                     "values": [[0.6, -0.9], [1.9, 0.9]]}, 0.05, 1.5)
    res = bench.measure("corpus-200", seed=3, seconds=0.0, trace=False,
                        import_s=import_s, toy=True, extra_jobs=[over],
                        min_passes=2)
    expect(res["attempted"] == 2 * 9 and res["failed"] == 2
           and not res["correct"]
           and all("over-budget: InitialDataError" in p
                   for p in res["problems"]),
           "over-budget input counted in failure_rate, other runs completed")
    print("self-test", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
