"""Seeded workloads for the fronttrack benchmark.

Each workload is a list of jobs. A job is one call into a public entry point
(``tracker.run`` or ``cli.main(["run", ...])``) on inputs generated here from
the seed; the program sees only those inputs. ``Job.run`` is the timed call,
``Job.check`` is the correctness gate and the exact counters, run outside the
timed region.

Seeds. Each workload draws its scenarios once from fixed generator seeds
(the acceptance corpus of criterion 01, the sawtooth profile, remark-2x2
generator seed 5), and the benchmark seed translates every scenario in x by
an offset in [-1, 1); seed 0 is the untranslated input. A translation
changes every input bit but keeps each trajectory and its cost, so runs with
different seeds measure the same work. Fresh random draws do not: their
cost moves with the draw, and at this commit about 1 corpus run in 200
fails the Glimm-ledger gate on a fresh draw (see perfbench/README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import numpy as np

from fronttrack import cli
from fronttrack import flux_core as fc
from fronttrack import tracker as tk

# jumps and step scale per model in the acceptance corpus (criterion 01)
CORPUS = {"burgers": (8, 0.5), "cubic": (8, 0.6),
          "remark-2x2": (5, None), "p-system": (5, None)}
DEFAULT_SCALE = {"remark-2x2": 0.05, "p-system": 0.08}
CORPUS_BASE, CORPUS_STEP = 9000, 17
LADDER = (40, 80, 160, 320, 640)
ALL_CHECKS = ["monotonicity", "interaction_estimates", "conservation",
              "nonphysical_budget", "balance", "positive_decay", "decay",
              "tame_oscillation", "sbv_atoms", "convergence"]


class GateFailure(Exception):
    """A run finished but failed a correctness check."""


def seed_offset(seed):
    """Translation in [-1, 1) applied to every scenario; 0 at seed 0."""
    return 2.0 * ((seed * 0.6180339887498949 + 0.5) % 1.0) - 1.0


def breakpoint_scenario(model_id, rng, n_jumps, scale=None, shift=0.0):
    """Small-BV piecewise-constant initial data: a random walk of n_jumps
    steps from the domain centre, clipped 12% inside the domain. Same draw
    order as the acceptance corpus generator."""
    model = fc.make_model(model_id)
    if scale is None:
        scale = DEFAULT_SCALE[model_id]
    lo_d, hi_d = model.domain[:, 0], model.domain[:, 1]
    center = 0.5 * (lo_d + hi_d)
    xs = np.sort(rng.uniform(-1.0, 1.0, n_jumps))
    while len(np.unique(xs)) < n_jumps:
        xs = np.sort(rng.uniform(-1.0, 1.0, n_jumps))
    lo = lo_d + 0.12 * (hi_d - lo_d)
    hi = hi_d - 0.12 * (hi_d - lo_d)
    values = [center.copy()]
    state = center.copy()
    for _ in range(n_jumps):
        step = scale * (2.0 * rng.random(model.N) - 1.0)
        state = np.clip(state + step, lo, hi)
        values.append(state.copy())
    return {"kind": "breakpoints", "xs": [float(x) + shift for x in xs],
            "values": [[float(v) for v in u] for u in values]}


def _alive_peaks(timeline):
    """Peak number of fronts alive, all and nonphysical, from the front
    records' [born_t, died_t) intervals."""
    changes = {}
    for rec in timeline.front_records.values():
        np_flag = 0 if rec.is_physical else 1
        for t, d in ((rec.born_t, 1), (rec.died_t, -1)):
            if t is None:
                continue
            acc = changes.setdefault(t, [0, 0])
            acc[0] += d
            acc[1] += d * np_flag
    alive = alive_np = peak = peak_np = 0
    for t in sorted(changes):
        alive += changes[t][0]
        alive_np += changes[t][1]
        peak = max(peak, alive)
        peak_np = max(peak_np, alive_np)
    return peak, peak_np


def timeline_counters(timeline):
    """Exact counters of one run, computed from its public records."""
    kinds = {"accurate": 0, "simplified": 0, "crude": 0}
    for ev in timeline.events:
        kinds[ev.solver] += 1
    peak, peak_np = _alive_peaks(timeline)
    return {"events": len(timeline.events),
            "events.accurate": kinds["accurate"],
            "events.simplified": kinds["simplified"],
            "events.crude": kinds["crude"],
            "tracker.fronts_peak": peak,
            "tracker.nonphysical_peak": peak_np}


def gate_timeline(timeline):
    """Correctness gate of one tracker run; returns its counters."""
    led = timeline.ledger
    if not led.calibrated:
        raise GateFailure("ledger not calibrated")
    tol = timeline.config.audit_rel_tol * led.upsilon0()
    if len(led.dUps) and float(led.dUps.max()) > tol:
        raise GateFailure(f"dUpsilon {float(led.dUps.max()):.3e} above "
                          f"audit_rel_tol * Upsilon0 = {tol:.3e}")
    timeline.slice_at(timeline.t_end).validate()
    return timeline_counters(timeline)


class TrackJob:
    """One ``tracker.run`` on generated initial data."""

    def __init__(self, label, model_id, initial, epsilon, t_end):
        self.label = label
        self.config = tk.RunConfig(model_id=model_id, initial=initial,
                                   epsilon=epsilon, t_end=t_end)

    def run(self):
        return tk.run(self.config)

    def check(self, timeline):
        return gate_timeline(timeline)

    def close(self):
        pass


class AuditJob:
    """``fronttrack run`` with every check enabled, artifacts in workdir."""

    def __init__(self, label, doc, workdir):
        self.label = label
        self.workdir = workdir
        self.outdir = os.path.join(workdir, "out")
        doc = dict(doc, outputs={"dir": self.outdir})
        os.makedirs(workdir, exist_ok=True)
        self.path = os.path.join(workdir, "scenario.json")
        with open(self.path, "w") as fh:
            json.dump(doc, fh)
        self.first_artifacts = None
        self.run_counters = None

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["run", self.path])

    def _artifacts(self):
        found = {}
        for base, _, files in os.walk(self.outdir):
            for name in files:
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, self.outdir)] = fh.read()
        return found

    def check(self, exit_code):
        if exit_code != cli.EXIT_OK:
            raise GateFailure(f"fronttrack run exited with {exit_code}")
        artifacts = self._artifacts()
        # the next pass must write every artifact again
        shutil.rmtree(self.outdir)
        manifest = json.loads(artifacts.get("manifest.json", b"{}"))
        if manifest.get("complete") is not True:
            raise GateFailure("manifest.json not complete")
        if self.first_artifacts is None:
            self.first_artifacts = artifacts
            # the CLI keeps its timeline to itself: gate the same scenario
            # once through tracker.run for the run's counters
            cfg, _ = cli.parse_config(self.path)
            self.run_counters = gate_timeline(tk.run(cfg))
        elif artifacts != self.first_artifacts:
            raise GateFailure("artifact bytes differ from the first pass")
        counters = dict(self.run_counters)
        counters["artifact_bytes"] = sum(len(b) for b in artifacts.values())
        return counters

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def build_jobs(workload, seed, workdir, toy=False):
    """Jobs of one pass of the workload. toy=True gives the self-test sizes:
    2 scenarios per model, ladder rung 40, 5 remark jumps."""
    shift = seed_offset(seed)
    if workload == "corpus-200":
        jobs = []
        for mid, (n_jumps, scale) in CORPUS.items():
            for s in range(2 if toy else 50):
                rng = np.random.default_rng(CORPUS_BASE + CORPUS_STEP * s)
                init = breakpoint_scenario(mid, rng, n_jumps, scale, shift)
                jobs.append(TrackJob(f"{mid}/{s}", mid, init, 0.05, 1.5))
        return jobs
    if workload == "sawtooth-ladder":
        params = {"teeth": 6, "amplitude": 0.3,
                  "x0": -1.0 + shift, "x1": 1.0 + shift}
        return [TrackJob(f"samples={n}", "burgers",
                         {"kind": "profile", "name": "sawtooth", "samples": n,
                          "params": params}, 0.02, 2.0)
                for n in (LADDER[:1] if toy else LADDER)]
    if workload == "audit-remark":
        init = breakpoint_scenario("remark-2x2", np.random.default_rng(5),
                                   5 if toy else 12, None, shift)
        doc = {"model": {"id": "remark-2x2"},
               "initial": init,
               "numerics": {"epsilon": 0.05, "t_end": 1.5},
               "diagnostics": {"checks": ALL_CHECKS, "families": [1, 2],
                               "seed": 0,
                               "convergence": {"scenario": "cubic_riemann",
                                               "ladder": [0.1, 0.05]}}}
        return [AuditJob("remark-2x2/12", doc, workdir)]
    raise ValueError(f"unknown workload {workload!r}")
