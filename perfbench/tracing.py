"""Span recording for the traced pass.

The benchmark wraps public module-level functions of fronttrack from the
outside: every cross-module call in the package resolves a module attribute
or a module global at call time, so replacing the attribute routes each call
through a wrapper that records one span (name, start, end, parent). Spans are
kept in flat in-memory arrays and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# Every span the traced pass records, as "<module>.<function>" inside the
# fronttrack package.
SPANS = (
    "tracker.run",
    "tracker.init_sample",
    "tracker.step",
    "tracker.next_collision",
    "tracker.slice_at",
    "tracker.apply_event",
    "measures.glimm_Q",
    "measures.total_variation_V",
    "measures.extract_shock_curves",
    "measures.mu_ICJ",
    "measures.source_measure_mu_jump",
    "measures.front_wave_content",
    "riemann.solve_accurate",
    "riemann.solve_simplified",
    "riemann.solve_crude",
    "riemann.scalar_envelope_fan",
    "riemann.brentq",
    "riemann.front_speed",
    "flux_core.make_model",
    "flux_core.average_eigs",
    "diagnostics.min_characteristic",
    "diagnostics.make_region",
    "diagnostics.region_balance_check",
    "diagnostics.positive_decay_check",
    "diagnostics.decay_estimate_check",
    "diagnostics.tame_oscillation_check",
    "diagnostics.sbv_atom_report",
    "diagnostics.convergence_study",
    "cli.parse_config",
    "cli.orchestrate",
    "cli.run_checks",
    "fileio.write_events_jsonl",
    "fileio.write_ledger_csv",
    "fileio.write_slices_csv",
    "fileio.write_measures_csv",
    "fileio.write_curves_csv",
    "fileio.write_diagnostics_json",
    "oracles.l1_error",
)

# Spans that enclose other spans on some workload; these also report their
# inclusive time "<name>.s" next to "<name>.self_s".
PARENT_SPANS = (
    "tracker.run",
    "tracker.init_sample",
    "tracker.step",
    "tracker.slice_at",
    "measures.mu_ICJ",
    "measures.front_wave_content",
    "riemann.solve_accurate",
    "riemann.solve_simplified",
    "riemann.solve_crude",
    "riemann.scalar_envelope_fan",
    "riemann.front_speed",
    "diagnostics.min_characteristic",
    "diagnostics.make_region",
    "diagnostics.region_balance_check",
    "diagnostics.positive_decay_check",
    "diagnostics.decay_estimate_check",
    "diagnostics.tame_oscillation_check",
    "diagnostics.sbv_atom_report",
    "diagnostics.convergence_study",
    "cli.parse_config",
    "cli.orchestrate",
    "cli.run_checks",
    "fileio.write_slices_csv",
)


class Tracer:
    """Records nested spans around the functions named in SPANS."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._originals = []

    def _wrap(self, idx, fn):
        clock = time.perf_counter
        name_idx, parent, start, end = (self.name_idx, self.parent,
                                        self.start, self.end)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_idx.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def install(self):
        for idx, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            module = importlib.import_module(f"fronttrack.{mod_name}")
            fn = getattr(module, fn_name)
            self._originals.append((module, fn_name, fn))
            setattr(module, fn_name, self._wrap(idx, fn))

    def uninstall(self):
        while self._originals:
            module, fn_name, fn = self._originals.pop()
            setattr(module, fn_name, fn)

    def mark(self):
        """Index of the next span; spans from a mark on belong to one pass."""
        return len(self.start)

    def arrays(self, lo=0, hi=None):
        hi = len(self.start) if hi is None else hi
        return (np.frombuffer(self.name_idx, dtype=np.int32)[lo:hi].copy(),
                np.frombuffer(self.parent, dtype=np.int32)[lo:hi].copy(),
                np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
                np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy())

    def save(self, path):
        name_idx, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_idx=name_idx,
                            parent=parent, start=start, end=end)


def summarize(tracer, lo, hi, wall_s):
    """Per-span calls, self time and inclusive time for the spans recorded
    between marks lo and hi, plus the accounting check against the pass wall
    time wall_s, which the job timers measure independently of the spans.
    The self times of all spans plus the untimed remainder (wall_s minus the
    root spans) add up to wall_s with every term nonnegative only when each
    child lies inside its parent and the roots inside the timed calls; a
    span wrapped at the wrong boundary breaks one of those, and "sane" is
    false."""
    name_idx, parent, start, end = tracer.arrays(lo, hi)
    n_names = len(tracer.names)
    dur = end - start
    local_parent = parent - lo
    local_parent[parent < lo] = -1
    has_parent = local_parent >= 0
    child_sum = np.zeros(len(dur))
    np.add.at(child_sum, local_parent[has_parent], dur[has_parent])
    self_t = dur - child_sum

    # a span nested (at any depth) inside a span of the same name adds no
    # inclusive time of its own
    outermost = np.ones(len(dur), dtype=bool)
    anc = local_parent.copy()
    while (anc >= 0).any():
        up = anc >= 0
        outermost[up] &= name_idx[anc[up]] != name_idx[up]
        anc[up] = local_parent[anc[up]]

    calls = np.bincount(name_idx, minlength=n_names)
    self_s = np.bincount(name_idx, weights=self_t, minlength=n_names)
    incl_s = np.bincount(name_idx[outermost], weights=dur[outermost],
                         minlength=n_names)

    tol = 1e-6  # seconds; clock values near 1e6 s round at about 1e-10
    inside = np.ones(len(dur), dtype=bool)
    ps = local_parent[has_parent]
    inside[has_parent] = ((start[has_parent] >= start[ps] - tol)
                          & (end[has_parent] <= end[ps] + tol))
    untimed_s = wall_s - float(dur[~has_parent].sum())
    sane = (bool(inside.all()) and bool((self_t >= -tol).all())
            and untimed_s >= -tol)
    return {
        "calls": {n: int(calls[k]) for k, n in enumerate(tracer.names)},
        "self_s": {n: float(self_s[k]) for k, n in enumerate(tracer.names)},
        "s": {n: float(incl_s[k]) for k, n in enumerate(tracer.names)},
        "untimed_s": untimed_s,
        "sane": sane,
        "audited_run_s": _audited_run_s(tracer.names, name_idx, local_parent, dur),
    }


def _audited_run_s(names, name_idx, local_parent, dur):
    """Seconds in tracker.run calls made by cli.orchestrate itself, i.e. the
    run an audit audits, not the reference runs the checks start."""
    run_k = names.index("tracker.run")
    orch_k = names.index("cli.orchestrate")
    total = 0.0
    for i in np.flatnonzero(name_idx == run_k):
        p = local_parent[i]
        if p >= 0 and name_idx[p] == orch_k:
            total += float(dur[i])
    return total
