"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them live)."""

import collections
import json
import math
import os
import time

import numpy as np
import pytest

from fronttrack import cli
from fronttrack import diagnostics as dg
from fronttrack import flux_core as fc
from fronttrack import measures as ms

from conftest import (MODEL_IDS, corpus_run, quick_run,
                      random_breakpoint_scenario)

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "_baselines",
                             "interaction_constants.json")


def report(num, desc, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def random_suite():
    """50 randomized small-BV scenarios per catalog model, timed."""
    start = time.perf_counter()
    suites = {}
    for mid in MODEL_IDS:
        suites[mid] = [corpus_run(mid, s) for s in range(50)]
    return suites, time.perf_counter() - start


@pytest.fixture(scope="module")
def diagnostic_suite():
    """One richer scenario per model for the measure-level criteria."""
    out = {}
    out["burgers"] = quick_run(
        "burgers", {"kind": "profile", "name": "sawtooth", "samples": 24,
                    "params": {"teeth": 3, "amplitude": 0.5}},
        epsilon=0.05, t_end=2.0)
    out["cubic"] = quick_run(
        "cubic", {"kind": "breakpoints", "xs": [-0.8, 0.0, 0.7],
                  "values": [[1.0], [-1.0], [0.9], [-0.5]]},
        epsilon=0.1, t_end=1.5)
    rng = np.random.default_rng(71)
    out["remark-2x2"] = quick_run(
        "remark-2x2", random_breakpoint_scenario("remark-2x2", rng, 4),
        epsilon=0.08, t_end=1.5)
    rng = np.random.default_rng(72)
    out["p-system"] = quick_run(
        "p-system", random_breakpoint_scenario("p-system", rng, 4),
        epsilon=0.08, t_end=1.5)
    return out


def test_criterion_01_glimm_monotonicity(random_suite):
    suites, elapsed = random_suite
    n_scen = sum(len(v) for v in suites.values())
    n_events = 0
    worst = -math.inf
    ok = n_scen >= 200
    for runs in suites.values():
        for tl in runs:
            led = tl.ledger
            ok &= bool(led.calibrated)
            tol = 1e-12 * max(led.upsilon0(), 1e-30)
            if len(led.dUps):
                worst = max(worst, float(led.dUps.max() / max(led.upsilon0(), 1e-30)))
                ok &= bool(np.all(led.dUps <= tol))
            n_events += len(tl.events)
    ok &= elapsed <= 60.0
    report(1, "Glimm functional nonincreasing over randomized suite", ok,
           f"{n_scen} scenarios, {n_events} events, worst dUps/Ups0 "
           f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_interaction_estimates(random_suite):
    suites, _ = random_suite
    fitted = {}
    ok = True
    for mid, runs in suites.items():
        cs, ks = [], []
        for tl in runs:
            for ev in tl.events:
                if ev.amount_I > 1e-14:
                    cs.append(-ev.dQ / ev.amount_I)
                    ks.append(abs(ev.dV) / ev.amount_I)
        if not cs:
            continue
        c_fit, k_fit = min(cs), max(ks)
        fitted[mid] = {"c": c_fit, "K": k_fit, "events": len(cs)}
        ok &= c_fit > 0 and math.isfinite(k_fit)
        # the fitted pair bounds every event by construction; re-verify
        for tl in runs:
            for ev in tl.events:
                if ev.amount_I > 1e-14:
                    ok &= ev.dQ <= -c_fit * ev.amount_I + 1e-15
                    ok &= abs(ev.dV) <= k_fit * ev.amount_I + 1e-15
    # the baseline is re-derived only deliberately: a missing file or entry
    # fails, with the fitted values printed to copy in
    base = {}
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as fh:
            base = json.load(fh)
    for mid in MODEL_IDS:
        got, want = fitted.get(mid), base.get(mid)
        if got is None or want is None:
            ok = False
            continue
        ok &= got["events"] == want["events"]
        for key in ("c", "K"):
            ok &= abs(got[key] - want[key]) <= 1e-6 * max(1.0, abs(want[key]))
    if not ok:
        print(f"fitted constants (baseline {BASELINE_PATH}):\n"
              + json.dumps(fitted, indent=1, sort_keys=True))
    report(2, "interaction estimates dQ <= -cI, |dV| <= KI", ok,
           ", ".join(f"{m}: c={v['c']:.3g} K={v['K']:.3g} events={v['events']}"
                     for m, v in sorted(fitted.items())) + "; compared to baseline")


def test_running_ledger_matches_full_recompute(random_suite):
    """The ledger sums per-event deltas from t = 0; at every event time no
    other event shares, and at t_end, it must agree with V and Q recomputed
    over the whole reconstructed field."""
    suites, _ = random_suite
    checked = 0
    for runs in suites.values():
        for tl in runs:
            tol = 1e-12 * max(tl.ledger.upsilon0(), 1e-30)
            counts = collections.Counter(tl.event_times())
            points = [(e.t, tl.ledger.Vs[k + 1], tl.ledger.Qs[k + 1])
                      for k, e in enumerate(tl.events) if counts[e.t] == 1]
            points.append((tl.t_end, tl.ledger.Vs[-1], tl.ledger.Qs[-1]))
            for t, v, q in points:
                fld = tl.slice_at(t)
                assert abs(v - ms.total_variation_V(fld)) <= tol
                assert abs(q - ms.glimm_Q(fld)) <= tol
                checked += 1
    assert checked > 2000


def test_criterion_03_scalar_oracles():
    shock = dg.convergence_study("burgers_shock", [0.1, 0.05], t_eval=1.0)
    ok = all(r["l1_error"] <= 1e-9 for r in shock["rows"])
    rare = dg.convergence_study("burgers_rarefaction", [0.1, 0.05, 0.025],
                                t_eval=1.0)
    ok &= all(r["l1_error"] <= 1.0 * r["epsilon"] for r in rare["rows"])
    ok &= all(o >= 0.9 for o in rare["observed_orders"])
    cubic = dg.convergence_study("cubic_riemann", [0.1, 0.05], t_eval=1.0)
    ok &= all(r["l1_error"] <= 2.0 * r["epsilon"] for r in cubic["rows"])
    report(3, "scalar oracle equivalence (shock exact, fan first order, "
              "cubic envelope)", ok,
           f"shock {max(r['l1_error'] for r in shock['rows']):.1e}, "
           f"fan orders {['%.2f' % o for o in rare['observed_orders']]}, "
           f"cubic {max(r['l1_error'] for r in cubic['rows']):.2e}")


def test_criterion_04_wave_balance(diagnostic_suite):
    ok = True
    detail = []
    for mid, tl in diagnostic_suite.items():
        rng = np.random.default_rng(400 + len(mid))
        lo = min(tl.initial_field.xs, default=0.0) - 1.0
        hi = max(tl.initial_field.xs, default=0.0) + 1.0
        worst = 0.0
        n_done = 0
        for i in range(1, tl.model.N + 1):
            while n_done < 50 * tl.model.N:
                t0 = float(rng.uniform(0.0, 0.6)) * tl.t_end
                tau = float(rng.uniform(0.2, 0.35)) * tl.t_end
                a = float(rng.uniform(lo, hi - 0.4))
                b = a + float(rng.uniform(0.4, 1.2))
                try:
                    region = dg.make_region(tl, i, t0, tau, [(a, b)])
                    rep = dg.region_balance_check(tl, region)
                except Exception:
                    continue
                n_done += 1
                if rep["boundary_events"]:
                    continue
                if rep["mu_I"] > 1e-12:
                    ok &= math.isfinite(rep["ratio_signed"])
                    ok &= math.isfinite(rep["ratio_split"])
                    worst = max(worst, rep["ratio_signed"], rep["ratio_split"])
                else:
                    ok &= abs(rep["W_out"] - rep["W_in"]) <= 1e-8
        detail.append(f"{mid}: C={worst:.3g}")
    report(4, "regional wave balances controlled by mu_I / mu_IC", ok,
           "; ".join(detail))


def test_criterion_05_positive_wave_decay(diagnostic_suite):
    tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                               "values": [[0.0], [1.0]]},
                   epsilon=0.005, t_end=2.0)
    ok = True
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        w = t  # the fan spans speeds [0, 1]
        sets = [[(0.2 * w, 0.55 * w)], [(0.3 * w, 0.9 * w)],
                [(0.05 * w, 0.45 * w)],
                [(0.1 * w, 0.35 * w), (0.5 * w, 0.8 * w)]]
        rep = dg.positive_decay_check(tl, 1, 0.0, t, sets)
        ok &= rep["q_drop"] <= 1e-12
        ok &= rep["C_required"] <= 1.1
        worst = max(worst, rep["C_required"])
    fits = {}
    for mid, tl2 in diagnostic_suite.items():
        rng = np.random.default_rng(55)
        sets = [[(float(rng.uniform(-2, 0)), float(rng.uniform(0.2, 2)))]
                for _ in range(5)]
        c_req = 0.0
        for i in range(1, tl2.model.N + 1):
            rep2 = dg.positive_decay_check(tl2, i, 0.0, 0.8 * tl2.t_end, sets)
            ok &= math.isfinite(rep2["C_required"])
            c_req = max(c_req, rep2["C_required"])
        fits[mid] = c_req
    report(5, "positive-wave decay: centered fan within 1.1 * L(B)/t", ok,
           f"fan C''={worst:.4f}; general " +
           ", ".join(f"{m}:{v:.3g}" for m, v in sorted(fits.items())))


def test_criterion_06_main_decay_estimate(diagnostic_suite):
    ok = True
    detail = []
    for mid, tl in diagnostic_suite.items():
        rng = np.random.default_rng(66)
        c_fit = 0.0
        rows = 0
        for i in range(1, tl.model.N + 1):
            for frac_t, frac_tau in ((0.5, 0.3), (0.8, 0.25), (0.95, 0.6)):
                t = frac_t * tl.t_end
                tau = frac_tau * t
                sets = [[(float(rng.uniform(-2, 0)),
                          float(rng.uniform(0.1, 2.5)))] for _ in range(4)]
                rep = dg.decay_estimate_check(tl, i, t, tau, sets)
                ok &= math.isfinite(rep["C_required"])
                c_fit = max(c_fit, rep["C_required"])
                rows += len(rep["rows"])
                for row in rep["rows"]:  # inequality holds at the fitted C
                    bound = max(c_fit, rep["C_required"]) * row["bound_raw"]
                    ok &= row["cont_mass"] <= bound + 1e-12
        # exceptional-time report is exactly the ICJ atom times over threshold
        thresh = 1e-6
        srep = dg.sbv_atom_report(tl, 1, thresh)
        icj = ms.mu_ICJ(tl, 1, tl.curves(1))
        masses = {}
        for tt, ww in zip(icj.ts, icj.ws):
            masses[tt] = masses.get(tt, 0.0) + abs(ww)
        expect = sorted(t for t, m in masses.items() if m > thresh and t > 0.0)
        ok &= srep["exceptional_times"] == expect
        detail.append(f"{mid}: C={c_fit:.3g} ({rows} sets)")
    report(6, "main decay estimate with fitted constants; exceptional times "
              "definitional", ok, "; ".join(detail))


def test_criterion_07_shock_formation_localization():
    start = time.perf_counter()
    tl = quick_run("burgers", {"kind": "profile", "name": "ramp",
                               "samples": 40},
                   epsilon=0.025, t_end=2.0)
    rep = dg.sbv_atom_report(tl, 1, 1e-6)
    elapsed = time.perf_counter() - start
    ok = bool(rep["exceptional_times"])
    earliest = min(rep["exceptional_times"]) if ok else math.nan
    ok &= 0.9 <= earliest <= 1.1
    ok &= elapsed <= 5.0
    report(7, "gradient catastrophe localized at t = 1 on the -x ramp", ok,
           f"earliest exceptional time {earliest:.6f}, {elapsed:.2f}s")


def test_criterion_08_remark_conformance():
    model = fc.make_model("remark-2x2")
    ok = True
    worst_eig = 0.0
    grid = np.linspace(model.domain[0][0], model.domain[0][1], 50)
    for uu in grid:
        for vv in np.linspace(model.domain[1][0], model.domain[1][1], 50):
            w = np.sort(np.linalg.eigvals(np.array(model.jacobian_rows(
                (float(uu), float(vv))))).real)
            worst_eig = max(worst_eig, abs(w[0] - 0.0),
                            abs(w[1] - (1.0 + uu + 2.0 * vv)))
    ok &= worst_eig <= 1e-10
    # finite-difference gradient of lambda_2 equals (1, 2)
    h = 1e-6
    fd_u = (model.point_eig(np.array([h, 0.0])).lambdas[1]
            - model.point_eig(np.array([-h, 0.0])).lambdas[1]) / (2 * h)
    fd_v = (model.point_eig(np.array([0.0, h])).lambdas[1]
            - model.point_eig(np.array([0.0, -h])).lambdas[1]) / (2 * h)
    ok &= abs(fd_u - 1.0) <= 1e-8 and abs(fd_v - 2.0) <= 1e-8
    # family-1 fronts propagate at exactly zero speed in a run
    init = {"kind": "breakpoints", "xs": [-0.5, 0.0],
            "values": [[0.0, 0.0], [0.2, -0.07], [0.2, 0.1]]}
    tl = quick_run("remark-2x2", init, epsilon=0.05, t_end=1.0)
    fam1 = [rec for rec in tl.front_records.values()
            if rec.family == 1 and rec.is_physical]
    ok &= len(fam1) > 0
    ok &= all(rec.speed == 0.0 for rec in fam1)
    # averaged left vector at constant states matches l2 = (v/(1+u+2v), 1)
    worst_l = 0.0
    for uu in np.linspace(-0.25, 0.25, 9):
        for vv in np.linspace(-0.25, 0.25, 9):
            state = (float(uu), float(vv))
            l2 = fc.average_eigs(model, state, state).left[1]
            hand = np.array([vv / (1.0 + uu + 2.0 * vv), 1.0])
            worst_l = max(worst_l, float(np.max(np.abs(np.subtract(l2, hand)))))
    ok &= worst_l <= 1e-8
    report(8, "remark-2x2 eigensystem, zero-speed contacts, hand-derived l2",
           ok, f"eig defect {worst_eig:.1e}, l2 defect {worst_l:.1e}, "
               f"{len(fam1)} contact fronts")


def test_criterion_09_nonphysical_budget():
    rng = np.random.default_rng(17)
    init = random_breakpoint_scenario("remark-2x2", rng, n_jumps=5)
    ladder = [0.1, 0.05, 0.025]
    totals = {}
    for eps in ladder:
        tl = quick_run("remark-2x2", init, epsilon=eps, t_end=1.5)
        totals[eps] = ms.nonphysical_total_strength(tl.slice_at(1.5))
    ks = {eps: tot / eps for eps, tot in totals.items()}
    k_fit = max(ks[ladder[0]], 1e-6)
    ok = all(k <= 1.5 * k_fit for k in ks.values())
    report(9, "nonphysical strength O(epsilon) with stable constant", ok,
           ", ".join(f"eps={e}: total={totals[e]:.2e} K={ks[e]:.2e}"
                     for e in ladder))


def test_criterion_10_determinism(tmp_path):
    scenarios = {
        "burgers": {"model": {"id": "burgers"},
                    "initial": {"kind": "profile", "name": "sawtooth",
                                "samples": 16,
                                "params": {"teeth": 2, "amplitude": 0.5}},
                    "numerics": {"epsilon": 0.05, "t_end": 1.5}},
        "cubic": {"model": {"id": "cubic"},
                  "initial": {"kind": "breakpoints", "xs": [-0.5, 0.5],
                              "values": [[1.0], [-1.0], [0.8]]},
                  "numerics": {"epsilon": 0.1, "t_end": 1.0}},
        "remark": {"model": {"id": "remark-2x2"},
                   "initial": random_breakpoint_scenario(
                       "remark-2x2", np.random.default_rng(3), 4),
                   "numerics": {"epsilon": 0.05, "t_end": 1.0}},
        "psystem": {"model": {"id": "p-system"},
                    "initial": random_breakpoint_scenario(
                        "p-system", np.random.default_rng(4), 4),
                    "numerics": {"epsilon": 0.05, "t_end": 1.0}},
    }
    files = ("events.jsonl", "slices.csv", "ledger.csv", "measures.csv",
             "curves.csv", "diagnostics.json")
    ok = True
    for name, doc in scenarios.items():
        blobs = []
        for rep_id in ("a", "b"):
            sdoc = json.loads(json.dumps(doc))
            sdoc["outputs"] = {"dir": str(tmp_path / f"{name}_{rep_id}")}
            sdoc["diagnostics"] = {"checks": ["monotonicity", "sbv_atoms"],
                                   "seed": 1}
            spath = tmp_path / f"{name}_{rep_id}.json"
            spath.write_text(json.dumps(sdoc))
            cfg, plan = cli.parse_config(str(spath))
            code = cli.orchestrate(cfg, plan)
            ok &= code == cli.EXIT_OK
            blobs.append({f: (tmp_path / f"{name}_{rep_id}" / f).read_bytes()
                          for f in files})
        ok &= blobs[0] == blobs[1]
    report(10, "byte-identical artifacts across repeated runs", ok,
           f"{len(scenarios)} scenarios x {len(files)} files")
