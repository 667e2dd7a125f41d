"""Scenario ingestion, run orchestration, and artifact emission.

Exit codes: 0 success, 2 an enabled audit failed, 3 configuration error,
4 solver/runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import diagnostics as dg
from . import fileio as io
from . import flux_core as fc
from . import measures as ms
from . import tracker as tk
from .errors import (ConfigError, FrontTrackError, InitialDataError,
                     SolverError, finite, integer, refuse_unknown_keys)

EXIT_OK = 0
EXIT_AUDIT = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4

DEFAULT_CHECKS = ("monotonicity", "interaction_estimates", "conservation")

# nonphysical_budget passes iff the nonphysical fronts alive at t_end have
# total strength at most NP_BUDGET_K * epsilon: front tracking keeps them
# O(epsilon) (Bressan 2000, ch. 7)
NP_BUDGET_K = 1.0


_DIAGNOSTICS = ("checks", "families", "seed", "sbv_threshold", "convergence",
                "epsilon_ladder")


def parse_config(path):
    """Validated (RunConfig, completed diagnostics plan) from a scenario
    file. A null value means the key is absent. plan["members"] are the
    epsilon_ladder members' RunConfigs: the given numerics, their epsilon."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("file", f"cannot read scenario: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("file", f"malformed JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("file", "scenario must be a JSON object")
    refuse_unknown_keys("", doc, ("model", "initial", "numerics", "outputs",
                                     "diagnostics"))

    model_sec = doc.get("model")
    if not isinstance(model_sec, dict) or "id" not in model_sec:
        raise ConfigError("model.id", "missing model id")
    refuse_unknown_keys("model", model_sec, ("id", "params"))
    model_id = model_sec["id"]
    model_params = model_sec.get("params", {})
    model = fc.make_model(model_id, model_params)  # validates id and params now

    initial = doc.get("initial")
    if not isinstance(initial, dict):
        raise ConfigError("initial", "missing initial-data section")

    # numerics reach RunConfig as given, by field name, and it checks each
    num = _section(doc, "numerics", tk.NUMERICS)
    settings = {"model_id": model_id, "model_params": model_params,
                "initial": initial}
    settings |= {name: v for name, v in num.items() if v is not None}
    if "epsilon" not in settings:
        raise ConfigError("numerics.epsilon", "missing accuracy parameter")
    cfg = tk.RunConfig(**settings)

    plan = _section(doc, "diagnostics", _DIAGNOSTICS)
    plan["outputs"] = doc.get("outputs")
    _check_plan(plan, model.N, cfg.t_end)
    plan["members"] = [tk.RunConfig(**(settings | {"epsilon": eps}))
                       for eps in plan["epsilon_ladder"]]
    return cfg, plan


def _section(doc, name, keys=None, key=None):
    """A copy of the optional object doc[name], whose keys must be in keys
    when keys are given; key names it in errors."""
    sec = doc.get(name)
    _require(sec is None or isinstance(sec, dict), key or name,
             "must be a JSON object")
    if keys is not None:
        refuse_unknown_keys(key or name, sec or {}, keys)
    return dict(sec or {})


def _require(ok, key, message):
    if not ok:
        raise ConfigError(key, message)


def _default(sec, name, value):
    """sec[name], first set to value when absent or null."""
    if sec.get(name) is None:
        sec[name] = value
    return sec[name]


def _check_plan(plan, n_families, t_end):
    """Complete a diagnostics plan in place: set each absent or null
    diagnostics and outputs value to its default, and refuse a value the
    checks cannot use, naming the key. Values the checks take as floats are
    stored as floats."""
    checks = _default(plan, "checks", list(DEFAULT_CHECKS))
    _require(isinstance(checks, list),
             "diagnostics.checks", "must be a list of check names")
    for name in checks:
        _require(name in CHECKS,
                 "diagnostics.checks", f"unknown check {name!r}")
    fams = _default(plan, "families", list(range(1, n_families + 1)))
    _require(isinstance(fams, list) and fams
             and all(integer("diagnostics.families", i) <= n_families
                     for i in fams)
             and len(set(fams)) == len(fams),
             "diagnostics.families",
             f"must be distinct integers in 1..{n_families}, at least one")
    integer("diagnostics.seed", _default(plan, "seed", 0), 0)
    plan["sbv_threshold"] = finite("diagnostics.sbv_threshold",
                                   _default(plan, "sbv_threshold", 1e-8))
    _require(plan["sbv_threshold"] >= 0, "diagnostics.sbv_threshold",
             "must be nonnegative")
    outputs = plan["outputs"] = _section(plan, "outputs", ("dir", "slice_times"))
    times = _default(outputs, "slice_times", [0.0, 0.5 * t_end, t_end])
    _require(isinstance(times, list)
             and all(0 <= finite("outputs.slice_times", t) <= t_end
                     for t in times),
             "outputs.slice_times", f"must be times in [0, {t_end:g}]")
    outdir = _default(outputs, "dir", "out")
    _require(isinstance(outdir, str) and outdir,
             "outputs.dir", "must be a nonempty string")
    conv = plan["convergence"] = _section(plan, "convergence",
                                          ("scenario", "ladder"),
                                          "diagnostics.convergence")
    scenario = conv.get("scenario")
    if scenario is not None or "convergence" in checks:
        _require(isinstance(scenario, str)
                 and scenario in dg.CONVERGENCE_SCENARIOS,
                 "diagnostics.convergence.scenario",
                 f"must be one of {sorted(dg.CONVERGENCE_SCENARIOS)}")
    conv["ladder"] = _positive_list(conv, "ladder", [0.1, 0.05],
                                    "diagnostics.convergence.ladder")
    _require(conv["ladder"], "diagnostics.convergence.ladder",
             "must be a nonempty list of finite positive numbers")
    ladder = plan["epsilon_ladder"] = _positive_list(
        plan, "epsilon_ladder", [], "diagnostics.epsilon_ladder")
    _require(len({_member_dir(e) for e in ladder}) == len(ladder),
             "diagnostics.epsilon_ladder",
             "members must differ in their first 6 digits "
             "(each writes to eps_<epsilon:g>)")


def _positive_list(sec, name, default, key):
    """sec[name] (default when absent or null), finite positive numbers, as
    a list of floats."""
    values = _default(sec, name, default)
    _require(isinstance(values, list) and all(finite(key, e) > 0 for e in values),
             key, "must be a list of finite positive numbers")
    return [finite(key, e) for e in values]


def _member_dir(eps):
    """Artifact subdirectory of the epsilon-ladder member eps."""
    return f"eps_{eps:g}"


# ---------------------------------------------------------------------------
# checks: each takes (timeline, plan, rng, window) and returns its report
# entry, "pass" included
# ---------------------------------------------------------------------------


def _domain_window(timeline):
    """The initial breakpoints padded by (eta_bar + 1) t_end, widened about
    its middle to width 1.0 when narrower, as the seeded draws need: lo is
    then exactly hi - 1.0, the bound _default_sets draws below."""
    xs = timeline.initial_field.xs or [0.0]
    pad = (dg.default_eta_bar(timeline.model) + 1.0) * timeline.t_end
    lo, hi = min(xs) - pad, max(xs) + pad
    if hi - lo < 1.0:
        hi = 0.5 * (lo + hi) + 0.5
        lo = hi - 1.0
    return lo, hi


def _by_family(plan, keys, check):
    """{family: the keys of check(family)'s report} over the plan's families."""
    reports = {i: check(i) for i in plan["families"]}
    return {i: {k: rep[k] for k in keys} for i, rep in reports.items()}


def _all_finite_C(families):
    return all(math.isfinite(v["C_required"]) for v in families.values())


def _monotonicity(timeline, plan, rng, window):
    led = timeline.ledger
    ups0 = led.upsilon0()
    monotone, strict = led.verdicts([ev.amount_I for ev in timeline.events])
    dups = led.dUps
    bad = [{"t": float(led.ts[k + 1]), "dUpsilon": float(dups[k]),
            "monotone": bool(monotone[k]), "strict": bool(strict[k]),
            "ok": False}
           for k in (~(monotone & strict)).nonzero()[0]]
    return {"pass": not bad and led.calibrated, "violations": bad[:20],
            "n_violations": len(bad), "Upsilon0": ups0}


def _interaction_estimates(timeline, plan, rng, window):
    cs, ks = [], []
    for ev in timeline.events:
        if ev.amount_I > 1e-14:
            cs.append(-ev.dQ / ev.amount_I)
            ks.append(abs(ev.dV) / ev.amount_I)
    c_fit = min(cs) if cs else None
    k_fit = max(ks) if ks else None
    ok = (c_fit is None) or (c_fit > 0 and math.isfinite(k_fit))
    return {"pass": bool(ok), "c": c_fit, "K": k_fit, "n_events": len(cs)}


def _conservation(timeline, plan, rng, window):
    final = timeline.slice_at(timeline.t_end)
    m0 = ms.mass_relative(timeline.initial_field, window[1])
    m1 = ms.mass_relative(final, window[1])
    u_left = timeline.initial_field.left_state
    u_right = (timeline.initial_field.fronts[-1].uR
               if timeline.initial_field.fronts else u_left)
    # over a fixed window the contents change at the boundary-flux rate
    influx = timeline.t_end * (timeline.model.f(u_left)
                               - timeline.model.f(u_right))
    drift = float(np.max(np.abs(m1 - m0 - influx)))
    scalar = timeline.model.N == 1
    ok = drift <= 1e-9 if scalar else True
    return {"pass": bool(ok), "mass_drift": drift, "audited": scalar}


def _nonphysical_budget(timeline, plan, rng, window):
    total = ms.nonphysical_total_strength(timeline.slice_at(timeline.t_end))
    ok = total <= NP_BUDGET_K * timeline.config.epsilon
    return {"pass": bool(ok), "total_strength": total,
            "strength_over_epsilon": total / timeline.config.epsilon}


def _balance(timeline, plan, rng, window):
    out = {"regions": [], "C_required_signed": 0.0, "C_required_split": 0.0}
    ok = True
    lo, hi = window
    for i in plan["families"]:
        for _ in range(20):
            t0 = float(rng.uniform(0.0, 0.7)) * timeline.t_end
            tau = float(rng.uniform(0.2, 0.3)) * timeline.t_end
            a = float(rng.uniform(lo, hi - 0.5))
            w = float(rng.uniform(0.3, 0.6)) * (hi - a)
            try:
                region = dg.make_region(timeline, i, t0, tau, [(a, a + w)])
                rep = dg.region_balance_check(timeline, region)
            except SolverError:
                continue
            out["regions"].append({"family": i, "t0": t0, "tau": tau,
                                   "a": a, "b": a + w,
                                   "ratio_signed": rep["ratio_signed"],
                                   "ratio_split": rep["ratio_split"]})
            if math.isinf(rep["ratio_signed"]) or math.isinf(rep["ratio_split"]):
                ok = False
            out["C_required_signed"] = max(out["C_required_signed"],
                                           min(rep["ratio_signed"], 1e18))
            out["C_required_split"] = max(out["C_required_split"],
                                          min(rep["ratio_split"], 1e18))
    out["pass"] = ok
    return out


def _positive_decay(timeline, plan, rng, window):
    sets = _default_sets(window, rng)
    t = 0.75 * timeline.t_end
    families = _by_family(plan, ("C_required", "q_drop"),
                          lambda i: dg.positive_decay_check(
                              timeline, i, 0.0, t, sets))
    return {"families": families, "pass": _all_finite_C(families)}


def _decay(timeline, plan, rng, window):
    sets = _default_sets(window, rng)
    t = 0.75 * timeline.t_end
    families = _by_family(plan, ("C_required", "icj_window_mass"),
                          lambda i: dg.decay_estimate_check(
                              timeline, i, t, 0.5 * t, sets))
    return {"families": families, "pass": _all_finite_C(families)}


def _tame_oscillation(timeline, plan, rng, window):
    lo, hi = window
    tris = []
    for _ in range(20):
        a = float(rng.uniform(lo, hi - 0.1))
        b = float(rng.uniform(a + 0.1, hi))
        tau = float(rng.uniform(0.0, 0.8)) * timeline.t_end
        tris.append({"a": a, "b": b, "tau": tau})
    rep = dg.tame_oscillation_check(timeline, tris)
    return {"pass": bool(math.isfinite(rep["C_prime"])),
            "C_prime": rep["C_prime"], "n_triangles": len(tris)}


def _sbv_atoms(timeline, plan, rng, window):
    families = _by_family(plan, ("exceptional_times", "icj_total_mass"),
                          lambda i: dg.sbv_atom_report(timeline, i,
                                                       plan["sbv_threshold"]))
    return {"families": families, "pass": True}


def _convergence(timeline, plan, rng, window):
    conv = plan["convergence"]
    rep = dg.convergence_study(conv["scenario"], conv["ladder"])
    rep["pass"] = all(math.isfinite(r["l1_error"]) for r in rep["rows"])
    return rep


def _default_sets(window, rng):
    lo, hi = window
    sets = []
    for _ in range(6):
        a = float(rng.uniform(lo, hi - 0.2))
        w = float(rng.uniform(0.1, 0.5)) * (hi - a)
        sets.append([(a, a + w)])
    a0 = float(rng.uniform(lo, hi - 1.0))
    sets.append([(a0, a0 + 0.3), (a0 + 0.6, a0 + 1.0)])
    return sets


# The one list of checks. Its order is the order they run in, which fixes the
# draws each gets from diagnostics.seed: balance regions, then the sets of
# positive_decay and decay, then tame triangles.
CHECKS = {"monotonicity": _monotonicity,
          "interaction_estimates": _interaction_estimates,
          "conservation": _conservation,
          "nonphysical_budget": _nonphysical_budget,
          "balance": _balance,
          "positive_decay": _positive_decay,
          "decay": _decay,
          "tame_oscillation": _tame_oscillation,
          "sbv_atoms": _sbv_atoms,
          "convergence": _convergence}


def run_checks(timeline, plan):
    """Execute the enabled checks in CHECKS order; returns (report dict,
    audit_failed): some check's entry has "pass" false."""
    rng = np.random.default_rng(plan["seed"])
    window = _domain_window(timeline)
    checks = {name: check(timeline, plan, rng, window)
              for name, check in CHECKS.items() if name in plan["checks"]}
    led = timeline.ledger
    report = {"C0": led.C0, "C0_calibrated": led.calibrated,
              "events": len(timeline.events), "checks": checks}
    return report, not all(entry["pass"] for entry in checks.values())


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _rows(kind, family, measure):
    """measures.csv rows of the measure's atoms."""
    return [(kind, family, t, x, w)
            for t, x, w in zip(measure.ts, measure.xs, measure.ws)]


def _emit_artifacts(outdir, timeline, plan, check_report):
    io.ensure_dir(outdir)
    io.write_events_jsonl(os.path.join(outdir, "events.jsonl"), timeline)
    io.write_slices_csv(os.path.join(outdir, "slices.csv"), timeline,
                        plan["outputs"]["slice_times"])
    io.write_ledger_csv(os.path.join(outdir, "ledger.csv"), timeline)
    mu_i_meas, mu_ic = ms.record_interaction_measures(timeline.events)
    entries = _rows("I", 0, mu_i_meas) + _rows("IC", 0, mu_ic)
    curves_by_family = {}
    for i in plan["families"]:
        curves = curves_by_family[i] = timeline.curves(i)
        entries += _rows("ICJ", i, ms.mu_ICJ(timeline, i, curves))
        entries += _rows("mu_i", i, ms.source_measure_mu_i(timeline, i))
        mu_jump, _ = ms.source_measure_mu_jump(timeline, i, curves)
        entries += _rows("mu_jump", i, mu_jump)
    io.write_measures_csv(os.path.join(outdir, "measures.csv"), entries)
    io.write_curves_csv(os.path.join(outdir, "curves.csv"), curves_by_family)
    io.write_diagnostics_json(os.path.join(outdir, "diagnostics.json"),
                              check_report)


def orchestrate(cfg, plan):
    """Run the scenario (or its epsilon ladder) and write all artifacts."""
    outdir = plan["outputs"]["dir"]
    ladder = plan["members"]
    manifest = {"complete": False, "error": None, "members": []}
    io.ensure_dir(outdir)
    exit_code = EXIT_OK
    try:
        summaries = []
        for member_cfg in ladder or [cfg]:
            eps = member_cfg.epsilon
            sub = os.path.join(outdir, _member_dir(eps)) if ladder else outdir
            timeline = tk.run(member_cfg)
            rep, audit_failed = run_checks(timeline, plan)
            _emit_artifacts(sub, timeline, plan, rep)
            if audit_failed:
                exit_code = EXIT_AUDIT
            if ladder:
                manifest["members"].append(_member_dir(eps))
                summaries.append({
                    "epsilon": eps,
                    "nonphysical_total": ms.nonphysical_total_strength(
                        timeline.slice_at(timeline.t_end)),
                    "C0": timeline.ledger.C0,
                    "exceptional_times": rep["checks"].get("sbv_atoms", {}).get(
                        "families", {}),
                    "audit_failed": audit_failed})
        if ladder:
            io.write_diagnostics_json(os.path.join(outdir, "diagnostics.json"),
                                      {"ladder": summaries})
        manifest["complete"] = True
    except (ConfigError, InitialDataError) as exc:
        manifest["error"] = str(exc)
        exit_code = EXIT_CONFIG
    except FrontTrackError as exc:
        manifest["error"] = str(exc)
        if exc.event is not None:
            manifest["failed_event"] = exc.event
        exit_code = EXIT_RUNTIME
    except Exception as exc:
        # a defect still exits 1, with its traceback, but the manifest names it
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        io.write_diagnostics_json(os.path.join(outdir, "manifest.json"), manifest)
    return exit_code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fronttrack",
        description="Deterministic wave-front tracking for 1-D systems of "
                    "conservation laws, with Glimm-functional bookkeeping "
                    "and decay-estimate audits.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario file and emit artifacts")
    p_run.add_argument("scenario")
    p_check = sub.add_parser("check", help="parse and validate a scenario file")
    p_check.add_argument("scenario")
    sub.add_parser("catalog", help="list flux models and named profiles")
    args = parser.parse_args(argv)

    if args.command == "catalog":
        print("flux models:")
        for mid in fc.catalog_ids():
            model = fc.make_model(mid)
            kinds = ",".join(k[0].upper() for k in model.field_kind)
            print(f"  {mid:12s} N={model.N} fields={kinds} params={model.params}")
        print("named profiles (scalar initial data):")
        for name in sorted(tk.PROFILES):
            print(f"  {name}")
        return EXIT_OK

    try:
        cfg, plan = parse_config(args.scenario)
        if args.command == "check":
            # run loads it in orchestrate, whose manifest records a refusal
            tk.initial_data(fc.make_model(cfg.model_id, cfg.model_params),
                            cfg.initial)
    except (ConfigError, InitialDataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "check":
        print(f"ok: model={cfg.model_id} epsilon={cfg.epsilon} "
              f"t_end={cfg.t_end} rho={cfg.rho} eps0={cfg.eps0} eps1={cfg.eps1}")
        return EXIT_OK

    code = orchestrate(cfg, plan)
    if code == EXIT_OK:
        print("run complete")
    elif code == EXIT_AUDIT:
        print("run complete; audit FAILED", file=sys.stderr)
    else:
        print("run failed; see manifest.json", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
