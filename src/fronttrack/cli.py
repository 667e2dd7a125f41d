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
from dataclasses import replace

import numpy as np

from . import diagnostics as dg
from . import fileio as io
from . import flux_core as fc
from . import measures as ms
from . import tracker as tk
from .errors import (ConfigError, FrontTrackError, InitialDataError,
                     SolverError)

EXIT_OK = 0
EXIT_AUDIT = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4

_KNOWN_CHECKS = ("monotonicity", "interaction_estimates", "conservation",
                 "nonphysical_budget", "balance", "positive_decay", "decay",
                 "tame_oscillation", "sbv_atoms", "convergence")
DEFAULT_CHECKS = ("monotonicity", "interaction_estimates", "conservation")


def parse_config(path):
    """Validated (RunConfig, diagnostics plan) from a scenario file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("file", f"cannot read scenario: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("file", f"malformed JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("file", "scenario must be a JSON object")

    model_sec = doc.get("model")
    if not isinstance(model_sec, dict) or "id" not in model_sec:
        raise ConfigError("model.id", "missing model id")
    model_id = model_sec["id"]
    model_params = model_sec.get("params", {})
    fc.make_model(model_id, model_params)  # validates id and params now

    initial = doc.get("initial")
    if not isinstance(initial, dict):
        raise ConfigError("initial", "missing initial-data section")

    num = doc.get("numerics", {})
    if "epsilon" not in num:
        raise ConfigError("numerics.epsilon", "missing accuracy parameter")
    tol = num.get("tolerances", {})
    c0 = num.get("C0", "auto")
    if c0 != "auto":
        try:
            c0 = float(c0)
        except (TypeError, ValueError):
            raise ConfigError("numerics.C0", "must be 'auto' or a number")
        if c0 < 0:
            raise ConfigError("numerics.C0", "must be nonnegative")
    cfg = tk.RunConfig(
        model_id=model_id,
        model_params=model_params,
        initial=initial,
        epsilon=float(num["epsilon"]),
        t_end=float(num.get("t_end", 1.0)),
        rho=None if num.get("rho") is None else float(num["rho"]),
        rho_rule=num.get("rho_rule", "eps3"),
        eps0=None if num.get("eps0") is None else float(num["eps0"]),
        eps1=None if num.get("eps1") is None else float(num["eps1"]),
        c0=c0,
        tie_tol_factor=float(tol.get("tie_tol_factor", 1e-13)),
        audit_rel_tol=float(tol.get("audit_rel", 1e-12)),
        event_cap=int(num.get("event_cap", 200000)),
        front_cap=int(num.get("front_cap", 20000)),
    )
    if cfg.rho_rule not in ("eps3", "fixed"):
        raise ConfigError("numerics.rho_rule", f"unknown rule {cfg.rho_rule!r}")
    if cfg.rho_rule == "fixed" and num.get("rho") is None:
        raise ConfigError("numerics.rho", "rho_rule 'fixed' needs an explicit rho")

    plan = dict(doc.get("diagnostics", {}))
    plan.setdefault("checks", list(DEFAULT_CHECKS))
    for name in plan["checks"]:
        if name not in _KNOWN_CHECKS:
            raise ConfigError("diagnostics.checks", f"unknown check {name!r}")
    plan.setdefault("families", list(range(1, fc.make_model(model_id, model_params).N + 1)))
    plan["outputs"] = doc.get("outputs", {})
    plan["epsilon_ladder"] = [float(e) for e in plan.get("epsilon_ladder", [])]
    return cfg, plan


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _domain_window(timeline):
    xs = [f.x for f in timeline.initial_field.fronts]
    if not xs:
        xs = [0.0]
    span = float(timeline.model.lambda_fences[-1] - timeline.model.lambda_fences[0])
    pad = (span + 1.0) * timeline.t_end
    return min(xs) - pad, max(xs) + pad


def run_checks(timeline, plan):
    """Execute the enabled checks; returns (report dict, audit_failed)."""
    checks = plan.get("checks", DEFAULT_CHECKS)
    families = [i for i in plan.get("families", [1]) if 1 <= i <= timeline.model.N]
    rng = np.random.default_rng(plan.get("seed", 0))
    led = timeline.ledger
    report = {"C0": timeline.C0, "C0_calibrated": led.calibrated,
              "events": len(timeline.events), "checks": {}}
    failed = False

    if "monotonicity" in checks:
        ups0 = led.upsilon0()
        bad = []
        for ev in timeline.events:
            _, _, dups, verdict = ms.glimm_deltas(ev, timeline.C0, ups0,
                                                  timeline.config.audit_rel_tol)
            if not verdict["ok"]:
                bad.append({"t": ev.t, "dUpsilon": dups, **verdict})
        ok = not bad and led.calibrated
        report["checks"]["monotonicity"] = {
            "pass": ok, "violations": bad[:20], "n_violations": len(bad),
            "Upsilon0": ups0}
        failed |= not ok

    if "interaction_estimates" in checks:
        cs, ks = [], []
        for ev in timeline.events:
            if ev.amount_I > 1e-14:
                cs.append(-ev.dQ / ev.amount_I)
                ks.append(abs(ev.dV) / ev.amount_I)
        c_fit = min(cs) if cs else None
        k_fit = max(ks) if ks else None
        ok = (c_fit is None) or (c_fit > 0 and math.isfinite(k_fit))
        report["checks"]["interaction_estimates"] = {
            "pass": bool(ok), "c": c_fit, "K": k_fit, "n_events": len(cs)}
        failed |= not ok

    if "conservation" in checks:
        lo, hi = _domain_window(timeline)
        final = timeline.slice_at(timeline.t_end)
        m0 = ms.mass_relative(timeline.initial_field, hi)
        m1 = ms.mass_relative(final, hi)
        u_left = timeline.initial_field.left_state
        u_right = (timeline.initial_field.fronts[-1].uR
                   if timeline.initial_field.fronts else u_left)
        # over a fixed window the contents change at the boundary-flux rate
        influx = timeline.t_end * (timeline.model.f(u_left)
                                   - timeline.model.f(u_right))
        drift = float(np.max(np.abs(m1 - m0 - influx)))
        scalar = timeline.model.N == 1
        ok = drift <= 1e-9 if scalar else True
        report["checks"]["conservation"] = {
            "pass": bool(ok), "mass_drift": drift, "audited": scalar}
        failed |= not ok

    if "nonphysical_budget" in checks:
        fld = timeline.slice_at(timeline.t_end)
        total = ms.nonphysical_total_strength(fld)
        k_budget = plan.get("np_budget_K")
        ok = True if k_budget is None else total <= float(k_budget) * timeline.config.epsilon
        report["checks"]["nonphysical_budget"] = {
            "pass": bool(ok), "total_strength": total,
            "strength_over_epsilon": total / timeline.config.epsilon}
        failed |= not ok

    if "balance" in checks:
        n_regions = int(plan.get("balance_regions", 20))
        out = {"regions": [], "C_required_signed": 0.0, "C_required_split": 0.0}
        ok = True
        lo, hi = _domain_window(timeline)
        for i in families:
            for _ in range(n_regions):
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
        report["checks"]["balance"] = out
        failed |= not ok

    if "positive_decay" in checks:
        t = plan.get("positive_decay_t", 0.75 * timeline.t_end)
        s = plan.get("positive_decay_s", 0.0)
        sets = plan.get("positive_decay_sets") or _default_sets(timeline, rng)
        out = {"families": {}}
        for i in families:
            rep = dg.positive_decay_check(timeline, i, s, t, sets)
            out["families"][i] = {"C_required": rep["C_required"],
                                  "q_drop": rep["q_drop"]}
        out["pass"] = all(math.isfinite(v["C_required"])
                          for v in out["families"].values())
        report["checks"]["positive_decay"] = out
        failed |= not out["pass"]

    if "decay" in checks:
        t = plan.get("decay_t", 0.75 * timeline.t_end)
        tau = plan.get("decay_tau", 0.5 * t)
        sets = plan.get("decay_sets") or _default_sets(timeline, rng)
        out = {"families": {}}
        for i in families:
            rep = dg.decay_estimate_check(timeline, i, t, tau, sets)
            out["families"][i] = {"C_required": rep["C_required"],
                                  "icj_window_mass": rep["icj_window_mass"]}
        out["pass"] = all(math.isfinite(v["C_required"])
                          for v in out["families"].values())
        report["checks"]["decay"] = out
        failed |= not out["pass"]

    if "tame_oscillation" in checks:
        n_tri = int(plan.get("tame_triangles", 20))
        lo, hi = _domain_window(timeline)
        tris = []
        for _ in range(n_tri):
            a = float(rng.uniform(lo, hi - 0.1))
            b = float(rng.uniform(a + 0.1, hi))
            tau = float(rng.uniform(0.0, 0.8)) * timeline.t_end
            tris.append({"a": a, "b": b, "tau": tau})
        rep = dg.tame_oscillation_check(timeline, tris)
        ok = math.isfinite(rep["C_prime"])
        report["checks"]["tame_oscillation"] = {"pass": bool(ok),
                                                "C_prime": rep["C_prime"],
                                                "n_triangles": len(tris)}
        failed |= not ok

    if "sbv_atoms" in checks:
        thresh = float(plan.get("sbv_threshold", 1e-8))
        out = {"families": {}}
        for i in families:
            rep = dg.sbv_atom_report(timeline, i, thresh)
            out["families"][i] = {
                "exceptional_times": rep["exceptional_times"],
                "icj_total_mass": rep["icj_total_mass"]}
        out["pass"] = True
        report["checks"]["sbv_atoms"] = out

    if "convergence" in checks:
        params = plan.get("convergence", {})
        scenario = params.get("scenario")
        if scenario is None:
            raise ConfigError("diagnostics.convergence.scenario",
                              "convergence check needs a scenario id")
        rep = dg.convergence_study(
            scenario, [float(e) for e in params.get("ladder", [0.1, 0.05])],
            t_eval=float(params.get("t_eval", 1.0)))
        ok = all(math.isfinite(r["l1_error"]) for r in rep["rows"])
        rep["pass"] = bool(ok)
        report["checks"]["convergence"] = rep
        failed |= not ok

    return report, failed


def _default_sets(timeline, rng):
    lo, hi = _domain_window(timeline)
    sets = []
    for _ in range(6):
        a = float(rng.uniform(lo, hi - 0.2))
        w = float(rng.uniform(0.1, 0.5)) * (hi - a)
        sets.append([(a, a + w)])
    a0 = float(rng.uniform(lo, hi - 1.0))
    sets.append([(a0, a0 + 0.3), (a0 + 0.6, a0 + 1.0)])
    return sets


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _emit_artifacts(outdir, timeline, plan, check_report):
    io.ensure_dir(outdir)
    io.write_events_jsonl(os.path.join(outdir, "events.jsonl"), timeline)
    times = plan.get("outputs", {}).get(
        "slice_times", [0.0, 0.5 * timeline.t_end, timeline.t_end])
    io.write_slices_csv(os.path.join(outdir, "slices.csv"), timeline, times)
    io.write_ledger_csv(os.path.join(outdir, "ledger.csv"), timeline)
    entries = []
    mu_i_meas, mu_ic = ms.record_interaction_measures(timeline.events)
    for t, x, w in zip(mu_i_meas.ts, mu_i_meas.xs, mu_i_meas.ws):
        entries.append(("I", 0, t, x, w))
    for t, x, w in zip(mu_ic.ts, mu_ic.xs, mu_ic.ws):
        entries.append(("IC", 0, t, x, w))
    curves_by_family = {}
    for i in plan.get("families", [1]):
        if not 1 <= i <= timeline.model.N:
            continue
        curves = timeline.curves(i)
        curves_by_family[i] = curves
        icj = ms.mu_ICJ(timeline, i, curves)
        for t, x, w in zip(icj.ts, icj.xs, icj.ws):
            entries.append(("ICJ", i, t, x, w))
        mu_src = ms.source_measure_mu_i(timeline, i)
        for t, x, w in zip(mu_src.ts, mu_src.xs, mu_src.ws):
            entries.append(("mu_i", i, t, x, w))
        mu_jump, _ = ms.source_measure_mu_jump(timeline, i, curves)
        for t, x, w in zip(mu_jump.ts, mu_jump.xs, mu_jump.ws):
            entries.append(("mu_jump", i, t, x, w))
    io.write_measures_csv(os.path.join(outdir, "measures.csv"), entries)
    io.write_curves_csv(os.path.join(outdir, "curves.csv"), curves_by_family)
    io.write_diagnostics_json(os.path.join(outdir, "diagnostics.json"),
                              check_report)


def orchestrate(cfg, plan):
    """Run the scenario (or its epsilon ladder) and write all artifacts."""
    outdir = plan.get("outputs", {}).get("dir", "out")
    ladder = plan.get("epsilon_ladder") or []
    manifest = {"complete": False, "error": None, "members": []}
    io.ensure_dir(outdir)
    exit_code = EXIT_OK
    try:
        if ladder:
            summaries = []
            for eps in ladder:
                # a fixed rho holds for every member; under eps3, rho and the
                # shock thresholds default from the member's epsilon
                member_cfg = replace(
                    cfg, epsilon=eps,
                    rho=cfg.rho if cfg.rho_rule == "fixed" else None,
                    eps0=None, eps1=None)
                sub = os.path.join(outdir, f"eps_{eps:g}")
                timeline = tk.run(member_cfg)
                rep, audit_failed = run_checks(timeline, plan)
                _emit_artifacts(sub, timeline, plan, rep)
                manifest["members"].append(os.path.basename(sub))
                summaries.append({
                    "epsilon": eps,
                    "nonphysical_total": ms.nonphysical_total_strength(
                        timeline.slice_at(timeline.t_end)),
                    "C0": timeline.C0,
                    "exceptional_times": rep["checks"].get("sbv_atoms", {}).get(
                        "families", {}),
                    "audit_failed": audit_failed})
                if audit_failed:
                    exit_code = EXIT_AUDIT
            ladder_report = {"ladder": summaries}
            io.write_diagnostics_json(os.path.join(outdir, "diagnostics.json"),
                                      ladder_report)
        else:
            timeline = tk.run(cfg)
            rep, audit_failed = run_checks(timeline, plan)
            _emit_artifacts(outdir, timeline, plan, rep)
            if audit_failed:
                exit_code = EXIT_AUDIT
        manifest["complete"] = True
    except (ConfigError, InitialDataError) as exc:
        manifest["error"] = str(exc)
        exit_code = EXIT_CONFIG
    except FrontTrackError as exc:
        manifest["error"] = str(exc)
        exit_code = EXIT_RUNTIME
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
    except ConfigError as exc:
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
