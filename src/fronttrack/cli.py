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
    model = fc.make_model(model_id, model_params)  # validates id and params now

    initial = doc.get("initial")
    if not isinstance(initial, dict):
        raise ConfigError("initial", "missing initial-data section")

    num = _section(doc, "numerics")
    if "epsilon" not in num:
        raise ConfigError("numerics.epsilon", "missing accuracy parameter")
    tol = _section(num, "tolerances", "numerics.tolerances")
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
        epsilon=_convert(float, num, "epsilon", "numerics"),
        t_end=_convert(float, num, "t_end", "numerics", 1.0),
        rho=_convert(float, num, "rho", "numerics"),
        rho_rule=num.get("rho_rule", "eps3"),
        eps0=_convert(float, num, "eps0", "numerics"),
        eps1=_convert(float, num, "eps1", "numerics"),
        c0=c0,
        tie_tol_factor=_convert(float, tol, "tie_tol_factor",
                                "numerics.tolerances", 1e-13),
        audit_rel_tol=_convert(float, tol, "audit_rel", "numerics.tolerances",
                               1e-12),
        event_cap=_convert(int, num, "event_cap", "numerics", 200000),
        front_cap=_convert(int, num, "front_cap", "numerics", 20000),
    )
    if cfg.rho_rule not in ("eps3", "fixed"):
        raise ConfigError("numerics.rho_rule", f"unknown rule {cfg.rho_rule!r}")
    if cfg.rho_rule == "fixed" and num.get("rho") is None:
        raise ConfigError("numerics.rho", "rho_rule 'fixed' needs an explicit rho")

    plan = _section(doc, "diagnostics")
    plan.setdefault("checks", list(DEFAULT_CHECKS))
    _require(isinstance(plan["checks"], list),
             "diagnostics.checks", "must be a list of check names")
    for name in plan["checks"]:
        if name not in _KNOWN_CHECKS:
            raise ConfigError("diagnostics.checks", f"unknown check {name!r}")
    plan.setdefault("families", list(range(1, model.N + 1)))
    plan["outputs"] = _section(doc, "outputs")
    _check_plan(plan, model.N, cfg.t_end)
    plan["epsilon_ladder"] = _parse_ladder(plan.get("epsilon_ladder", []))
    if plan["epsilon_ladder"]:
        # ladder members take their shock thresholds from their own epsilon
        for key in ("eps0", "eps1"):
            if num.get(key) is not None:
                raise ConfigError(f"numerics.{key}",
                                  "cannot be set with diagnostics.epsilon_ladder")
    return cfg, plan


def _section(doc, name, key=None):
    """A copy of the optional object doc[name]; key names it in errors."""
    sec = doc.get(name, {})
    _require(isinstance(sec, dict), key or name, "must be a JSON object")
    return dict(sec)


def _convert(kind, sec, name, prefix, default=None):
    """sec[name] through float or int (default when absent, None when
    null); a value the conversion refuses is a ConfigError naming
    prefix.name."""
    value = sec.get(name, default)
    if value is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{prefix}.{name}",
                          f"must be {what}, got {value!r}") from None


def _is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _is_int(v, low):
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


def _is_interval_unions(sets):
    """A list of finite unions of closed intervals [[a, b], ...], a <= b."""
    return isinstance(sets, list) and all(
        isinstance(union, list) and all(
            isinstance(iv, list) and len(iv) == 2
            and all(_is_number(e) for e in iv) and iv[0] <= iv[1]
            for iv in union)
        for union in sets)


def _require(ok, key, message):
    if not ok:
        raise ConfigError(key, message)


def _check_plan(plan, n_families, t_end):
    """Refuse diagnostics and outputs values the checks cannot use, naming
    the key: families in 1..N, a nonnegative integer seed, positive counts,
    finite nonnegative constants, slice times in [0, t_end], decay times
    with 0 <= s < t <= t_end and 0 < tau < t, decay sets as interval
    unions, and a convergence study with a known scenario, a ladder of
    positive epsilons and a positive t_eval."""
    fams = plan["families"]
    _require(isinstance(fams, list)
             and all(_is_int(i, 1) and i <= n_families for i in fams),
             "diagnostics.families", f"must be integers in 1..{n_families}")
    _require(_is_int(plan.get("seed", 0), 0),
             "diagnostics.seed", "must be a nonnegative integer")
    for key in ("balance_regions", "tame_triangles"):
        _require(_is_int(plan.get(key, 1), 1),
                 f"diagnostics.{key}", "must be a positive integer")
    for key in ("np_budget_K", "sbv_threshold"):
        v = plan.get(key, 0.0)
        _require(_is_number(v) and v >= 0,
                 f"diagnostics.{key}", "must be finite and nonnegative")
    times = plan["outputs"].get("slice_times", [])
    _require(isinstance(times, list)
             and all(_is_number(t) and 0 <= t <= t_end for t in times),
             "outputs.slice_times", f"must be times in [0, {t_end:g}]")
    # the defaults are run_checks' own
    t = plan.get("positive_decay_t", 0.75 * t_end)
    _require(_is_number(t) and 0 < t <= t_end,
             "diagnostics.positive_decay_t", f"must lie in (0, {t_end:g}]")
    s = plan.get("positive_decay_s", 0.0)
    _require(_is_number(s) and 0 <= s < t,
             "diagnostics.positive_decay_s", f"must lie in [0, {t:g})")
    t = plan.get("decay_t", 0.75 * t_end)
    _require(_is_number(t) and 0 < t <= t_end,
             "diagnostics.decay_t", f"must lie in (0, {t_end:g}]")
    tau = plan.get("decay_tau", 0.5 * t)
    _require(_is_number(tau) and 0 < tau < t,
             "diagnostics.decay_tau", f"must lie in (0, {t:g})")
    for key in ("positive_decay_sets", "decay_sets"):
        sets = plan.get(key)
        _require(sets is None or _is_interval_unions(sets),
                 f"diagnostics.{key}", "must be a list of interval unions "
                 "[[a, b], ...] with finite a <= b")
    conv = plan.get("convergence", {})
    _require(isinstance(conv, dict),
             "diagnostics.convergence", "must be a JSON object")
    scenario = conv.get("scenario")
    if scenario is not None or "convergence" in plan["checks"]:
        _require(isinstance(scenario, str)
                 and scenario in dg.CONVERGENCE_SCENARIOS,
                 "diagnostics.convergence.scenario",
                 f"must be one of {sorted(dg.CONVERGENCE_SCENARIOS)}")
    ladder = conv.get("ladder", [0.1, 0.05])
    _require(isinstance(ladder, list) and ladder
             and all(_is_number(e) and e > 0 for e in ladder),
             "diagnostics.convergence.ladder",
             "must be a nonempty list of finite positive numbers")
    t_eval = conv.get("t_eval", 1.0)
    _require(_is_number(t_eval) and t_eval > 0,
             "diagnostics.convergence.t_eval", "must be finite and positive")


def _member_dir(eps):
    """Artifact subdirectory of the epsilon-ladder member eps."""
    return f"eps_{eps:g}"


def _parse_ladder(raw):
    """diagnostics.epsilon_ladder as floats, each finite and positive and
    each with its own artifact directory."""
    key = "diagnostics.epsilon_ladder"
    try:
        ladder = [float(e) for e in raw]
    except (TypeError, ValueError):
        raise ConfigError(key, "must be a list of numbers")
    if not all(math.isfinite(e) and e > 0 for e in ladder):
        raise ConfigError(key, "members must be finite and positive")
    if len({_member_dir(e) for e in ladder}) < len(ladder):
        raise ConfigError(key, "members must differ in their first 6 digits "
                               "(each writes to eps_<epsilon:g>)")
    return ladder


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _domain_window(timeline):
    xs = timeline.initial_field.xs
    if not xs:
        xs = [0.0]
    span = float(timeline.model.lambda_fences[-1] - timeline.model.lambda_fences[0])
    pad = (span + 1.0) * timeline.t_end
    return min(xs) - pad, max(xs) + pad


def run_checks(timeline, plan):
    """Execute the enabled checks; returns (report dict, audit_failed)."""
    checks = plan.get("checks", DEFAULT_CHECKS)
    families = plan.get("families", [1])  # in 1..N, see _check_plan
    rng = np.random.default_rng(plan.get("seed", 0))
    led = timeline.ledger
    report = {"C0": led.C0, "C0_calibrated": led.calibrated,
              "events": len(timeline.events), "checks": {}}
    failed = False

    if "monotonicity" in checks:
        ups0 = led.upsilon0()
        monotone, strict = led.verdicts([ev.amount_I for ev in timeline.events],
                                        timeline.config.audit_rel_tol)
        dups = led.dUps
        bad = [{"t": float(led.ts[k + 1]), "dUpsilon": float(dups[k]),
                "monotone": bool(monotone[k]), "strict": bool(strict[k]),
                "ok": False}
               for k in (~(monotone & strict)).nonzero()[0]]
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
        summaries = []
        for eps in ladder or [None]:
            member_cfg, sub = cfg, outdir
            if ladder:
                # a fixed rho holds for every member; under eps3, rho and the
                # shock thresholds default from the member's epsilon
                # (parse_config refuses explicit thresholds with a ladder)
                member_cfg = replace(
                    cfg, epsilon=eps,
                    rho=cfg.rho if cfg.rho_rule == "fixed" else None,
                    eps0=None, eps1=None)
                sub = os.path.join(outdir, _member_dir(eps))
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
