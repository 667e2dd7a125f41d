"""Numerical audits of the decay machinery: minimal generalized
characteristics, regional wave balances, positive-wave decay, the main decay
estimate, tame oscillation, the SBV-atom report, and epsilon-refinement
convergence studies.

Every check is read-only over an immutable Timeline and returns a report
dict; fitted constants are reported, never asserted against universal values.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import measures as ms
from . import oracles
from . import tracker as tk
from .errors import ConfigError, SolverError

_RIDE_TOL = 1e-10


@dataclass
class CharCurve:
    """Minimal generalized characteristic: piecewise-linear, with per-segment
    slope and the id of the front ridden (None when free). Node times never
    decrease (repeats are zero-length segments), and nodes are only appended."""

    family: int
    nodes: list = field(default_factory=list)  # (t, x)
    slopes: list = field(default_factory=list)
    rode: list = field(default_factory=list)
    _ts: list = field(default_factory=list, init=False, repr=False,
                      compare=False)  # node times, refreshed when nodes grow

    def position(self, t):
        nodes = self.nodes
        if t <= nodes[0][0]:
            return nodes[0][1]
        if len(self._ts) != len(nodes):
            self._ts = [n[0] for n in nodes]
        # the first segment with t0 < t <= t1 ends at the first node time
        # >= t, so a query at a shared node interpolates from the left
        # (k == 0 only for a NaN t)
        k = bisect.bisect_left(self._ts, t)
        if not 0 < k < len(nodes):
            return nodes[-1][1]
        (t0, x0), (t1, x1) = nodes[k - 1], nodes[k]
        return x0 + (x1 - x0) * (t - t0) / (t1 - t0)

    def segments(self):
        for j in range(len(self.nodes) - 1):
            yield self.nodes[j], self.nodes[j + 1], self.slopes[j]


def _lambda_i(model, i, u):
    return float(model.point_eig(u).lambdas[i - 1])


def _rideable(model, i, front):
    if front.family != i or front.kind not in ("shock", "contact"):
        return False
    lam_l = _lambda_i(model, i, front.uL)
    lam_r = _lambda_i(model, i, front.uR)
    return lam_r - _RIDE_TOL <= front.speed <= lam_l + _RIDE_TOL


def _resolve_at_point(model, i, left_state, group):
    """Minimal-selection anchor among the fronts `group` emanating from one
    point (ordered by speed): returns ('ride', front) or ('free', slope)."""
    candidates = []
    state = left_state
    for j in range(len(group) + 1):
        lo = group[j - 1].speed if j > 0 else -math.inf
        hi = group[j].speed if j < len(group) else math.inf
        lam = _lambda_i(model, i, state)
        if lo - _RIDE_TOL <= lam <= hi + _RIDE_TOL:
            candidates.append((lam, 1, ("free", lam)))
        if j < len(group):
            g = group[j]
            if _rideable(model, i, g):
                candidates.append((g.speed, 0, ("ride", g)))
            state = g.uR
    if not candidates:
        # trapped without an admissible i-shock: fall back to the slowest
        # bounding front (keeps the curve defined; flagged by callers)
        return "ride", group[0]
    candidates.sort(key=lambda c: (c[0], c[1]))
    return candidates[0][2]


def min_characteristic(timeline, i, t0, x0, t1):
    """Minimal generalized i-characteristic from (t0, x0) up to t1."""
    if not (0.0 <= t0 < t1 <= timeline.t_end):
        raise SolverError("characteristic needs 0 <= t0 < t1 <= t_end")
    model = timeline.model
    fld = timeline.slice_at(t0)
    pending = [ev for ev in timeline.events if t0 < ev.t <= t1]
    curve = CharCurve(family=i, nodes=[(t0, x0)])
    t, x = t0, x0
    mode, carrier = _initial_anchor(model, i, fld, x0)

    def push(t_new, x_new, slope, rode_id):
        curve.nodes.append((t_new, x_new))
        curve.slopes.append(slope)
        curve.rode.append(rode_id)

    ev_idx = 0
    crossed = set()
    while t < t1:
        t_next = pending[ev_idx].t if ev_idx < len(pending) else t1
        t_next = min(t_next, t1)
        if mode == "ride":
            slope = carrier.speed
            live = next((f for f in fld.fronts if f.id == carrier.id), None)
            if live is None:
                raise SolverError("characteristic lost its carrier front")
            x_new = live.x + slope * (t_next - fld.time)
            push(t_next, x_new, slope, carrier.id)
            t, x = t_next, x_new
        else:
            slope = carrier
            hit = _next_crossing(fld, t, x, slope, t_next, crossed)
            if hit is not None:
                tc, xc, g = hit
                push(tc, xc, slope, None)
                t, x = tc, xc
                _advance_working(fld, t)
                crossed.add(g.id)
                kind, payload = _resolve_at_point(model, i, g.uL, [g])
                mode, carrier = kind, payload
                continue
            x_new = x + slope * (t_next - t)
            push(t_next, x_new, slope, None)
            t, x = t_next, x_new
        if ev_idx < len(pending) and t == pending[ev_idx].t:
            # drain all events at this time; re-anchor when one lands on us
            while ev_idx < len(pending) and pending[ev_idx].t == t:
                ev = pending[ev_idx]
                consumed = mode == "ride" and carrier.id in (
                    ev.incoming[0].id, ev.incoming[1].id)
                at_node = consumed or (mode == "free" and abs(ev.x - x) <= 1e-12)
                tk.apply_event(fld, ev)
                if at_node:
                    x = ev.x
                    group = [f for f in fld.fronts if f.x == ev.x and f.born_at == ev.t]
                    left_state = group[0].uL if group else fld.state_at(ev.x - 1e-12)
                    kind, payload = _resolve_at_point(model, i, left_state, group)
                    mode, carrier = kind, payload
                ev_idx += 1
            crossed = set()
        _advance_working(fld, t)
    return curve


def _initial_anchor(model, i, fld, x0):
    here = [f for f in fld.fronts if f.x == x0]
    if here:
        return _resolve_at_point(model, i, here[0].uL, here)
    return "free", _lambda_i(model, i, fld.state_at(x0))


def _advance_working(fld, t):
    if t > fld.time:
        dt = t - fld.time
        for f in fld.fronts:
            f.x += f.speed * dt
        fld.time = t


def _next_crossing(fld, t, x, slope, t_hi, skip):
    """Earliest strict crossing of the free characteristic with a front in
    (t, t_hi); returns (tc, xc, front) or None."""
    best = None
    for g in fld.fronts:
        if g.id in skip:
            continue
        xg = g.x + g.speed * (t - fld.time)
        rel = slope - g.speed
        dx = xg - x
        if rel == 0.0:
            continue
        dt = dx / rel
        if dt <= 0.0:
            continue
        tc = t + dt
        if tc >= t_hi:
            continue
        key = (tc, g.id)
        if best is None or key < best[0]:
            best = (key, xg + g.speed * dt, g)
    if best is None:
        return None
    (tc, _), xc, g = best
    return tc, xc, g


# ---------------------------------------------------------------------------
# regions and wave balances
# ---------------------------------------------------------------------------


@dataclass
class Region:
    """Space-time region bounded below by t0, above by t0+tau, and laterally
    by minimal i-characteristics from the interval endpoints."""

    family: int
    t0: float
    tau: float
    intervals: list  # [(a, b)]
    left_curves: list = field(default_factory=list)
    right_curves: list = field(default_factory=list)

    @property
    def t1(self):
        return self.t0 + self.tau

    def sections(self, t):
        return [(lc.position(t), rc.position(t))
                for lc, rc in zip(self.left_curves, self.right_curves)]

    def contains(self, t, x):
        if not self.t0 < t <= self.t1:
            return False
        return any(a <= x <= b for a, b in self.sections(t))


def make_region(timeline, i, t0, tau, intervals):
    region = Region(family=i, t0=t0, tau=tau, intervals=sorted(intervals))
    t1 = min(t0 + tau, timeline.t_end)
    region.tau = t1 - t0
    for a, b in region.intervals:
        if b <= a:
            raise SolverError("region intervals must be nondegenerate")
        region.left_curves.append(min_characteristic(timeline, i, t0, a, t1))
        region.right_curves.append(min_characteristic(timeline, i, t0, b, t1))
    for lc, rc in zip(region.left_curves, region.right_curves):
        for t in sorted({n[0] for n in lc.nodes} | {n[0] for n in rc.nodes}):
            if lc.position(t) > rc.position(t) + 1e-10:
                raise SolverError("region bounding characteristics crossed")
    return region


_ON_TOL = 1e-9  # positions within this of a boundary count as on it


def _region_membership(rec, t, sections):
    x = rec.position(t)
    return any(a - _ON_TOL <= x <= b + _ON_TOL for a, b in sections)


def _boundary_transitions(rec, lo, hi, curve, inward_sign):
    """Side changes of a front against one boundary polyline over [lo, hi].

    Sampling the sign of (front - curve) at midpoints between curve nodes is
    robust to crossings that land exactly on refraction nodes and to fronts
    the boundary characteristic captures and rides (sign settles at ~0).
    Returns a list of booleans: True = entered, False = exited.
    """
    ts = {lo, hi}
    for t, _ in curve.nodes:
        if lo < t < hi:
            ts.add(t)
    ts = sorted(ts)
    samples = [lo] + [0.5 * (a + b) for a, b in zip(ts[:-1], ts[1:])] + [hi]
    out = []
    prev_in = None
    for tm in samples:
        s = (rec.position(tm) - curve.position(tm)) * inward_sign
        now_in = s >= -_ON_TOL
        if prev_in is not None and now_in != prev_in:
            out.append(now_in)
        prev_in = now_in
    return out


def region_balance_check(timeline, region, fit_constant=None, atol=1e-9):
    """Audit the i-wave balance across a region boundary: signed difference
    against mu_I, sign-split differences against mu_IC (with the boundary
    flux reported).

    All geometry is evaluated on front records (born position plus speed) so
    the telescoping identity W_out - W_in = sum of interior source atoms is
    exact up to roundoff whenever no event sits on the boundary.
    """
    i = region.family
    t0, t1 = region.t0, region.t1
    in_pos = in_neg = out_pos = out_neg = 0.0

    def add(w, entering):
        nonlocal in_pos, in_neg, out_pos, out_neg
        if entering:
            if w > 0:
                in_pos += w
            else:
                in_neg += -w
        else:
            if w > 0:
                out_pos += w
            else:
                out_neg += -w

    base_sections = region.intervals
    top_sections = region.sections(t1)
    bboxes = []
    for m in range(len(region.intervals)):
        for curve in (region.left_curves[m], region.right_curves[m]):
            xs_c = [x for _, x in curve.nodes]
            bboxes.append((min(xs_c) - _ON_TOL, max(xs_c) + _ON_TOL))

    for fid in sorted(timeline.front_records):
        rec = timeline.front_records[fid]
        born = rec.born_t
        died = rec.died_t if rec.died_t is not None else timeline.t_end
        w = timeline.wave_content(fid, i)
        if w == 0.0:
            continue
        if born <= t0 and died > t0 and _region_membership(rec, t0, base_sections):
            add(w, True)  # bottom edge
        alive_top = born <= t1 and (rec.died_t is None or rec.died_t > t1)
        if alive_top and _region_membership(rec, t1, top_sections):
            add(w, False)  # top edge
        lo = max(born, t0)
        hi = min(died, t1)
        if hi - lo <= 0:
            continue
        xa, xb = rec.position(lo), rec.position(hi)
        rec_lo, rec_hi = min(xa, xb) - 1e-6, max(xa, xb) + 1e-6
        for m in range(len(region.intervals)):
            for b_idx, (curve, inward_sign) in enumerate(
                    ((region.left_curves[m], 1.0),
                     (region.right_curves[m], -1.0))):
                blo, bhi = bboxes[2 * m + b_idx]
                if rec_hi < blo or rec_lo > bhi:
                    continue
                for entered in _boundary_transitions(rec, lo, hi, curve,
                                                     inward_sign):
                    add(w, entered)

    mu_i_mass = 0.0
    mu_ic_mass = 0.0
    p_sum = 0.0
    boundary_events = []
    for ev in timeline.events:
        if not t0 < ev.t <= t1:
            continue
        sections = region.sections(ev.t)
        if any(a - _ON_TOL <= ev.x <= b + _ON_TOL for a, b in sections):
            mu_i_mass += ev.amount_I
            mu_ic_mass += ev.amount_I + ev.cancellation
            w_out = sum(timeline.wave_content(f.id, i) for f in ev.outgoing)
            w_in = sum(timeline.wave_content(f.id, i) for f in ev.incoming)
            p_sum += w_out - w_in
            for a, b in sections:
                if abs(ev.x - a) <= 1e-8 or abs(ev.x - b) <= 1e-8:
                    boundary_events.append((ev.t, ev.x))
                    break
    w_in_signed = in_pos - in_neg
    w_out_signed = out_pos - out_neg
    diff_signed = abs(w_out_signed - w_in_signed)
    diff_pos = abs(out_pos - in_pos)
    diff_neg = abs(out_neg - in_neg)
    flux_residual = (w_out_signed - w_in_signed) - p_sum
    report = {
        "W_in": w_in_signed, "W_out": w_out_signed,
        "W_in_pos": in_pos, "W_in_neg": in_neg,
        "W_out_pos": out_pos, "W_out_neg": out_neg,
        "mu_I": mu_i_mass, "mu_IC": mu_ic_mass,
        "flux_residual": flux_residual,
        "boundary_events": boundary_events,
        "ratio_signed": diff_signed / mu_i_mass if mu_i_mass > 0 else
        (0.0 if diff_signed <= atol else math.inf),
        "ratio_split": max(diff_pos, diff_neg) / mu_ic_mass if mu_ic_mass > 0
        else (0.0 if max(diff_pos, diff_neg) <= atol else math.inf),
    }
    if fit_constant is not None:
        report["pass_signed"] = diff_signed <= fit_constant * mu_i_mass + atol
        report["pass_split"] = max(diff_pos, diff_neg) <= fit_constant * mu_ic_mass + atol
    return report


# ---------------------------------------------------------------------------
# decay checks
# ---------------------------------------------------------------------------


def positive_decay_check(timeline, i, s, t, sets):
    """[v_i(t)]^+(B) <= C'' (L(B)/(t-s) + Q(s) - Q(t)) for interval unions B;
    reports per-set ratios and the tightest passing constant."""
    if not 0 <= s < t <= timeline.t_end:
        raise SolverError("need 0 <= s < t <= t_end")
    fld_t = timeline.slice_at(t)
    vi = ms.wave_measure_slice(fld_t, i)
    q_s = ms.glimm_Q(timeline.slice_at(s))
    q_t = ms.glimm_Q(fld_t)
    rows = []
    tight = 0.0
    for sets_b in sets:
        lhs = vi.measure(sets_b, "+")
        bound = ms.interval_length(sets_b) / (t - s) + (q_s - q_t)
        ratio = lhs / bound if bound > 0 else (0.0 if lhs == 0.0 else math.inf)
        tight = max(tight, ratio)
        rows.append({"sets": sets_b, "positive_mass": lhs, "bound_raw": bound,
                     "ratio": ratio})
    return {"family": i, "s": s, "t": t, "q_drop": q_s - q_t,
            "rows": rows, "C_required": tight}


def decay_estimate_check(timeline, i, t, tau, sets):
    """|v_i^cont(t)|(B) <= C (L(B)/tau + mu_ICJ([t-tau, t+tau] x R))."""
    if not 0 < tau < t <= timeline.t_end:
        raise SolverError("need 0 < tau < t <= t_end")
    curves = timeline.curves(i)
    fld = timeline.slice_at(t)
    _, v_cont = ms.split_jump_cont(fld, i, curves)
    icj = ms.mu_ICJ(timeline, i, curves)
    window = icj.mass_in_time_window(t - tau, t + tau)
    rows = []
    tight = 0.0
    for sets_b in sets:
        lhs = v_cont.measure(sets_b, "abs")
        bound = ms.interval_length(sets_b) / tau + window
        ratio = lhs / bound if bound > 0 else (0.0 if lhs == 0.0 else math.inf)
        tight = max(tight, ratio)
        rows.append({"sets": sets_b, "cont_mass": lhs, "bound_raw": bound,
                     "ratio": ratio})
    return {"family": i, "t": t, "tau": tau, "icj_window_mass": window,
            "rows": rows, "C_required": tight}


# ---------------------------------------------------------------------------
# tame oscillation
# ---------------------------------------------------------------------------


def default_eta_bar(model):
    """Slope making triangle sides outrun every characteristic."""
    return float(model.lambda_fences[-1] - model.lambda_fences[0])


def _positive_window(g_lo, g_hi, lo, hi):
    """Subinterval of [lo, hi] where the affine function with endpoint values
    g_lo, g_hi is positive; None when empty."""
    if g_lo <= 0.0 and g_hi <= 0.0:
        return None
    if g_lo > 0.0 and g_hi > 0.0:
        return lo, hi
    root = lo + (hi - lo) * g_lo / (g_lo - g_hi)
    return (lo, root) if g_lo > 0.0 else (root, hi)


def _triangle_states(timeline, tris):
    """Distinct states met by each triangle (a, b, tau, eta, t_hi) between
    tau and t_hi, in first-met order.

    One replay of the timeline serves every triangle. States are keyed on
    their float tuples, which compare like np.array_equal (0.0 == -0.0).
    """
    seen = [{} for _ in tris]
    live = [k for k, tri in enumerate(tris) if tri[4] > tri[2]]
    if not live:
        return [[] for _ in tris]
    t_stop = max(tris[k][4] for k in live)
    for fld, frame_hi in tk.iter_frames(timeline, t_stop):
        xs = [f.x for f in fld.fronts]
        speeds = [f.speed for f in fld.fronts]
        chain = fld.states()
        for k in live:
            a, b, t_lo, eta, t_hi = tris[k]
            lo = max(fld.time, t_lo)
            hi = min(frame_hi, t_hi)
            if hi <= lo:
                continue
            for j, u in enumerate(chain):
                # region j lives between front j-1 and front j
                # (x_{-1} = -inf, x_m = +inf); it meets the shrinking
                # triangle iff its left edge stays under b - eta t and
                # its right edge above a + eta t on a subinterval
                win = (lo, hi)
                if j > 0:
                    xj, sj = xs[j - 1], speeds[j - 1]
                    gl = (b - eta * win[0]) - (xj + sj * (win[0] - fld.time))
                    gh = (b - eta * win[1]) - (xj + sj * (win[1] - fld.time))
                    win = _positive_window(gl, gh, *win)
                    if win is None:
                        continue
                if j < len(xs):
                    xj, sj = xs[j], speeds[j]
                    gl = (xj + sj * (win[0] - fld.time)) - (a + eta * win[0])
                    gh = (xj + sj * (win[1] - fld.time)) - (a + eta * win[1])
                    win = _positive_window(gl, gh, *win)
                    if win is None:
                        continue
                if win[1] - win[0] <= 1e-15:
                    continue
                seen[k].setdefault(tuple(u.tolist()), u)
    return [list(states.values()) for states in seen]


def tame_oscillation_check(timeline, triangles):
    """Osc(u; triangle) <= C' TotVar(u(tau); ]a, b[) over the supplied
    triangles {a, b, tau, eta?}; reports per-triangle ratios."""
    model = timeline.model
    tris = []
    for tri in triangles:
        a, b, tau = float(tri["a"]), float(tri["b"]), float(tri["tau"])
        eta = float(tri.get("eta", default_eta_bar(model)))
        apex = (b - a) / (2.0 * eta)
        tris.append((a, b, tau, eta, min(apex, timeline.t_end)))
    rows = []
    worst = 0.0
    for (a, b, tau, eta, _), uniq in zip(tris, _triangle_states(timeline, tris)):
        osc = 0.0
        for p in range(len(uniq)):
            for q in range(p + 1, len(uniq)):
                osc = max(osc, float(np.linalg.norm(uniq[p] - uniq[q])))
        base = timeline.slice_at(tau)
        tv = float(sum(np.linalg.norm(f.jump()) for f in base.fronts if a < f.x < b))
        ratio = osc / tv if tv > 0 else (0.0 if osc == 0.0 else math.inf)
        worst = max(worst, ratio)
        rows.append({"a": a, "b": b, "tau": tau, "eta": eta, "osc": osc,
                     "tv_base": tv, "ratio": ratio})
    return {"rows": rows, "C_prime": worst}


# ---------------------------------------------------------------------------
# SBV atoms and convergence
# ---------------------------------------------------------------------------


def sbv_atom_report(timeline, i, threshold, times=()):
    """Exceptional times: where mu_ICJ's time-slice mass exceeds threshold.
    For scalar runs also returns the atom spectrum of D(f'(u(t)))."""
    curves = timeline.curves(i)
    icj = ms.mu_ICJ(timeline, i, curves)
    # t = 0 carries the initial datum's initiation atoms, not interaction
    # products; candidate times live strictly after it
    exceptional = [t for t in icj.times_with_mass_above(threshold) if t > 0.0]
    report = {"family": i, "threshold": threshold,
              "exceptional_times": exceptional,
              "icj_total_mass": icj.total_mass()}
    if timeline.model.N == 1 and times:
        spectra = {}
        for t in times:
            fld = timeline.slice_at(t)
            spectra[t] = [(f.x, timeline.model.fprime(float(f.uR[0]))
                           - timeline.model.fprime(float(f.uL[0])))
                          for f in fld.fronts]
        report["fprime_atom_spectra"] = spectra
    return report


CONVERGENCE_SCENARIOS = {
    "burgers_shock": {
        "model": ("burgers", {}),
        "initial": {"kind": "breakpoints", "xs": [0.0], "values": [[1.0], [0.0]]},
        "oracle": lambda model, init: oracles.burgers_riemann_oracle(1.0, 0.0),
    },
    "burgers_rarefaction": {
        "model": ("burgers", {}),
        "initial": {"kind": "breakpoints", "xs": [0.0], "values": [[0.0], [1.0]]},
        "oracle": lambda model, init: oracles.burgers_riemann_oracle(0.0, 1.0),
    },
    "cubic_riemann": {
        "model": ("cubic", {}),
        "initial": {"kind": "breakpoints", "xs": [0.0], "values": [[-1.0], [1.0]]},
        "oracle": lambda model, init: oracles.cubic_riemann_oracle(),
    },
    "linear_2x2": {
        "model": ("linear", {"matrix": [[0.0, 1.0], [1.0, 0.0]]}),
        "initial": {"kind": "breakpoints", "xs": [0.0],
                    "values": [[0.5, -0.25], [-0.25, 0.5]]},
        "oracle": lambda model, init: oracles.linear_system_oracle(
            model, init["xs"], init["values"]),
    },
}


def convergence_study(scenario, eps_ladder, t_eval=1.0):
    """L1 error against the scenario's exact oracle across an epsilon ladder,
    with the observed order and uniform TV / Upsilon bounds."""
    if scenario not in CONVERGENCE_SCENARIOS:
        raise ConfigError("diagnostics.convergence.scenario",
                          f"no oracle for scenario {scenario!r}")
    spec_entry = CONVERGENCE_SCENARIOS[scenario]
    model_id, model_params = spec_entry["model"]
    rows = []
    for eps in eps_ladder:
        cfg = tk.RunConfig(model_id=model_id, model_params=model_params,
                           initial=spec_entry["initial"], epsilon=eps,
                           t_end=max(t_eval, 1e-6))
        tl = tk.run(cfg)
        fld = tl.slice_at(t_eval)
        model = tl.model
        xs = spec_entry["initial"]["xs"]
        span = float(model.lambda_fences[-1] - model.lambda_fences[0] + 1.0)
        lo = min(xs) - span * t_eval - 1.0
        hi = max(xs) + span * t_eval + 1.0
        oracle = spec_entry["oracle"](model, spec_entry["initial"])
        err = oracles.l1_error(fld, oracle(t_eval, lo, hi), lo, hi)
        rows.append({"epsilon": eps, "l1_error": err,
                     "events": len(tl.events),
                     "V_max": float(tl.ledger.Vs.max()),
                     "Upsilon0": tl.ledger.upsilon0()})
    orders = []
    for r0, r1 in zip(rows[:-1], rows[1:]):
        if r1["l1_error"] > 0 and r0["l1_error"] > 0:
            orders.append(math.log(r0["l1_error"] / r1["l1_error"])
                          / math.log(r0["epsilon"] / r1["epsilon"]))
    return {"scenario": scenario, "t_eval": t_eval, "rows": rows,
            "observed_orders": orders}
