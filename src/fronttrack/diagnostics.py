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

from . import flux_core as fc
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


def _lambda_i(model, i, u):
    return model.point_eig(u).lambdas[i - 1]


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
    """Minimal generalized i-characteristic from (t0, x0) up to t1.

    The front order follows the events; every front position is its record's
    closed form.
    """
    if not (0.0 <= t0 < t1 <= timeline.t_end):
        raise SolverError("characteristic needs 0 <= t0 < t1 <= t_end")
    model = timeline.model
    fld = timeline.slice_at(t0)
    fronts = fld.fronts
    pending = timeline.events_between(t0, t1)
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
            if carrier not in fronts:
                raise SolverError("characteristic lost its carrier front")
            x_new = carrier.position(t_next)
            push(t_next, x_new, slope, carrier.id)
            t, x = t_next, x_new
        else:
            slope = carrier
            hit = _next_crossing(fronts, t, x, slope, t_next, crossed)
            if hit is not None:
                tc, xc, g = hit
                push(tc, xc, slope, None)
                t, x = tc, xc
                crossed.add(g.id)
                kind, payload = _resolve_at_point(model, i, g.uL, [g])
                mode, carrier = kind, payload
                continue
            x_new = x + slope * (t_next - t)
            push(t_next, x_new, slope, None)
            t, x = t_next, x_new
        if ev_idx < len(pending) and t == pending[ev_idx].t:
            # drain all events at this time; re-anchor when one lands on us
            drain_start = ev_idx
            while ev_idx < len(pending) and pending[ev_idx].t == t:
                ev = pending[ev_idx]
                consumed = mode == "ride" and carrier.id in (
                    ev.incoming[0].id, ev.incoming[1].id)
                at_node = consumed or (mode == "free" and abs(ev.x - x) <= 1e-12)
                tk.apply_event(fronts, ev)
                if at_node:
                    x = ev.x
                    group = _fan_group(timeline, ev,
                                       pending[drain_start:ev_idx + 1])
                    left_state = group[0].uL if group else tk.field_at(
                        model, fld.left_state, fronts, t).state_at(ev.x - 1e-12)
                    kind, payload = _resolve_at_point(model, i, left_state, group)
                    mode, carrier = kind, payload
                ev_idx += 1
            crossed = set()
    return curve


def _fan_group(timeline, ev, applied):
    """The fronts of the field born at ev's point, in field order, found
    without a scan of the field: the outgoing fronts there of applied (the
    events at time ev.t spliced so far, ev the last), less those another
    consumed, by rank, which is field order for fronts alive together."""
    born = {f.id: f for e in applied for f in e.outgoing
            if f.born_x == ev.x and f.born_t == ev.t}
    for e in applied:
        for f in e.incoming:
            born.pop(f.id, None)
    rank = timeline.record_columns().rank
    return sorted(born.values(), key=lambda f: rank[f.id])


def _initial_anchor(model, i, fld, x0):
    here = [f for f, xf in zip(fld.fronts, fld.xs) if xf == x0]
    if here:
        return _resolve_at_point(model, i, here[0].uL, here)
    return "free", _lambda_i(model, i, fld.state_at(x0))


def _next_crossing(fronts, t, x, slope, t_hi, skip):
    """Earliest strict crossing of the free characteristic with a front in
    (t, t_hi); returns (tc, xc, front) or None.

    t_hi is at most the next event time, and until then the fronts keep their
    order and do not meet, so a front is crossed only after every front
    between it and the characteristic. Only the nearest front on each side
    that is not in skip and not at x (those cannot be crossed) is tested.
    """
    # bisect_right on the positions at t, with Front.position's float
    # operations inlined: no Python frame per probe
    lo, hi = 0, len(fronts)
    while lo < hi:
        mid = (lo + hi) // 2
        g = fronts[mid]
        if x < g.born_x + g.speed * (t - g.born_t):
            hi = mid
        else:
            lo = mid + 1
    best = None
    for side in (range(lo - 1, -1, -1), range(lo, len(fronts))):
        for j in side:
            g = fronts[j]
            xg = g.born_x + g.speed * (t - g.born_t)
            if g.id in skip or xg == x:
                continue
            rel = slope - g.speed
            dx = xg - x
            if rel != 0.0:
                dt = dx / rel
                tc = t + dt
                if dt > 0.0 and tc < t_hi and (best is None
                                               or (tc, g.id) < best[0]):
                    best = ((tc, g.id), xg + g.speed * dt, g)
            break
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
_BALANCE_ATOL = 1e-9  # a balance difference this small needs no mu mass


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


def region_balance_check(timeline, region):
    """Audit the i-wave balance across a region boundary: signed difference
    against mu_I, sign-split differences against mu_IC (with the boundary
    flux reported).

    All geometry is evaluated on front records (born position plus speed) so
    the telescoping identity W_out - W_in = sum of interior source atoms is
    exact up to roundoff whenever no event sits on the boundary.

    Fronts whose path over [t0, t1] stays outside the bounding box of the
    region's base and boundary curves are screened out in one array pass
    over the record columns before any wave content is taken.
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
    box_lo = min([lo for lo, _ in bboxes]
                 + [a - _ON_TOL for a, _ in base_sections])
    box_hi = max([hi for _, hi in bboxes]
                 + [b + _ON_TOL for _, b in base_sections])

    # the per-front tests below, on every record at once: alive at some time
    # in [t0, t1], and the path over that time within 1e-6 of the box
    cols = timeline.record_columns()
    born_t, died_t = cols.born_t, cols.died_t
    t_lo, t_hi = np.maximum(born_t, t0), np.minimum(died_t, t1)
    xa = cols.born_x + cols.speed * (t_lo - born_t)
    xb = cols.born_x + cols.speed * (t_hi - born_t)
    near = ((born_t <= t1) & (died_t > t0)
            & (np.maximum(xa, xb) + 1e-6 >= box_lo)
            & (np.minimum(xa, xb) - 1e-6 <= box_hi))

    fids = near.nonzero()[0]
    for fid, born, died, lo, hi, x_a, x_b in zip(
            fids.tolist(), *(c[fids].tolist()
                             for c in (born_t, died_t, t_lo, t_hi, xa, xb))):
        w = timeline.wave_content(fid, i)
        if w == 0.0:
            continue
        rec = timeline.front_records[fid]
        if born <= t0 and _region_membership(rec, t0, base_sections):
            add(w, True)  # bottom edge
        if died > t1 and _region_membership(rec, t1, top_sections):
            add(w, False)  # top edge
        if hi - lo <= 0:
            continue
        rec_lo, rec_hi = min(x_a, x_b) - 1e-6, max(x_a, x_b) + 1e-6
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
    for ev in timeline.events_between(t0, t1):
        if not box_lo - 1e-6 <= ev.x <= box_hi + 1e-6:
            continue  # outside every section
        sections = region.sections(ev.t)
        if any(a - _ON_TOL <= ev.x <= b + _ON_TOL for a, b in sections):
            mu_i_mass += ev.amount_I
            mu_ic_mass += ev.amount_I + ev.cancellation
            w_out = fc.total(timeline.wave_content(f.id, i) for f in ev.outgoing)
            w_in = fc.total(timeline.wave_content(f.id, i) for f in ev.incoming)
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
        (0.0 if diff_signed <= _BALANCE_ATOL else math.inf),
        "ratio_split": max(diff_pos, diff_neg) / mu_ic_mass if mu_ic_mass > 0
        else (0.0 if max(diff_pos, diff_neg) <= _BALANCE_ATOL else math.inf),
    }
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
    vi = ms.wave_measure_slice(fld_t, i, timeline.wave_content)
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
    _, v_cont = ms.split_jump_cont(fld, i, curves, timeline.wave_content)
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


def _positive_windows(g_lo, g_hi, lo, hi):
    """Subintervals of [lo, hi] where the affine functions with endpoint
    values g_lo, g_hi are positive, elementwise over arrays, with the float
    operations of the scalar reference in tests/conftest.py in the same
    order: returns (lo, hi, nonempty)."""
    with np.errstate(all="ignore"):
        root = lo + (hi - lo) * g_lo / (g_lo - g_hi)
    pos_lo = g_lo > 0.0
    return (np.where(pos_lo, lo, root),
            np.where(pos_lo & ~(g_hi > 0.0), root, hi),
            ~((g_lo <= 0.0) & (g_hi <= 0.0)))


# the tame sweep's cells, one (frame, triangle, region) each, per array
# pass. A pass's front table holds the fronts of its frames: at most this
# many, plus those of the two end frames it may share with other passes
CHUNK = 2 ** 12


def _triangle_states(timeline, tris):
    """Distinct states met by each triangle (a, b, tau, eta, t_hi) between
    tau and t_hi, in first-met order.

    One sweep serves every triangle. Between two event times the front
    order is fixed and each front moves on its closed form, so each (frame,
    triangle, region) is a cell, and _sweep takes the cells, by frame, then
    triangle, then region, through the window formulas in array passes of
    at most CHUNK cells. The first cell of each (triangle, region) pair
    names the state met. States are keyed on themselves, so 0.0 and -0.0
    components are one state.
    """
    seen = [{} for _ in tris]
    live = [k for k, tri in enumerate(tris) if tri[4] > tri[2]]
    if not live:
        return [[] for _ in tris]
    left_state = timeline.initial_field.left_state
    records = timeline.front_records
    n = len(records)
    # met[k * (n + 1)]: live triangle k met the region left of every front;
    # met[k * (n + 1) + id + 1]: it met the region right of front id. A
    # region's state is that of its left front (or left_state) for the
    # front's whole life, so a pair met in an earlier cell adds no new state
    met = np.zeros(len(live) * (n + 1), dtype=bool)
    for keys in _sweep(timeline, [tris[k] for k in live]):
        keys = keys[~met[keys]]
        if not len(keys):
            continue
        keys = keys[np.sort(np.unique(keys, return_index=True)[1])]
        met[keys] = True
        for key in keys.tolist():
            k, region = divmod(key, n + 1)
            seen[live[k]].setdefault(
                left_state if region == 0 else records[region - 1].uR)
    return [list(states) for states in seen]


def _sweep(timeline, tris):
    """For each array pass, the keys k * (n + 1) + region of its cells where
    triangle k meets the region, in cell order (region 0 lies left of every
    front, region id + 1 right of front id).

    Frame f runs from frame_lo[f] (0 or an event time) to the next event
    time, and holds the fronts alive at its start by rank. Cell (f, k, j)
    is region j of the frame, between its fronts j-1 and j (x_{-1} = -inf,
    x_m = +inf): it meets triangle k iff the region's left edge stays under
    b - eta t and its right edge above a + eta t on a subinterval of the
    triangle's window in the frame, with the float operations of the
    scalar reference in tests/test_diagnostics.py. No array is sized
    frames x fronts: rows are built for blocks of frames, and each pass
    builds the front table of its own frames.
    """
    t_stop = max(tri[4] for tri in tris)
    ts = sorted({t for t in timeline.event_times() if 0.0 < t <= t_stop})
    frame_lo, frame_hi = np.array([0.0, *ts]), np.array([*ts, t_stop])
    a, b, t_lo, eta, t_hi = np.array(tris).T
    cols = timeline.record_columns()
    n = len(cols.rank)
    # front c is alive in frames start[c] <= f < stop[c] (born_t <= frame_lo
    # < died_t), so frame f holds n_alive[f] fronts
    start = np.searchsorted(frame_lo, cols.born_t)
    stop = np.searchsorted(frame_lo, cols.died_t)
    n_alive = np.cumsum(np.bincount(start, minlength=len(frame_lo) + 1)
                        - np.bincount(stop, minlength=len(frame_lo) + 1))
    by_start = np.argsort(start, kind="stable")
    starts = start[by_start]
    alive, taken = by_start[:0], 0  # alive at the pass's first frame
    block = max(1, CHUNK // len(tris))
    for f0 in range(0, len(frame_lo), block):
        # rows: the (frame, k) pairs of a block of frames whose window,
        # lo = max(frame_lo, t_lo) to hi = min(frame_hi, t_hi), is not empty
        flo = frame_lo[f0:f0 + block, None]
        fhi = frame_hi[f0:f0 + block, None]
        lo = np.where(t_lo > flo, t_lo, flo)
        hi = np.where(t_hi < fhi, t_hi, fhi)
        fr, kr = (~(hi <= lo)).nonzero()
        if not len(fr):
            continue
        lo, hi = lo[fr, kr], hi[fr, kr]
        b_lo, b_hi = b[kr] - eta[kr] * lo, b[kr] - eta[kr] * hi
        fr += f0
        # row r's cells are the regions of its frame, ends[r] - width[r] to
        # ends[r] in cell order
        width = n_alive[fr] + 1
        ends = np.cumsum(width)
        for c0 in range(0, int(ends[-1]), CHUNK):
            c1 = min(c0 + CHUNK, int(ends[-1]))
            r0 = int(np.searchsorted(ends, c0, side="right"))
            r1 = int(np.searchsorted(ends, c1 - 1, side="right")) + 1
            row = np.repeat(np.arange(r0, r1),
                            np.minimum(ends[r0:r1], c1)
                            - np.maximum(ends[r0:r1] - width[r0:r1], c0))
            j = np.arange(c0, c1) - (ends - width)[row]
            frames = fr[r0:r1]  # sorted
            frames = frames[np.concatenate(([True], frames[1:] != frames[:-1]))]
            upto = np.searchsorted(starts, frames[0], side="right")
            alive = np.concatenate((alive, by_start[taken:upto]))
            alive = alive[stop[alive] > frames[0]]
            taken = upto
            born = by_start[taken:np.searchsorted(starts, frames[-1],
                                                  side="right")]
            table = _front_table(frames, np.concatenate((alive, born)),
                                 start, stop, cols.rank)
            # cell c's region lies between table[pos[c] - 1] and table[pos[c]]
            offset = np.cumsum(n_alive[frames]) - n_alive[frames]
            pos = offset[np.searchsorted(frames, fr[r0:r1])][row - r0] + j
            k, lo_c, hi_c = kr[row], lo[row], hi[row]
            w_lo, w_hi = lo_c, hi_c
            ok = np.ones(len(row), dtype=bool)
            region = np.zeros(len(row), dtype=np.int64)
            if len(table):
                has_left, has_right = j > 0, j < width[row] - 1
                left = table.take(pos - 1, mode="clip")
                right = table.take(pos, mode="clip")
                # left edges: front j-1 under b - eta t, regions 1..m;
                # region 0 keeps the whole window
                xj, sj, tj = (cols.born_x[left], cols.speed[left],
                              cols.born_t[left])
                gl = b_lo[row] - (xj + sj * (lo_c - tj))
                gh = b_hi[row] - (xj + sj * (hi_c - tj))
                new_lo, new_hi, nonempty = _positive_windows(gl, gh, lo_c,
                                                             hi_c)
                w_lo = np.where(has_left, new_lo, lo_c)
                w_hi = np.where(has_left, new_hi, hi_c)
                ok = nonempty | ~has_left
                # right edges: front j above a + eta t, regions 0..m-1;
                # region m has none, and its stand-in gets the whole window
                wl = np.where(has_right, w_lo, lo_c)
                wh = np.where(has_right, w_hi, hi_c)
                xj, sj, tj = (cols.born_x[right], cols.speed[right],
                              cols.born_t[right])
                gl = (xj + sj * (wl - tj)) - (a[k] + eta[k] * wl)
                gh = (xj + sj * (wh - tj)) - (a[k] + eta[k] * wh)
                new_lo, new_hi, nonempty = _positive_windows(gl, gh, wl, wh)
                w_lo = np.where(has_right, new_lo, w_lo)
                w_hi = np.where(has_right, new_hi, w_hi)
                ok &= nonempty | ~has_right
                region = np.where(has_left, left + 1, 0)
            ok &= ~(w_hi - w_lo <= 1e-15)
            yield (k * (n + 1) + region)[ok]


def _front_table(frames, fids, start, stop, rank):
    """The fronts fids alive in each of the sorted frames, frame after frame
    and by rank within a frame, which is order_at at the frame's start;
    front c is alive in frames start[c] <= f < stop[c]."""
    first = np.searchsorted(frames, start[fids])
    count = np.searchsorted(frames, stop[fids]) - first
    fids = np.repeat(fids, count)
    slot = np.arange(len(fids)) + np.repeat(first - np.cumsum(count) + count,
                                            count)
    return fids[np.lexsort((rank[fids], slot))]


def _diameter(states):
    """Largest fc.norm(u - v) over pairs of the states, 0.0 for fewer than
    two.

    Squared distances are screened in bulk, in row blocks of bounded size,
    and the exact norm is taken only on pairs within 1e-9 relative of the
    largest; the screen's roundoff is a few ulps and sqrt is monotone, so
    the result is the pairwise loop's maximum to the last bit.
    """
    k = len(states)
    if k < 2:
        return 0.0
    us = np.array(states)
    block = max(1, (1 << 16) // k)
    top = 0.0
    found = []
    for p0 in range(0, k, block):
        diff = us[p0:p0 + block, None, :] - us[None, :, :]
        d2 = (diff * diff).sum(axis=-1)
        ps = np.arange(p0, p0 + len(d2))
        d2[np.arange(k)[None, :] <= ps[:, None]] = -1.0  # pairs p < q only
        block_top = float(d2.max())
        if block_top < 0.0:
            continue
        top = max(top, block_top)
        rows, cols = (d2 >= block_top * (1.0 - 1e-9)).nonzero()
        found.extend(zip((rows + p0).tolist(), cols.tolist(),
                         d2[rows, cols].tolist()))
    osc = 0.0
    for p, q, d in found:
        if d >= top * (1.0 - 1e-9):
            osc = max(osc, fc.norm([x - y for x, y in zip(states[p], states[q])]))
    return osc


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
        osc = _diameter(uniq)
        base = timeline.slice_at(tau)
        tv = fc.total(fc.norm(f.jump())
                      for f, x in zip(base.fronts, base.xs) if a < x < b)
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
    if isinstance(timeline.model, fc.ScalarModel) and times:
        spectra = {}
        for t in times:
            fld = timeline.slice_at(t)
            spectra[t] = [(x, timeline.model.fprime(f.uR[0])
                           - timeline.model.fprime(f.uL[0]))
                          for f, x in zip(fld.fronts, fld.xs)]
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
        span = default_eta_bar(model) + 1.0
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
