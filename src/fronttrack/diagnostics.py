"""Numerical audits of the decay machinery: minimal generalized
characteristics, regional wave balances, positive-wave decay, the main decay
estimate, tame oscillation, the SBV-atom report, and epsilon-refinement
convergence studies.

Every check is read-only over an immutable Timeline and returns a report
dict; fitted constants are reported, never asserted against universal values.
"""

from __future__ import annotations

import bisect
import itertools
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
    _arrays: tuple = field(default=(), init=False, repr=False,
                           compare=False)  # node_arrays(), likewise

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

    def node_arrays(self):
        """The node times and positions as float64 arrays."""
        nodes = self.nodes
        if not self._arrays or len(self._arrays[0]) != len(nodes):
            flat = np.fromiter(itertools.chain.from_iterable(nodes), float,
                               2 * len(nodes))
            self._arrays = tuple(flat.reshape(-1, 2).T.copy())
        return self._arrays

    def positions(self, ts):
        """position at each time of the float64 array ts: the segment that
        position takes, found by searchsorted on the node times, and its
        float operations."""
        nt, nx = self.node_arrays()
        last = len(nt) - 1
        k = nt.searchsorted(ts, side="left")
        out = nx.take(np.minimum(k, last))  # t <= nt[0], or past the end
        mid = (k > 0) & (k <= last)  # nt[k - 1] < t <= nt[k]
        k, t = k[mid], ts[mid]
        t0, x0 = nt.take(k - 1), nx.take(k - 1)
        out[mid] = x0 + (nx.take(k) - x0) * (t - t0) / (nt.take(k) - t0)
        return out


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
    """Minimal generalized i-characteristic from (t0, x0) up to t1."""
    (curve,) = min_characteristics(timeline, [(i, t0, x0, t1)])
    if isinstance(curve, SolverError):
        raise curve
    return curve


class _Walk:
    """One characteristic on min_characteristics' walk: its start's index
    k and family i, its curve up to its last node (t, x), its end time t1,
    its anchor (mode, carrier), and the field's positions at t when its
    next advance starts there."""

    __slots__ = ("k", "i", "curve", "t", "x", "t1", "mode", "carrier", "pos")

    def __init__(self, k, i, t0, x0, t1, anchor, pos):
        self.k, self.i, self.t, self.x, self.t1 = k, i, t0, x0, t1
        self.curve = CharCurve(family=i, nodes=[(t0, x0)])
        self.mode, self.carrier = anchor
        self.pos = pos

    def advance(self, model, fronts, alive, t_next):
        """Run on the field fronts (ids alive) from an event time or t0 up
        to t_next, at most the next event time, through every front crossed
        on the way."""
        curve = self.curve
        t, x = self.t, self.x
        pos, self.pos = self.pos, None  # at t only
        crossed = ()
        while t < t_next:
            if self.mode == "ride":
                g = self.carrier
                if g.id not in alive:
                    raise SolverError("characteristic lost its carrier front")
                t, x, slope, rode = t_next, g.position(t_next), g.speed, g.id
            else:
                slope = self.carrier
                if pos is None:
                    pos = [g.born_x + g.speed * (t - g.born_t) for g in fronts]
                hit = _next_crossing(fronts, pos, t, x, slope, t_next, crossed)
                rode = None
                if hit is None:
                    t, x = t_next, x + slope * (t_next - t)
                else:
                    t, x, g = hit
                    pos = None
                    crossed = {*crossed, g.id}
                    self.mode, self.carrier = _resolve_at_point(
                        model, self.i, g.uL, [g])
            curve.nodes.append((t, x))
            curve.slopes.append(slope)
            curve.rode.append(rode)
        self.t, self.x = t, x


def min_characteristics(timeline, starts):
    """Minimal generalized characteristics from starts (i, t0, x0, t1): per
    start, its CharCurve from (t0, x0) up to t1, or the SolverError it
    raised.

    One walk of the events serves every start. It splices each event once
    onto one field, which holds the fronts of the slice at each time in
    their order, each at its record's closed-form position. A
    characteristic joins when the walk passes its t0, on the slice at t0
    (the right limit at an event time). The positions at an event time
    serve every free characteristic there, and a crossing takes them fresh.
    """
    out = [None] * len(starts)
    todo = []
    for k, (_, t0, _, t1) in enumerate(starts):
        if 0.0 <= t0 < t1 <= timeline.t_end:
            todo.append(k)
        else:
            out[k] = SolverError("characteristic needs 0 <= t0 < t1 <= t_end")
    if not todo:
        return out
    todo.sort(key=lambda k: starts[k][1])
    model = timeline.model
    left_state = timeline.initial_field.left_state
    events = timeline.events
    t_ev = starts[todo[0]][1]
    fronts = timeline.slice_at(t_ev).fronts
    alive = {f.id for f in fronts}
    e = timeline.events_upto(t_ev)
    e_stop = timeline.events_upto(max(starts[k][3] for k in todo))
    walks = []  # joined, short of t1, by start time
    joined = 0
    while joined < len(todo) or walks:
        t_last, t_ev = t_ev, events[e].t if e < e_stop else math.inf
        while joined < len(todo) and starts[todo[joined]][1] < t_ev:
            k = todo[joined]
            joined += 1
            i, t0, x0, t1 = starts[k]
            try:
                fld = tk.field_at(model, left_state, fronts, t0)
                walks.append(_Walk(k, i, t0, x0, t1,
                                   _initial_anchor(model, i, fld, x0), fld.xs))
            except SolverError as exc:
                out[k] = exc
        pos = None  # at t_last, for the walks there
        going = []
        for w in walks:
            t_next = w.t1 if w.t1 < t_ev else t_ev
            if w.pos is None and w.mode == "free" and w.t < t_next:
                if pos is None:
                    pos = [g.born_x + g.speed * (t_last - g.born_t)
                           for g in fronts]
                w.pos = pos
            try:
                w.advance(model, fronts, alive, t_next)
            except SolverError as exc:
                out[w.k] = exc
                continue
            if w.t1 < t_ev:
                out[w.k] = w.curve
            else:
                going.append(w)
        walks = going
        # splice every event at t_ev; re-anchor a walk one lands on
        drain = e
        while e < e_stop and events[e].t == t_ev:
            ev = events[e]
            tk.apply_event(fronts, ev)
            ids = (ev.incoming[0].id, ev.incoming[1].id)
            alive.difference_update(ids)
            alive.update(f.id for f in ev.outgoing)
            e += 1
            fan = None
            for w in [w for w in walks if (
                    w.carrier.id in ids if w.mode == "ride"
                    else abs(ev.x - w.x) <= 1e-12)]:
                w.x = ev.x
                if fan is None:
                    fan = _fan_group(timeline, ev, events[drain:e])
                try:
                    left = fan[0].uL if fan else tk.field_at(
                        model, left_state, fronts, t_ev).state_at(ev.x - 1e-12)
                    w.mode, w.carrier = _resolve_at_point(model, w.i, left, fan)
                except SolverError as exc:
                    out[w.k] = exc
                    walks = [v for v in walks if v is not w]
    return out


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


def _next_crossing(fronts, pos, t, x, slope, t_hi, skip):
    """Earliest strict crossing of the free characteristic at (t, x) with a
    front in (t, t_hi); pos holds the fronts' positions at t. Returns (tc,
    xc, front) or None.

    t_hi is at most the next event time, and until then the fronts keep their
    order and do not meet, so a front is crossed only after every front
    between it and the characteristic. Only the nearest front on each side
    that is not in skip and not at x (those cannot be crossed) is tested.
    """
    n = len(fronts)
    lo = bisect.bisect_right(pos, x)
    best = None
    for j, step in ((lo - 1, -1), (lo, 1)):
        while 0 <= j < n:
            g = fronts[j]
            xg = pos[j]
            if g.id in skip or xg == x:
                j += step
                continue
            rel = slope - g.speed
            if rel != 0.0:
                dt = (xg - x) / rel
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
    (region,) = make_regions(timeline, [(i, t0, tau, intervals)])
    if isinstance(region, SolverError):
        raise region
    return region


def make_regions(timeline, specs):
    """The regions of specs (i, t0, tau, intervals): per spec, its Region,
    or the SolverError that a degenerate interval, a bounding
    characteristic, or two crossed ones raised (the first, interval by
    interval). One min_characteristics walk builds every boundary."""
    regions, starts, cut = [], [], []
    for i, t0, tau, intervals in specs:
        region = Region(family=i, t0=t0, tau=tau, intervals=sorted(intervals))
        t1 = min(t0 + tau, timeline.t_end)
        region.tau = t1 - t0
        # the characteristics of the intervals before the first degenerate
        cut.append(next((m for m, (a, b) in enumerate(region.intervals)
                         if b <= a), len(region.intervals)))
        for a, b in region.intervals[:cut[-1]]:
            starts += [(i, t0, a, t1), (i, t0, b, t1)]
        regions.append(region)
    curves = iter(min_characteristics(timeline, starts))
    out = []
    for region, n in zip(regions, cut):
        pairs = [(next(curves), next(curves)) for _ in range(n)]
        out.append(_bound(region, pairs, n < len(region.intervals)))
    return out


def _bound(region, pairs, degenerate):
    """region bounded by the (left, right) curve pairs of its first
    intervals, or the first SolverError among its intervals: a degenerate
    one after the pairs, a failed characteristic, or a pair whose left
    curve passes its right one at a node time of either."""
    for lc, rc in pairs:
        for curve in (lc, rc):
            if isinstance(curve, SolverError):
                return curve
        region.left_curves.append(lc)
        region.right_curves.append(rc)
    if degenerate:
        return SolverError("region intervals must be nondegenerate")
    for lc, rc in pairs:
        ts = np.concatenate((lc.node_arrays()[0], rc.node_arrays()[0]))
        if (lc.positions(ts) > rc.positions(ts) + 1e-10).any():
            return SolverError("region bounding characteristics crossed")
    return region


_ON_TOL = 1e-9  # positions within this of a boundary count as on it
_BALANCE_ATOL = 1e-9  # a balance difference this small needs no mu mass


def _in_sections(xs, sections):
    """Whether each of the positions xs lies in some section, within
    _ON_TOL."""
    hit = np.zeros(len(xs), dtype=bool)
    for a, b in sections:
        hit |= (a - _ON_TOL <= xs) & (xs <= b + _ON_TOL)
    return hit


def _side_changes(curve, inward_sign, born_x, speed, born_t, lo, hi):
    """Side changes of fronts k (born_x[k], speed[k], born_t[k]) against one
    boundary polyline over [lo[k], hi[k]], lo < hi, in array passes of at
    most about CHUNK samples: the k of each side change, by front and then
    time, and whether it entered. Sampling the sign of (front - curve)
    between curve nodes is robust to crossings on refraction nodes and to
    fronts the boundary characteristic rides (the sign settles at about 0).

    Front k's times E run through lo[k], the distinct node times strictly
    inside, and hi[k]; its samples are E[0], the midpoints of consecutive
    E, and E[-1], each 0.5 * (E[j - 1] + E[j]) with j - 1 and j clipped to
    E (0.5 * (e + e) is e).
    """
    nt = curve.node_arrays()[0]
    nt = nt[np.concatenate(([True], nt[1:] != nt[:-1]))]
    first = nt.searchsorted(lo, side="right")
    n_e = nt.searchsorted(hi, side="left") - first + 2
    ends = (n_e + 1).cumsum()
    owners, entered = [], []
    k0 = 0
    while k0 < len(lo):
        k1 = max(k0 + 1, int(ends.searchsorted(ends[k0] - n_e[k0] - 1 + CHUNK,
                                               side="right")))
        n = n_e[k0:k1]
        e_end = n.cumsum()
        e_start = e_end - n
        e = nt.take(np.arange(e_end[-1])
                    + (first[k0:k1] - 1 - e_start).repeat(n), mode="clip")
        e[e_start] = lo[k0:k1]
        e[e_end - 1] = hi[k0:k1]
        # sample i of the pass is sample i - e_start[k] - k of front k
        owner = np.arange(k1 - k0).repeat(n + 1)
        i = np.arange(len(owner)) - owner
        tm = 0.5 * (e.take(np.maximum(i - 1, e_start.repeat(n + 1)))
                    + e.take(np.minimum(i, (e_end - 1).repeat(n + 1))))
        owner += k0
        front_x = born_x.take(owner) + speed.take(owner) * (
            tm - born_t.take(owner))
        now_in = (front_x - curve.positions(tm)) * inward_sign >= -_ON_TOL
        change = ((now_in[1:] != now_in[:-1])
                  & (owner[1:] == owner[:-1])).nonzero()[0] + 1
        owners.append(owner.take(change))
        entered.append(now_in.take(change))
        k0 = k1
    return np.concatenate(owners), np.concatenate(entered)


def region_balance_check(timeline, region):
    """Audit the i-wave balance across a region boundary: signed difference
    against mu_I, sign-split differences against mu_IC (with the boundary
    flux reported).

    All geometry is evaluated on front records (born position plus speed) so
    the telescoping identity W_out - W_in = sum of interior source atoms is
    exact up to roundoff whenever no event sits on the boundary.

    Fronts whose path over [t0, t1] stays outside the bounding box of the
    region's base and boundary curves are screened out in one array pass
    over the record columns before any wave content is taken. The edge
    tests, the side changes against each boundary curve and the events'
    places run as array passes; every sum runs through fc.total in the
    order of a loop over the fronts (base, top, then each boundary curve in
    turn) and over the events.
    """
    i = region.family
    t0, t1 = region.t0, region.t1
    base_sections = region.intervals
    top_sections = region.sections(t1)
    curves = [c for pair in zip(region.left_curves, region.right_curves)
              for c in pair]
    bboxes = []
    for curve in curves:
        xs_c = curve.node_arrays()[1]
        bboxes.append((xs_c.min() - _ON_TOL, xs_c.max() + _ON_TOL))
    box_lo = min([lo for lo, _ in bboxes]
                 + [a - _ON_TOL for a, _ in base_sections])
    box_hi = max([hi for _, hi in bboxes]
                 + [b + _ON_TOL for _, b in base_sections])

    # the fronts alive at some time in [t0, t1] whose path over that time
    # comes within 1e-6 of the box
    cols = timeline.record_columns()
    born_t, died_t = cols.born_t, cols.died_t
    t_lo, t_hi = np.maximum(born_t, t0), np.minimum(died_t, t1)
    xa = cols.born_x + cols.speed * (t_lo - born_t)
    xb = cols.born_x + cols.speed * (t_hi - born_t)
    near = ((born_t <= t1) & (died_t > t0)
            & (np.maximum(xa, xb) + 1e-6 >= box_lo)
            & (np.minimum(xa, xb) - 1e-6 <= box_hi))
    fids = near.nonzero()[0]
    w = np.array([timeline.wave_content(fid, i) for fid in fids.tolist()],
                 dtype=float)
    fids = fids[w != 0.0]
    w = w[w != 0.0]
    born, died, lo, hi, xa, xb, bx, sp = (
        c[fids] for c in (born_t, died_t, t_lo, t_hi, xa, xb, cols.born_x,
                          cols.speed))

    # each crossing of the boundary, keyed by front, then slot (0 base, 1
    # top, 2 + q boundary curve q), then time
    slots = 2 + len(curves)
    ks = np.arange(len(fids))
    base = ks[(born <= t0) & _in_sections(bx + sp * (t0 - born), base_sections)]
    top = ks[(died > t1) & _in_sections(bx + sp * (t1 - born), top_sections)]
    keys, owners = [base * slots, top * slots + 1], [base, top]
    entered = [np.ones(len(base), dtype=bool), np.zeros(len(top), dtype=bool)]
    rec_lo, rec_hi = np.minimum(xa, xb) - 1e-6, np.maximum(xa, xb) + 1e-6
    moving = ~(hi - lo <= 0)
    for q, (curve, (blo, bhi)) in enumerate(zip(curves, bboxes)):
        sel = ks[moving & ~((rec_hi < blo) | (rec_lo > bhi))]
        if not len(sel):
            continue
        k, into = _side_changes(curve, 1.0 if q % 2 == 0 else -1.0, bx[sel],
                                sp[sel], born[sel], lo[sel], hi[sel])
        keys.append(sel[k] * slots + 2 + q)
        owners.append(sel[k])
        entered.append(into)
    order = np.argsort(np.concatenate(keys), kind="stable")
    into = np.concatenate(entered)[order]
    wk = w[np.concatenate(owners)[order]]
    pos = wk > 0
    in_pos = fc.total(wk[into & pos].tolist())
    in_neg = fc.total((-wk[into & ~pos]).tolist())
    out_pos = fc.total(wk[~into & pos].tolist())
    out_neg = fc.total((-wk[~into & ~pos]).tolist())

    # the events in the box, then those in a section at their time
    evs = timeline.events_between(t0, t1)
    ex = np.array([ev.x for ev in evs], dtype=float)
    boxed = ((box_lo - 1e-6 <= ex) & (ex <= box_hi + 1e-6)).nonzero()[0]
    ex = ex[boxed]
    et = np.array([evs[k].t for k in boxed.tolist()], dtype=float)
    inside = np.zeros(len(boxed), dtype=bool)
    on_edge = np.zeros(len(boxed), dtype=bool)
    for lc, rc in zip(region.left_curves, region.right_curves):
        a, b = lc.positions(et), rc.positions(et)
        inside |= (a - _ON_TOL <= ex) & (ex <= b + _ON_TOL)
        on_edge |= (abs(ex - a) <= 1e-8) | (abs(ex - b) <= 1e-8)
    hits = [evs[k] for k in boxed[inside].tolist()]
    mu_i_mass = fc.total(ev.amount_I for ev in hits)
    mu_ic_mass = fc.total(ev.amount_I + ev.cancellation for ev in hits)
    content = timeline.wave_content
    p_sum = fc.total([fc.total([content(f.id, i) for f in ev.outgoing])
                      - fc.total([content(f.id, i) for f in ev.incoming])
                      for ev in hits])
    boundary_events = [(ev.t, ev.x) for ev, edge
                       in zip(hits, on_edge[inside].tolist()) if edge]
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


def sbv_atom_report(timeline, i, threshold):
    """Exceptional times: where mu_ICJ's time-slice mass exceeds threshold."""
    curves = timeline.curves(i)
    icj = ms.mu_ICJ(timeline, i, curves)
    # t = 0 carries the initial datum's initiation atoms, not interaction
    # products; candidate times live strictly after it
    exceptional = [t for t in icj.times_with_mass_above(threshold) if t > 0.0]
    return {"family": i, "threshold": threshold,
            "exceptional_times": exceptional,
            "icj_total_mass": icj.total_mass()}


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
