"""Event-driven evolution: piecewise-constant front fields, collision
detection, solver dispatch by interaction amount, and timeline recording.

A run is strictly single-threaded and deterministic: simultaneous collision
times are grouped within a tolerance and resolved by smallest collision
position, then smallest left-front id, so multi-front meetings unfold as
successive binary events without perturbing any stored speed.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar, NamedTuple

import numpy as np

from . import flux_core as fc
from . import measures as ms
from . import riemann as rm
from .errors import (CapExceededError, ConfigError, DomainError,
                     FrontTrackError, InitialDataError, SolverError, finite,
                     integer, refuse_unknown_keys)

_X_BOUND = 0.5 * np.finfo(float).max  # so no gap of two positions overflows
STRENGTH_FLOOR = 1e-14  # fronts with smaller jumps are dropped at splice time
CHAIN_ATOL = 1e-9  # FrontField.validate: largest gap allowed in the state chain


@dataclass
class FrontField:
    """The piecewise-constant solution at one time: fronts left to right,
    with xs[k] the position of fronts[k].

    The live field of run (built by _make_live, advanced by step) holds
    cols, one (5, m) float64 table: the fronts' measures.q_columns rows
    (row 2 is the speeds) over a row of positions, of which xs is a view;
    step splices it with fronts. Other fields hold xs as a list of floats
    and no cols.
    """

    model: object
    time: float
    left_state: tuple
    fronts: list
    xs: list
    cols: np.ndarray | None = field(default=None, repr=False, compare=False)

    def state_at(self, x):
        """Right-continuous evaluation at position x."""
        u = self.left_state
        for f, xf in zip(self.fronts, self.xs):
            if xf <= x:
                u = f.uR
            else:
                break
        return u

    def validate(self):
        prev_x = -math.inf
        u = self.left_state
        for f, xf in zip(self.fronts, self.xs):
            # just before a collision fires, positions may overlap by fp noise
            if xf < prev_x - 1e-12 * max(1.0, abs(prev_x)):
                raise SolverError("front positions out of order")
            if fc.max_abs([x - y for x, y in zip(f.uL, u)]) > CHAIN_ATOL:
                raise SolverError("state chain broken")
            prev_x = xf
            u = f.uR
        return True


@dataclass
class Collision:
    t: float
    x: float
    index: int  # left front index in the field
    left_id: int
    right_id: int


@dataclass
class InteractionEvent:
    index: int
    t: float
    x: float
    solver: str  # accurate | simplified | crude
    incoming: list  # the two fronts that met
    outgoing: list  # the spliced fronts
    amount_I: float
    cancellation: float
    dV: float  # from the pairs the event touches; the running V and Q
    dQ: float  # are the ledger's


# each RunConfig field a scenario sets, as numerics.<field>
NUMERICS = ("epsilon", "t_end", "rho", "eps0", "eps1", "event_cap", "front_cap")
TIE_TOL_FACTOR = 1e-13  # collision times within this * max(1, t_end) tie


@dataclass
class RunConfig:
    """Run parameters with their one set of defaults and checks, which a
    scenario's numerics (cli.parse_config) and library callers share. Each
    value is checked under its key numerics.<field>; all but the caps are
    stored as floats. audit_rel_tol, the Glimm audit's slack, is a class
    constant that no caller sets."""

    model_id: str
    initial: dict
    epsilon: float
    t_end: float = 1.0
    model_params: dict = field(default_factory=dict)
    rho: float | None = None  # default epsilon**3
    eps0: float | None = None
    eps1: float | None = None
    event_cap: int = 200000
    front_cap: int = 20000
    audit_rel_tol: ClassVar[float] = ms.AUDIT_REL_TOL

    def __post_init__(self):
        for name in NUMERICS:
            key, value = f"numerics.{name}", getattr(self, name)
            if name in ("event_cap", "front_cap"):
                integer(key, value)
            elif not (value is None and name in ("rho", "eps0", "eps1")):
                value = finite(key, value)
                if name in ("epsilon", "t_end") and value <= 0:
                    raise ConfigError(key, "must be positive")
                setattr(self, name, value)
        if self.rho is None:
            try:
                self.rho = self.epsilon ** 3
            except OverflowError:
                raise ConfigError("numerics.epsilon", "too large: the default "
                                  "rho = epsilon**3 overflows") from None
        if self.eps0 is None:
            self.eps0 = self.epsilon
        if self.eps1 is None:
            self.eps1 = min(4.0 * self.epsilon, 8.0 * self.eps0)
        if not 0 < self.eps0 <= self.eps1:
            raise ConfigError("numerics.eps0", "need 0 < eps0 <= eps1 (at "
                              f"epsilon {self.epsilon:g}, eps1 {self.eps1:g})")


class RecordColumns(NamedTuple):
    """The front records as arrays indexed by front id: born_t, died_t (+inf
    for survivors, distinct from a front that dies at t_end), born_x, speed,
    and rank, the front's place in one left-to-right order of all fronts."""

    born_t: np.ndarray
    died_t: np.ndarray
    born_x: np.ndarray
    speed: np.ndarray
    rank: np.ndarray


class Timeline:
    """Immutable record of one run: initial field, events, the Glimm ledger
    (V, Q, Upsilon and C0), and front_records, which maps each front id to
    its Front. The initial field and the events hold the same Front
    objects."""

    def __init__(self, model, config, initial_field, events, front_records,
                 ledger, t_end):
        self.model = model
        self.config = config
        self.initial_field = initial_field
        self.events = events
        self.front_records = front_records
        self.ledger = ledger
        self.t_end = t_end
        self._content_cache = {}
        self._curve_cache = {}
        self._event_ts = None
        self._record_cols = None

    def wave_content(self, front_id, i):
        """The front's i-wave content; every family's content comes from one
        averaged eigensystem, the front's own when it keeps one, cached per
        front."""
        contents = self._content_cache.get(front_id)
        if contents is None:
            rec = self.front_records[front_id]
            contents = self._content_cache[front_id] = ms.front_wave_contents(
                self.model, rec.uL, rec.uR, rec.eigs)
        return contents[i - 1]

    def curves(self, i):
        """Maximal shock fronts at the run's thresholds (cached)."""
        if i not in self._curve_cache:
            self._curve_cache[i] = ms.extract_shock_curves(
                self, i, self.config.eps0, self.config.eps1)
        return self._curve_cache[i]

    def event_times(self):
        return [e.t for e in self.events]

    def events_upto(self, t):
        """How many events have times <= t. Event times never decrease, so
        they are counted by bisection."""
        if self._event_ts is None:
            self._event_ts = self.event_times()
        return bisect.bisect_right(self._event_ts, t)

    def events_between(self, t0, t1):
        """The events with t0 < t <= t1, in order."""
        return self.events[self.events_upto(t0):self.events_upto(t1)]

    def record_columns(self):
        """The front records' RecordColumns (cached). Ids run 0..n-1 with no
        gaps, so row k is front k. rank numbers one list of every front: the
        initial order, each event's outgoing fronts put right after its left
        incoming front (fronts never cross, so that order never changes)."""
        if self._record_cols is None:
            recs = self.front_records
            n = len(recs)
            if recs.keys() != set(range(n)):
                raise SolverError("front ids are not 0..n-1")
            table = np.array([(f.born_t, math.inf if f.died_t is None else f.died_t,
                               f.born_x, f.speed)
                              for f in map(recs.get, range(n))],
                             dtype=float).reshape(-1, 4)
            nxt = [-1] * (n + 1)  # a linked list with its head at nxt[n]
            chains = [(n, self.initial_field.fronts)]
            chains += [(e.incoming[0].id, e.outgoing) for e in self.events]
            for after, fronts in chains:
                for f in fronts:
                    nxt[f.id], nxt[after] = nxt[after], f.id
                    after = f.id
            order = [nxt[n]]
            while order[-1] >= 0 and len(order) <= n:
                order.append(nxt[order[-1]])
            rank = np.full(n, -1, dtype=np.int64)
            rank[order[:-1]] = np.arange(len(order) - 1)
            if (rank < 0).any():
                raise SolverError("front order misses a front record")
            self._record_cols = RecordColumns(*table.T.copy(), rank)
        return self._record_cols

    def order_at(self, t):
        """Ids of the fronts alive at t (born_t <= t < died_t) by rank, which
        is their field order; an event time gives the right limit."""
        cols = self.record_columns()
        ids = ((cols.born_t <= t) & (t < cols.died_t)).nonzero()[0]
        return ids[np.argsort(cols.rank[ids])]

    def slice_at(self, t):
        return slice_at(self, t)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def _state(model, v):
    """A state given as a number or a list of numbers."""
    comps = v if isinstance(v, (list, tuple, np.ndarray)) else [v]
    return fc.as_state([finite("initial.values", c) for c in comps], model.N)


def _param(params, name, default):
    return finite(f"initial.params.{name}", params.get(name, default))


def _profile_bounds(name, params):
    """A profile's x0 < x1, each at most half the largest float in size, so
    no width or midpoint of two sample points overflows."""
    x0 = _param(params, "x0", -1.0)
    x1 = _param(params, "x1", 1.0)
    if not x0 < x1 or max(-x0, x1) > _X_BOUND:
        raise ConfigError("initial.params", f"{name} needs x0 < x1, each at "
                          "most half the largest float in size")
    return x0, x1


def _profile_ramp(params):
    refuse_unknown_keys("initial.params", params, ("x0", "x1", "u_left", "u_right"))
    x0, x1 = _profile_bounds("ramp", params)
    u_left = _param(params, "u_left", 1.0)
    u_right = _param(params, "u_right", -1.0)
    if not math.isfinite((u_right - u_left) * (x1 - x0)):
        raise ConfigError("initial.params",
                          "ramp needs (u_right - u_left) * (x1 - x0) finite")

    def val(x):
        inner = u_left + (u_right - u_left) * (x - x0) / (x1 - x0)
        return np.where(x <= x0, u_left, np.where(x >= x1, u_right, inner))

    return val, (x0, x1), (u_left, u_right)


def _profile_sawtooth(params):
    refuse_unknown_keys("initial.params", params, ("x0", "x1", "teeth", "amplitude"))
    x0, x1 = _profile_bounds("sawtooth", params)
    teeth = integer("initial.params.teeth", params.get("teeth", 3))
    amp = _param(params, "amplitude", 0.5)
    verts_x = np.linspace(x0, x1, 2 * teeth + 1)
    verts_v = np.zeros(2 * teeth + 1)
    for j in range(1, 2 * teeth):
        verts_v[j] = amp if j % 2 == 1 else -amp

    def val(x):
        return np.where((x <= x0) | (x >= x1), 0.0, np.interp(x, verts_x, verts_v))

    return val, (x0, x1), (0.0, 0.0)


PROFILES = {"ramp": _profile_ramp, "sawtooth": _profile_sawtooth}


def initial_data(model, data_spec):
    """(xs, values) of a scenario's initial section: exact breakpoints, or a
    named scalar profile sampled at cell midpoints. Refuses malformed data or
    states outside the model's domain (ConfigError), and a total variation
    over the model's small-BV budget (InitialDataError)."""
    kind = data_spec.get("kind", "breakpoints")
    if kind == "breakpoints":
        refuse_unknown_keys("initial", data_spec, ("kind", "xs", "values"))
        xs, values = data_spec.get("xs"), data_spec.get("values")
        if not isinstance(xs, list):
            raise ConfigError("initial.xs", f"must be a list of numbers, got {xs!r}")
        if not isinstance(values, list):
            raise ConfigError("initial.values",
                              f"must be a list of states, got {values!r}")
        xs = [finite("initial.xs", x) for x in xs]
        if any(abs(x) > _X_BOUND for x in xs):
            raise ConfigError("initial.xs", "breakpoints must each be at most "
                              "half the largest float in size")
        try:
            values = [_state(model, v) for v in values]
        except DomainError as exc:
            raise ConfigError("initial", f"breakpoint states need {model.N} "
                              f"components ({exc})") from None
        if len(values) != len(xs) + 1:
            raise ConfigError("initial.values", "need len(values) == len(xs) + 1")
        if any(xs[j] >= xs[j + 1] for j in range(len(xs) - 1)):
            raise ConfigError("initial.xs", "breakpoints must be ascending")
    elif kind == "profile":
        if model.N != 1:
            raise ConfigError("initial.profile", "named profiles are scalar-only")
        refuse_unknown_keys("initial", data_spec, ("kind", "name", "samples", "params"))
        name = data_spec.get("name")
        if name not in PROFILES:
            raise ConfigError("initial.profile", f"unknown profile {name!r}")
        samples = integer("initial.samples", data_spec.get("samples", 40))
        params = data_spec.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("initial.params", "must be an object")
        val, (x0, x1), (u_left, u_right) = PROFILES[name](params)
        edges = np.linspace(x0, x1, samples + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        xs = list(edges)
        values = [(float(u),) for u in (u_left, *val(mids), u_right)]
    else:
        raise ConfigError("initial.kind", f"unknown initial data kind {kind!r}")
    for v in values:
        if not model.contains(v):
            raise ConfigError("initial.values", f"state {np.array(v)} "
                              f"outside the {model.id} domain box")
    tv = fc.total(fc.norm([y - x for x, y in zip(a, b)])
                  for a, b in zip(values, values[1:]))
    if tv > model.tv_budget:
        raise InitialDataError(
            f"initial.values: total variation {tv:.4g} exceeds {model.id} "
            f"budget {model.tv_budget:.4g}")
    return xs, values


def init_sample(model, data_spec, eps, front_cap=math.inf):
    """Piecewise-constant initial field from initial_data; every jump
    expanded by the accurate solver at t = 0. A field of more than front_cap
    fronts is refused as soon as the jumps expanded so far pass it, and a
    fan of more than front_cap fronts before it is built."""
    xs, values = initial_data(model, data_spec)
    fronts = []
    next_id = 0
    for x, (va, vb) in zip(xs, zip(values[:-1], values[1:])):
        if fc.norm([b - a for a, b in zip(va, vb)]) == 0.0:
            continue
        # the accurate solver emits no nonphysical fronts and its chain is
        # exact, so every fan front is spliced as-is
        for f in rm.solve_accurate(model, va, vb, eps, front_cap,
                                   checked=True):
            f.born_x = float(x)
            f.id = next_id
            next_id += 1
            fronts.append(f)
        if len(fronts) > front_cap:
            raise CapExceededError(
                f"front cap {front_cap} exceeded at t=0 by the initial field")
    return FrontField(model=model, time=0.0, left_state=values[0], fronts=fronts,
                      xs=[f.born_x for f in fronts])


# ---------------------------------------------------------------------------
# collision detection and stepping
# ---------------------------------------------------------------------------


def _make_live(fld):
    """Give a field the live loop's table, with xs a view of its last row."""
    fld.cols = _live_table(fld.fronts, fld.xs)
    fld.xs = fld.cols[4]


def _live_table(fronts, xs):
    """The live (5, m) table: the fronts' q_columns rows over positions xs."""
    table = np.empty((5, len(fronts)))
    table[:4] = ms.q_columns(fronts)
    table[4] = xs
    return table


def next_collision(fld, tie_tol=0.0):
    """Earliest adjacent-pair collision of a live field; near-simultaneous
    times (within tie_tol) are resolved by smallest collision position, then
    left front id. A pair whose collision time overflows never collides.

    Every pair is computed at once, each with the same float operations as
    a pair-by-pair loop, so the winner is the same to the last bit; a pair
    that does not approach gets an infinite time."""
    fronts = fld.fronts
    if len(fronts) < 2:
        return None
    xs = fld.xs
    sp = fld.cols[2]
    ds = sp[:-1] - sp[1:]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dt = (xs[1:] - xs[:-1]) / ds
        dt[dt < 0.0] = 0.0
        dt[~(ds > 0.0)] = math.inf
        ts = fld.time + dt
        t_min = ts[ts.argmin()]
        if t_min == math.inf:
            return None
        # positions only for the tie group; its pairs at the smallest x go by id
        group = (ts <= t_min + tie_tol).nonzero()[0]
        xc = xs[group] + sp[group] * dt[group]
    k = min((xc == xc[xc.argmin()]).nonzero()[0].tolist(),
            key=lambda k: fronts[group[k]].id)
    j = int(group[k])
    return Collision(t=float(ts[j]), x=float(xc[k]), index=j,
                     left_id=fronts[j].id, right_id=fronts[j + 1].id)


def _advance(fld, t):
    """Move the live field to time t, each position by its own increment."""
    dt = t - fld.time
    if dt != 0.0:
        fld.xs += fld.cols[2] * dt
    fld.time = t


def step(fld, config, next_id, event_index, col):
    """Process the live field's next collision col in place: dispatch a
    solver by interaction amount, splice the outgoing fronts, and return the
    event record. The incoming fronts get their death fields; no other
    spliced front is changed.

    next_id hands out front ids.
    """
    model = fld.model
    _advance(fld, col.t)
    j = col.index
    f_left, f_right = fld.fronts[j], fld.fronts[j + 1]
    solver, amount, cancellation = _choose_solver(f_left, f_right, config.rho)
    if solver == "crude":
        fronts = rm.solve_crude(model, f_left, f_right)
    elif solver == "accurate":
        fronts = rm.solve_accurate(model, f_left.uL, f_right.uR, config.epsilon,
                                   config.front_cap, checked=True)
    else:
        fronts = rm.solve_simplified(model, f_left, f_right)
    kept = _select_outgoing(model, fronts, f_left, f_right)
    for f in kept:
        f.born_t = col.t
        f.born_x = col.x
        f.id = next_id()
    for f in (f_left, f_right):
        f.died_t = col.t
    out = _live_table(kept, col.x)
    dV, dQ = ms.splice_deltas(fld.cols, j, out)
    fld.fronts[j:j + 2] = kept
    fld.cols = np.concatenate((fld.cols[:, :j], out, fld.cols[:, j + 2:]), 1)
    fld.xs = fld.cols[4]
    if len(fld.fronts) > config.front_cap:
        raise CapExceededError(
            f"front cap {config.front_cap} exceeded at t={col.t:.6g} "
            "(is rho set correctly?)")
    return InteractionEvent(
        index=event_index, t=col.t, x=col.x, solver=solver,
        incoming=[f_left, f_right], outgoing=kept,
        amount_I=amount, cancellation=cancellation, dV=dV, dQ=dQ)


def _choose_solver(f_left, f_right, rho):
    """(solver, interaction amount, cancellation) of a colliding pair: the
    crude solver when the left front is nonphysical, else the accurate one
    when the amount exceeds rho and the simplified one when it does not."""
    amount, cancellation = ms.interaction_amount(f_left, f_right)
    if not f_left.is_physical:
        return "crude", amount, cancellation
    return ("accurate" if amount > rho else "simplified"), amount, cancellation


def _select_outgoing(model, fronts, f_left, f_right):
    """Drop vanishing fronts from a solver's output; keep the state chain
    exact between the incoming endpoints."""
    kept = [f for f in fronts if f.is_physical and f.strength() > STRENGTH_FLOOR]
    np_fronts = [f for f in fronts if not f.is_physical]
    residual = np_fronts[-1] if np_fronts else None
    if (residual is not None and residual.size > 0.0
            and (residual.size > STRENGTH_FLOOR or not kept)):
        kept.append(residual)
    if kept and kept[-1].is_physical:
        # a dropped (or absent) residual owes its tiny jump to the last front
        if kept[-1].uR != f_right.uR:
            last = kept[-1] = replace(kept[-1], uR=f_right.uR)
            last.speed, last.eigs = rm.front_speed(model, last.family,
                                                   last.uL, last.uR)
    return kept


def run(config):
    """Front-track until t_end or quiescence; returns the Timeline. A
    FrontTrackError raised while an event is processed carries the event's
    index, t, x, incoming ids and solver in its event attribute."""
    model = fc.make_model(config.model_id, config.model_params)
    fld = init_sample(model, config.initial, config.epsilon, config.front_cap)
    initial = FrontField(model=model, time=0.0, left_state=fld.left_state,
                         fronts=list(fld.fronts), xs=list(fld.xs))
    _make_live(fld)
    records = {f.id: f for f in fld.fronts}
    next_id = itertools.count(max((f.id for f in fld.fronts), default=-1) + 1).__next__
    v0 = ms.total_variation_V(fld)
    q0 = ms.glimm_Q(fld)
    events = []
    while True:
        col = next_collision(fld, tie_tol=TIE_TOL_FACTOR * max(1.0, config.t_end))
        if col is None or col.t > config.t_end:
            break
        if len(events) >= config.event_cap:
            raise CapExceededError(
                f"event cap {config.event_cap} exceeded (is rho set correctly?)")
        try:
            ev = step(fld, config, next_id, len(events), col)
        except FrontTrackError as exc:
            exc.event = {"index": len(events), "t": col.t, "x": col.x,
                         "incoming": [col.left_id, col.right_id],
                         "solver": _choose_solver(records[col.left_id],
                                                  records[col.right_id],
                                                  config.rho)[0]}
            raise
        for f in ev.outgoing:
            records[f.id] = f
        events.append(ev)

    dVs = np.array([e.dV for e in events])
    dQs = np.array([e.dQ for e in events])
    c0, calibrated = ms.calibrate_c0(dVs, dQs, v0, q0)
    # the running sums are sequential, V_k+1 = V_k + dV_k, to the last bit
    ledger = ms.GlimmLedger(
        ts=np.concatenate([[0.0], [e.t for e in events]]),
        Vs=np.cumsum([v0, *dVs]), Qs=np.cumsum([q0, *dQs]),
        dVs=dVs, dQs=dQs, C0=c0, calibrated=calibrated)
    return Timeline(model, config, initial, events, records, ledger,
                    config.t_end)


def apply_event(fronts, ev):
    """Splice an event's outgoing fronts in place of its incoming pair."""
    try:
        j = fronts.index(ev.incoming[0])
    except ValueError:
        raise SolverError("event splice lost an incoming front")
    fronts[j:j + 2] = ev.outgoing


def slice_at(timeline, t):
    """Reconstructed field at time t; event times resolve to the right limit.
    The front order is timeline.order_at(t), never a sort by position (fronts
    about to meet agree only to roundoff); positions are in closed form."""
    if t < 0.0 or t > timeline.t_end:
        raise SolverError(f"slice time {t} outside [0, {timeline.t_end}]")
    fronts = list(map(timeline.front_records.get, timeline.order_at(t).tolist()))
    return field_at(timeline.model, timeline.initial_field.left_state, fronts, t)


def field_at(model, left_state, fronts, t):
    """The field with this front order at time t, positions in closed form."""
    return FrontField(model=model, time=t, left_state=left_state,
                      fronts=fronts, xs=[f.position(t) for f in fronts])
