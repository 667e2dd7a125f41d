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
from typing import NamedTuple

import numpy as np

from . import flux_core as fc
from . import measures as ms
from . import riemann as rm
from .errors import (CapExceededError, ConfigError, DomainError,
                     InitialDataError, SolverError)

STRENGTH_FLOOR = 1e-14  # fronts with smaller jumps are dropped at splice time
CHAIN_ATOL = 1e-9  # FrontField.validate: largest gap allowed in the state chain
CHECKPOINTS = 64  # most front-order checkpoints a Timeline keeps after t = 0


@dataclass
class FrontField:
    """The piecewise-constant solution at one time: fronts left to right,
    with xs[k] the position of fronts[k].

    The live field of run (built by _make_live, advanced by step) holds xs
    as a float64 array and cols, the fronts' measures.QColumns; step splices
    both with fronts. Other fields hold xs as a list of floats and no cols.
    """

    model: object
    time: float
    left_state: np.ndarray
    fronts: list
    xs: list
    cols: ms.QColumns | None = field(default=None, repr=False, compare=False)

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
            if np.max(np.abs(f.uL - u)) > CHAIN_ATOL:
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


@dataclass
class RunConfig:
    """Run parameters with their one set of defaults and checks, which a
    scenario's numerics (cli.parse_config) and library callers share."""

    model_id: str
    initial: dict
    epsilon: float
    t_end: float = 1.0
    model_params: dict = field(default_factory=dict)
    rho: float | None = None  # default epsilon**3
    rho_rule: str = "eps3"
    eps0: float | None = None
    eps1: float | None = None
    c0: object = "auto"
    tie_tol_factor: float = 1e-13
    event_cap: int = 200000
    front_cap: int = 20000
    audit_rel_tol: float = 1e-12

    def __post_init__(self):
        if self.c0 != "auto" and (isinstance(self.c0, bool)
                                  or not isinstance(self.c0, (int, float))
                                  or self.c0 < 0):
            raise ConfigError("numerics.C0", "must be 'auto' or a nonnegative "
                                             f"number, got {self.c0!r}")
        for key, value in (("numerics.epsilon", self.epsilon),
                           ("numerics.t_end", self.t_end),
                           ("numerics.rho", self.rho),
                           ("numerics.eps0", self.eps0),
                           ("numerics.eps1", self.eps1),
                           ("numerics.C0", None if self.c0 == "auto" else self.c0),
                           ("numerics.tolerances.tie_tol_factor",
                            self.tie_tol_factor),
                           ("numerics.tolerances.audit_rel", self.audit_rel_tol)):
            if value is not None and not math.isfinite(value):
                raise ConfigError(key, f"must be finite, got {value}")
        for key, value in (("numerics.event_cap", self.event_cap),
                           ("numerics.front_cap", self.front_cap)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(key, f"must be a positive integer, got {value!r}")
        if self.epsilon <= 0:
            raise ConfigError("numerics.epsilon", "must be positive")
        if self.t_end <= 0:
            raise ConfigError("numerics.t_end", "must be positive")
        if self.rho_rule not in ("eps3", "fixed"):
            raise ConfigError("numerics.rho_rule", f"unknown rule {self.rho_rule!r}")
        if self.rho_rule == "fixed" and self.rho is None:
            raise ConfigError("numerics.rho", "rho_rule 'fixed' needs an explicit rho")
        if self.rho is None:
            self.rho = self.epsilon ** 3
        if self.eps0 is None:
            self.eps0 = self.epsilon
        if self.eps1 is None:
            self.eps1 = min(4.0 * self.epsilon, 8.0 * self.eps0)
        if not 0 < self.eps0 <= self.eps1:
            raise ConfigError("numerics.eps0", "need 0 < eps0 <= eps1")


class RecordColumns(NamedTuple):
    """The front records as arrays, in increasing id order: born_t, died_t
    (t_end for fronts alive at the end), born_x and speed."""

    ids: np.ndarray
    born_t: np.ndarray
    died_t: np.ndarray
    born_x: np.ndarray
    speed: np.ndarray


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
        self._orders = [tuple(initial_field.fronts)]
        self._order_step = max(32, math.ceil(len(events) / CHECKPOINTS))

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

    def front_order(self, n):
        """The front order after the first n events, as a new list.

        Checkpoints of the order are kept every _order_step events (at least
        32, and few enough for at most CHECKPOINTS after t = 0), built on
        first use; the order is a copy of the last checkpoint at or before
        n with the events after it spliced in.
        """
        step = self._order_step
        orders = self._orders
        while len(orders) <= n // step:
            fronts = list(orders[-1])
            done = (len(orders) - 1) * step
            for ev in self.events[done:done + step]:
                apply_event(fronts, ev)
            orders.append(tuple(fronts))
        start = (n // step) * step
        fronts = list(orders[n // step])
        for ev in self.events[start:n]:
            apply_event(fronts, ev)
        return fronts

    def record_columns(self):
        """The front records' RecordColumns (cached)."""
        if self._record_cols is None:
            recs = [self.front_records[fid] for fid in sorted(self.front_records)]
            n = len(recs)
            self._record_cols = RecordColumns(
                np.fromiter((f.id for f in recs), int, n),
                np.fromiter((f.born_t for f in recs), float, n),
                np.fromiter((self.t_end if f.died_t is None else f.died_t
                             for f in recs), float, n),
                np.fromiter((f.born_x for f in recs), float, n),
                np.fromiter((f.speed for f in recs), float, n))
        return self._record_cols

    def slice_at(self, t):
        return slice_at(self, t)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def _profile_ramp(params):
    x0 = float(params.get("x0", -1.0))
    x1 = float(params.get("x1", 1.0))
    u_left = float(params.get("u_left", 1.0))
    u_right = float(params.get("u_right", -1.0))
    if x1 <= x0:
        raise ConfigError("initial.params", "ramp needs x0 < x1")

    def val(x):
        inner = u_left + (u_right - u_left) * (x - x0) / (x1 - x0)
        return np.where(x <= x0, u_left, np.where(x >= x1, u_right, inner))

    return val, (x0, x1), (u_left, u_right)


def _profile_sawtooth(params):
    x0 = float(params.get("x0", -1.0))
    x1 = float(params.get("x1", 1.0))
    teeth = int(params.get("teeth", 3))
    amp = float(params.get("amplitude", 0.5))
    if x1 <= x0 or teeth < 1:
        raise ConfigError("initial.params", "sawtooth needs x0 < x1, teeth >= 1")
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
        try:
            xs = [float(x) for x in data_spec["xs"]]
            values = [fc.as_state(v, model.N) for v in data_spec["values"]]
        except (KeyError, TypeError, ValueError, DomainError) as exc:
            raise ConfigError("initial", "breakpoints need xs, a list of numbers, "
                              f"and values, a list of states ({exc!r})") from None
        if len(values) != len(xs) + 1:
            raise ConfigError("initial.values", "need len(values) == len(xs) + 1")
        if any(xs[j] >= xs[j + 1] for j in range(len(xs) - 1)):
            raise ConfigError("initial.xs", "breakpoints must be ascending")
    elif kind == "profile":
        if model.N != 1:
            raise ConfigError("initial.profile", "named profiles are scalar-only")
        name = data_spec.get("name")
        if name not in PROFILES:
            raise ConfigError("initial.profile", f"unknown profile {name!r}")
        try:
            samples = int(data_spec.get("samples", 40))
            val, (x0, x1), (u_left, u_right) = PROFILES[name](
                data_spec.get("params", {}))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError("initial", "profile samples and params must be "
                              f"numbers ({exc!r})") from None
        if samples < 1:
            raise ConfigError("initial.samples", "need samples >= 1")
        edges = np.linspace(x0, x1, samples + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        xs = list(edges)
        values = [np.array([u]) for u in (u_left, *val(mids), u_right)]
    else:
        raise ConfigError("initial.kind", f"unknown initial data kind {kind!r}")
    for v in values:
        if not model.contains(v):
            raise ConfigError("initial.values",
                              f"state {v} outside the {model.id} domain box")
    tv = float(sum(np.linalg.norm(b - a) for a, b in zip(values, values[1:])))
    if tv > model.tv_budget:
        raise InitialDataError(
            f"initial.values: total variation {tv:.4g} exceeds {model.id} "
            f"budget {model.tv_budget:.4g}")
    return xs, values


def init_sample(model, data_spec, eps):
    """Piecewise-constant initial field from initial_data; every jump
    expanded by the accurate solver at t = 0."""
    xs, values = initial_data(model, data_spec)
    fronts = []
    next_id = 0
    for x, (va, vb) in zip(xs, zip(values[:-1], values[1:])):
        if float(np.linalg.norm(vb - va)) == 0.0:
            continue
        # the accurate solver emits no nonphysical fronts and its chain is
        # exact, so every fan front is spliced as-is
        for f in rm.solve_accurate(model, va, vb, eps):
            f.born_x = float(x)
            f.id = next_id
            next_id += 1
            fronts.append(f)
    return FrontField(model=model, time=0.0, left_state=values[0], fronts=fronts,
                      xs=[f.born_x for f in fronts])


# ---------------------------------------------------------------------------
# collision detection and stepping
# ---------------------------------------------------------------------------


def _make_live(fld):
    """Give a field the live loop's columns: positions as a float64 array
    and the fronts' QColumns."""
    fld.xs = np.array(fld.xs, dtype=float)
    fld.cols = ms.q_columns(fld.fronts)


def next_collision(fld, tie_tol=0.0):
    """Earliest adjacent-pair collision of a live field; near-simultaneous
    times (within tie_tol) are resolved by smallest collision position, then
    left front id.

    Every pair is computed at once, each with the same float operations as
    a pair-by-pair loop, so the winner is the same to the last bit."""
    fronts = fld.fronts
    xs = fld.xs
    sp = fld.cols.speed
    ds = sp[:-1] - sp[1:]
    js = (ds > 0.0).nonzero()[0]
    if not len(js):
        return None
    dt = (xs[js + 1] - xs[js]) / ds[js]
    dt[dt < 0.0] = 0.0
    ts = fld.time + dt
    xc = xs[js] + sp[js] * dt
    group = ts <= ts.min() + tie_tol
    # pairs of the group meeting at its smallest x; more than one is rare
    tied = (group & (xc == xc[group].min())).nonzero()[0].tolist()
    g = min(tied, key=lambda g: fronts[js[g]].id)
    j = int(js[g])
    return Collision(t=float(ts[g]), x=float(xc[g]), index=j,
                     left_id=fronts[j].id, right_id=fronts[j + 1].id)


def _advance(fld, t):
    """Move the live field to time t, each position by its own increment."""
    dt = t - fld.time
    if dt != 0.0:
        fld.xs += fld.cols.speed * dt
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
    amount, cancellation = ms.interaction_amount(f_left, f_right)
    if not f_left.is_physical:
        fronts = rm.solve_crude(model, f_left, f_right)
        solver = "crude"
    elif amount > config.rho:
        fronts = rm.solve_accurate(model, f_left.uL, f_right.uR, config.epsilon)
        solver = "accurate"
    else:
        fronts = rm.solve_simplified(model, f_left, f_right)
        solver = "simplified"
    kept = _select_outgoing(model, fronts, f_left, f_right)
    for f in kept:
        f.born_t = col.t
        f.born_x = col.x
        f.birth_event = event_index
        f.id = next_id()
    for f in (f_left, f_right):
        f.died_t = col.t
        f.died_x = col.x
        f.death_event = event_index
    out_cols = ms.q_columns(kept)
    dV, dQ = ms.splice_deltas(fld.cols, j, out_cols)
    fld.fronts[j:j + 2] = kept
    fld.xs = np.concatenate((fld.xs[:j], [col.x] * len(kept), fld.xs[j + 2:]))
    fld.cols = fld.cols.splice(j, out_cols)
    if len(fld.fronts) > config.front_cap:
        raise CapExceededError(
            f"front cap {config.front_cap} exceeded at t={col.t:.6g} "
            "(is rho set correctly?)")
    return InteractionEvent(
        index=event_index, t=col.t, x=col.x, solver=solver,
        incoming=[f_left, f_right], outgoing=kept,
        amount_I=amount, cancellation=cancellation, dV=dV, dQ=dQ)


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
        if not np.array_equal(kept[-1].uR, f_right.uR):
            last = kept[-1] = replace(kept[-1], uR=f_right.uR)
            last.speed, last.eigs = rm.front_speed(model, last.family,
                                                   last.uL, last.uR)
    return kept


def run(config):
    """Front-track until t_end or quiescence; returns the Timeline."""
    model = fc.make_model(config.model_id, config.model_params)
    fld = init_sample(model, config.initial, config.epsilon)
    initial = FrontField(model=model, time=0.0, left_state=fld.left_state,
                         fronts=list(fld.fronts), xs=list(fld.xs))
    _make_live(fld)
    records = {f.id: f for f in fld.fronts}
    next_id = itertools.count(max((f.id for f in fld.fronts), default=-1) + 1).__next__
    v0 = ms.total_variation_V(fld)
    q0 = ms.glimm_Q(fld)
    events = []
    while True:
        col = next_collision(fld, tie_tol=config.tie_tol_factor * max(1.0, config.t_end))
        if col is None or col.t > config.t_end:
            break
        if len(events) >= config.event_cap:
            raise CapExceededError(
                f"event cap {config.event_cap} exceeded (is rho set correctly?)")
        ev = step(fld, config, next_id, len(events), col)
        for f in ev.outgoing:
            records[f.id] = f
        events.append(ev)

    dVs = np.array([e.dV for e in events])
    dQs = np.array([e.dQ for e in events])
    if config.c0 == "auto":
        c0, calibrated = ms.calibrate_c0(dVs, dQs, v0, q0,
                                         rel_tol=config.audit_rel_tol)
    else:
        c0, calibrated = float(config.c0), True
    # the running sums are sequential, V_k+1 = V_k + dV_k, to the last bit
    ledger = ms.GlimmLedger(
        ts=np.concatenate([[0.0], [e.t for e in events]]),
        Vs=np.cumsum([v0, *dVs]), Qs=np.cumsum([q0, *dQs]),
        dVs=dVs, dQs=dQs, C0=c0, calibrated=calibrated)
    return Timeline(model, config, initial, events, records, ledger,
                    config.t_end)


def apply_event(fronts, ev):
    """Splice an event's outgoing fronts in place of its incoming pair;
    returns the index of the splice."""
    try:
        j = fronts.index(ev.incoming[0])
    except ValueError:
        raise SolverError("timeline replay lost an incoming front")
    fronts[j:j + 2] = ev.outgoing
    return j


def slice_at(timeline, t):
    """Reconstructed field at time t; event times resolve to the right limit.

    The front order comes from splicing the events up to t, never from
    sorting positions (fronts about to meet agree only to roundoff). Each
    position is its front's closed form born_x + speed*(t - born_t).
    """
    if t < 0.0 or t > timeline.t_end:
        raise SolverError(f"slice time {t} outside [0, {timeline.t_end}]")
    fronts = timeline.front_order(timeline.events_upto(t))
    return field_at(timeline.model, timeline.initial_field.left_state, fronts, t)


def field_at(model, left_state, fronts, t):
    """The field with this front order at time t, positions in closed form."""
    return FrontField(model=model, time=t, left_state=left_state,
                      fronts=fronts, xs=[f.position(t) for f in fronts])
