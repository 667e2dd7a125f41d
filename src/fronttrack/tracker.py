"""Event-driven evolution: piecewise-constant front fields, collision
detection, solver dispatch by interaction amount, and timeline recording.

A run is strictly single-threaded and deterministic: simultaneous collision
times are grouped within a tolerance and resolved by smallest collision
position, then smallest left-front id, so multi-front meetings unfold as
successive binary events without perturbing any stored speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import flux_core as fc
from . import measures as ms
from . import riemann as rm
from .errors import CapExceededError, ConfigError, InitialDataError, SolverError

STRENGTH_FLOOR = 1e-14  # fronts with smaller jumps are dropped at splice time


@dataclass
class FrontField:
    """The piecewise-constant solution at one time."""

    model: object
    time: float
    left_state: np.ndarray
    fronts: list

    def states(self):
        out = [self.left_state]
        out.extend(f.uR for f in self.fronts)
        return out

    def state_at(self, x):
        """Right-continuous evaluation at position x."""
        u = self.left_state
        for f in self.fronts:
            if f.x <= x:
                u = f.uR
            else:
                break
        return u

    def validate(self, atol=1e-9):
        prev_x = -math.inf
        u = self.left_state
        for f in self.fronts:
            # just before a collision fires, positions may overlap by fp noise
            if f.x < prev_x - 1e-12 * max(1.0, abs(prev_x)):
                raise SolverError("front positions out of order")
            if np.max(np.abs(f.uL - u)) > atol:
                raise SolverError("state chain broken")
            prev_x = f.x
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
    incoming: list  # frozen Front copies (exactly two)
    outgoing: list  # frozen copies of the spliced fronts
    amount_I: float
    cancellation: float
    V_pre: float
    Q_pre: float
    dV: float  # from the pairs the event touches; V_post = V_pre + dV
    dQ: float
    V_post: float
    Q_post: float


@dataclass
class FrontRecord:
    """Birth-to-death record of one front, for geometry and measures."""

    id: int
    family: int
    kind: str
    size: float
    speed: float
    uL: np.ndarray
    uR: np.ndarray
    born_t: float
    born_x: float
    birth_event: int | None  # None: initial datum
    died_t: float | None = None
    died_x: float | None = None
    death_event: int | None = None

    @property
    def is_physical(self):
        return self.kind != "nonphysical"

    def position(self, t):
        return self.born_x + self.speed * (t - self.born_t)

    def alive_at(self, t):
        if t < self.born_t:
            return False
        return self.died_t is None or t < self.died_t


@dataclass
class RunConfig:
    """Validated run parameters; see cli.parse_config for file ingestion."""

    model_id: str
    initial: dict
    epsilon: float
    t_end: float
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
        if self.epsilon <= 0:
            raise ConfigError("numerics.epsilon", "must be positive")
        if self.t_end <= 0:
            raise ConfigError("numerics.t_end", "must be positive")
        if self.rho is None:
            self.rho = self.epsilon ** 3
        if self.eps0 is None:
            self.eps0 = self.epsilon
        if self.eps1 is None:
            self.eps1 = min(4.0 * self.epsilon, 8.0 * self.eps0)
        if not 0 < self.eps0 <= self.eps1:
            raise ConfigError("numerics.eps0", "need 0 < eps0 <= eps1")

    def shock_thresholds(self, k=0):
        """(eps0_k, eps1_k) refinement schedule with 2^k eps0_k <= eps1_k."""
        return self.eps0 / 4.0 ** k, self.eps1 / 2.0 ** k


class Timeline:
    """Immutable record of one run: initial field, events, ledgers, records."""

    def __init__(self, model, config, initial_field, events, front_records,
                 ledger, c0, t_end):
        self.model = model
        self.config = config
        self.initial_field = initial_field
        self.events = events
        self.front_records = front_records
        self.ledger = ledger
        self.C0 = c0
        self.t_end = t_end
        self._content_cache = {}
        self._curve_cache = {}

    def wave_content(self, front_id, i):
        key = (front_id, i)
        if key not in self._content_cache:
            rec = self.front_records[front_id]
            self._content_cache[key] = ms.front_wave_content(
                self.model, i, rec.uL, rec.uR)
        return self._content_cache[key]

    def curves(self, i, eps0=None, eps1=None):
        """Maximal shock fronts at the run's thresholds (cached)."""
        eps0 = self.config.eps0 if eps0 is None else eps0
        eps1 = self.config.eps1 if eps1 is None else eps1
        key = (i, eps0, eps1)
        if key not in self._curve_cache:
            self._curve_cache[key] = ms.extract_shock_curves(self, i, eps0, eps1)
        return self._curve_cache[key]

    def event_times(self):
        return [e.t for e in self.events]

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


def _breakpoints_from_spec(model, data_spec):
    kind = data_spec.get("kind", "breakpoints")
    if kind == "breakpoints":
        xs = [float(x) for x in data_spec["xs"]]
        values = [fc.as_state(v, model.N) for v in data_spec["values"]]
        if len(values) != len(xs) + 1:
            raise ConfigError("initial.values", "need len(values) == len(xs) + 1")
        if any(xs[j] >= xs[j + 1] for j in range(len(xs) - 1)):
            raise ConfigError("initial.xs", "breakpoints must be ascending")
        return xs, values, None
    if kind == "profile":
        if model.N != 1:
            raise ConfigError("initial.profile", "named profiles are scalar-only")
        name = data_spec.get("name")
        if name not in PROFILES:
            raise ConfigError("initial.profile", f"unknown profile {name!r}")
        samples = int(data_spec.get("samples", 40))
        if samples < 1:
            raise ConfigError("initial.samples", "need samples >= 1")
        val, (x0, x1), (u_left, u_right) = PROFILES[name](data_spec.get("params", {}))
        edges = np.linspace(x0, x1, samples + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        xs = list(edges)
        v_mid = val(mids)
        values = [np.array([u_left])]
        values += [np.array([v]) for v in v_mid]
        values.append(np.array([u_right]))
        # midpoint-sampling L1 distance estimate, recorded not enforced: one
        # 33-point row per cell, each integrated on its own
        h = edges[1] - edges[0]
        fine = np.linspace(edges[:-1], edges[:-1] + h, 33, axis=1)
        dev = np.abs(val(fine) - v_mid[:, None])
        l1 = 0.0
        for y, x in zip(dev, fine):
            l1 += float(np.trapezoid(y, x))
        return xs, values, l1
    raise ConfigError("initial.kind", f"unknown initial data kind {kind!r}")


def initial_total_variation(values):
    return float(sum(np.linalg.norm(values[j + 1] - values[j])
                     for j in range(len(values) - 1)))


def init_sample(model, data_spec, eps):
    """Piecewise-constant initial field; every jump expanded by the accurate
    solver at t = 0. Refuses data whose total variation exceeds the model's
    small-BV budget."""
    xs, values, l1_estimate = _breakpoints_from_spec(model, data_spec)
    for v in values:
        model.require_inside(v, "initial state")
    tv = initial_total_variation(values)
    if tv > model.tv_budget:
        raise InitialDataError(
            f"initial total variation {tv:.4g} exceeds {model.id} budget "
            f"{model.tv_budget:.4g}")
    fronts = []
    next_id = 0
    for x, (va, vb) in zip(xs, zip(values[:-1], values[1:])):
        if float(np.linalg.norm(vb - va)) == 0.0:
            continue
        # the accurate solver emits no nonphysical fronts and its chain is
        # exact, so every fan front is spliced as-is
        fan = rm.solve_accurate(model, va, vb, eps)
        for f in fan.fronts:
            f.x = float(x)
            f.born_at = 0.0
            f.id = next_id
            next_id += 1
            fronts.append(f)
    fld = FrontField(model=model, time=0.0, left_state=values[0], fronts=fronts)
    fld.sampling_l1 = l1_estimate
    return fld


# ---------------------------------------------------------------------------
# collision detection and stepping
# ---------------------------------------------------------------------------


def next_collision(fld, tie_tol=0.0):
    """Earliest adjacent-pair collision; near-simultaneous times (within
    tie_tol) are resolved by smallest collision position, then left front id."""
    fronts = fld.fronts
    cands = []
    for j in range(len(fronts) - 1):
        ds = fronts[j].speed - fronts[j + 1].speed
        if ds <= 0.0:
            continue
        dt = (fronts[j + 1].x - fronts[j].x) / ds
        if dt < 0.0:
            dt = 0.0
        t = fld.time + dt
        x = fronts[j].x + fronts[j].speed * dt
        cands.append((t, x, fronts[j].id, j))
    if not cands:
        return None
    t_min = min(c[0] for c in cands)
    group = [c for c in cands if c[0] <= t_min + tie_tol]
    t, x, left_id, j = min(group, key=lambda c: (c[1], c[2]))
    return Collision(t=t, x=x, index=j, left_id=left_id,
                     right_id=fronts[j + 1].id)


def _advance(fld, t):
    dt = t - fld.time
    if dt != 0.0:
        for f in fld.fronts:
            f.x += f.speed * dt
    fld.time = t


def _freeze(front):
    return replace(front)


def step(fld, config, next_id=None, event_index=0, col=None, V_pre=None,
         Q_pre=None):
    """Process the next collision: dispatch a solver by interaction amount,
    splice the outgoing fan, and return the event record.

    col is the field's next collision when the caller has already found it.
    V_pre and Q_pre carry the running ledger; when omitted, the ledger starts
    from this field.
    """
    model = fld.model
    if next_id is None:
        counter = [max((f.id for f in fld.fronts), default=-1) + 1]

        def next_id():
            counter[0] += 1
            return counter[0] - 1
    if col is None:
        col = next_collision(fld, tie_tol=config.tie_tol_factor
                             * max(1.0, config.t_end))
    if col is None:
        raise SolverError("step called with no pending collision")
    if V_pre is None:
        V_pre = ms.total_variation_V(fld)
        Q_pre = ms.glimm_Q(fld)
    _advance(fld, col.t)
    j = col.index
    f_left, f_right = fld.fronts[j], fld.fronts[j + 1]
    f_left.x = col.x
    f_right.x = col.x
    amount, cancellation = ms.interaction_amount(f_left, f_right)
    if not f_left.is_physical:
        fan = rm.solve_crude(model, f_left, f_right)
        solver = "crude"
    elif amount > config.rho:
        fan = rm.solve_accurate(model, f_left.uL, f_right.uR, config.epsilon)
        solver = "accurate"
    else:
        fan = rm.solve_simplified(model, f_left, f_right)
        solver = "simplified"
    kept = _select_outgoing(model, fan, f_left, f_right)
    for f in kept:
        f.x = col.x
        f.born_at = col.t
        f.id = next_id()
    dV, dQ = ms.splice_deltas(fld.fronts, j, kept)
    fld.fronts[j:j + 2] = kept
    if len(fld.fronts) > config.front_cap:
        raise CapExceededError(
            f"front cap {config.front_cap} exceeded at t={col.t:.6g} "
            "(is rho set correctly?)")
    event = InteractionEvent(
        index=event_index, t=col.t, x=col.x, solver=solver,
        incoming=[_freeze(f_left), _freeze(f_right)],
        outgoing=[_freeze(f) for f in kept],
        amount_I=amount, cancellation=cancellation,
        V_pre=V_pre, Q_pre=Q_pre, dV=dV, dQ=dQ,
        V_post=V_pre + dV, Q_post=Q_pre + dQ)
    return fld, event


def _select_outgoing(model, fan, f_left, f_right):
    """Drop vanishing fronts from a fan; keep the state chain exact between
    the incoming endpoints."""
    kept = [f for f in fan.fronts if f.is_physical and f.strength() > STRENGTH_FLOOR]
    np_fronts = [f for f in fan.fronts if not f.is_physical]
    residual = np_fronts[-1] if np_fronts else None
    if residual is not None and (residual.size > STRENGTH_FLOOR or not kept):
        if residual.size > 0.0:
            kept.append(residual)
            residual = None
    if kept and kept[-1].is_physical:
        # a dropped (or absent) residual owes its tiny jump to the last front
        if not np.array_equal(kept[-1].uR, f_right.uR):
            kept[-1] = replace(kept[-1], uR=f_right.uR)
            kept[-1].speed = rm.front_speed(model, kept[-1].family,
                                            kept[-1].uL, kept[-1].uR)
    return kept


def run(config):
    """Front-track until t_end or quiescence; returns the Timeline."""
    model = fc.make_model(config.model_id, config.model_params)
    fld = init_sample(model, config.initial, config.epsilon)
    initial_frozen = FrontField(model=model, time=0.0,
                                left_state=fld.left_state,
                                fronts=[_freeze(f) for f in fld.fronts])
    records = {}
    for f in fld.fronts:
        records[f.id] = FrontRecord(
            id=f.id, family=f.family, kind=f.kind, size=f.size, speed=f.speed,
            uL=f.uL, uR=f.uR, born_t=0.0, born_x=f.x, birth_event=None)
    counter = [max((f.id for f in fld.fronts), default=-1) + 1]

    def next_id():
        counter[0] += 1
        return counter[0] - 1

    v0 = ms.total_variation_V(fld)
    q0 = ms.glimm_Q(fld)
    V, Q = v0, q0
    events = []
    while True:
        col = next_collision(fld, tie_tol=config.tie_tol_factor * max(1.0, config.t_end))
        if col is None or col.t > config.t_end:
            break
        if len(events) >= config.event_cap:
            raise CapExceededError(
                f"event cap {config.event_cap} exceeded (is rho set correctly?)")
        fld, ev = step(fld, config, next_id, len(events), col, V, Q)
        V, Q = ev.V_post, ev.Q_post
        for f in ev.incoming:
            rec = records[f.id]
            rec.died_t = ev.t
            rec.died_x = ev.x
            rec.death_event = ev.index
        for f in ev.outgoing:
            records[f.id] = FrontRecord(
                id=f.id, family=f.family, kind=f.kind, size=f.size,
                speed=f.speed, uL=f.uL, uR=f.uR, born_t=ev.t, born_x=ev.x,
                birth_event=ev.index)
        events.append(ev)

    dVs = np.array([e.dV for e in events])
    dQs = np.array([e.dQ for e in events])
    if config.c0 == "auto":
        c0, calibrated = ms.calibrate_c0(dVs, dQs, v0, q0,
                                         rel_tol=config.audit_rel_tol)
    else:
        c0, calibrated = float(config.c0), True
    ledger = ms.GlimmLedger(
        ts=np.concatenate([[0.0], [e.t for e in events]]),
        Vs=np.concatenate([[v0], [e.V_post for e in events]]),
        Qs=np.concatenate([[q0], [e.Q_post for e in events]]),
        dVs=dVs, dQs=dQs, C0=c0, calibrated=calibrated)
    return Timeline(model, config, initial_frozen, events, records, ledger,
                    c0, config.t_end)


def clone_field(src):
    return FrontField(model=src.model, time=src.time, left_state=src.left_state,
                      fronts=[_freeze(f) for f in src.fronts])


def apply_event(fld, ev):
    """Advance a replayed field to an event and splice its outgoing fronts."""
    _advance(fld, ev.t)
    ids = [f.id for f in fld.fronts]
    try:
        j = ids.index(ev.incoming[0].id)
    except ValueError:
        raise SolverError("timeline replay lost an incoming front")
    fld.fronts[j:j + 2] = [_freeze(f) for f in ev.outgoing]


def slice_at(timeline, t):
    """Reconstructed field at time t; event times resolve to the right limit.

    The replay repeats the run's incremental position arithmetic so slices
    agree bitwise with the live evolution.
    """
    if t < 0.0 or t > timeline.t_end:
        raise SolverError(f"slice time {t} outside [0, {timeline.t_end}]")
    fld = clone_field(timeline.initial_field)
    for ev in timeline.events:
        if ev.t > t:
            break
        apply_event(fld, ev)
    _advance(fld, t)
    return fld


def iter_frames(timeline, t_stop=None):
    """Yield (field, t_hi) pairs: each field is the solution on [field.time,
    t_hi) with fronts moving linearly. The yielded field is reused; callers
    must not keep references across iterations."""
    t_stop = timeline.t_end if t_stop is None else t_stop
    fld = clone_field(timeline.initial_field)
    for ev in timeline.events:
        if ev.t > t_stop:
            break
        if ev.t > fld.time:
            yield fld, ev.t
        apply_event(fld, ev)
    if t_stop >= fld.time:
        yield fld, t_stop
