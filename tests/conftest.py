import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

from fronttrack import diagnostics as dg
from fronttrack import flux_core as fc
from fronttrack import measures as ms
from fronttrack import riemann as rm
from fronttrack import tracker as tk
from fronttrack.errors import CurveError, DomainError, RiemannError

MODEL_IDS = ["burgers", "cubic", "remark-2x2", "p-system"]

# property tests draw the same examples on every run, with no example
# database and no deadline, so tier-1 is deterministic
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def models():
    return {mid: fc.make_model(mid) for mid in MODEL_IDS}


def random_state(model, rng, margin=0.2):
    lo = model.domain[:, 0]
    hi = model.domain[:, 1]
    pad = margin * (hi - lo)
    return lo + pad + (hi - lo - 2 * pad) * rng.random(model.N)


def scenario_center(model):
    return 0.5 * (model.domain[:, 0] + model.domain[:, 1])


def random_breakpoint_scenario(model_id, rng, n_jumps=4, scale=None):
    """Small-BV piecewise-constant initial data as a breakpoints spec."""
    model = fc.make_model(model_id)
    if scale is None:
        scale = {"burgers": 0.3, "cubic": 0.3,
                 "remark-2x2": 0.05, "p-system": 0.08}[model_id]
    center = scenario_center(model)
    xs = np.sort(rng.uniform(-1.0, 1.0, n_jumps))
    while len(np.unique(xs)) < n_jumps:
        xs = np.sort(rng.uniform(-1.0, 1.0, n_jumps))
    lo = model.domain[:, 0] + 0.12 * (model.domain[:, 1] - model.domain[:, 0])
    hi = model.domain[:, 1] - 0.12 * (model.domain[:, 1] - model.domain[:, 0])
    values = [center.copy()]
    state = center.copy()
    for _ in range(n_jumps):
        step = scale * (2.0 * rng.random(model.N) - 1.0)
        state = np.clip(state + step, lo, hi)
        values.append(state.copy())
    return {"kind": "breakpoints", "xs": [float(x) for x in xs],
            "values": [[float(v) for v in u] for u in values]}


def quick_run(model_id, initial, epsilon=0.05, t_end=1.0, **kw):
    cfg = tk.RunConfig(model_id=model_id, initial=initial, epsilon=epsilon,
                       t_end=t_end, **kw)
    return tk.run(cfg)


# the acceptance corpus (criterion 01): per model, the jumps and step scale
# of its breakpoint scenarios; run s draws from generator seed 9000 + 17 s
CORPUS = {"burgers": (8, 0.5), "cubic": (8, 0.6), "remark-2x2": (5, None),
          "p-system": (5, None)}


def corpus_run(model_id, s):
    """Run s of the acceptance corpus for model_id."""
    n_jumps, scale = CORPUS[model_id]
    rng = np.random.default_rng(9000 + 17 * s)
    init = random_breakpoint_scenario(model_id, rng, n_jumps=n_jumps,
                                      scale=scale)
    return quick_run(model_id, init, epsilon=0.05, t_end=1.5)


# two 1-shocks of the p-system, the left one faster: at epsilon 1e-6 their
# merger at t = 14.65 reflects a weak 2-rarefaction split into a fan of
# 4 fronts, while the initial field is the 2 shocks
PSYSTEM_SHOCK_MERGER = {
    "kind": "breakpoints", "xs": [-0.5, 0.0],
    "values": [[1.25, 0.0], [1.191545184452348, -0.05446179068641042],
               [1.17716145956107, -0.06835391742057143]]}


# a child's peak RSS is its VmHWM: Linux keeps the parent's peak in a
# child's ru_maxrss across exec, so ru_maxrss would read this process
needs_proc_status = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")


def child_python(code, *args):
    """Run code in a fresh interpreter on this fronttrack; returns the words
    it prints and its peak RSS in kB."""
    src = os.path.dirname(os.path.dirname(tk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    peak = "\nprint(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"
    res = subprocess.run([sys.executable, "-c", code + peak, *map(str, args)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    *words, peak_kb = res.stdout.split()
    return words, int(peak_kb)


def read_events_jsonl(path):
    """The events of an events.jsonl artifact, one dict per line."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_csv(path):
    """The rows of a CSV artifact as dicts keyed by the header; a value
    that parses as a float is one."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            if not line.strip():
                continue
            vals = []
            for tok in line.strip().split(","):
                try:
                    vals.append(float(tok))
                except ValueError:
                    vals.append(tok)
            rows.append(dict(zip(header, vals)))
        return rows


@pytest.fixture(scope="session")
def burgers_merge_timeline():
    return quick_run("burgers", {"kind": "breakpoints", "xs": [-1.0, 0.0],
                                 "values": [[1.0], [0.5], [0.0]]},
                     epsilon=0.1, t_end=5.0)


@pytest.fixture(scope="session")
def burgers_fan_timeline():
    return quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                 "values": [[0.0], [1.0]]},
                     epsilon=0.01, t_end=2.0)


@pytest.fixture(scope="session")
def sawtooth_timeline():
    initial = {"kind": "profile", "name": "sawtooth", "samples": 24,
               "params": {"teeth": 3, "amplitude": 0.5}}
    return quick_run("burgers", initial, epsilon=0.05, t_end=2.0)


@pytest.fixture(scope="session")
def remark_timeline():
    rng = np.random.default_rng(7)
    initial = random_breakpoint_scenario("remark-2x2", rng, n_jumps=5)
    return quick_run("remark-2x2", initial, epsilon=0.05, t_end=1.5)


def bits(u):
    """A float's float64 bytes, or a sequence of them nested like u: a
    state, a tuple of rows, or a tuple of those."""
    if isinstance(u, float):
        return struct.pack("d", u)
    return tuple(map(bits, u))


def same_bits(a, b):
    """Equal to the bit, component by component: unlike ==, -0.0 and 0.0
    differ."""
    return bits(a) == bits(b)


def same_eigs(a, b):
    """Two EigenSystems equal to the bit."""
    return same_bits((a.lambdas, a.right, a.left, a.gnl_rates),
                     (b.lambdas, b.right, b.left, b.gnl_rates))


def assert_keeps_own_eigs(model, fronts):
    """Each physical front of a system keeps average_eigs of its own states,
    the eigensystem its speed came from; other fronts keep none."""
    for f in fronts:
        if model.N == 1 or not f.is_physical:
            assert f.eigs is None
            continue
        assert same_eigs(f.eigs, fc.average_eigs(model, f.uL, f.uR))
        assert f.speed == float(f.eigs.lambdas[f.family - 1])


# ---------------------------------------------------------------------------
# Reference replay: slices rebuilt by repeating the live loop's incremental
# position arithmetic (x += speed*dt) from t = 0. The tracker builds slices
# from front records in closed form instead; tests compare the two.
# ---------------------------------------------------------------------------


def replay_clone_field(src):
    return tk.FrontField(model=src.model, time=src.time,
                         left_state=src.left_state, fronts=list(src.fronts),
                         xs=list(src.xs))


def replay_advance(fld, t):
    dt = t - fld.time
    if dt != 0.0:
        fld.xs = [x + f.speed * dt for x, f in zip(fld.xs, fld.fronts)]
    fld.time = t


def replay_apply_event(fld, ev):
    """Advance to an event and splice its outgoing fronts at the event point."""
    replay_advance(fld, ev.t)
    j = [f.id for f in fld.fronts].index(ev.incoming[0].id)
    fld.fronts[j:j + 2] = ev.outgoing
    fld.xs[j:j + 2] = [ev.x] * len(ev.outgoing)


def replay_slice_at(timeline, t):
    fld = replay_clone_field(timeline.initial_field)
    for ev in timeline.events:
        if ev.t > t:
            break
        replay_apply_event(fld, ev)
    replay_advance(fld, t)
    return fld


def replay_frames(timeline, t_stop):
    """Yield (field, t_hi): the replayed field is the solution on
    [field.time, t_hi). The field is reused between iterations."""
    fld = replay_clone_field(timeline.initial_field)
    for ev in timeline.events:
        if ev.t > t_stop:
            break
        if ev.t > fld.time:
            yield fld, ev.t
        replay_apply_event(fld, ev)
    if t_stop >= fld.time:
        yield fld, t_stop


# ---------------------------------------------------------------------------
# Reference live loop: the pair-by-pair collision scan, the per-front
# advance and the per-front Glimm columns, run with the tracker's solver
# dispatch. The tracker runs the same arithmetic on numpy columns; tests
# compare the two with ==.
# ---------------------------------------------------------------------------


def reference_next_collision(fld, tie_tol=0.0):
    fronts, xs = fld.fronts, fld.xs
    cands = []
    for j in range(len(fronts) - 1):
        ds = fronts[j].speed - fronts[j + 1].speed
        if ds <= 0.0:
            continue
        dt = (xs[j + 1] - xs[j]) / ds
        if dt < 0.0:
            dt = 0.0
        t = fld.time + dt
        if t == math.inf:  # an overflowing collision time never comes
            continue
        x = xs[j] + fronts[j].speed * dt
        cands.append((t, x, fronts[j].id, j))
    if not cands:
        return None
    t_min = min(c[0] for c in cands)
    group = [c for c in cands if c[0] <= t_min + tie_tol]
    t, x, left_id, j = min(group, key=lambda c: (c[1], c[2]))
    return tk.Collision(t=t, x=x, index=j, left_id=left_id,
                        right_id=fronts[j + 1].id)


def reference_glimm_Q(field):
    """glimm_Q as dense m x m masks: the transversal pairs and the 1/2-weighted
    same-family pairs of physical fronts, alpha left of beta, each summed by
    one numpy .sum() over the masked weights in row-major order."""
    fronts = field.fronts
    m = len(fronts)
    if m < 2:
        return 0.0
    s = np.array([f.size for f in fronts])
    fam = np.array([f.family for f in fronts])
    sig = np.array([f.speed for f in fronts])
    phys = np.array([f.is_physical for f in fronts])
    upper = np.triu(np.ones((m, m), dtype=bool), k=1)  # alpha left of beta
    absprod = np.abs(np.outer(s, s))
    transversal = upper & (fam[:, None] > fam[None, :])
    q1 = float(absprod[transversal].sum())
    same = upper & (fam[:, None] == fam[None, :]) & phys[:, None] & phys[None, :]
    q2 = 0.5 * float((absprod * np.abs(sig[:, None] - sig[None, :]))[same].sum())
    return q1 + q2


def reference_q_columns(fronts):
    n = len(fronts)
    return (np.abs(np.fromiter([f.size for f in fronts], float, n)),
            np.fromiter([f.family for f in fronts], float, n),
            np.fromiter([f.speed for f in fronts], float, n),
            np.fromiter([f.is_physical for f in fronts], bool, n))


def reference_pair_weights(a, b):
    """glimm_Q's weight of every pair (alpha from a, beta from b) with alpha
    left of beta, as an |a| x |b| array of reference_q_columns entries."""
    s_a, fam_a, sig_a, phys_a = (c[:, None] for c in a)
    s_b, fam_b, sig_b, phys_b = b
    absprod = s_a * s_b
    same = (fam_a == fam_b) & phys_a & phys_b
    return np.where(fam_a > fam_b, absprod,
                    np.where(same, 0.5 * absprod * np.abs(sig_a - sig_b), 0.0))


def reference_splice_deltas(fronts, j, outgoing):
    """splice_deltas from pair weight tables: the incoming and outgoing
    fronts against the untouched fronts on each side, plus the pairs inside
    the window."""
    f_left, f_right = fronts[j], fronts[j + 1]
    dV = (fc.total(abs(f.size) for f in outgoing) - abs(f_left.size)
          - abs(f_right.size))
    cols = reference_q_columns(fronts)
    left = [c[:j] for c in cols]
    right = [c[j + 2:] for c in cols]
    window = [np.concatenate((c[j:j + 2], o))
              for c, o in zip(cols, reference_q_columns(outgoing))]
    sign = np.array([-1.0, -1.0] + [1.0] * len(outgoing))
    inside = np.triu(reference_pair_weights(window, window), 1)
    dQ = (float((reference_pair_weights(left, window) * sign).sum())
          + float((sign[:, None] * reference_pair_weights(window, right)).sum())
          + float(inside[2:, 2:].sum()) - float(inside[0, 1]))
    return float(dV), dQ


def reference_events(config):
    """(t, x, solver, incoming ids, outgoing ids, dV, dQ) of every event of
    the run, from the reference loop on a field of lists."""
    model = fc.make_model(config.model_id, config.model_params)
    fld = tk.init_sample(model, config.initial, config.epsilon)
    tie_tol = tk.TIE_TOL_FACTOR * max(1.0, config.t_end)
    next_id = max((f.id for f in fld.fronts), default=-1) + 1
    events = []
    while True:
        col = reference_next_collision(fld, tie_tol)
        if col is None or col.t > config.t_end:
            return events
        replay_advance(fld, col.t)
        j = col.index
        f_left, f_right = fld.fronts[j], fld.fronts[j + 1]
        amount, _ = ms.interaction_amount(f_left, f_right)
        if not f_left.is_physical:
            fan, solver = rm.solve_crude(model, f_left, f_right), "crude"
        elif amount > config.rho:
            fan = rm.solve_accurate(model, f_left.uL, f_right.uR, config.epsilon)
            solver = "accurate"
        else:
            fan = rm.solve_simplified(model, f_left, f_right)
            solver = "simplified"
        kept = tk._select_outgoing(model, fan, f_left, f_right)
        for f in kept:
            f.id = next_id
            next_id += 1
        dV, dQ = reference_splice_deltas(fld.fronts, j, kept)
        fld.fronts[j:j + 2] = kept
        fld.xs[j:j + 2] = [col.x] * len(kept)
        events.append((col.t, col.x, solver, [f_left.id, f_right.id],
                       [f.id for f in kept], dV, dQ))


# ---------------------------------------------------------------------------
# Reference measures: source_measure_mu_jump with a second pass counting the
# curves through each node, and split_jump_cont as masks over the sorted v_i.
# measures builds both in one pass; tests compare the two bit for bit.
# ---------------------------------------------------------------------------


def reference_source_measure_mu_jump(timeline, i, curves):
    flux = {}
    for c in curves:
        nseg = len(c.segment_front_ids)
        for j, fid in enumerate(c.segment_front_ids):
            w = timeline.wave_content(fid, i)
            start_key = c.nodes[j]
            end_key = c.nodes[j + 1]
            rec = flux.setdefault(start_key, [0.0, 0.0, c.node_events[j]])
            rec[1] += w
            if not (c.survives and j == nseg - 1):
                rec = flux.setdefault(end_key, [0.0, 0.0, c.node_events[j + 1]])
                rec[0] += w
    atoms = []
    report = []
    counts = {}
    for c in curves:
        nseg = len(c.segment_front_ids)
        for j in range(nseg + 1):
            key = c.nodes[j]
            n_in, n_out = counts.get(key, (0, 0))
            if j < nseg:
                n_out += 1
            if j > 0 and not (c.survives and j == nseg):
                n_in += 1
            counts[key] = (n_in, n_out)
    for key in sorted(flux):
        w_in, w_out, ev_idx = flux[key]
        q = w_out - w_in
        n_in, n_out = counts[key]
        if n_in == 0:
            label = "initiation"
        elif n_out == 0:
            label = "termination"
        elif n_in >= 2:
            label = "merge"
        else:
            label = "off_curve_interaction"
        atoms.append((key[0], key[1], q))
        report.append({"t": key[0], "x": key[1], "q": q, "label": label,
                       "event": ev_idx})
    return ms.SpaceTimeAtoms.from_atoms(atoms), report


def reference_split_jump_cont(field, i, curves):
    ids = ms.curve_front_ids(curves)
    atoms = []
    member = []
    for f, x in zip(field.fronts, field.xs):
        atoms.append((x, ms.front_wave_content(field.model, i, f.uL, f.uR)))
        member.append(f.id in ids)
    vi = ms.AtomicMeasure1D.from_atoms(atoms)
    xs = np.array([a[0] for a in atoms]) if atoms else np.empty(0)
    order = np.argsort(xs, kind="stable")
    member = np.array(member, dtype=bool)[order] if atoms else np.empty(0, dtype=bool)
    return (ms.AtomicMeasure1D(vi.xs[member], vi.ws[member]),
            ms.AtomicMeasure1D(vi.xs[~member], vi.ws[~member]))


# ---------------------------------------------------------------------------
# Reference crossing search: the free characteristic is tested against every
# front of the field. diagnostics._next_crossing tests only the nearest front
# on each side; tests compare the two with == and is.
# ---------------------------------------------------------------------------


def reference_positive_window(g_lo, g_hi, lo, hi):
    """Subinterval of [lo, hi] where the affine function with endpoint values
    g_lo, g_hi is positive; None when empty. diagnostics._positive_windows is
    this elementwise."""
    if g_lo <= 0.0 and g_hi <= 0.0:
        return None
    if g_lo > 0.0 and g_hi > 0.0:
        return lo, hi
    root = lo + (hi - lo) * g_lo / (g_lo - g_hi)
    return (lo, root) if g_lo > 0.0 else (root, hi)


def reference_next_crossing(fronts, t, x, slope, t_hi, skip):
    best = None
    for g in fronts:
        if g.id in skip:
            continue
        xg = g.position(t)
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
# Reference p-system curve: each residual builds the state as a numpy
# 2-vector and contracts it with numpy's dot, which may fuse the second
# product into the sum. PSystem.wave_curve works on Python floats and
# rounds each product; tests hold the two within roundoff. Both take the
# chord slope of -p from PSystem.chord_sound_sq and start the Hugoniot
# bracket at the same target-scaled distance from v0.
# ---------------------------------------------------------------------------


def reference_psystem_curve(model, k, u0, s, parametrization):
    v0, w0 = float(u0[0]), float(u0[1])
    c0 = model.sound(v0)
    n0 = math.hypot(1.0, c0)
    v_lo, v_hi = model.domain[0]
    F0 = model.sound_antiderivative(v0)
    if k == 2:
        lvec = np.array([-0.5 * n0, 0.5 * n0 / c0])
    else:
        lvec = np.array([0.5 * n0, 0.5 * n0 / c0])
    s_unit_target = s if parametrization == "unit" else None

    def rare_state(v):
        du = model.sound_antiderivative(v) - F0
        if k == 2:
            return np.array([v, w0 - du])
        return np.array([v, w0 + du])

    def shock_state(v):
        sig = math.sqrt(model.chord_sound_sq(v0, v))
        if k == 1:
            sig = -sig
        return np.array([v, w0 - sig * (v - v0)]), sig

    if s >= 0:  # rarefaction branch
        if parametrization == "lambda":
            c_target = c0 + s if k == 2 else c0 - s
            if c_target <= 0:
                raise CurveError("p-system rarefaction parameter too large")
            v = model.sound_inv(c_target)
        else:
            bracket = (v_lo, v0) if k == 2 else (v0, v_hi)

            def g(v):
                st = rare_state(v)
                return float(lvec @ (st - u0)) - s_unit_target

            if g(bracket[0]) * g(bracket[1]) > 0 and abs(s) > 0:
                raise CurveError("p-system rarefaction curve exits the domain")
            v = v0 if s == 0 else rm.brentq(g, bracket[0], bracket[1])
        state = rare_state(v)
        sigma = model.sound(v) * (1.0 if k == 2 else -1.0)
        return state, sigma

    # shock branch, always in the unit parametrization
    target = s

    def gsh(v):
        st, _ = shock_state(v)
        return float(lvec @ (st - u0)) - target

    h = min(max(1e-12, 1e-9 * v0), max(4.0 * math.ulp(v0), 1e-3 * abs(target)))
    if k == 2:
        lo, hi = v0 + h, v_hi
    else:
        lo, hi = v_lo, v0 - h
    if gsh(lo) * gsh(hi) > 0:
        raise CurveError("p-system Hugoniot parameter outside reachable range")
    v = rm.brentq(gsh, lo, hi)
    state, sigma = shock_state(v)
    return state, sigma


def reference_solve_sizes(model, uL, uR):
    """riemann._solve_sizes as it was before its Jacobian became exact:
    damped Newton on numpy arrays with forward-difference columns, each
    from a chain re-evaluated from family k, and numpy's solve."""
    n = model.N
    uL, uR = np.asarray(uL, dtype=float), np.asarray(uR, dtype=float)
    left0 = np.array(model.point_eig(uL).left)

    def chain(svec, base=(), start=0):
        # the first start legs of svec are those of base
        legs = list(base[:start])
        omega = legs[-1] if legs else uL
        for k in range(start + 1, n + 1):
            if svec[k - 1] != 0.0:
                omega = np.array(rm._curve_point(
                    model, k, tuple(omega.tolist()), float(svec[k - 1]),
                    "unit")[0])
            legs.append(omega)
        return legs

    s = left0 @ (uR - uL)
    scale = max(1.0, float(np.max(np.abs(uR - uL))))
    legs = chain(s)
    res = legs[-1] - uR
    for _ in range(rm.NEWTON_MAXIT):
        if float(np.max(np.abs(res))) <= rm.NEWTON_TOL * scale:
            return s, legs
        jac = np.empty((n, n))
        base = res + uR
        for k in range(n):
            h = 1e-7 * max(1.0, abs(s[k]))
            sp = s.copy()
            sp[k] += h
            try:
                jac[:, k] = (chain(sp, legs, k)[-1] - base) / h
            except (DomainError, CurveError):
                sp[k] = s[k] - h
                jac[:, k] = (base - chain(sp, legs, k)[-1]) / h
        step = np.linalg.solve(jac, -res)
        lam = 1.0
        for _ in range(30):
            cand = s + lam * step
            try:
                clegs = chain(cand)
            except (DomainError, CurveError):
                lam *= 0.5
                continue
            cres = clegs[-1] - uR
            if float(np.max(np.abs(cres))) < float(np.max(np.abs(res))) or lam < 1e-6:
                s, res, legs = cand, cres, clegs
                break
            lam *= 0.5
        else:
            raise RiemannError("reference Newton: damping failed")
    raise RiemannError("reference Newton: no convergence")


def reference_curve_state(model, k, u0, s, parametrization):
    """T of riemann._curve_point on the reference p-system curve, as an
    array."""
    state = reference_psystem_curve(model, k, np.asarray(u0, dtype=float), s,
                                    parametrization)[0]
    if not model.contains(state):
        raise DomainError(f"{model.id}: curve point {state} left the domain")
    return state


# ---------------------------------------------------------------------------
# Reference audit path: the averaged matrix summed node by node with each
# model's point Jacobian, the minimal characteristic with its scans over all
# events and the whole field, and the region balance walking every record
# and every event. flux_core and diagnostics stack the nodes, bisect and
# screen instead; tests compare the two bit for bit.
# ---------------------------------------------------------------------------


def reference_jacobian_matrix(model, u):
    if isinstance(model, fc.PSystem):
        return np.array([[0.0, -1.0], [-model.sound(u[0]) ** 2, 0.0]])
    if isinstance(model, fc.Remark2x2):
        return np.array([[0.0, 0.0], [u[1], 1.0 + u[0] + 2.0 * u[1]]])
    if isinstance(model, fc.Linear):
        return model.M.copy()
    return np.array([[model.fprime(float(u[0]))]])


def reference_average_matrix(model, uL, uR):
    amat = np.zeros((model.N, model.N))
    for theta, w in zip(fc.GL8_NODES, fc.GL8_WEIGHTS):
        amat += w * reference_jacobian_matrix(
            model, theta * uL + (1.0 - theta) * uR)
    return amat


def reference_min_characteristic(timeline, i, t0, x0, t1):
    model = timeline.model
    fld = timeline.slice_at(t0)
    fronts = fld.fronts
    pending = [ev for ev in timeline.events if t0 < ev.t <= t1]
    curve = dg.CharCurve(family=i, nodes=[(t0, x0)])
    t, x = t0, x0
    mode, carrier = dg._initial_anchor(model, i, fld, x0)

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
            assert carrier in fronts
            x_new = carrier.position(t_next)
            push(t_next, x_new, carrier.speed, carrier.id)
            t, x = t_next, x_new
        else:
            slope = carrier
            hit = reference_next_crossing(fronts, t, x, slope, t_next, crossed)
            if hit is not None:
                tc, xc, g = hit
                push(tc, xc, slope, None)
                t, x = tc, xc
                crossed.add(g.id)
                mode, carrier = dg._resolve_at_point(model, i, g.uL, [g])
                continue
            x_new = x + slope * (t_next - t)
            push(t_next, x_new, slope, None)
            t, x = t_next, x_new
        if ev_idx < len(pending) and t == pending[ev_idx].t:
            while ev_idx < len(pending) and pending[ev_idx].t == t:
                ev = pending[ev_idx]
                consumed = mode == "ride" and carrier.id in (
                    ev.incoming[0].id, ev.incoming[1].id)
                at_node = consumed or (mode == "free" and abs(ev.x - x) <= 1e-12)
                tk.apply_event(fronts, ev)
                if at_node:
                    x = ev.x
                    group = [f for f in fronts
                             if f.born_x == ev.x and f.born_t == ev.t]
                    left_state = group[0].uL if group else tk.field_at(
                        model, fld.left_state, fronts, t).state_at(ev.x - 1e-12)
                    mode, carrier = dg._resolve_at_point(model, i, left_state,
                                                         group)
                ev_idx += 1
            crossed = set()
    return curve


def _region_membership(rec, t, sections):
    x = rec.position(t)
    return any(a - dg._ON_TOL <= x <= b + dg._ON_TOL for a, b in sections)


def _boundary_transitions(rec, lo, hi, curve, inward_sign):
    """Side changes of a front against one boundary polyline over [lo, hi],
    from the sign of (front - curve) at lo, hi and the midpoints between
    curve nodes: a list of booleans, True = entered, False = exited.
    diagnostics._side_changes takes the same samples for many fronts at
    once."""
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
        now_in = s >= -dg._ON_TOL
        if prev_in is not None and now_in != prev_in:
            out.append(now_in)
        prev_in = now_in
    return out


def reference_region_balance_check(timeline, region):
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

    top_sections = region.sections(t1)
    bboxes = []
    for lc, rc in zip(region.left_curves, region.right_curves):
        for curve in (lc, rc):
            xs_c = [x for _, x in curve.nodes]
            bboxes.append((min(xs_c) - dg._ON_TOL, max(xs_c) + dg._ON_TOL))
    for fid in sorted(timeline.front_records):
        rec = timeline.front_records[fid]
        born = rec.born_t
        died = rec.died_t if rec.died_t is not None else timeline.t_end
        if born > t1 or died <= t0:
            continue
        w = timeline.wave_content(fid, i)
        if w == 0.0:
            continue
        if born <= t0 < died and _region_membership(rec, t0,
                                                    region.intervals):
            add(w, True)
        alive_top = born <= t1 and (rec.died_t is None or rec.died_t > t1)
        if alive_top and _region_membership(rec, t1, top_sections):
            add(w, False)
        lo, hi = max(born, t0), min(died, t1)
        if hi - lo <= 0:
            continue
        xa, xb = rec.position(lo), rec.position(hi)
        rec_lo, rec_hi = min(xa, xb) - 1e-6, max(xa, xb) + 1e-6
        curves = [c for pair in zip(region.left_curves, region.right_curves)
                  for c in pair]
        for curve, (blo, bhi), inward_sign in zip(curves, bboxes,
                                                  [1.0, -1.0] * len(bboxes)):
            if rec_hi < blo or rec_lo > bhi:
                continue
            for entered in _boundary_transitions(rec, lo, hi, curve,
                                                 inward_sign):
                add(w, entered)
    mu_i_mass = mu_ic_mass = p_sum = 0.0
    boundary_events = []
    for ev in timeline.events:
        if not t0 < ev.t <= t1:
            continue
        sections = region.sections(ev.t)
        if any(a - dg._ON_TOL <= ev.x <= b + dg._ON_TOL for a, b in sections):
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
    diff_split = max(abs(out_pos - in_pos), abs(out_neg - in_neg))
    atol = dg._BALANCE_ATOL
    return {
        "W_in": w_in_signed, "W_out": w_out_signed,
        "W_in_pos": in_pos, "W_in_neg": in_neg,
        "W_out_pos": out_pos, "W_out_neg": out_neg,
        "mu_I": mu_i_mass, "mu_IC": mu_ic_mass,
        "flux_residual": (w_out_signed - w_in_signed) - p_sum,
        "boundary_events": boundary_events,
        "ratio_signed": diff_signed / mu_i_mass if mu_i_mass > 0 else
        (0.0 if diff_signed <= atol else math.inf),
        "ratio_split": diff_split / mu_ic_mass if mu_ic_mass > 0 else
        (0.0 if diff_split <= atol else math.inf),
    }


def reference_events_jsonl(timeline):
    """events.jsonl through a recursive encoder of the event dicts; fileio
    writes each line from one template instead."""
    from fronttrack import fileio

    def value(v):
        if isinstance(v, float):
            return fileio.fmt(v)
        if isinstance(v, (list, tuple)):
            return "[" + ",".join(value(x) for x in v) + "]"
        if isinstance(v, dict):
            return "{" + ",".join(f"{json.dumps(k)}:{value(x)}"
                                  for k, x in v.items()) + "}"
        return json.dumps(v)

    lines = []
    for ev, dups in zip(timeline.events, timeline.ledger.dUps.tolist()):
        lines.append(value({
            "t": ev.t, "x": ev.x, "solver": ev.solver,
            "in": [{"family": f.family, "size": f.size, "speed": f.speed}
                   for f in ev.incoming],
            "out": [{"family": f.family, "size": f.size, "speed": f.speed}
                    for f in ev.outgoing],
            "I": ev.amount_I, "cancellation": ev.cancellation,
            "dV": ev.dV, "dQ": ev.dQ, "dUpsilon": dups}) + "\n")
    return "".join(lines)
