"""Bookkeeping functionals and measures over front fields and timelines.

Everything here is a post-processing pass over immutable data: the total
variation V, the interaction potential Q and functional V + C0*Q, interaction
amounts and the atomic interaction / interaction-cancellation measures, wave
measures and their jump/continuous split along maximal shock fronts, and the
per-family source measures concentrated on interaction points.

All sizes and weights use the unit-normalized convention s = l.(jump); see
riemann module notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import flux_core as fc


# ---------------------------------------------------------------------------
# atomic measures
# ---------------------------------------------------------------------------


@dataclass
class AtomicMeasure1D:
    """Finitely many weighted points on a line, ascending positions."""

    xs: np.ndarray
    ws: np.ndarray

    @classmethod
    def from_atoms(cls, atoms):
        if not atoms:
            return cls(np.empty(0), np.empty(0))
        xs = np.array([a[0] for a in atoms], dtype=float)
        ws = np.array([a[1] for a in atoms], dtype=float)
        order = np.argsort(xs, kind="stable")
        return cls(xs[order], ws[order])

    def __len__(self):
        return len(self.xs)

    def total_variation(self):
        return float(np.abs(self.ws).sum())

    def mass(self):
        return float(self.ws.sum())

    def _mask(self, sets):
        mask = np.zeros(len(self.xs), dtype=bool)
        for a, b in sets:
            mask |= (self.xs >= a) & (self.xs <= b)
        return mask

    def measure(self, sets, part="signed"):
        """Evaluate on a finite union of closed intervals.

        part: "signed" | "+" | "-" | "abs" (Hahn-Jordan pieces).
        """
        w = self.ws[self._mask(sets)]
        if part == "signed":
            return float(w.sum())
        if part == "+":
            return float(w[w > 0].sum())
        if part == "-":
            return float(-w[w < 0].sum())
        if part == "abs":
            return float(np.abs(w).sum())
        raise ValueError(f"unknown part {part!r}")

    def restrict_ids(self, keep_mask):
        return AtomicMeasure1D(self.xs[keep_mask], self.ws[keep_mask])


@dataclass
class SpaceTimeAtoms:
    """Weighted points in the (t, x) strip; weights signed unless stated."""

    ts: np.ndarray
    xs: np.ndarray
    ws: np.ndarray

    @classmethod
    def from_atoms(cls, atoms):
        if not atoms:
            return cls(np.empty(0), np.empty(0), np.empty(0))
        ts = np.array([a[0] for a in atoms], dtype=float)
        xs = np.array([a[1] for a in atoms], dtype=float)
        ws = np.array([a[2] for a in atoms], dtype=float)
        order = np.lexsort((xs, ts))
        return cls(ts[order], xs[order], ws[order])

    def __len__(self):
        return len(self.ts)

    def total_mass(self):
        return float(np.abs(self.ws).sum())

    def mass_in_time_window(self, t_lo, t_hi):
        m = (self.ts >= t_lo) & (self.ts <= t_hi)
        return float(np.abs(self.ws[m]).sum())

    def times_with_mass_above(self, threshold):
        out = {}
        for t, w in zip(self.ts, self.ws):
            out[t] = out.get(t, 0.0) + abs(w)
        return sorted(t for t, m in out.items() if m > threshold)


def interval_length(sets):
    return float(sum(b - a for a, b in sets))


# ---------------------------------------------------------------------------
# Glimm functionals
# ---------------------------------------------------------------------------


def total_variation_V(field):
    """V(t): sum of |size| over physical fronts plus nonphysical strengths."""
    return float(sum(abs(f.size) for f in field.fronts))


def glimm_Q(field):
    """Interaction potential: transversal approaching pairs plus the collapsed
    same-family double integral (ordered pairs, alpha = beta included)."""
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
    # ordered-pair sum with the 1/4 prefactor collapses to 1/2 over alpha < beta
    q2 = 0.5 * float((absprod * np.abs(sig[:, None] - sig[None, :]))[same].sum())
    return q1 + q2


def _q_columns(fronts):
    """|size|, family, speed and physical flag of each front, as arrays."""
    n = len(fronts)
    return (np.abs(np.fromiter([f.size for f in fronts], float, n)),
            np.fromiter([f.family for f in fronts], float, n),
            np.fromiter([f.speed for f in fronts], float, n),
            np.fromiter([f.is_physical for f in fronts], bool, n))


def _pair_weights(a, b):
    """glimm_Q's weight of every pair (alpha from a, beta from b) with alpha
    left of beta, as an |a| x |b| array of _q_columns entries."""
    s_a, fam_a, sig_a, phys_a = (c[:, None] for c in a)
    s_b, fam_b, sig_b, phys_b = b
    absprod = s_a * s_b
    same = (fam_a == fam_b) & phys_a & phys_b
    return np.where(fam_a > fam_b, absprod,
                    np.where(same, 0.5 * absprod * np.abs(sig_a - sig_b), 0.0))


def splice_deltas(fronts, j, outgoing):
    """(dV, dQ) of replacing the adjacent pair fronts[j], fronts[j + 1] by the
    outgoing list. Only pairs with a replaced front change Q: each incoming and
    outgoing front is weighed against the untouched fronts on either side, plus
    the pairs inside the window; the cost is O(len(fronts))."""
    f_left, f_right = fronts[j], fronts[j + 1]
    dV = sum(abs(f.size) for f in outgoing) - abs(f_left.size) - abs(f_right.size)
    cols = _q_columns(fronts)
    left = [c[:j] for c in cols]
    right = [c[j + 2:] for c in cols]
    window = [np.concatenate((c[j:j + 2], o))
              for c, o in zip(cols, _q_columns(outgoing))]
    sign = np.array([-1.0, -1.0] + [1.0] * len(outgoing))
    inside = np.triu(_pair_weights(window, window), 1)
    dQ = (float((_pair_weights(left, window) * sign).sum())
          + float((sign[:, None] * _pair_weights(window, right)).sum())
          + float(inside[2:, 2:].sum()) - float(inside[0, 1]))
    return float(dV), dQ


def interaction_amount(f1, f2):
    """Amount of interaction I(s', s'') and the cancellation increment for a
    colliding pair (f1 hits f2 from the left)."""
    if not f1.is_physical:
        return abs(f2.size) * f1.size, 0.0
    if not f2.is_physical:
        return abs(f1.size) * f2.size, 0.0
    s1, s2 = f1.size, f2.size
    if f1.family == f2.family:
        amount = abs(s1 * s2) * abs(f1.speed - f2.speed)
        cancellation = abs(s1) + abs(s2) - abs(s1 + s2)
        return amount, cancellation
    return abs(s1 * s2), 0.0


def calibrate_c0(dVs, dQs, v0, q0, rel_tol=1e-12, max_doublings=20):
    """Smallest power-of-two constant making V + C0*Q nonincreasing over the
    recorded events; returns (C0, calibrated_ok)."""
    dVs = np.asarray(dVs)
    dQs = np.asarray(dQs)
    c0 = 1.0
    for _ in range(max_doublings + 1):
        ups0 = v0 + c0 * q0
        if len(dVs) == 0 or float((dVs + c0 * dQs).max()) <= rel_tol * max(ups0, 1e-30):
            return c0, True
        c0 *= 2.0
    return c0, False


def glimm_deltas(event, c0, upsilon0, rel_tol=1e-12):
    """Per-event deltas plus the monotonicity/estimate audit verdict."""
    dV, dQ = event.dV, event.dQ
    dUps = dV + c0 * dQ
    monotone = dUps <= rel_tol * max(upsilon0, 1e-30)
    # strict clause: when Q strictly decreases at a genuine interaction, the
    # functional must strictly decrease too (fails when C0 is forced to 0)
    strict_ok = not (event.amount_I > 1e-12 and dQ < -1e-12 and dUps >= 0.0)
    return dV, dQ, dUps, {
        "monotone": bool(monotone),
        "strict": bool(strict_ok),
        "ok": bool(monotone and strict_ok),
    }


@dataclass
class GlimmLedger:
    """Time series of V, Q, Upsilon with per-event deltas; C0 in force."""

    ts: np.ndarray
    Vs: np.ndarray
    Qs: np.ndarray
    dVs: np.ndarray
    dQs: np.ndarray
    C0: float
    calibrated: bool

    @property
    def Upsilons(self):
        return self.Vs + self.C0 * self.Qs

    @property
    def dUps(self):
        return self.dVs + self.C0 * self.dQs

    def upsilon0(self):
        return float(self.Upsilons[0])


def record_interaction_measures(events):
    """mu_I and mu_IC as space-time atoms over the recorded events."""
    mu_i = SpaceTimeAtoms.from_atoms([(e.t, e.x, e.amount_I) for e in events])
    mu_ic = SpaceTimeAtoms.from_atoms(
        [(e.t, e.x, e.amount_I + e.cancellation) for e in events])
    return mu_i, mu_ic


# ---------------------------------------------------------------------------
# wave measures
# ---------------------------------------------------------------------------


def front_wave_content(model, i, uL, uR):
    """l_tilde_i . (uR - uL) with the front's own averaged eigensystem."""
    if np.array_equal(uL, uR):
        return 0.0
    sys = fc.average_eigs(model, uL, uR)
    return float(sys.left[i - 1] @ (uR - uL))


def wave_measure_slice(field, i, include_nonphysical=True):
    """i-th wave measure v_i of a field: one atom per front at its position.

    Nonphysical fronts contribute through the same decomposition; their total
    is O(epsilon).
    """
    atoms = []
    for f in field.fronts:
        if not include_nonphysical and not f.is_physical:
            continue
        atoms.append((f.x, front_wave_content(field.model, i, f.uL, f.uR)))
    return AtomicMeasure1D.from_atoms(atoms)


def nonphysical_total_strength(field):
    return float(sum(f.size for f in field.fronts if not f.is_physical))


def lambda_component_slice(field, i, curves):
    """i-th component of D_x lambda_i: classified jumps carry the eigenvalue
    jump weighted by their share of the jump decomposition, everything else
    the rate-weighted continuous content."""
    model = field.model
    on_curves = curve_front_ids(curves)
    atoms = []
    for f in field.fronts:
        if not f.is_physical:
            continue
        if f.id in on_curves:
            lam_r = float(model.point_eig(f.uR).lambdas[i - 1])
            lam_l = float(model.point_eig(f.uL).lambdas[i - 1])
            contents = [abs(front_wave_content(model, k, f.uL, f.uR))
                        for k in range(1, model.N + 1)]
            denom = sum(contents)
            if denom > 0.0:
                atoms.append((f.x, (lam_r - lam_l) * contents[i - 1] / denom))
                continue
            # no jump weight at this point: contribute through the
            # continuous branch instead
        sys = fc.average_eigs(model, f.uL, f.uR)
        w = float(sys.left[i - 1] @ (f.uR - f.uL))
        atoms.append((f.x, float(sys.gnl_rates[i - 1]) * w))
    return AtomicMeasure1D.from_atoms(atoms)


# ---------------------------------------------------------------------------
# maximal (eps0, eps1)-shock fronts
# ---------------------------------------------------------------------------


@dataclass
class ShockCurve:
    """Maximal polyline of same-family discontinuities with |s| >= eps0
    everywhere and >= eps1 somewhere; nodes at interaction points."""

    family: int
    nodes: list = field(default_factory=list)  # (t, x)
    node_events: list = field(default_factory=list)  # event index or None
    segment_sizes: list = field(default_factory=list)
    segment_front_ids: list = field(default_factory=list)
    survives: bool = False

    @property
    def t_minus(self):
        return self.nodes[0][0]

    @property
    def t_plus(self):
        return self.nodes[-1][0]

    def max_size(self):
        return max(abs(s) for s in self.segment_sizes)

    def active_segment(self, t):
        """Index of the segment alive at time t, or None."""
        for j in range(len(self.segment_front_ids)):
            t0, t1 = self.nodes[j][0], self.nodes[j + 1][0]
            if t0 <= t < t1 or (self.survives and j == len(self.segment_front_ids) - 1
                                and t == t1):
                return j
        return None

    def position(self, t):
        j = self.active_segment(t)
        if j is None:
            return None
        (t0, x0), (t1, x1) = self.nodes[j], self.nodes[j + 1]
        if t1 == t0:
            return x0
        return x0 + (x1 - x0) * (t - t0) / (t1 - t0)


def curve_front_ids(curves):
    ids = set()
    for c in curves:
        ids.update(c.segment_front_ids)
    return ids


def _qualifies(front_or_rec, i, eps0):
    return (front_or_rec.family == i
            and front_or_rec.kind in ("shock", "contact")
            and abs(front_or_rec.size) >= eps0)


def extract_shock_curves(timeline, i, eps0, eps1):
    """All maximal (eps0, eps1)-shock fronts of family i.

    At a node, incoming qualifying curves are matched to outgoing qualifying
    segments left to right, so the leftmost incoming curve continues through a
    merge and the others terminate there (selection rule iii).
    """
    if not 0 < eps0 <= eps1:
        raise ValueError("need 0 < eps0 <= eps1")
    active = {}
    done = []

    def start(node, ev_idx, front):
        c = ShockCurve(family=i)
        c.nodes.append(node)
        c.node_events.append(ev_idx)
        c.segment_sizes.append(front.size)
        c.segment_front_ids.append(front.id)
        active[front.id] = c

    def extend(c, node, ev_idx, front):
        c.nodes.append(node)
        c.node_events.append(ev_idx)
        c.segment_sizes.append(front.size)
        c.segment_front_ids.append(front.id)
        active[front.id] = c

    def close(c, node, ev_idx):
        c.nodes.append(node)
        c.node_events.append(ev_idx)
        done.append(c)

    for f in timeline.initial_field.fronts:
        if _qualifies(f, i, eps0):
            start((0.0, f.x), None, f)

    for ev_idx, ev in enumerate(timeline.events):
        ins = [f for f in ev.incoming if f.id in active]
        outs = [f for f in ev.outgoing if _qualifies(f, i, eps0)]
        if not ins and not outs:
            continue
        node = (ev.t, ev.x)
        paired = min(len(ins), len(outs))
        for m in range(paired):
            c = active.pop(ins[m].id)
            extend(c, node, ev_idx, outs[m])
        for f in ins[paired:]:
            close(active.pop(f.id), node, ev_idx)
        for f in outs[paired:]:
            start(node, ev_idx, f)

    t_end = timeline.t_end
    for fid in sorted(active):
        c = active[fid]
        rec = timeline.front_records[fid]
        x_end = rec.born_x + rec.speed * (t_end - rec.born_t)
        c.nodes.append((t_end, x_end))
        c.node_events.append(None)
        c.survives = True
        done.append(c)

    kept = [c for c in done if c.max_size() >= eps1]
    kept.sort(key=lambda c: (c.t_minus, c.nodes[0][1]))
    return kept


def split_jump_cont(field, i, curves):
    """Split v_i into the part carried by the maximal shock fronts and the
    remainder; the two restrictions add back to v_i atom by atom."""
    ids = curve_front_ids(curves)
    atoms = []
    member = []
    for f in field.fronts:
        atoms.append((f.x, front_wave_content(field.model, i, f.uL, f.uR)))
        member.append(f.id in ids)
    vi = AtomicMeasure1D.from_atoms(atoms)
    # from_atoms applies a stable sort by position; replicate it on the mask
    xs = np.array([a[0] for a in atoms]) if atoms else np.empty(0)
    order = np.argsort(xs, kind="stable")
    member = np.array(member, dtype=bool)[order] if atoms else np.empty(0, dtype=bool)
    v_jump = vi.restrict_ids(member)
    v_cont = vi.restrict_ids(~member)
    return v_jump, v_cont


# ---------------------------------------------------------------------------
# source measures
# ---------------------------------------------------------------------------


def source_measure_mu_i(timeline, i):
    """Signed atoms p_k = (outgoing i-strength) - (incoming i-strength) at
    every interaction point; strengths are l_tilde_i . (jump) over all fronts
    including nonphysical ones, so horizontal balances close exactly."""
    atoms = []
    for ev in timeline.events:
        w_out = sum(timeline.wave_content(f.id, i) for f in ev.outgoing)
        w_in = sum(timeline.wave_content(f.id, i) for f in ev.incoming)
        atoms.append((ev.t, ev.x, w_out - w_in))
    return SpaceTimeAtoms.from_atoms(atoms)


def source_measure_mu_jump(timeline, i, curves):
    """Signed atoms q_k at curve nodes: initiation (s), termination (-s'),
    merge (s - s' - s''), interaction with off-curve waves (s - s').

    Returns (atoms, node_report) where node_report lists the classification
    per node for auditing.
    """
    flux = {}
    for c in curves:
        nseg = len(c.segment_front_ids)
        for j, fid in enumerate(c.segment_front_ids):
            w = timeline.wave_content(fid, i)
            start_key = c.nodes[j]
            end_key = c.nodes[j + 1]
            rec = flux.setdefault(start_key, [0.0, 0.0, c.node_events[j]])
            rec[1] += w  # outgoing at the segment's start node
            if not (c.survives and j == nseg - 1):
                rec = flux.setdefault(end_key, [0.0, 0.0, c.node_events[j + 1]])
                rec[0] += w  # incoming at the segment's end node
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
    return SpaceTimeAtoms.from_atoms(atoms), report


def mu_ICJ(timeline, i, curves):
    """mu_IC + |mu_jump_i| as one atomic measure (atoms merged by point)."""
    _, mu_ic = record_interaction_measures(timeline.events)
    mu_jump, _ = source_measure_mu_jump(timeline, i, curves)
    acc = {}
    for t, x, w in zip(mu_ic.ts, mu_ic.xs, mu_ic.ws):
        acc[(t, x)] = acc.get((t, x), 0.0) + abs(w)
    for t, x, w in zip(mu_jump.ts, mu_jump.xs, mu_jump.ws):
        acc[(t, x)] = acc.get((t, x), 0.0) + abs(w)
    atoms = [(t, x, w) for (t, x), w in acc.items() if w != 0.0]
    return SpaceTimeAtoms.from_atoms(atoms)


# ---------------------------------------------------------------------------
# conservation drift
# ---------------------------------------------------------------------------


def mass_relative(field, x_ref):
    """Integral of (u - u(-inf)) over (-inf, x_ref]; finite for fields whose
    fronts all sit left of x_ref."""
    total = np.zeros(field.model.N)
    for f in field.fronts:
        total += (x_ref - f.x) * (f.uR - f.uL)
    return total
