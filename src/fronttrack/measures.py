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
    return fc.total(b - a for a, b in sets)


# ---------------------------------------------------------------------------
# Glimm functionals
# ---------------------------------------------------------------------------


def total_variation_V(field):
    """V(t): sum of |size| over physical fronts plus nonphysical strengths."""
    return fc.total(abs(f.size) for f in field.fronts)


# glimm_Q never holds more than CHUNK pair weights at once, and sums them in
# numpy's pairwise tree down to nodes of at most LEAF weights, each of which
# is one np.add.reduce call; numpy itself splits only nodes over 128, so LEAF
# must be at least 128 for the leaves to keep numpy's bits.
LEAF = 2 ** 14
CHUNK = 2 ** 15


def glimm_Q(field):
    """Interaction potential: transversal approaching pairs plus the collapsed
    same-family double integral (ordered pairs, alpha = beta included).

    Each term sums a masked sequence of pair weights in row-major order over
    the pairs alpha < beta. The sequences are streamed in blocks and summed in
    numpy's pairwise tree, so Q has the bits of the dense m x m sum in O(m)
    memory."""
    m = len(field.fronts)
    if m < 2:
        return 0.0
    s, fam, sig, phys = q_columns(field.fronts)
    phys = phys > 0.0
    # pairs with fam_alpha > fam_beta: a front of family k is the beta of
    # every front of a larger family on its left
    n_trans = 0
    for k in np.unique(fam).tolist():
        n_trans += int(np.cumsum(fam > k)[fam == k].sum())
    n_same = sum(c * (c - 1) // 2
                 for c in np.unique(fam[phys], return_counts=True)[1].tolist())

    def upper(r, c):  # alpha left of beta
        return np.arange(c.start, c.stop) > np.arange(r.start, r.stop)[:, None]

    def transversal(r, c):  # |a|*|b| has the bits of |a*b|
        mask = upper(r, c) & (fam[r, None] > fam[None, c])
        return np.outer(s[r], s[c])[mask]

    def same(r, c):
        mask = (upper(r, c) & (fam[r, None] == fam[None, c])
                & phys[r, None] & phys[None, c])
        return (np.outer(s[r], s[c]) * np.abs(sig[r, None] - sig[None, c]))[mask]

    q1 = _tree_sum(n_trans, _pair_blocks(m, transversal))
    # ordered-pair sum with the 1/4 prefactor collapses to 1/2 over alpha < beta
    q2 = 0.5 * _tree_sum(n_same, _pair_blocks(m, same))
    return q1 + q2


def _pair_blocks(m, weights):
    """weights(rows, cols) of the pairs alpha < beta in row-major blocks of at
    most CHUNK pairs: runs of whole rows, or one row cut into columns."""
    r = 0
    while r < m - 1:
        width = m - 1 - r
        if width > CHUNK:
            for c in range(r + 1, m, CHUNK):
                yield weights(slice(r, r + 1), slice(c, min(c + CHUNK, m)))
            r += 1
        else:
            r_end = min(m - 1, r + CHUNK // width)
            yield weights(slice(r, r_end), slice(r + 1, m))
            r = r_end


def _tree_sum(n, blocks):
    """The sum of the n values the blocks yield, bit for bit as numpy sums
    them in one array: a node of more than LEAF values splits where numpy's
    pairwise sum splits it, at n//2 rounded down to a multiple of 8, and a
    leaf is one np.add.reduce over its values."""
    if n == 0:
        return 0.0
    pending = []  # values read from the blocks, not yet summed
    held = 0

    def take(k):
        nonlocal pending, held
        while held < k:
            pending.append(next(blocks))
            held += len(pending[-1])
        run = np.concatenate(pending) if len(pending) > 1 else pending[0]
        pending, held = [run[k:]], held - k
        return run[:k]

    def node(k):
        if k <= LEAF:
            return float(np.add.reduce(take(k)))
        half = k // 2 - (k // 2) % 8
        return node(half) + node(k - half)

    return node(n)


def q_columns(fronts):
    """glimm_Q's per-front data as one (4, m) float64 table: rows |size|,
    family, speed and the physical flag (1.0 or 0.0), a column per front."""
    return np.array([[abs(f.size) for f in fronts], [f.family for f in fronts],
                     [f.speed for f in fronts], [f.is_physical for f in fronts]],
                    dtype=float)


def splice_deltas(table, j, out):
    """(dV, dQ) of replacing the adjacent pair at columns j, j + 1 of a
    field's table by the outgoing fronts' table; the first four rows of each
    are the q_columns rows, and any further row is not read. Only pairs with
    a replaced front change Q, so one pass builds every such pair's signed
    weight: a row per window front (the incoming pair, then the outgoing
    fronts), a column per field front, then per outgoing front. A field
    front right of the window is the pair's beta, so its family difference
    is negated. Each block is copied into the layout of a pair-by-pair
    weight table before it is summed, so numpy sums in the same order and
    dQ keeps every bit; the cost is O(m) in numpy."""
    table, out = table[:4], out[:4]
    m = table.shape[1]
    size, fam, sig, phys = np.concatenate((table, out), axis=1)
    win = np.concatenate((table[:, j:j + 2], out), axis=1)[:, :, None]
    dfam = fam - win[1]
    dfam[:, j + 2:m] *= -1.0
    coef = (dfam > 0) + 0.5 * np.abs(sig - win[2]) * (dfam == 0) * phys * win[3]
    win[0, :2] *= -1.0  # incoming fronts leave Q, outgoing ones enter it
    coef *= size * win[0]
    inside = coef[:, m:].T.copy()[:, 2:]  # outgoing alpha, outgoing beta
    for r in range(len(inside)):
        inside[r, :r + 1] = 0.0
    dV = fc.total(out[0]) - table[0, j] - table[0, j + 1]
    dQ = (float(coef[:, :j].T.copy().sum()) + float(coef[:, j + 2:m].copy().sum())
          + float(inside.sum()) + float(coef[1, j]))  # minus the pair's weight
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


C0_MAX_DOUBLINGS = 20  # calibrate_c0 gives up above 2**20
AUDIT_REL_TOL = 1e-12  # largest rise of Upsilon, relative to Upsilon0


def calibrate_c0(dVs, dQs, v0, q0):
    """Smallest power-of-two constant making V + C0*Q nonincreasing over the
    recorded events; returns (C0, calibrated_ok)."""
    dVs = np.asarray(dVs)
    dQs = np.asarray(dQs)
    c0 = 1.0
    for _ in range(C0_MAX_DOUBLINGS + 1):
        slack = AUDIT_REL_TOL * max(v0 + c0 * q0, 1e-30)
        if len(dVs) == 0 or float((dVs + c0 * dQs).max()) <= slack:
            return c0, True
        c0 *= 2.0
    return c0, False


@dataclass
class GlimmLedger:
    """The run's Glimm bookkeeping: V and Q at t = 0 and after each event
    (Vs[k + 1] = Vs[k] + dVs[k]), Upsilon = V + C0*Q, and the C0 in force.
    The only home of these values and of dUpsilon = dV + C0*dQ."""

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

    def verdicts(self, amounts):
        """Per-event audit of Upsilon as two boolean arrays (monotone,
        strict), given each event's interaction amount I. monotone: dUpsilon
        is at most AUDIT_REL_TOL * Upsilon0. strict: where Q strictly
        decreases at a genuine interaction, Upsilon strictly decreases too
        (fails at C0 = 0)."""
        dups = self.dUps
        monotone = dups <= AUDIT_REL_TOL * max(self.upsilon0(), 1e-30)
        strict = ~((np.asarray(amounts, dtype=float) > 1e-12)
                   & (self.dQs < -1e-12) & (dups >= 0.0))
        return monotone, strict


def record_interaction_measures(events):
    """mu_I and mu_IC as space-time atoms over the recorded events."""
    mu_i = SpaceTimeAtoms.from_atoms([(e.t, e.x, e.amount_I) for e in events])
    mu_ic = SpaceTimeAtoms.from_atoms(
        [(e.t, e.x, e.amount_I + e.cancellation) for e in events])
    return mu_i, mu_ic


# ---------------------------------------------------------------------------
# wave measures
# ---------------------------------------------------------------------------


def front_wave_contents(model, uL, uR, eigs=None):
    """(l_tilde_1 . (uR - uL), ..., l_tilde_N . (uR - uL)) with the front's
    own averaged eigensystem eigs (a Front's stored one), computed here when
    not given; once for every family."""
    if uL == uR:
        return (0.0,) * model.N
    if eigs is None:
        eigs = fc.average_eigs(model, uL, uR)
    jump = [y - x for x, y in zip(uL, uR)]
    return tuple(fc.dot(row, jump) for row in eigs.left)


def front_wave_content(model, i, uL, uR, eigs=None):
    """l_tilde_i . (uR - uL) with the front's own averaged eigensystem."""
    return front_wave_contents(model, uL, uR, eigs)[i - 1]


def _field_contents(field, i, content):
    """The i-wave contents of a field's fronts in field order (see
    wave_measure_slice)."""
    if content is not None:
        return [content(f.id, i) for f in field.fronts]
    return [front_wave_content(field.model, i, f.uL, f.uR, f.eigs)
            for f in field.fronts]


def wave_measure_slice(field, i, content=None):
    """i-th wave measure v_i of a field: one atom per front at its position.
    content(front id, i), when given, supplies the contents (a Timeline's
    cached wave_content); else each front's own eigensystem gives them.

    Nonphysical fronts contribute through the same decomposition; their total
    is O(epsilon).
    """
    return AtomicMeasure1D.from_atoms(
        list(zip(field.xs, _field_contents(field, i, content))))


def nonphysical_total_strength(field):
    return fc.total(f.size for f in field.fronts if not f.is_physical)


def lambda_component_slice(field, i, curves):
    """i-th component of D_x lambda_i: classified jumps carry the eigenvalue
    jump weighted by their share of the jump decomposition, everything else
    the rate-weighted continuous content."""
    model = field.model
    on_curves = curve_front_ids(curves)
    atoms = []
    for f, x in zip(field.fronts, field.xs):
        if not f.is_physical:
            continue
        if f.id in on_curves:
            lam_r = model.point_eig(f.uR).lambdas[i - 1]
            lam_l = model.point_eig(f.uL).lambdas[i - 1]
            contents = [abs(w) for w in
                        front_wave_contents(model, f.uL, f.uR, f.eigs)]
            denom = fc.total(contents)
            if denom > 0.0:
                atoms.append((x, (lam_r - lam_l) * contents[i - 1] / denom))
                continue
            # no jump weight at this point: contribute through the
            # continuous branch instead
        sys = f.eigs if f.eigs is not None else fc.average_eigs(
            model, f.uL, f.uR)
        w = fc.dot(sys.left[i - 1], f.jump())
        atoms.append((x, sys.gnl_rates[i - 1] * w))
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

    def max_size(self):
        return max(abs(s) for s in self.segment_sizes)


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
            extend(ShockCurve(family=i), (0.0, f.born_x), None, f)

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
            extend(ShockCurve(family=i), node, ev_idx, f)

    t_end = timeline.t_end
    for fid in sorted(active):
        c = active[fid]
        c.nodes.append((t_end, timeline.front_records[fid].position(t_end)))
        c.node_events.append(None)
        c.survives = True
        done.append(c)

    kept = [c for c in done if c.max_size() >= eps1]
    kept.sort(key=lambda c: (c.t_minus, c.nodes[0][1]))
    return kept


def split_jump_cont(field, i, curves, content=None):
    """Split v_i into the part carried by the maximal shock fronts and the
    remainder; the two restrictions add back to v_i atom by atom. content
    is as in wave_measure_slice."""
    ids = curve_front_ids(curves)
    jump, cont = [], []
    for f, x, w in zip(field.fronts, field.xs, _field_contents(field, i, content)):
        (jump if f.id in ids else cont).append((x, w))
    # from_atoms sorts stably, so each part keeps v_i's order of its atoms
    return AtomicMeasure1D.from_atoms(jump), AtomicMeasure1D.from_atoms(cont)


# ---------------------------------------------------------------------------
# source measures
# ---------------------------------------------------------------------------


def source_measure_mu_i(timeline, i):
    """Signed atoms p_k = (outgoing i-strength) - (incoming i-strength) at
    every interaction point; strengths are l_tilde_i . (jump) over all fronts
    including nonphysical ones, so horizontal balances close exactly."""
    atoms = []
    for ev in timeline.events:
        w_out = fc.total(timeline.wave_content(f.id, i) for f in ev.outgoing)
        w_in = fc.total(timeline.wave_content(f.id, i) for f in ev.incoming)
        atoms.append((ev.t, ev.x, w_out - w_in))
    return SpaceTimeAtoms.from_atoms(atoms)


def source_measure_mu_jump(timeline, i, curves):
    """Signed atoms q_k at curve nodes: initiation (s), termination (-s'),
    merge (s - s' - s''), interaction with off-curve waves (s - s').

    Returns (atoms, node_report) where node_report lists the classification
    per node for auditing.
    """
    # per node: [w_in, w_out, event index, n_in, n_out]
    flux = {}
    for c in curves:
        nseg = len(c.segment_front_ids)
        for j, fid in enumerate(c.segment_front_ids):
            w = timeline.wave_content(fid, i)
            start_key = c.nodes[j]
            end_key = c.nodes[j + 1]
            rec = flux.setdefault(start_key, [0.0, 0.0, c.node_events[j], 0, 0])
            rec[1] += w  # outgoing at the segment's start node
            rec[4] += 1
            if not (c.survives and j == nseg - 1):
                rec = flux.setdefault(end_key, [0.0, 0.0, c.node_events[j + 1], 0, 0])
                rec[0] += w  # incoming at the segment's end node
                rec[3] += 1
    atoms = []
    report = []
    for key in sorted(flux):
        w_in, w_out, ev_idx, n_in, n_out = flux[key]
        q = w_out - w_in
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
    for f, x in zip(field.fronts, field.xs):
        total += (x_ref - x) * np.subtract(f.uR, f.uL)
    return total
