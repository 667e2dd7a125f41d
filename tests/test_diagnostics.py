import math

import numpy as np
import pytest

from fronttrack import cli
from fronttrack import diagnostics as dg
from fronttrack import flux_core as fc
from fronttrack import measures as ms
from fronttrack import riemann as rm
from fronttrack import tracker as tk

from conftest import (corpus_run, quick_run, reference_min_characteristic,
                      reference_next_crossing, reference_positive_window,
                      reference_region_balance_check, replay_frames,
                      replay_slice_at)


def scan_position(curve, t):
    """Reference CharCurve.position: linear scan over the segments."""
    nodes = curve.nodes
    if t <= nodes[0][0]:
        return nodes[0][1]
    for (t0, x0), (t1, x1) in zip(nodes[:-1], nodes[1:]):
        if t0 <= t <= t1 and t1 > t0:
            return x0 + (x1 - x0) * (t - t0) / (t1 - t0)
    return nodes[-1][1]


def reference_triangle_states(timeline, a, b, eta, t_lo, t_hi):
    """Reference state collection: one incremental replay for the triangle,
    and list deduplication with ==."""
    states = []
    if t_hi > t_lo:
        for fld, frame_hi in replay_frames(timeline, t_hi):
            lo = max(fld.time, t_lo)
            hi = min(frame_hi, t_hi)
            if hi <= lo:
                continue
            xs = fld.xs
            speeds = [f.speed for f in fld.fronts]
            chain = [fld.left_state] + [f.uR for f in fld.fronts]
            for j, u in enumerate(chain):
                win = (lo, hi)
                if j > 0:
                    xj, sj = xs[j - 1], speeds[j - 1]
                    gl = (b - eta * win[0]) - (xj + sj * (win[0] - fld.time))
                    gh = (b - eta * win[1]) - (xj + sj * (win[1] - fld.time))
                    win = reference_positive_window(gl, gh, *win)
                    if win is None:
                        continue
                if j < len(xs):
                    xj, sj = xs[j], speeds[j]
                    gl = (xj + sj * (win[0] - fld.time)) - (a + eta * win[0])
                    gh = (xj + sj * (win[1] - fld.time)) - (a + eta * win[1])
                    win = reference_positive_window(gl, gh, *win)
                    if win is None:
                        continue
                if win[1] - win[0] <= 1e-15:
                    continue
                states.append(u)
    uniq = []
    for u in states:
        if not any(u == v for v in uniq):
            uniq.append(u)
    return uniq


def reference_tame_check(timeline, triangles):
    """Reference tame_oscillation_check, triangle by triangle."""
    rows = []
    worst = 0.0
    for tri in triangles:
        a, b, tau = float(tri["a"]), float(tri["b"]), float(tri["tau"])
        eta = float(tri.get("eta", dg.default_eta_bar(timeline.model)))
        t_hi = min((b - a) / (2.0 * eta), timeline.t_end)
        uniq = reference_triangle_states(timeline, a, b, eta, tau, t_hi)
        osc = 0.0
        for p in range(len(uniq)):
            for q in range(p + 1, len(uniq)):
                osc = max(osc, fc.norm(np.subtract(uniq[p], uniq[q]).tolist()))
        base = replay_slice_at(timeline, tau)
        tv = fc.total(fc.norm(f.jump())
                      for f, x in zip(base.fronts, base.xs) if a < x < b)
        ratio = osc / tv if tv > 0 else (0.0 if osc == 0.0 else math.inf)
        worst = max(worst, ratio)
        rows.append({"a": a, "b": b, "tau": tau, "eta": eta, "osc": osc,
                     "tv_base": tv, "ratio": ratio})
    return {"rows": rows, "C_prime": worst}


class TestCharCurvePosition:
    @staticmethod
    def queries(curve):
        ts = [t for t, _ in curve.nodes]
        qs = list(ts)
        qs += [0.5 * (t0 + t1) for t0, t1 in zip(ts[:-1], ts[1:])]
        qs += [ts[0] - 1.0, ts[0] - 1e-12, ts[-1] + 1e-12, ts[-1] + 1.0]
        return qs

    def test_matches_scan_on_characteristics(self, sawtooth_timeline,
                                             remark_timeline):
        curves = [dg.min_characteristic(sawtooth_timeline, 1, 0.0, x, 2.0)
                  for x in (-0.9, -0.4, 0.1, 0.6)]
        curves += [dg.min_characteristic(remark_timeline, i, 0.2, x, 1.5)
                   for i in (1, 2) for x in (-0.6, 0.0, 0.5)]
        for c in curves:
            assert len(c.nodes) > 2
            for t in self.queries(c):
                assert c.position(t) == scan_position(c, t)

    def test_repeated_node_times(self):
        # zero-length segments at t = 1 and a triple node at t = 2: a query at
        # a shared node interpolates from the left, as the scan does
        c = dg.CharCurve(family=1, nodes=[
            (0.0, 0.1), (1.0, 0.30000000000000004), (1.0, 0.7), (1.5, 0.9),
            (2.0, 1.3), (2.0, 1.7), (2.0, 2.1), (3.0, 2.2)])
        for t in self.queries(c) + [1.0, 2.0, 0.999999, 2.000001]:
            assert c.position(t) == scan_position(c, t)
        assert c.position(math.nan) == scan_position(c, math.nan) == 2.2
        assert c.position(2.0) == scan_position(c, 2.0) == 0.9 + 0.4

    def test_single_node(self):
        c = dg.CharCurve(family=1, nodes=[(0.5, -0.25)])
        for t in (0.0, 0.5, 1.0):
            assert c.position(t) == scan_position(c, t) == -0.25

    def test_grown_curve_refreshes_times(self):
        c = dg.CharCurve(family=1, nodes=[(0.0, 0.0), (1.0, 1.0)])
        assert c.position(1.5) == 1.0
        c.nodes.append((2.0, 3.0))
        assert c.position(1.5) == scan_position(c, 1.5) == 2.0


class TestMinCharacteristic:
    def test_constant_state_straight_line(self):
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                   "values": [[0.7], [0.7]]}, 0.1, 2.0)
        c = dg.min_characteristic(tl, 1, 0.0, -1.0, 2.0)
        assert c.position(2.0) == pytest.approx(-1.0 + 0.7 * 2.0)
        assert all(s == pytest.approx(0.7) for s in c.slopes)

    def test_impinges_then_rides_shock(self):
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [1.0],
                                   "values": [[1.0], [0.0]]}, 0.1, 4.0)
        c = dg.min_characteristic(tl, 1, 0.0, 0.0, 4.0)
        # slope 1 catches the speed-0.5 shock at t = 2, x = 2, then rides
        assert c.position(2.0) == pytest.approx(2.0)
        assert c.position(4.0) == pytest.approx(3.0)
        assert c.rode[-1] is not None

    def test_remark_family1_zero_slope(self, remark_timeline):
        c = dg.min_characteristic(remark_timeline, 1, 0.0, 0.37, 1.5)
        for slope in c.slopes:
            assert abs(slope) <= 1e-10 or slope == 0.0
        assert c.position(1.5) == pytest.approx(0.37, abs=1e-9)

    def test_slopes_admissible_on_every_segment(self, sawtooth_timeline):
        tl = sawtooth_timeline
        c = dg.min_characteristic(tl, 1, 0.0, -0.4, 2.0)
        for (t0, x0), (t1, _), slope in zip(c.nodes, c.nodes[1:], c.slopes):
            if t1 <= t0:
                continue
            tm = 0.5 * (t0 + t1)
            fld = tl.slice_at(tm)
            xm = x0 + slope * (tm - t0)
            lam_plus = tl.model.fprime(float(fld.state_at(xm + 1e-9)[0]))
            lam_minus = tl.model.fprime(float(fld.state_at(xm - 1e-9)[0]))
            assert lam_plus - 1e-9 <= slope <= lam_minus + 1e-9


class TestRegionBalance:
    def test_quiet_region_exact(self):
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                   "values": [[1.0], [0.0]]}, 0.1, 2.0)
        region = dg.make_region(tl, 1, 0.1, 1.0, [(-2.0, 2.0)])
        rep = dg.region_balance_check(tl, region)
        assert rep["mu_I"] == 0.0
        assert abs(rep["W_out"] - rep["W_in"]) <= 1e-12
        assert rep["flux_residual"] == pytest.approx(0.0, abs=1e-12)

    def test_merge_region_balances(self, burgers_merge_timeline):
        tl = burgers_merge_timeline
        region = dg.make_region(tl, 1, 0.5, 3.0, [(-2.0, 2.0)])
        rep = dg.region_balance_check(tl, region)
        assert rep["mu_I"] == pytest.approx(0.125)
        assert abs(rep["W_out"] - rep["W_in"]) <= 1e-12  # scalar additivity
        assert rep["ratio_signed"] == pytest.approx(0.0, abs=1e-9)

    def test_random_regions_controlled(self, sawtooth_timeline):
        rng = np.random.default_rng(5)
        worst = 0.0
        checked = 0
        for _ in range(25):
            t0 = float(rng.uniform(0.0, 1.2))
            tau = float(rng.uniform(0.3, 0.6))
            a = float(rng.uniform(-1.5, 0.5))
            b = a + float(rng.uniform(0.5, 1.5))
            region = dg.make_region(sawtooth_timeline, 1, t0, tau, [(a, b)])
            rep = dg.region_balance_check(sawtooth_timeline, region)
            if rep["mu_I"] > 1e-12:
                worst = max(worst, rep["ratio_signed"])
            else:
                assert abs(rep["W_out"] - rep["W_in"]) <= 1e-9
            assert abs(rep["flux_residual"]) <= 1e-9 + 2.0 * len(rep["boundary_events"])
            checked += 1
        assert checked == 25
        assert math.isfinite(worst)

    def test_multi_interval_region(self, sawtooth_timeline):
        region = dg.make_region(sawtooth_timeline, 1, 0.2, 0.5,
                                [(-1.2, -0.3), (0.1, 1.2)])
        rep = dg.region_balance_check(sawtooth_timeline, region)
        assert math.isfinite(rep["ratio_signed"]) or rep["mu_I"] == 0.0


class TestPositiveDecay:
    def test_centered_fan_density(self, burgers_fan_timeline):
        # exact solution u = x/t inside the fan: [v]^+([a,b]) ~ (b-a)/t
        tl = burgers_fan_timeline
        for t in (0.5, 1.0, 2.0):
            fan_lo, fan_hi = 0.0, t  # fan spans speeds [0, 1]
            w = fan_hi - fan_lo
            sets = [[(fan_lo + 0.2 * w, fan_lo + 0.55 * w)],
                    [(fan_lo + 0.3 * w, fan_lo + 0.9 * w)],
                    [(fan_lo + 0.1 * w, fan_lo + 0.35 * w),
                     (fan_lo + 0.5 * w, fan_lo + 0.8 * w)]]
            rep = dg.positive_decay_check(tl, 1, 0.0, t, sets)
            assert rep["q_drop"] == pytest.approx(0.0, abs=1e-12)
            assert rep["C_required"] <= 1.0 + 8.0 * tl.config.epsilon

    def test_pure_shock_zero_positive_mass(self):
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                   "values": [[1.0], [0.0]]}, 0.1, 2.0)
        rep = dg.positive_decay_check(tl, 1, 0.0, 1.0, [[(-3.0, 3.0)]])
        assert rep["C_required"] == 0.0

    def test_sawtooth_with_q_drop(self, sawtooth_timeline):
        rep = dg.positive_decay_check(sawtooth_timeline, 1, 0.0, 1.8,
                                      [[(-2.0, 2.0)], [(-0.5, 0.5)]])
        assert rep["q_drop"] >= 0.0
        assert math.isfinite(rep["C_required"])


class TestDecayEstimate:
    def test_quiescent_fan_bound(self, burgers_fan_timeline):
        tl = burgers_fan_timeline
        rep = dg.decay_estimate_check(tl, 1, 1.0, 0.5,
                                      [[(0.2, 0.8)], [(0.05, 0.95)]])
        assert rep["icj_window_mass"] == 0.0
        # fan density 1/t = 1 against L(B)/tau = 2 L(B)
        assert rep["C_required"] <= 1.0

    def test_disjoint_sets_zero(self, burgers_fan_timeline):
        rep = dg.decay_estimate_check(burgers_fan_timeline, 1, 1.0, 0.5,
                                      [[(5.0, 6.0)]])
        assert rep["C_required"] == 0.0

    def test_merge_straddle_dominated_by_icj(self, burgers_merge_timeline):
        tl = burgers_merge_timeline
        t_ev = tl.events[0].t
        rep = dg.decay_estimate_check(tl, 1, t_ev + 0.25, 0.5, [[(-3.0, 3.0)]])
        assert rep["icj_window_mass"] > 0.0
        assert math.isfinite(rep["C_required"])


class TestWaveContentCache:
    def test_decay_checks_read_cached_contents(self, remark_timeline,
                                               monkeypatch):
        # once every front's contents are cached, the two decay checks
        # need no averaged eigensystem, nonphysical fronts included
        src = remark_timeline
        tl = tk.Timeline(src.model, src.config, src.initial_field, src.events,
                         src.front_records, src.ledger, src.t_end)
        expect = (dg.positive_decay_check(tl, 2, 0.2, 1.2, [[(-1.0, 1.0)]]),
                  dg.decay_estimate_check(tl, 2, 1.2, 0.3, [[(-1.0, 1.0)]]))
        assert any(not f.is_physical for f in tl.slice_at(1.2).fronts)
        calls = []
        average_eigs = fc.average_eigs
        monkeypatch.setattr(fc, "average_eigs",
                            lambda *args: calls.append(args) or average_eigs(*args))
        assert (dg.positive_decay_check(tl, 2, 0.2, 1.2, [[(-1.0, 1.0)]]),
                dg.decay_estimate_check(tl, 2, 1.2, 0.3, [[(-1.0, 1.0)]])) == expect
        assert calls == []


class TestTameOscillation:
    def test_constant_data(self):
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                   "values": [[0.4], [0.4]]}, 0.1, 2.0)
        rep = dg.tame_oscillation_check(tl, [{"a": -1.0, "b": 1.0, "tau": 0.0}])
        assert rep["rows"][0]["osc"] == 0.0
        assert rep["C_prime"] == 0.0

    def test_single_shock_ratio_at_most_one(self):
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                   "values": [[1.0], [0.0]]}, 0.1, 2.0)
        rep = dg.tame_oscillation_check(tl, [{"a": -2.0, "b": 2.0, "tau": 0.0}])
        row = rep["rows"][0]
        assert row["osc"] == pytest.approx(1.0)
        assert row["tv_base"] == pytest.approx(1.0)
        assert row["ratio"] <= 1.0 + 1e-12

    def test_sawtooth_random_triangles_bounded(self, sawtooth_timeline):
        rng = np.random.default_rng(8)
        tris = []
        for _ in range(100):
            a = float(rng.uniform(-2.5, 1.5))
            b = a + float(rng.uniform(0.5, 2.5))
            tau = float(rng.uniform(0.0, 1.5))
            tris.append({"a": a, "b": b, "tau": tau})
        rep = dg.tame_oscillation_check(sawtooth_timeline, tris)
        finite = [r["ratio"] for r in rep["rows"] if math.isfinite(r["ratio"])]
        assert finite, "all triangles degenerate"
        assert math.isfinite(rep["C_prime"])


class TestTameMatchesReference:
    @pytest.mark.parametrize("fixture", ["remark_timeline", "sawtooth_timeline"])
    def test_rows_bit_identical(self, fixture, request):
        tl = request.getfixturevalue(fixture)
        eta = dg.default_eta_bar(tl.model)
        rng = np.random.default_rng(31)
        tris = []
        for _ in range(50):
            a = float(rng.uniform(-2.0, 1.0))
            b = a + float(rng.uniform(0.2, 3.0))
            t_hi = min((b - a) / (2.0 * eta), tl.t_end)
            tau = float(rng.uniform(0.0, 1.0)) * t_hi
            tris.append({"a": a, "b": b, "tau": tau})
        # an explicit slope and a triangle whose apex is below tau
        tris.append({"a": -1.0, "b": 1.0, "tau": 0.1, "eta": 0.7})
        tris.append({"a": 0.0, "b": 0.05, "tau": 0.5})
        rep = dg.tame_oscillation_check(tl, tris)
        ref = reference_tame_check(tl, tris)
        assert rep["rows"] == ref["rows"]
        assert rep["C_prime"] == ref["C_prime"]
        assert sum(r["osc"] > 0.0 for r in rep["rows"]) >= 25

    def test_states_match_reference_order(self, remark_timeline):
        tl = remark_timeline
        eta = dg.default_eta_bar(tl.model)
        tris = [(-1.5, 1.5, 0.0, eta, min(1.5 / eta, tl.t_end)),
                (-1.0, 1.2, 0.2, eta, min(1.1 / eta, tl.t_end))]
        got = dg._triangle_states(tl, tris)
        for (a, b, t_lo, eta, t_hi), states in zip(tris, got):
            ref = reference_triangle_states(tl, a, b, eta, t_lo, t_hi)
            assert len(states) == len(ref) > 2
            assert all(u is v for u, v in zip(states, ref))

    @pytest.mark.parametrize("fixture", ["remark_timeline", "sawtooth_timeline"])
    def test_states_match_reference_on_random_triangles(self, fixture,
                                                        request):
        # one sweep skips the (triangle, region) pairs met in earlier
        # frames; every triangle still lists the replay's states in order
        tl = request.getfixturevalue(fixture)
        eta = dg.default_eta_bar(tl.model)
        rng = np.random.default_rng(37)
        tris = []
        for _ in range(30):
            a = float(rng.uniform(-2.0, 1.0))
            b = a + float(rng.uniform(0.5, 3.0))
            t_hi = min((b - a) / (2.0 * eta), tl.t_end)
            tris.append((a, b, float(rng.uniform(0.0, 0.5)) * t_hi, eta, t_hi))
        got = dg._triangle_states(tl, tris)
        assert sum(len(states) > 2 for states in got) >= 10
        for (a, b, t_lo, eta, t_hi), states in zip(tris, got):
            ref = reference_triangle_states(tl, a, b, eta, t_lo, t_hi)
            assert len(states) == len(ref)
            assert all(u is v for u, v in zip(states, ref))

    def test_signed_zero_states_count_once(self):
        # the left state is -0.0 and the right state 0.0: one state, as ==
        # counts them, and the first one met is kept
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [-0.5, 0.5],
                                   "values": [[-0.0], [0.5], [0.0]]}, 0.1, 2.0)
        assert np.signbit(tl.initial_field.left_state[0])
        eta = dg.default_eta_bar(tl.model)
        tri = (-3.0, 3.0, 0.0, eta, min(3.0 / eta, tl.t_end))
        states = dg._triangle_states(tl, [tri])[0]
        ref = reference_triangle_states(tl, *tri[:2], eta, tri[2], tri[4])
        zeros = [u for u in states if u[0] == 0.0]
        assert len(zeros) == 1 and np.signbit(zeros[0][0])
        assert len(states) == len(ref)
        assert all(u is v for u, v in zip(states, ref))


def assert_states_match_reference(tl, tris):
    got = dg._triangle_states(tl, tris)
    assert len(got) == len(tris)
    for (a, b, t_lo, eta, t_hi), states in zip(tris, got):
        ref = reference_triangle_states(tl, a, b, eta, t_lo, t_hi)
        assert len(states) == len(ref)
        assert all(u is v for u, v in zip(states, ref))
    return got


def random_triangles(tl, seed, count):
    eta = dg.default_eta_bar(tl.model)
    rng = np.random.default_rng(seed)
    tris = []
    for _ in range(count):
        a = float(rng.uniform(-2.0, 1.0))
        b = a + float(rng.uniform(0.2, 3.0))
        t_hi = min((b - a) / (2.0 * eta), tl.t_end)
        tris.append((a, b, float(rng.uniform(0.0, 0.6)) * t_hi, eta, t_hi))
    return tris


class TestBatchedSweep:
    """The sweep's array passes of at most CHUNK cells list each
    triangle's states in the replay's order, object for object, however
    the cells fall into passes."""

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("fixture", ["remark_timeline", "tie_timeline"])
    def test_frames_split_across_passes(self, fixture, chunk, request,
                                        monkeypatch):
        tl = request.getfixturevalue(fixture)
        # some frame's rows are longer than a pass: more than chunk regions
        assert max(len(tl.order_at(t))
                   for t in [0.0, *tl.event_times()]) + 1 > chunk
        monkeypatch.setattr(dg, "CHUNK", chunk)
        got = assert_states_match_reference(tl, random_triangles(tl, 41, 8))
        assert sum(len(states) > 1 for states in got) >= 4

    def test_apex_below_tau(self, remark_timeline):
        tl = remark_timeline
        eta = dg.default_eta_bar(tl.model)
        tris = random_triangles(tl, 43, 4)
        # apex (b - a) / (2 eta) below tau, between triangles that meet
        # states, and one whose apex is tau exactly
        tris.insert(1, (0.0, 0.05, 0.5, eta, min(0.05 / (2.0 * eta), tl.t_end)))
        tris.append((-1.0, 1.0, 1.0 / eta, eta, 1.0 / eta))
        got = assert_states_match_reference(tl, tris)
        assert got[1] == [] and got[-1] == []
        assert all(got[k] for k in (0, 2, 3, 4))

    def test_no_fronts(self):
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                   "values": [[0.4], [0.4]]}, 0.1, 2.0)
        assert tl.front_records == {} and tl.events == []
        eta = dg.default_eta_bar(tl.model)
        tris = [(-1.0, 1.0, 0.0, eta, min(1.0 / eta, 2.0)),
                (0.0, 0.05, 0.5, eta, 0.05 / (2.0 * eta))]
        got = assert_states_match_reference(tl, tris)
        assert got == [[tl.initial_field.left_state], []]
        assert got[0][0] is tl.initial_field.left_state

    def test_three_shock_tie(self, tie_timeline):
        # the tied events share one time, so one frame ends at both
        tl = tie_timeline
        assert len({ev.t for ev in tl.events}) < len(tl.events)
        eta = dg.default_eta_bar(tl.model)
        tris = [(-2.0, 2.0, 0.0, eta, min(2.0 / eta, tl.t_end)),
                (0.5, 2.5, 0.3, eta, min(1.0 / eta, tl.t_end)),
                (1.0, 2.0, 0.375, eta, min(0.5 / eta, tl.t_end))]
        tris += random_triangles(tl, 47, 6)
        got = assert_states_match_reference(tl, tris)
        assert len(got[0]) >= 3

    def test_memory_bounded_on_640_samples(self, monkeypatch):
        # a 640-sample sawtooth: 640 fronts at t = 0 and 539 frames; the
        # sweep holds the arrays of one pass, not of all its cells
        import tracemalloc

        tl = quick_run("burgers", {"kind": "profile", "name": "sawtooth",
                                   "samples": 640,
                                   "params": {"teeth": 6, "amplitude": 0.3}},
                       epsilon=0.02, t_end=2.0)
        tris = random_triangles(tl, 53, 20)
        tris.append((-1.5, 1.5, 0.0, tris[0][3], tl.t_end))
        tl.record_columns()
        tl.event_times()
        passes = []
        sweep = dg._sweep

        def counted(*args):
            for keys in sweep(*args):
                passes.append(len(keys))
                yield keys

        monkeypatch.setattr(dg, "_sweep", counted)
        tracemalloc.start()
        try:
            dg._triangle_states(tl, tris)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(passes) >= 10
        assert peak < 2 * 2 ** 20, f"sweep peak {peak / 2 ** 20:.2f} MiB"


@pytest.fixture(scope="module")
def psystem_corpus_timeline():
    return corpus_run("p-system", 0)


@pytest.fixture(scope="module")
def cubic_corpus_timeline():
    return corpus_run("cubic", 0)


class TestNextCrossingMatchesFullScan:
    """The nearest-front crossing search returns the full scan's crossing,
    front object included, on every call of seeded characteristic walks."""

    @staticmethod
    def starts(tl, seed):
        rng = np.random.default_rng(seed)
        xs = [f.born_x for f in tl.front_records.values()]
        lo, hi = min(xs) - 0.5, max(xs) + 0.5
        out = []
        for i in range(1, tl.model.N + 1):
            for _ in range(40):
                out.append((i, float(rng.uniform(0.0, 0.9)) * tl.t_end,
                            float(rng.uniform(lo, hi))))
            # event points: the walk starts on a node of the front field
            for ev in tl.events[::max(1, len(tl.events) // 40)]:
                if ev.t < tl.t_end:
                    out.append((i, ev.t, ev.x))
        return out

    @pytest.mark.parametrize("fixture", [
        "remark_timeline", "sawtooth_timeline", "burgers_merge_timeline",
        "psystem_corpus_timeline", "cubic_corpus_timeline"])
    def test_same_crossing_as_full_scan(self, fixture, request, monkeypatch):
        tl = request.getfixturevalue(fixture)
        pairs = []
        nearest = dg._next_crossing

        def both(fronts, t, x, slope, t_hi, skip):
            got = nearest(fronts, t, x, slope, t_hi, skip)
            pairs.append((got, reference_next_crossing(fronts, t, x, slope,
                                                       t_hi, skip)))
            return got

        monkeypatch.setattr(dg, "_next_crossing", both)
        for i, t0, x0 in self.starts(tl, 17):
            dg.min_characteristic(tl, i, t0, x0, tl.t_end)
        hits = 0
        for got, ref in pairs:
            if ref is None:
                assert got is None
                continue
            hits += 1
            assert got[0] == ref[0] and got[1] == ref[1]
            assert got[2] is ref[2]
        assert len(pairs) >= 40 and hits >= 5

    @staticmethod
    def seeded_field(rng):
        """Fronts at time t in field order, some at one point (speeds
        ascending there, as in a fan), and a t_hi before any two meet."""
        t = float(rng.uniform(0.0, 2.0))
        xs = np.round(rng.uniform(-1.0, 1.0, int(rng.integers(0, 12))), 1)
        rows = sorted((float(x), float(rng.uniform(-2.0, 2.0))) for x in xs)
        fronts = []
        for j, (x, speed) in enumerate(rows):
            born_t = float(rng.uniform(0.0, t))
            fronts.append(rm.Front(family=1, speed=speed, uL=None, uR=None,
                                   size=0.0, kind="shock", id=j,
                                   born_t=born_t,
                                   born_x=x - speed * (t - born_t)))
        fronts.sort(key=lambda g: (g.position(t), g.speed))
        meet = [(b.position(t) - a.position(t)) / (a.speed - b.speed)
                for a, b in zip(fronts, fronts[1:]) if a.speed > b.speed]
        return fronts, t, t + 0.5 * min([m for m in meet if m > 0.0] or [1.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_fields(self, seed):
        # the inline bisection keeps bisect_right's place on ties: the
        # characteristic may start on a front or on a point several share
        rng = np.random.default_rng(seed)
        hits = 0
        for _ in range(200):
            fronts, t, t_hi = self.seeded_field(rng)
            if fronts and rng.random() < 0.5:
                x = fronts[int(rng.integers(len(fronts)))].position(t)
            else:
                x = float(rng.uniform(-1.2, 1.2))
            skip = {g.id for g in fronts if rng.random() < 0.2}
            slope = float(rng.uniform(-3.0, 3.0))
            got = dg._next_crossing(fronts, t, x, slope, t_hi, skip)
            ref = reference_next_crossing(fronts, t, x, slope, t_hi, skip)
            if ref is None:
                assert got is None
                continue
            hits += 1
            assert got[:2] == ref[:2] and got[2] is ref[2]
        assert hits >= 20


@pytest.fixture(scope="module")
def tie_timeline():
    """Shocks 0|1 and 2|3 meet at (1.5, 0.375) in two tied events, and
    their outgoing shocks merge there in a third."""
    return quick_run("burgers", {"kind": "breakpoints",
                                 "xs": [-1.5, -0.75, 0.0, 0.75],
                                 "values": [[1.5], [1.0], [0.5], [0.0], [-0.5]]},
                     epsilon=0.1, t_end=3.0)


def same_curve(got, ref):
    return (got.nodes == ref.nodes and got.slopes == ref.slopes
            and got.rode == ref.rode)


REGION_FIXTURES = ["remark_timeline", "sawtooth_timeline",
                   "burgers_merge_timeline", "tie_timeline"]


class TestRegionAuditMatchesReference:
    """min_characteristic bisects for its events and finds fan groups
    locally, and region_balance_check screens records and events; curves
    and reports equal the full scans' with ==."""

    @pytest.mark.parametrize("fixture", REGION_FIXTURES)
    def test_characteristics_match_reference(self, fixture, request):
        tl = request.getfixturevalue(fixture)
        starts = TestNextCrossingMatchesFullScan.starts(tl, 23)
        starts.append((1, 0.5, 0.3))  # rides into the tie point
        for i, t0, x0 in starts:
            got = dg.min_characteristic(tl, i, t0, x0, tl.t_end)
            ref = reference_min_characteristic(tl, i, t0, x0, tl.t_end)
            assert same_curve(got, ref)

    def test_fan_group_spans_tied_events(self, tie_timeline, monkeypatch):
        tl = tie_timeline
        assert len({(e.t, e.x) for e in tl.events}) < len(tl.events)
        groups = []
        local = dg._fan_group

        def record(timeline, ev, applied):
            group = local(timeline, ev, applied)
            # the field after ev, replayed from t = 0
            fronts = list(timeline.initial_field.fronts)
            for e in timeline.events[:ev.index + 1]:
                tk.apply_event(fronts, e)
            scan = [f for f in fronts if f.born_x == ev.x and f.born_t == ev.t]
            assert len(group) == len(scan)
            assert all(g is f for g, f in zip(group, scan))
            groups.append(group)
            return group

        monkeypatch.setattr(dg, "_fan_group", record)
        curve = dg.min_characteristic(tl, 1, 0.5, 0.3, tl.t_end)
        assert (1.5, 0.375) in curve.nodes
        # a group holds fronts born in two or more tied events
        born_in = {f.id: e.index for e in tl.events for f in e.outgoing}
        assert any(len({born_in.get(f.id) for f in g}) >= 2 for g in groups)

    @pytest.mark.parametrize("fixture", REGION_FIXTURES)
    def test_region_reports_match_reference(self, fixture, request):
        tl = request.getfixturevalue(fixture)
        rng = np.random.default_rng(61)
        lo, hi = cli._domain_window(tl)
        built = 0
        for k in range(45):
            i = 1 + k % tl.model.N
            t0 = float(rng.uniform(0.0, 0.7)) * tl.t_end
            tau = float(rng.uniform(0.2, 0.3)) * tl.t_end
            a = float(rng.uniform(lo, hi - 0.5))
            w = float(rng.uniform(0.3, 0.6)) * (hi - a)
            if k % 3 == 1:
                # an edge on a front: a boundary that rides it, or events
                # and a stationary contact on the boundary
                fld = tl.slice_at(t0)
                if fld.fronts:
                    x = fld.xs[int(rng.integers(len(fld.xs)))]
                    a, w = (x, w) if k % 2 else (x - w, w)
            intervals = [(a, a + w)]
            if k % 5 == 4:  # two intervals with a gap
                intervals = [(a, a + 0.4 * w), (a + 0.6 * w, a + w)]
            try:
                region = dg.make_region(tl, i, t0, tau, intervals)
            except dg.SolverError:
                continue
            for curve, (x0, _) in zip(region.left_curves, region.intervals):
                assert same_curve(curve, reference_min_characteristic(
                    tl, i, region.t0, x0, region.t1))
            for curve, (_, x0) in zip(region.right_curves, region.intervals):
                assert same_curve(curve, reference_min_characteristic(
                    tl, i, region.t0, x0, region.t1))
            assert dg.region_balance_check(tl, region) == \
                reference_region_balance_check(tl, region)
            built += 1
        assert built >= 30


def pairwise_diameter(states):
    osc = 0.0
    for p in range(len(states)):
        for q in range(p + 1, len(states)):
            osc = max(osc, fc.norm(np.subtract(states[p], states[q]).tolist()))
    return osc


class TestScreenedDiameter:
    def test_matches_pairwise_on_clouds(self):
        rng = np.random.default_rng(3)
        # 300 states need several row blocks of the screen
        for k, n in ((0, 2), (1, 2), (2, 1), (7, 2), (40, 3), (300, 2)):
            states = [rng.normal(size=n) for _ in range(k)]
            assert dg._diameter(states) == pairwise_diameter(states)
        # the farthest pair in the first and in the last row block
        cloud = [rng.normal(size=2) for _ in range(298)]
        far = [np.array([-40.0, 3.0]), np.array([50.0, -7.0])]
        for states in (far + cloud, cloud + far):
            assert dg._diameter(states) == pairwise_diameter(states)

    def test_several_pairs_at_the_maximum(self):
        # both diagonals of a square and of a translated copy tie exactly
        square = [np.array(u) for u in
                  ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))]
        states = square + [u + np.array([0.0, 3.0]) for u in square]
        assert dg._diameter(states) == pairwise_diameter(states)
        assert dg._diameter(square) == pairwise_diameter(square) == math.sqrt(2.0)

    def test_pairs_one_ulp_apart(self):
        up = math.nextafter(1.0, 2.0)
        down = math.nextafter(1.0, 0.0)
        for far in (up, down, 1.0):
            states = [np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                      np.array([0.0, far]), np.array([-far, 0.0]) * 0.5,
                      np.array([0.5, 0.5])]
            assert dg._diameter(states) == pairwise_diameter(states)
        # squared distances one ulp apart whose norms round together
        a = np.array([0.1, 0.2])
        states = [a, a + np.array([0.3, 0.0]),
                  a + np.array([0.0, math.nextafter(0.3, 1.0)]),
                  a - np.array([math.nextafter(0.3, 0.0), 0.0])]
        assert dg._diameter(states) == pairwise_diameter(states)


class TestPositiveWindows:
    CASES = [
        # (g_lo, g_hi, lo, hi)
        (1.0, 2.0, 0.0, 1.0), (-1.0, -2.0, 0.0, 1.0),
        (0.0, 1.0, 0.2, 0.7), (1.0, 0.0, 0.2, 0.7),
        (0.0, -1.0, 0.2, 0.7), (-1.0, 0.0, 0.2, 0.7),
        (0.0, 0.0, 0.2, 0.7), (-0.0, 0.0, 0.2, 0.7), (0.0, -0.0, 0.2, 0.7),
        (1.0, -3.0, 0.2, 0.7), (-3.0, 1.0, 0.2, 0.7),
        (5e-324, -5e-324, 0.2, 0.7), (-1e-300, 1e-300, 0.2, 0.7),
        (0.3, -0.1, 0.0, 1e-15), (-0.1, 0.3, 0.0, 1e-15),
        (1.0, 1.0, 0.0, 1e-15), (1.0, -1.0, 1.0, 1.0 + 2e-15),
        (math.nan, 1.0, 0.2, 0.7), (1.0, math.nan, 0.2, 0.7),
        (math.nan, -1.0, 0.2, 0.7), (-1.0, math.nan, 0.2, 0.7),
        (math.nan, math.nan, 0.2, 0.7),
        (math.inf, -math.inf, 0.2, 0.7), (-math.inf, 1.0, 0.2, 0.7),
    ]

    @staticmethod
    def same(u, v):
        return u == v or (math.isnan(u) and math.isnan(v))

    def test_elementwise_matches_scalar(self):
        g_lo, g_hi, lo, hi = (np.array(c) for c in zip(*self.CASES))
        w_lo, w_hi, nonempty = dg._positive_windows(g_lo, g_hi, lo, hi)
        for n, case in enumerate(self.CASES):
            win = reference_positive_window(*case)
            assert bool(nonempty[n]) == (win is not None), case
            if win is None:
                continue
            assert self.same(float(w_lo[n]), win[0]), case
            assert self.same(float(w_hi[n]), win[1]), case
            # the sweep's width test on both forms
            assert (bool(w_hi[n] - w_lo[n] <= 1e-15)
                    == (win[1] - win[0] <= 1e-15)), case

    def test_width_exactly_threshold(self):
        w_lo, w_hi, nonempty = dg._positive_windows(
            np.array([1.0]), np.array([1.0]), np.array([0.0]),
            np.array([1e-15]))
        assert nonempty[0] and w_hi[0] - w_lo[0] == 1e-15
        assert reference_positive_window(1.0, 1.0, 0.0, 1e-15) == (0.0, 1e-15)

    def test_sweep_drops_windows_of_width_threshold(self):
        # a single shock from x = 0: each side's window is the whole frame,
        # [0, t_hi], so t_hi = 1e-15 meets no state and 2e-15 meets both
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                   "values": [[1.0], [0.0]]}, 0.1, 1.0)
        eta = dg.default_eta_bar(tl.model)
        tris = [(-1.0, 1.0, 0.0, eta, 1e-15), (-1.0, 1.0, 0.0, eta, 2e-15)]
        got = dg._triangle_states(tl, tris)
        assert [len(states) for states in got] == [0, 2]
        for (a, b, t_lo, eta, t_hi), states in zip(tris, got):
            ref = reference_triangle_states(tl, a, b, eta, t_lo, t_hi)
            assert len(states) == len(ref)
            assert all(u is v for u, v in zip(states, ref))


class TestSbvAtomReport:
    def test_merge_single_exceptional_time(self, burgers_merge_timeline):
        tl = burgers_merge_timeline
        rep = dg.sbv_atom_report(tl, 1, 1e-8)
        assert rep["exceptional_times"] == [tl.events[0].t]

    def test_pure_fan_no_exceptional_times(self, burgers_fan_timeline):
        rep = dg.sbv_atom_report(burgers_fan_timeline, 1, 1e-8)
        assert rep["exceptional_times"] == []

    def test_definitional_exactness(self, sawtooth_timeline):
        tl = sawtooth_timeline
        thresh = 1e-3
        rep = dg.sbv_atom_report(tl, 1, thresh)
        icj = ms.mu_ICJ(tl, 1, tl.curves(1))
        oracle = {}
        for t, w in zip(icj.ts, icj.ws):
            oracle[t] = oracle.get(t, 0.0) + abs(w)
        # t = 0 holds the datum's initiation atoms, excluded by definition
        expect = sorted(t for t, m in oracle.items() if m > thresh and t > 0.0)
        assert rep["exceptional_times"] == expect

    def test_ramp_ladder_concentrates_at_unit_time(self):
        initial = {"kind": "profile", "name": "ramp", "samples": 40}
        for eps in (0.1, 0.05, 0.025):
            tl = quick_run("burgers", initial, epsilon=eps, t_end=2.0)
            rep = dg.sbv_atom_report(tl, 1, 1e-6)
            assert rep["exceptional_times"], "no exceptional times found"
            assert 0.9 <= min(rep["exceptional_times"]) <= 1.1


class TestConvergence:
    def test_burgers_shock_exact(self):
        rep = dg.convergence_study("burgers_shock", [0.1, 0.05], t_eval=1.0)
        for row in rep["rows"]:
            assert row["l1_error"] <= 1e-9

    def test_burgers_rarefaction_first_order(self):
        rep = dg.convergence_study("burgers_rarefaction", [0.1, 0.05, 0.025],
                                   t_eval=1.0)
        for row in rep["rows"]:
            assert row["l1_error"] <= 1.0 * row["epsilon"]
        assert all(o >= 0.9 for o in rep["observed_orders"])

    def test_cubic_riemann_envelope_oracle(self):
        rep = dg.convergence_study("cubic_riemann", [0.1, 0.05], t_eval=1.0)
        for row in rep["rows"]:
            assert row["l1_error"] <= 2.0 * row["epsilon"]

    def test_linear_system_exact_translates(self):
        rep = dg.convergence_study("linear_2x2", [0.1], t_eval=1.0)
        assert rep["rows"][0]["l1_error"] <= 1e-9

    def test_uniform_tv_bounds_across_ladder(self):
        rep = dg.convergence_study("burgers_rarefaction", [0.1, 0.05, 0.025])
        vs = [row["V_max"] for row in rep["rows"]]
        assert max(vs) <= 1.0 + 1e-9

    def test_unknown_scenario_rejected(self):
        with pytest.raises(Exception) as err:
            dg.convergence_study("kdv_soliton", [0.1])
        assert "scenario" in str(err.value)
