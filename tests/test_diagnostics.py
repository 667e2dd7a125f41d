import math

import numpy as np
import pytest

from fronttrack import diagnostics as dg
from fronttrack import measures as ms
from fronttrack import tracker as tk

from conftest import quick_run


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
    """Reference state collection: one replay for the triangle, and list
    deduplication with np.array_equal."""
    states = []
    if t_hi > t_lo:
        for fld, frame_hi in tk.iter_frames(timeline, t_hi):
            lo = max(fld.time, t_lo)
            hi = min(frame_hi, t_hi)
            if hi <= lo:
                continue
            xs = [f.x for f in fld.fronts]
            speeds = [f.speed for f in fld.fronts]
            for j, u in enumerate(fld.states()):
                win = (lo, hi)
                if j > 0:
                    xj, sj = xs[j - 1], speeds[j - 1]
                    gl = (b - eta * win[0]) - (xj + sj * (win[0] - fld.time))
                    gh = (b - eta * win[1]) - (xj + sj * (win[1] - fld.time))
                    win = dg._positive_window(gl, gh, *win)
                    if win is None:
                        continue
                if j < len(xs):
                    xj, sj = xs[j], speeds[j]
                    gl = (xj + sj * (win[0] - fld.time)) - (a + eta * win[0])
                    gh = (xj + sj * (win[1] - fld.time)) - (a + eta * win[1])
                    win = dg._positive_window(gl, gh, *win)
                    if win is None:
                        continue
                if win[1] - win[0] <= 1e-15:
                    continue
                states.append(u)
    uniq = []
    for u in states:
        if not any(np.array_equal(u, v) for v in uniq):
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
                osc = max(osc, float(np.linalg.norm(uniq[p] - uniq[q])))
        base = timeline.slice_at(tau)
        tv = float(sum(np.linalg.norm(f.jump()) for f in base.fronts if a < f.x < b))
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
        for (t0, x0), (t1, x1), slope in c.segments():
            assert abs(slope) <= 1e-10 or slope == 0.0
        assert c.position(1.5) == pytest.approx(0.37, abs=1e-9)

    def test_slopes_admissible_on_every_segment(self, sawtooth_timeline):
        tl = sawtooth_timeline
        c = dg.min_characteristic(tl, 1, 0.0, -0.4, 2.0)
        for (t0, x0), (t1, x1), slope in c.segments():
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

    def test_signed_zero_states_count_once(self):
        # the left state is -0.0 and the right state 0.0: one state, as
        # np.array_equal counts them, and the first one met is kept
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

    def test_scalar_spectrum_reported(self, burgers_merge_timeline):
        rep = dg.sbv_atom_report(burgers_merge_timeline, 1, 1e-8, times=(3.0,))
        atoms = rep["fprime_atom_spectra"][3.0]
        assert len(atoms) == 1
        assert atoms[0][1] == pytest.approx(-1.0)  # f' = u jumps by -1


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
