import dataclasses
import itertools
import math

import numpy as np
import pytest

from fronttrack import flux_core as fc
from fronttrack import measures as ms
from fronttrack import tracker as tk
from fronttrack import riemann as rm
from fronttrack.errors import (CapExceededError, InitialDataError, RiemannError,
                              SolverError)

from conftest import (PSYSTEM_SHOCK_MERGER, assert_keeps_own_eigs, bits,
                      child_python, corpus_run, needs_proc_status, quick_run,
                      random_breakpoint_scenario,
                      reference_events, reference_next_collision,
                      reference_q_columns, replay_apply_event,
                      replay_slice_at)


class TestInitSample:
    def test_breakpoints_reproduced_exactly(self):
        m = fc.make_model("burgers")
        fld = tk.init_sample(m, {"kind": "breakpoints", "xs": [0.0],
                                 "values": [[1.0], [0.0]]}, 0.1)
        assert len(fld.fronts) == 1
        f = fld.fronts[0]
        assert fld.xs == [0.0] and f.born_x == 0.0 and f.born_t == 0.0
        assert f.uL[0] == 1.0 and f.uR[0] == 0.0
        assert f.speed == pytest.approx(0.5)

    def test_ramp_profile_is_monotone_staircase(self):
        # -x clamped to [-1, 1]: sampled variation can never exceed TV = 2
        m = fc.make_model("burgers")
        fld = tk.init_sample(m, {"kind": "profile", "name": "ramp",
                                 "samples": 40}, 0.025)
        tv = sum(abs(float(f.jump()[0])) for f in fld.fronts)
        assert tv <= 2.0 + 1e-12
        assert all(float(f.jump()[0]) < 0 for f in fld.fronts)

    def test_constant_profile_no_fronts(self):
        m = fc.make_model("burgers")
        fld = tk.init_sample(m, {"kind": "breakpoints", "xs": [0.0],
                                 "values": [[0.3], [0.3]]}, 0.1)
        assert fld.fronts == []

    def test_tv_budget_refusal(self):
        m = fc.make_model("remark-2x2")  # budget 1.0
        spec = {"kind": "breakpoints", "xs": [-0.5, 0.0, 0.5],
                "values": [[0.0, -0.3], [0.0, 0.3], [0.0, -0.3], [0.0, 0.3]]}
        with pytest.raises(InitialDataError):
            tk.init_sample(m, spec, 0.05)

    def test_initial_jumps_expanded_by_accurate_solver(self):
        m = fc.make_model("burgers")
        fld = tk.init_sample(m, {"kind": "breakpoints", "xs": [0.0],
                                 "values": [[0.0], [1.0]]}, 0.25)
        assert [f.speed for f in fld.fronts] == pytest.approx(
            [0.125, 0.375, 0.625, 0.875])
        fld.validate()


class TestNextCollision:
    def _field(self, positions, speeds):
        m = fc.make_model("burgers")
        fronts = []
        u = 1.0
        for j, (x, s) in enumerate(zip(positions, speeds)):
            # chain of downward unit jumps; speeds are set directly
            f = tk.rm.Front(family=1, speed=s, uL=(u,), uR=(u - 0.1,),
                            size=-0.1, kind="shock",
                            id=j, born_t=0.0, born_x=x)
            fronts.append(f)
            u -= 0.1
        fld = tk.FrontField(model=m, time=0.0, left_state=(1.0,),
                            fronts=fronts, xs=list(positions))
        tk._make_live(fld)
        return fld

    def test_linear_intersection(self):
        fld = self._field([0.0, 1.0], [1.0, 0.0])
        col = tk.next_collision(fld)
        assert col.t == pytest.approx(1.0)
        assert col.x == pytest.approx(1.0)

    def test_equal_speeds_never_collide(self):
        fld = self._field([0.0, 1.0], [0.5, 0.5])
        assert tk.next_collision(fld) is None

    def test_three_way_resolves_to_binary_events(self):
        # symmetric staircase: all pairs meet at (t, x) = (2, 1)
        initial = {"kind": "breakpoints", "xs": [-1.0, 0.0, 1.0],
                   "values": [[1.25], [0.75], [0.25], [-0.25]]}
        tl = quick_run("burgers", initial, epsilon=0.1, t_end=4.0)
        assert len(tl.events) == 2
        assert tl.events[0].t == pytest.approx(2.0)
        assert tl.events[1].t == pytest.approx(2.0)
        final = tl.slice_at(4.0)
        assert len(final.fronts) == 1
        # unperturbed algebra: scalar sizes add across the cascade
        assert final.fronts[0].size == pytest.approx(-1.5)
        assert final.fronts[0].uL[0] == pytest.approx(1.25)
        assert final.fronts[0].uR[0] == pytest.approx(-0.25)


class TestStepDispatch:
    BASE = {"kind": "breakpoints", "xs": [-1.0, 0.0],
            "values": [[1.0], [0.5], [0.0]]}

    def test_accurate_path_below_threshold(self):
        tl = quick_run("burgers", self.BASE, epsilon=0.1, t_end=5.0)
        ev = tl.events[0]
        assert ev.solver == "accurate"  # I = 0.125 > rho = 1e-3
        assert ev.amount_I == pytest.approx(0.125)
        assert len(ev.outgoing) == 1
        assert ev.outgoing[0].size == pytest.approx(-1.0)
        assert ev.outgoing[0].speed == pytest.approx(0.5)

    def test_simplified_path_above_threshold(self):
        cfg = tk.RunConfig(model_id="burgers", initial=self.BASE, epsilon=0.1,
                           t_end=5.0, rho=0.2)  # rho >= I forces simplified
        tl = tk.run(cfg)
        ev = tl.events[0]
        assert ev.solver == "simplified"
        assert ev.outgoing[0].size == pytest.approx(-1.0)
        assert ev.outgoing[0].speed == pytest.approx(0.5)

    def test_crude_path_for_nonphysical(self, remark_timeline):
        crude = [e for e in remark_timeline.events if e.solver == "crude"]
        assert crude, "scenario produced no nonphysical interactions"
        for ev in crude:
            assert not ev.incoming[0].is_physical
            assert ev.incoming[1].is_physical
            phys_out = [f for f in ev.outgoing if f.is_physical]
            assert phys_out[0].size == pytest.approx(ev.incoming[1].size)


class TestRun:
    def test_single_shock_zero_events(self):
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                   "values": [[1.0], [0.0]]}, 0.1, 1.0)
        assert tl.events == []
        fld = tl.slice_at(1.0)
        assert fld.xs[0] == pytest.approx(0.5)

    def test_two_approaching_shocks_one_event(self, burgers_merge_timeline):
        assert len(burgers_merge_timeline.events) == 1

    def test_ramp_catastrophe_at_unit_time(self):
        # method of characteristics: u0 = -x has gradient blowup at t = 1
        initial = {"kind": "profile", "name": "ramp", "samples": 40}
        tl = quick_run("burgers", initial, epsilon=0.025, t_end=2.0)
        times = tl.event_times()
        assert min(times) == pytest.approx(1.0, abs=1e-9)
        assert max(times) < 1.2
        final = tl.slice_at(2.0)
        assert len(final.fronts) == 1
        assert final.fronts[0].size == pytest.approx(-2.0)

    def test_solver_failure_names_its_event(self, burgers_merge_timeline,
                                            monkeypatch):
        # the one event of the merge scenario, failed after its solver ran
        # (the accurate solver also expands the initial jumps)
        ev = burgers_merge_timeline.events[0]

        def fail(*args):
            raise RiemannError("no convergence")

        monkeypatch.setattr(tk, "_select_outgoing", fail)
        with pytest.raises(RiemannError) as info:
            tk.run(burgers_merge_timeline.config)
        assert info.value.event == {
            "index": 0, "t": ev.t, "x": ev.x, "solver": ev.solver,
            "incoming": [f.id for f in ev.incoming]}

    def test_state_chain_after_every_event(self, sawtooth_timeline):
        for ev in sawtooth_timeline.events:
            assert ev.outgoing[0].uL == ev.incoming[0].uL
            assert ev.outgoing[-1].uR == ev.incoming[1].uR
        for t in np.linspace(0.0, 2.0, 9):
            sawtooth_timeline.slice_at(float(t)).validate()

    def test_fronts_lie_on_their_elementary_curves(self, remark_timeline):
        # every physical front's right state is the curve point of its size
        from fronttrack import riemann as rm
        model = remark_timeline.model
        for rec in remark_timeline.front_records.values():
            if not rec.is_physical:
                continue
            state = rm._curve_point(model, rec.family, rec.uL, rec.size,
                                    "unit")[0]
            assert np.max(np.abs(np.subtract(state, rec.uR))) <= 1e-9

    def test_speed_fences(self, remark_timeline):
        model = remark_timeline.model
        fences = model.lambda_fences
        for rec in remark_timeline.front_records.values():
            if rec.is_physical:
                k = rec.family
                assert fences[k - 1] <= rec.speed <= fences[k]
            else:
                assert rec.speed == model.lambda_hat

    def test_nonphysical_budget(self):
        rng = np.random.default_rng(17)
        initial = random_breakpoint_scenario("remark-2x2", rng, n_jumps=5)
        totals = {}
        for eps in (0.1, 0.05, 0.025):
            tl = quick_run("remark-2x2", initial, epsilon=eps, t_end=1.5)
            fld = tl.slice_at(1.5)
            totals[eps] = ms.nonphysical_total_strength(fld)
        # order-epsilon bound with a ratio stable under halving
        ks = {eps: tot / eps for eps, tot in totals.items()}
        k_ref = max(ks[0.1], 1e-6)
        assert ks[0.05] <= max(1.5 * k_ref, 1e-6)
        assert ks[0.025] <= max(1.5 * k_ref, 1e-6)

    def test_scalar_mass_conservation(self, sawtooth_timeline):
        tl = sawtooth_timeline
        hi = 10.0
        m0 = ms.mass_relative(tl.initial_field, hi)
        m1 = ms.mass_relative(tl.slice_at(tl.t_end), hi)
        # compactly supported data: no boundary-flux correction needed
        assert abs(float(m1[0] - m0[0])) <= 1e-9

    def test_determinism_bitwise(self):
        rng1 = np.random.default_rng(23)
        initial = random_breakpoint_scenario("p-system", rng1, n_jumps=4)
        tl1 = quick_run("p-system", initial, epsilon=0.05, t_end=1.0)
        tl2 = quick_run("p-system", initial, epsilon=0.05, t_end=1.0)
        assert len(tl1.events) == len(tl2.events)
        for e1, e2 in zip(tl1.events, tl2.events):
            assert e1.t == e2.t and e1.x == e2.x
            assert e1.solver == e2.solver
            assert e1.amount_I == e2.amount_I
            assert [f.size for f in e1.outgoing] == [f.size for f in e2.outgoing]
        f1 = tl1.slice_at(1.0)
        f2 = tl2.slice_at(1.0)
        assert f1.xs == f2.xs


class TestFrontCap:
    """front_cap bounds the field before anything is allocated for it: the
    initial field at t = 0, and every fan before its first front is built."""

    BURGERS_FAN = {"kind": "breakpoints", "xs": [0.0], "values": [[0.0], [1.0]]}

    def test_initial_field_over_cap_refused_at_t0(self, monkeypatch):
        def never(*args):
            raise AssertionError("an over-cap initial field went on")

        for name in ("next_collision", "step"):
            monkeypatch.setattr(tk, name, never)
        monkeypatch.setattr(ms, "glimm_Q", never)
        initial = {"kind": "profile", "name": "ramp", "samples": 40}
        with pytest.raises(CapExceededError) as info:
            quick_run("burgers", initial, epsilon=0.025, t_end=2.0, front_cap=3)
        assert str(info.value) == "front cap 3 exceeded at t=0 by the initial field"
        assert info.value.event is None

    def test_initial_field_refused_once_its_fans_pass_the_cap(self, monkeypatch):
        # 1,000 jumps of about 10 fronts each: the cap of 500 stops the
        # expansion at the jump that passes it, not after 10,000 fronts
        solved, solve = [], rm.solve_accurate

        def counted(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(rm, "solve_accurate", counted)
        initial = {"kind": "profile", "name": "ramp", "samples": 1000,
                   "params": {"u_left": -1.0, "u_right": 1.0}}
        with pytest.raises(CapExceededError, match="exceeded at t=0"):
            quick_run("burgers", initial, epsilon=2e-4, front_cap=500)
        built = np.cumsum([len(fan) for fan in solved])
        assert built[-2] <= 500 < built[-1] and len(solved) < 60

    def test_initial_fan_refused_before_it_is_built(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rm, "brentq", lambda *args: calls.append(args))
        with pytest.raises(CapExceededError) as info:
            quick_run("burgers", self.BURGERS_FAN, epsilon=1e-5)
        assert str(info.value) == "a fan of 100000 fronts exceeds the front cap 20000"
        assert info.value.event is None and calls == []

    def test_event_fan_refused_names_its_event(self):
        ev = quick_run("p-system", PSYSTEM_SHOCK_MERGER, epsilon=1e-6,
                       t_end=15.0).events[0]
        assert len(ev.outgoing) == 5  # the shock and a fan of 4
        with pytest.raises(CapExceededError) as info:
            quick_run("p-system", PSYSTEM_SHOCK_MERGER, epsilon=1e-6,
                      t_end=15.0, front_cap=3)
        assert str(info.value) == "a fan of 4 fronts exceeds the front cap 3"
        assert info.value.event == {
            "index": 0, "t": ev.t, "x": ev.x, "solver": "accurate",
            "incoming": [f.id for f in ev.incoming]}

    @needs_proc_status
    def test_fine_fan_runs_in_bounded_memory(self):
        # 5,000 fronts at t = 0; the dense Q0 masks peaked at about 700 MB
        code = ("from fronttrack import tracker as tk\n"
                "tl = tk.run(tk.RunConfig(model_id='burgers', epsilon=2e-4, "
                f"initial={self.BURGERS_FAN!r}))\n"
                "print(len(tl.initial_field.fronts))")
        (fronts,), peak_kb = child_python(code)
        assert int(fronts) == 5000
        assert peak_kb < 100 * 1024


class TestLedgerCounts:
    def test_one_glimm_q_and_one_collision_scan_per_event(self, monkeypatch):
        calls = {"glimm_Q": 0, "next_collision": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ms, "glimm_Q", counted("glimm_Q", ms.glimm_Q))
        monkeypatch.setattr(tk, "next_collision",
                            counted("next_collision", tk.next_collision))
        initial = {"kind": "profile", "name": "sawtooth", "samples": 24,
                   "params": {"teeth": 3, "amplitude": 0.5}}
        tl = quick_run("burgers", initial, epsilon=0.05, t_end=2.0)
        assert len(tl.events) > 10
        assert calls == {"glimm_Q": 1, "next_collision": len(tl.events) + 1}


class TestSliceAt:
    def test_time_zero_is_initial(self, burgers_merge_timeline):
        fld = burgers_merge_timeline.slice_at(0.0)
        init = burgers_merge_timeline.initial_field
        assert fld.xs == init.xs
        assert fld.fronts == init.fronts

    def test_linear_advection_of_single_front(self):
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.25],
                                   "values": [[1.0], [0.0]]}, 0.1, 2.0)
        fld = tl.slice_at(1.5)
        assert fld.xs[0] == pytest.approx(0.25 + 0.5 * 1.5)

    def test_right_continuity_at_event_time(self, burgers_merge_timeline):
        t_ev = burgers_merge_timeline.events[0].t
        fld = burgers_merge_timeline.slice_at(t_ev)
        assert len(fld.fronts) == 1  # outgoing fan present

    @pytest.mark.parametrize("fixture", ["remark_timeline", "sawtooth_timeline",
                                         "burgers_merge_timeline"])
    def test_records_match_incremental_replay(self, fixture, request):
        # closed-form positions agree with the live loop's x += speed*dt to
        # roundoff; the order and the states are exactly the replayed ones
        tl = request.getfixturevalue(fixture)
        ts = sorted(set(tl.event_times()))
        assert ts
        times = [0.0, *ts, tl.t_end]
        times += [0.5 * (t0 + t1) for t0, t1 in zip([0.0, *ts], ts)]
        for t in times:
            got = tl.slice_at(t)
            ref = replay_slice_at(tl, t)
            assert got.time == ref.time == t
            assert [f.id for f in got.fronts] == [f.id for f in ref.fronts]
            assert all(tl.front_records[f.id] is f for f in got.fronts)
            for f, g in zip(got.fronts, ref.fronts):
                assert f.uL == g.uL and f.uR == g.uR
            for x, x_ref in zip(got.xs, ref.xs):
                assert abs(x - x_ref) <= 1e-12 * max(1.0, abs(x_ref))
            assert len(got.xs) == len(got.fronts)
            got.validate()

    @pytest.mark.parametrize("source", ["sawtooth-24", "sawtooth-40",
                                        "sawtooth-160", "remark_timeline"])
    def test_rank_order_matches_splice_from_zero(self, source, request):
        # the sawtooth runs resolve fronts meeting at one point as runs of
        # equal event times, where a sort by position and speed is ambiguous
        if source.startswith("sawtooth"):
            initial = {"kind": "profile", "name": "sawtooth",
                       "samples": int(source.split("-")[1]),
                       "params": {"teeth": 6, "amplitude": 0.3}}
            tl = quick_run("burgers", initial, epsilon=0.02, t_end=2.0)
            assert len(set(tl.event_times())) < len(tl.events)
        else:
            tl = request.getfixturevalue(source)
        ts = sorted(set(tl.event_times()))
        assert ts
        times = [0.0, *ts, tl.t_end]
        times += [0.5 * (t0 + t1) for t0, t1 in zip([0.0, *ts], ts)]
        for t in times:
            fronts = list(tl.initial_field.fronts)
            for ev in tl.events:
                if ev.t > t:
                    break
                tk.apply_event(fronts, ev)
            got = tl.slice_at(t).fronts
            assert len(got) == len(fronts)
            assert all(f is g for f, g in zip(got, fronts))

    def test_out_of_range_rejected(self, burgers_merge_timeline):
        with pytest.raises(SolverError):
            burgers_merge_timeline.slice_at(-0.1)
        with pytest.raises(SolverError):
            burgers_merge_timeline.slice_at(99.0)


class TestFrontRecords:
    @staticmethod
    def snapshot(tl):
        return {fid: (f.family, f.kind, f.born_x, f.born_t, f.died_t,
                      f.speed, f.size, bits(f.uL), bits(f.uR))
                for fid, f in tl.front_records.items()}

    @pytest.mark.parametrize("fixture", ["remark_timeline", "sawtooth_timeline"])
    def test_one_object_per_front(self, fixture, request):
        tl = request.getfixturevalue(fixture)
        recs = tl.front_records
        for f in tl.initial_field.fronts:
            assert recs[f.id] is f
            assert f.born_t == 0.0
        # an initial front is born in no event, and a front dies in one at most
        outgoing = {id(f) for ev in tl.events for f in ev.outgoing}
        assert not outgoing & {id(f) for f in tl.initial_field.fronts}
        incoming = [id(f) for ev in tl.events for f in ev.incoming]
        assert len(set(incoming)) == len(incoming)
        for ev in tl.events:
            for f in ev.incoming:
                assert recs[f.id] is f
                assert f.died_t == ev.t
            for f in ev.outgoing:
                assert recs[f.id] is f
                assert (f.born_t, f.born_x) == (ev.t, ev.x)
        born = len(tl.initial_field.fronts) + sum(len(e.outgoing) for e in tl.events)
        assert len(recs) == born
        assert all(f.id == fid for fid, f in recs.items())
        assert len({id(f) for f in recs.values()}) == born

    @pytest.mark.parametrize("fixture", ["remark_timeline", "sawtooth_timeline"])
    def test_checks_leave_records_unchanged(self, fixture, request, tmp_path):
        from fronttrack import cli
        tl = request.getfixturevalue(fixture)
        before = self.snapshot(tl)
        plan = {"checks": list(cli.CHECKS),
                "families": list(range(1, tl.model.N + 1)),
                "seed": 0,
                "convergence": {"scenario": "burgers_shock",
                                "ladder": [0.1, 0.05]}}
        cli._check_plan(plan, tl.model.N, tl.t_end)
        report, _ = cli.run_checks(tl, plan)
        assert set(report["checks"]) == set(cli.CHECKS)
        cli._emit_artifacts(str(tmp_path / "out"), tl, plan, report)
        assert self.snapshot(tl) == before

    @pytest.mark.parametrize("fixture", ["remark_timeline", "sawtooth_timeline"])
    def test_record_columns_are_the_records_by_id(self, fixture, request):
        tl = request.getfixturevalue(fixture)
        cols = tl.record_columns()
        assert cols._fields == ("born_t", "died_t", "born_x", "speed", "rank")
        n = len(tl.front_records)
        recs = [tl.front_records[fid] for fid in range(n)]  # ids 0..n-1
        survivors = [f for f in recs if f.died_t is None]
        assert survivors and len(survivors) < n
        fields = {"born_t": [f.born_t for f in recs],
                  "died_t": [math.inf if f.died_t is None else f.died_t
                             for f in recs],
                  "born_x": [f.born_x for f in recs],
                  "speed": [f.speed for f in recs]}
        for name, values in fields.items():
            col = getattr(cols, name)
            assert col.dtype == np.float64 and col.shape == (n,)
            assert col.tobytes() == np.array(values, dtype=float).tobytes()
        # a survivor never reads as a front that dies at t_end
        assert ((cols.died_t == math.inf).nonzero()[0].tolist()
                == [f.id for f in survivors])
        assert np.all(cols.died_t[[f.id for f in recs if f.died_t is not None]]
                      <= tl.t_end)
        assert cols.rank.dtype == np.int64 and cols.rank.shape == (n,)
        assert sorted(cols.rank.tolist()) == list(range(n))

    def test_record_columns_refuse_gapped_ids(self, sawtooth_timeline):
        src = sawtooth_timeline
        recs = dict(src.front_records)
        del recs[len(recs) // 2]
        tl = tk.Timeline(src.model, src.config, src.initial_field, src.events,
                         recs, src.ledger, src.t_end)
        with pytest.raises(SolverError, match="front ids"):
            tl.record_columns()

    def test_record_columns_refuse_a_front_off_the_order(self, sawtooth_timeline):
        # without its event, the last event's outgoing fronts have no place
        src = sawtooth_timeline
        assert src.events[-1].outgoing
        tl = tk.Timeline(src.model, src.config, src.initial_field,
                         src.events[:-1], src.front_records, src.ledger,
                         src.t_end)
        with pytest.raises(SolverError, match="front order"):
            tl.record_columns()


def _collision_field(xs, speeds, ids=None, time=0.0):
    m = fc.make_model("burgers")
    ids = range(len(xs)) if ids is None else ids
    fronts = [tk.rm.Front(family=1, speed=sp, uL=(0.0,), uR=(-0.1,),
                          size=-0.1, kind="shock", id=i)
              for sp, i in zip(speeds, ids)]
    return tk.FrontField(model=m, time=time, left_state=(0.0,),
                         fronts=fronts, xs=list(xs))


def _same_collision(got, ref):
    if ref is None:
        return got is None
    return (got == ref and type(got.t) is float and type(got.x) is float
            and math.copysign(1.0, got.t) == math.copysign(1.0, ref.t)
            and math.copysign(1.0, got.x) == math.copysign(1.0, ref.x))


class TestLiveColumns:
    """The live loop on numpy columns against the pair-by-pair reference."""

    @staticmethod
    def check(xs, speeds, ids=None, time=0.0, tie_tol=0.0):
        ref = reference_next_collision(
            _collision_field(xs, speeds, ids, time), tie_tol)
        live = _collision_field(xs, speeds, ids, time)
        tk._make_live(live)
        got = tk.next_collision(live, tie_tol)
        assert _same_collision(got, ref), (got, ref)
        return got

    def test_exact_tie_in_t(self):
        col = self.check([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 0.0])
        assert (col.t, col.x, col.index) == (1.0, 1.0, 0)

    def test_equal_x_broken_by_left_id(self):
        # three fronts meet at (1, 0); the pair with left id 3 goes first
        col = self.check([-1.0, 0.0, 1.0], [1.0, 0.0, -1.0], ids=[7, 3, 5])
        assert (col.t, col.x, col.index, col.left_id) == (1.0, 0.0, 1, 3)

    def test_tie_within_tie_tol(self):
        xs, speeds, ids = [-1.0, 0.0, 1.0 + 1e-14], [1.0, 0.0, -1.0], [7, 3, 5]
        assert self.check(xs, speeds, ids, tie_tol=1e-13).index == 1
        assert self.check(xs, speeds, ids, tie_tol=0.0).index == 0

    def test_negative_dt_clamped(self):
        col = self.check([0.0, -1e-13], [1.0, 0.0], time=0.5)
        assert (col.t, col.x) == (0.5, 0.0)

    def test_negative_zero_gap(self):
        col = self.check([0.0, -0.0], [1.0, 0.0], time=-0.0)
        assert math.copysign(1.0, col.t) == -1.0

    def test_no_approaching_pair(self):
        assert self.check([0.0, 1.0, 2.0], [-1.0, 0.0, 0.0]) is None

    def test_zero_over_zero_pair_beside_an_approaching_pair(self):
        # two fronts at one x with equal speeds: dt = 0/0 never collides
        col = self.check([0.0, 0.0, 1.0], [0.5, 0.5, 0.0])
        assert (col.t, col.x, col.index) == (2.0, 1.0, 1)
        col = self.check([0.0, 1.0, 1.0], [1.0, 0.0, 0.0])
        assert (col.t, col.x, col.index) == (1.0, 1.0, 0)

    def test_overflowing_time_never_collides(self):
        # gap 1e300 over a speed difference 1e-10 overflows to dt = inf
        assert self.check([0.0, 1e300], [1e-10, 0.0]) is None
        col = self.check([-1.0, 0.0, 1e300], [1.0, 1e-10, 0.0])
        assert (col.index, col.t) == (0, 1.0 / (1.0 - 1e-10))

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_fronts(self, n):
        assert self.check([0.0] * n, [1.0] * n) is None

    def test_seeded_fields(self):
        # positions and speeds on coarse grids make exact ties in t and x common
        rng = np.random.default_rng(2024)
        found = 0
        for _ in range(300):
            m = int(rng.integers(0, 12))
            xs = np.sort(rng.integers(-8, 8, m) / 4.0).tolist()
            speeds = (rng.integers(-4, 5, m) / 2.0).tolist()
            ids = rng.permutation(m).tolist()
            time = float(rng.choice([0.0, 0.25, 1.0 / 3.0]))
            tie_tol = float(rng.choice([0.0, 1e-13, 0.3]))
            found += self.check(xs, speeds, ids, time, tie_tol) is not None
        assert found > 100

    @pytest.mark.parametrize("model_id, initial, epsilon", [
        ("burgers", {"kind": "profile", "name": "sawtooth", "samples": 160,
                     "params": {"teeth": 6, "amplitude": 0.3}}, 0.02),
        ("remark-2x2", random_breakpoint_scenario(
            "remark-2x2", np.random.default_rng(5), n_jumps=12), 0.05),
        # acceptance-corpus p-system scenario with all three solvers
        ("p-system", random_breakpoint_scenario(
            "p-system", np.random.default_rng(9000 + 17 * 8), n_jumps=5), 0.05),
    ])
    def test_run_matches_reference_loop(self, model_id, initial, epsilon):
        cfg = tk.RunConfig(model_id=model_id, initial=initial, epsilon=epsilon,
                           t_end=2.0 if model_id == "burgers" else 1.5)
        got = [(ev.t, ev.x, ev.solver, [f.id for f in ev.incoming],
                [f.id for f in ev.outgoing], ev.dV, ev.dQ)
               for ev in tk.run(cfg).events]
        ref = reference_events(cfg)
        assert len(ref) > 20
        assert got == ref

    @pytest.mark.parametrize("fixture", ["remark_timeline", "sawtooth_timeline"])
    def test_step_splices_one_table(self, fixture, request):
        # after every event the live table is q_columns of the spliced fronts
        # over their positions, as the pair-by-pair replay places them, and
        # xs is a view of its last row
        cfg = request.getfixturevalue(fixture).config
        live = tk.init_sample(fc.make_model(cfg.model_id), cfg.initial,
                              cfg.epsilon)
        replay = tk.FrontField(model=live.model, time=0.0,
                               left_state=live.left_state,
                               fronts=list(live.fronts), xs=list(live.xs))
        tk._make_live(live)
        next_id = itertools.count(len(live.fronts)).__next__
        tie_tol = tk.TIE_TOL_FACTOR * max(1.0, cfg.t_end)
        kinds = set()
        for index in itertools.count():
            col = tk.next_collision(live, tie_tol)
            if col is None or col.t > cfg.t_end:
                break
            replay_apply_event(replay, tk.step(live, cfg, next_id, index, col))
            table = live.cols
            expect = np.vstack((ms.q_columns(replay.fronts), replay.xs))
            assert table.dtype == expect.dtype == np.float64
            assert table.flags.c_contiguous and np.array_equal(table, expect)
            assert live.xs.base is table and np.array_equal(live.xs, table[4])
            # the rows are |size|, family, speed and the physical flag
            for c, e in zip(table, reference_q_columns(replay.fronts)):
                assert np.array_equal(c, e)
            kinds |= {f.is_physical for f in replay.fronts}
        assert index > 20 and kinds == (
            {True, False} if cfg.model_id == "remark-2x2" else {True})

    @pytest.mark.parametrize("fixture", ["remark_timeline", "sawtooth_timeline"])
    def test_positions_and_records_are_floats(self, fixture, request):
        tl = request.getfixturevalue(fixture)
        fld = tk.init_sample(tl.model, tl.config.initial, tl.config.epsilon)
        values = list(fld.xs) + list(tl.initial_field.xs)
        for t in [0.0, *tl.event_times(), tl.t_end]:
            values += tl.slice_at(t).xs
        for f in tl.front_records.values():
            values += [f.speed, f.size, f.born_t, f.born_x]
            values += [f.died_t] if f.died_t is not None else []
        for ev in tl.events:
            values += [ev.t, ev.x, ev.amount_I, ev.cancellation, ev.dV, ev.dQ]
        assert type(fld.xs) is list and type(tl.initial_field.xs) is list
        assert {type(v) for v in values} == {float}


class TestSelectOutgoing:
    @pytest.mark.parametrize("mid", ["remark-2x2", "p-system"])
    def test_last_front_rederives_speed_and_eigensystem(self, mid):
        # a residual below the strength floor is dropped and its jump goes
        # to the last physical front, whose speed and eigensystem follow
        model = fc.make_model(mid)
        u = fc.as_state(0.5 * (model.domain[:, 0] + model.domain[:, 1]), 2)
        f_left = tk.rm._system_front(model, 1, u, -0.02)
        f_right = tk.rm._system_front(model, 2, f_left.uR, 0.015)
        fronts = tk.rm.solve_simplified(model, f_left, f_right)
        phys = [f for f in fronts if f.is_physical]
        target = tuple(x + 5e-15 for x in phys[-1].uR)
        f_right = dataclasses.replace(f_right, uR=target)
        fronts[-1] = tk.rm._nonphysical_front(model, phys[-1].uR, target)
        assert 0.0 < fronts[-1].size <= tk.STRENGTH_FLOOR
        kept = tk._select_outgoing(model, fronts, f_left, f_right)
        assert all(f.is_physical for f in kept)
        assert kept[-1].uR is target and kept[-1] is not phys[-1]
        assert_keeps_own_eigs(model, kept)
        assert kept[-1].speed != phys[-1].speed


class TestOneStateRepresentation:
    """A state is a tuple of Python floats from the initial data to every
    record and slice, and an eigensystem holds tuples of them; public entry
    points take any sequence and hand back tuples."""

    @staticmethod
    def assert_state(u, n):
        assert type(u) is tuple and len(u) == n, u
        assert all(type(x) is float for x in u), u

    def assert_eigs(self, eigs, n):
        self.assert_state(eigs.lambdas, n)
        self.assert_state(eigs.gnl_rates, n)
        for rows in (eigs.right, eigs.left):
            assert type(rows) is tuple and len(rows) == n
            for row in rows:
                self.assert_state(row, n)

    def assert_fronts(self, fronts, n):
        for f in fronts:
            self.assert_state(f.uL, n)
            self.assert_state(f.uR, n)
            if f.eigs is not None:
                self.assert_eigs(f.eigs, n)

    # p-system/8 reaches all three solvers, cubic/0 the envelope fans
    @pytest.mark.parametrize("mid,s", [("p-system", 8), ("cubic", 0)])
    def test_corpus_run(self, mid, s):
        tl = corpus_run(mid, s)
        n = tl.model.N
        assert {e.solver for e in tl.events} >= (
            {"accurate", "simplified", "crude"} if n > 1 else {"accurate"})
        self.assert_state(tl.initial_field.left_state, n)
        self.assert_fronts(tl.front_records.values(), n)
        for t in [0.0, *tl.event_times(), tl.t_end]:
            fld = tl.slice_at(t)
            self.assert_state(fld.left_state, n)
            self.assert_fronts(fld.fronts, n)
            for x in fld.xs:
                self.assert_state(fld.state_at(x), n)

    def test_states_converted_where_they_enter(self, monkeypatch):
        # p-system/8 reaches all three solvers; as_state runs once on each
        # initial value, and neither it nor the box check runs again on the
        # checked tuples the tracker hands the accurate solver
        calls = []
        as_state, solve_accurate = fc.as_state, rm.solve_accurate
        require_inside = fc.FluxModel.require_inside
        monkeypatch.setattr(fc, "as_state", lambda *args: calls.append(
            "as_state") or as_state(*args))
        monkeypatch.setattr(fc.FluxModel, "require_inside",
                            lambda *args: calls.append("inside")
                            or require_inside(*args))
        monkeypatch.setattr(rm, "solve_accurate",
                            lambda *args, **kwargs: calls.append("solve")
                            or solve_accurate(*args, **kwargs))
        tl = corpus_run("p-system", 8)
        assert {e.solver for e in tl.events} == {"accurate", "simplified",
                                                 "crude"}
        assert calls.count("solve") > len(tl.config.initial["values"])
        assert calls.count("as_state") == len(tl.config.initial["values"])
        assert calls.count("inside") == 0

    @pytest.mark.parametrize("mid,params,uL,uR", [
        ("p-system", {}, [1.0, 0.0], [1.1, -0.05]),
        ("remark-2x2", {}, [0.0, 0.0], [0.05, 0.1]),
        ("linear", {"matrix": [[0.0, 1.0], [1.0, 0.0]]},
         [0.2, -0.1], [-0.4, 0.3]),
        ("cubic", {}, [-1.0], [1.0]),
        ("burgers", {}, [0.0], [1.0])])
    def test_public_entry_points(self, mid, params, uL, uR):
        model = fc.make_model(mid, params)
        n = model.N
        # numpy input, np.float64 components included, comes back as floats
        a, b = np.array(uL), np.array(uR)
        self.assert_eigs(model.point_eig(a), n)
        fronts = rm.solve_accurate(model, a, b, 0.05)
        assert fronts
        self.assert_fronts(fronts, n)
