import builtins
import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronttrack import flux_core as fc
from fronttrack import measures as ms
from fronttrack import riemann as rm
from fronttrack import tracker as tk

from conftest import (CORPUS, assert_keeps_own_eigs, corpus_run, quick_run,
                      reference_glimm_Q,
                      reference_q_columns, reference_source_measure_mu_jump,
                      reference_splice_deltas, reference_split_jump_cont)


def make_field(fronts, left=1.0):
    return tk.FrontField(model=fc.make_model("burgers"), time=0.0,
                         left_state=(left,), fronts=fronts,
                         xs=[f.born_x for f in fronts])


def synth_front(x, family, size, speed, kind="shock", fid=0):
    return rm.Front(family=family, born_x=x, speed=speed, uL=(0.0,),
                    uR=(size,), size=size, kind=kind, id=fid)


def _bits(floats):
    return struct.pack(f"<{len(floats)}d", *floats)


@st.composite
def splice_windows(draw):
    """(fronts, j, outgoing): up to about 300 fronts, so a summed block
    passes numpy's 128-element pairwise block, and 0 to 12 outgoing fronts,
    so rows pass numpy's 8-element unrolled sum. j is often at either end.
    The fronts come from a drawn seed: families 1 and 2 are physical or
    not, family 3 is the nonphysical N + 1, sizes run from 1e-12 to 1, and
    speeds are often drawn from a few exact values, so equal speeds meet."""
    m = draw(st.one_of(st.integers(2, 12), st.integers(2, 300)))
    k = draw(st.integers(0, 12))
    j = draw(st.one_of(st.just(0), st.just(m - 2), st.integers(0, m - 2)))
    nonphysical_share = draw(st.sampled_from([0.0, 0.2, 1.0]))
    speed_pool = draw(st.sampled_from([(), (-0.5, 0.25), (0.0, 0.25, 1.0)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fronts = []
    for fid in range(m + k):
        fam = int(rng.integers(1, 4))
        physical = fam < 3 and rng.random() >= nonphysical_share
        size = float(10.0 ** rng.uniform(-12.0, 0.0))
        if physical and rng.random() < 0.5:
            size = -size
        speed = (float(rng.choice(speed_pool)) if speed_pool and rng.random() < 0.7
                 else float(rng.uniform(-2.0, 2.0)))
        fronts.append(synth_front(0.0, fam, size, speed,
                                  "shock" if physical else "nonphysical", fid))
    return fronts[:m], j, fronts[m:]


@st.composite
def q_fields(draw):
    """Fields of 0 to 300 fronts for glimm_Q: N = 1 or 2 physical families
    plus the nonphysical family N + 1, sizes from 1e-12 to 1, and speeds
    often drawn from a few exact values, so equal speeds meet."""
    m = draw(st.one_of(st.integers(0, 12), st.integers(2, 300)))
    n_families = draw(st.sampled_from([1, 2]))
    nonphysical_share = draw(st.sampled_from([0.0, 0.2, 1.0]))
    speed_pool = draw(st.sampled_from([(), (-0.5, 0.25), (0.0, 0.25, 1.0)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fronts = []
    for fid in range(m):
        physical = rng.random() >= nonphysical_share
        fam = int(rng.integers(1, n_families + 1)) if physical else n_families + 1
        size = float(10.0 ** rng.uniform(-12.0, 0.0))
        if physical and rng.random() < 0.5:
            size = -size
        speed = (float(rng.choice(speed_pool)) if speed_pool and rng.random() < 0.7
                 else float(rng.uniform(-2.0, 2.0)))
        fronts.append(synth_front(0.0, fam, size, speed,
                                  "shock" if physical else "nonphysical", fid))
    return make_field(fronts)


def mixed_field(m, seed):
    """m fronts of families 1 and 2 and the nonphysical family 3."""
    rng = np.random.default_rng(seed)
    fronts = []
    for fid in range(m):
        fam = int(rng.integers(1, 4))
        fronts.append(synth_front(
            0.0, fam, float(rng.uniform(0.0, 0.2) if fam == 3 else rng.uniform(-1, 1)),
            float(rng.choice([0.25, rng.uniform(-1, 1)])),
            "nonphysical" if fam == 3 else "shock", fid))
    return make_field(fronts)


def _distinct_event_times(tl):
    """(t, previous distinct time) pairs; same-t cascades count as one line."""
    out = []
    prev = 0.0
    for t in sorted(set(tl.event_times())):
        out.append((t, prev))
        prev = t
    return out


def q_bruteforce(fronts):
    """Direct translation of the interaction potential: the transversal sum
    over approaching pairs plus 1/4 of the ordered same-family double sum
    (single-speed fronts collapse the double integral)."""
    q1 = 0.0
    q2 = 0.0
    m = len(fronts)
    for a in range(m):
        for b in range(m):
            fa, fb = fronts[a], fronts[b]
            if a < b and fa.family > fb.family:  # list order is spatial order
                q1 += abs(fa.size * fb.size)
            same = (fa.family == fb.family
                    and fa.is_physical and fb.is_physical)
            if same:
                q2 += 0.25 * abs(fa.size * fb.size) * abs(fa.speed - fb.speed)
    return q1 + q2


class TestVandQ:
    def test_v_examples(self):
        assert ms.total_variation_V(make_field([synth_front(0, 1, -1.0, 0.5)])) == 1.0
        two = [synth_front(-1, 1, -0.5, 0.75), synth_front(0, 1, -0.5, 0.25, fid=1)]
        assert ms.total_variation_V(make_field(two)) == 1.0
        assert ms.total_variation_V(make_field([])) == 0.0

    def test_q_single_front_zero(self):
        assert ms.glimm_Q(make_field([synth_front(0, 1, -1.0, 0.5)])) == 0.0

    def test_q_two_shocks_collapsed_integral(self):
        two = [synth_front(-1, 1, -0.5, 0.75), synth_front(0, 1, -0.5, 0.25, fid=1)]
        assert ms.glimm_Q(make_field(two)) == pytest.approx(0.0625)

    def test_q_transversal_pair(self):
        pair = [synth_front(-1, 2, 0.2, 1.0), synth_front(0, 1, 0.3, 0.0, fid=1)]
        fld = make_field(pair)
        fld.model = fc.make_model("remark-2x2")
        assert ms.glimm_Q(fld) == pytest.approx(0.06)

    def test_q_against_bruteforce_random(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            m = int(rng.integers(0, 12))
            fronts = []
            for j in range(m):
                fam = int(rng.integers(1, 4))  # includes a nonphysical family 3
                kind = "nonphysical" if fam == 3 else "shock"
                size = float(rng.uniform(-1, 1)) if fam < 3 else float(rng.uniform(0, 0.2))
                fronts.append(synth_front(j * 0.1, fam, size,
                                          float(rng.uniform(-1, 1)), kind, j))
            fld = make_field(fronts)
            assert ms.glimm_Q(fld) == pytest.approx(q_bruteforce(fronts), abs=1e-14)

    def test_splice_deltas_against_full_recompute(self):
        rng = np.random.default_rng(37)

        def random_front(fid):
            fam = int(rng.integers(1, 4))  # family 3 is the nonphysical N + 1
            if fam == 3:
                return synth_front(0.0, 3, float(rng.uniform(0, 0.2)),
                                   float(rng.uniform(-1, 1)), "nonphysical", fid)
            return synth_front(0.0, fam, float(rng.uniform(-1, 1)),
                               float(rng.uniform(-1, 1)), "shock", fid)

        windows = set()
        for trial in range(200):
            m = int(rng.integers(2, 10))
            before = [random_front(k) for k in range(m)]
            j = int(rng.integers(0, m - 1))
            outgoing = [random_front(m + k) for k in range(trial % 5)]
            after = before[:j] + outgoing + before[j + 2:]
            dV, dQ = ms.splice_deltas(ms.q_columns(before), j,
                                      ms.q_columns(outgoing))
            full_dQ = ms.glimm_Q(make_field(after)) - ms.glimm_Q(make_field(before))
            full_dV = (ms.total_variation_V(make_field(after))
                       - ms.total_variation_V(make_field(before)))
            assert dQ == pytest.approx(full_dQ, abs=1e-13)
            assert dV == pytest.approx(full_dV, abs=1e-13)
            windows.add((j == 0, j == m - 2))
        # windows at the left end, the right end, both (m = 2) and neither
        assert windows == {(True, False), (False, True), (True, True),
                           (False, False)}

    def test_splice_deltas_match_reference_bitwise(self):
        # spliced columns give the per-front reference's bits
        rng = np.random.default_rng(41)
        for trial in range(200):
            m = int(rng.integers(2, 12))
            fronts = []
            for k in range(m + trial % 5):
                fam = int(rng.integers(1, 4))
                kind = "nonphysical" if fam == 3 else "shock"
                size = float(rng.uniform(0, 0.2) if fam == 3 else rng.uniform(-1, 1))
                fronts.append(synth_front(0.0, fam, size,
                                          float(rng.uniform(-1, 1)), kind, k))
            before, outgoing = fronts[:m], fronts[m:]
            j = int(rng.integers(0, m - 1))
            got = ms.splice_deltas(ms.q_columns(before), j, ms.q_columns(outgoing))
            assert _bits(got) == _bits(reference_splice_deltas(before, j, outgoing))
            after = ms.splice_columns(ms.q_columns(before), j,
                                      ms.q_columns(outgoing))
            expect = ms.q_columns(before[:j] + outgoing + before[j + 2:])
            assert after.dtype == expect.dtype == np.float64
            assert after.flags.c_contiguous and np.array_equal(after, expect)
            # the columns are |size|, family, speed and the physical flag
            for c, e in zip(after, reference_q_columns(before[:j] + outgoing
                                                       + before[j + 2:])):
                assert np.array_equal(c, e)

    @settings(max_examples=150)
    @given(window=splice_windows())
    def test_splice_deltas_property_bitwise(self, window):
        before, j, outgoing = window
        got = ms.splice_deltas(ms.q_columns(before), j, ms.q_columns(outgoing))
        assert _bits(got) == _bits(reference_splice_deltas(before, j, outgoing))


class TestGlimmQBounded:
    """glimm_Q streams the pair weights in blocks and sums them in numpy's
    pairwise tree: the dense masks' bits in O(m) memory."""

    @settings(max_examples=100)
    @given(fld=q_fields())
    def test_small_leaves_and_blocks_keep_the_dense_bits(self, fld):
        # leaves of 128 and blocks of 64 pairs: trees of many leaves, blocks
        # of several rows, and rows cut into several blocks
        expect = _bits([reference_glimm_Q(fld)])
        assert _bits([ms.glimm_Q(fld)]) == expect
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ms, "LEAF", 128)
            mp.setattr(ms, "CHUNK", 64)
            assert _bits([ms.glimm_Q(fld)]) == expect

    def test_ladder_top_rung_keeps_the_dense_bits(self):
        # the initial field of the benchmark's 640-sample sawtooth rung
        spec = {"kind": "profile", "name": "sawtooth", "samples": 640,
                "params": {"teeth": 6, "amplitude": 0.3}}
        fld = tk.init_sample(fc.make_model("burgers"), spec, 0.02)
        assert len(fld.fronts) == 638
        assert _bits([ms.glimm_Q(fld)]) == _bits([reference_glimm_Q(fld)])

    def test_mixed_families_keep_the_dense_bits(self):
        fld = mixed_field(3000, 43)
        assert _bits([ms.glimm_Q(fld)]) == _bits([reference_glimm_Q(fld)])

    def test_memory_does_not_grow_with_the_pairs(self):
        # the dense masks trace about 108 MB at m = 2000
        fld = mixed_field(2000, 47)
        tracemalloc.start()
        try:
            ms.glimm_Q(fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_leaf_is_no_smaller_than_numpys_block(self):
        # numpy splits only nodes of more than 128 values
        assert ms.LEAF >= 128 and ms.CHUNK >= 1


class TestInteractionAmount:
    def test_same_family_hand_numbers(self):
        f1 = synth_front(0, 1, -0.2, 0.5)
        f2 = synth_front(1, 1, -0.3, 0.1, fid=1)
        amount, canc = ms.interaction_amount(f1, f2)
        assert amount == pytest.approx(0.024)
        assert canc == pytest.approx(0.0)

    def test_different_families(self):
        f1 = synth_front(0, 2, 0.2, 1.0)
        f2 = synth_front(1, 1, 0.3, 0.0, fid=1)
        amount, canc = ms.interaction_amount(f1, f2)
        assert amount == pytest.approx(0.06)
        assert canc == 0.0

    def test_cancellation_increment(self):
        f1 = synth_front(0, 1, -0.5, 0.5)
        f2 = synth_front(1, 1, 0.3, 0.1, fid=1)
        _, canc = ms.interaction_amount(f1, f2)
        assert canc == pytest.approx(0.6)

    def test_nonphysical_convention(self):
        npf = synth_front(0, 2, 0.05, 3.0, kind="nonphysical")
        phys = synth_front(1, 1, -0.4, 0.2, fid=1)
        amount, canc = ms.interaction_amount(npf, phys)
        assert amount == pytest.approx(0.02)
        assert canc == 0.0


class TestGlimmDeltas:
    def test_merge_deltas(self, burgers_merge_timeline):
        ev = burgers_merge_timeline.events[0]
        led = burgers_merge_timeline.ledger
        monotone, strict = led.verdicts([ev.amount_I])
        assert ev.dV == pytest.approx(0.0, abs=1e-14)
        assert ev.dQ == pytest.approx(-0.0625)
        assert ev.dQ == pytest.approx(-0.5 * ev.amount_I)
        assert monotone[0] and strict[0]

    def test_head_on_cancellation(self):
        # shock -0.5 at speed 0.25 catches rarefaction front +0.3 at 0.15
        initial = {"kind": "breakpoints", "xs": [-1.0, 0.0],
                   "values": [[0.5], [0.0], [0.3]]}
        tl = quick_run("burgers", initial, epsilon=0.5, t_end=12.0)
        ev = tl.events[0]
        assert ev.solver == "simplified"  # I = 0.015 <= rho = 0.125
        assert ev.dV == pytest.approx(-0.6)
        assert ev.cancellation == pytest.approx(0.6)

    def test_transversal_crossing_linear_system(self):
        cfg = tk.RunConfig(
            model_id="linear", model_params={"matrix": [[0.0, 1.0], [1.0, 0.0]]},
            initial={"kind": "breakpoints", "xs": [-1.0, 0.0],
                     "values": [[0.0, 0.0], [0.2, 0.2], [0.5, - 0.1]]},
            epsilon=0.1, t_end=5.0, rho=1e9)  # simplified path
        # left jump is a pure family-2 wave (r2 = (1,1)/sqrt2): it travels at
        # +1 and crosses the family-1 content of the right jump
        tl = tk.run(cfg)
        assert len(tl.events) == 1
        ev = tl.events[0]
        assert ev.dV == pytest.approx(0.0, abs=1e-12)
        assert ev.dQ == pytest.approx(-ev.amount_I, abs=1e-12)


class TestInteractionMeasures:
    def test_merge_atoms(self, burgers_merge_timeline):
        mu_i, mu_ic = ms.record_interaction_measures(burgers_merge_timeline.events)
        assert mu_i.ws == pytest.approx([0.125])
        assert mu_ic.ws == pytest.approx([0.125])  # same-sign: no cancellation

    def test_head_on_atoms(self):
        initial = {"kind": "breakpoints", "xs": [-1.0, 0.0],
                   "values": [[0.5], [0.0], [0.3]]}
        tl = quick_run("burgers", initial, epsilon=0.5, t_end=12.0)
        mu_i, mu_ic = ms.record_interaction_measures(tl.events)
        # sigma' - sigma'' = 0.25 - 0.15 = 0.1: I = 0.15 * 0.1
        assert mu_i.ws == pytest.approx([0.015])
        assert mu_ic.ws == pytest.approx([0.615])

    def test_transversal_equal_measures(self):
        cfg = tk.RunConfig(
            model_id="linear", model_params={"matrix": [[0.0, 1.0], [1.0, 0.0]]},
            initial={"kind": "breakpoints", "xs": [-1.0, 0.0],
                     "values": [[0.0, 0.0], [0.2, 0.2], [0.5, -0.1]]},
            epsilon=0.1, t_end=5.0)
        tl = tk.run(cfg)
        mu_i, mu_ic = ms.record_interaction_measures(tl.events)
        assert np.allclose(mu_i.ws, mu_ic.ws)


class TestWaveMeasureSlice:
    def test_scalar_shock_atom(self, burgers_merge_timeline):
        fld = burgers_merge_timeline.slice_at(3.0)
        vi = ms.wave_measure_slice(fld, 1)
        assert vi.ws == pytest.approx([-1.0])

    def test_remark_pure_family2_jump(self):
        m = fc.make_model("remark-2x2")
        f = rm._system_front(m, 2, (0.1, 0.0), 0.12)
        fld = tk.FrontField(model=m, time=0.0, left_state=f.uL, fronts=[f],
                            xs=[0.0])
        v2 = ms.wave_measure_slice(fld, 2)
        v1 = ms.wave_measure_slice(fld, 1)
        assert v2.ws == pytest.approx([0.12], abs=1e-12)
        assert v1.ws == pytest.approx([0.0], abs=1e-14)

    def test_constant_field_empty(self):
        fld = tk.FrontField(model=fc.make_model("burgers"), time=0.0,
                            left_state=(0.5,), fronts=[], xs=[])
        assert len(ms.wave_measure_slice(fld, 1)) == 0

    def test_scalar_total_matches_V(self, sawtooth_timeline):
        fld = sawtooth_timeline.slice_at(1.3)
        vi = ms.wave_measure_slice(fld, 1)
        assert float(np.abs(vi.ws).sum()) == pytest.approx(
            ms.total_variation_V(fld), abs=1e-12)


class TestWaveContents:
    def test_timeline_cache_matches_formula(self, remark_timeline):
        tl = remark_timeline
        for fid, rec in tl.front_records.items():
            for i in range(1, tl.model.N + 1):
                assert tl.wave_content(fid, i) == ms.front_wave_content(
                    tl.model, i, rec.uL, rec.uR)

    def test_one_eigensystem_per_front(self, remark_timeline, monkeypatch):
        # the same run with an empty content cache
        src = remark_timeline
        tl = tk.Timeline(src.model, src.config, src.initial_field, src.events,
                         src.front_records, src.ledger, src.t_end)
        calls = []
        average_eigs = fc.average_eigs

        def counted(model, uL, uR):
            calls.append((uL, uR))
            return average_eigs(model, uL, uR)

        monkeypatch.setattr(fc, "average_eigs", counted)
        for _ in range(2):
            for i in (2, 1):
                for fid in tl.front_records:
                    tl.wave_content(fid, i)
        # fronts that keep their eigensystem need no call
        unkept = sum(rec.eigs is None and rec.uL != rec.uR
                     for rec in tl.front_records.values())
        kept = sum(rec.eigs is not None for rec in tl.front_records.values())
        assert len(tl.front_records) > 20 and kept > 20 and unkept > 5
        assert len(calls) == unkept

    @pytest.mark.parametrize("fixture", ["remark_timeline", "sawtooth_timeline"])
    def test_records_keep_own_eigensystem(self, fixture, request):
        tl = request.getfixturevalue(fixture)
        assert_keeps_own_eigs(tl.model, tl.front_records.values())

    def test_slice_measures_match_fresh_eigensystems(self, remark_timeline):
        # the slice measures read each front's stored eigensystem; the same
        # fronts without one take it from average_eigs
        tl = remark_timeline
        curves = tl.curves(2)
        for t in (0.3, 0.8, 1.4):
            fld = tl.slice_at(t)
            bare = tk.FrontField(
                model=fld.model, time=t, left_state=fld.left_state,
                fronts=[dataclasses.replace(f, eigs=None) for f in fld.fronts],
                xs=fld.xs)
            assert any(f.eigs is not None for f in fld.fronts)
            for i in (1, 2):
                pairs = [(ms.wave_measure_slice(fld, i),
                          ms.wave_measure_slice(bare, i)),
                         (ms.lambda_component_slice(fld, i, curves),
                          ms.lambda_component_slice(bare, i, curves)),
                         *zip(ms.split_jump_cont(fld, i, curves),
                              ms.split_jump_cont(bare, i, curves))]
                for got, ref in pairs:
                    assert got.xs.tobytes() == ref.xs.tobytes()
                    assert got.ws.tobytes() == ref.ws.tobytes()

    def test_slice_measures_read_the_timeline_cache(self, remark_timeline,
                                                    monkeypatch):
        # contents read through Timeline.wave_content give the computed
        # measures' bits, and once cached cost no eigensystem
        tl = remark_timeline
        curves = tl.curves(1)
        fields = [tl.slice_at(t) for t in (0.3, 0.8, 1.4)]
        assert any(not f.is_physical for fld in fields for f in fld.fronts)
        expect = [(ms.wave_measure_slice(fld, i),
                   *ms.split_jump_cont(fld, i, curves))
                  for fld in fields for i in (1, 2)]
        for fld in fields:
            for f in fld.fronts:
                tl.wave_content(f.id, 1)
        monkeypatch.setattr(fc, "average_eigs", None)
        got = [(ms.wave_measure_slice(fld, i, tl.wave_content),
                *ms.split_jump_cont(fld, i, curves, tl.wave_content))
               for fld in fields for i in (1, 2)]
        for g, e in zip(sum(got, ()), sum(expect, ())):
            assert g.xs.tobytes() == e.xs.tobytes()
            assert g.ws.tobytes() == e.ws.tobytes()


class TestLambdaComponentSlice:
    def test_classified_burgers_shock_atom(self):
        # lambda = u jumps by -1 across the 1 -> 0 shock; unit jump ratio
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                   "values": [[1.0], [0.0]]}, 0.1, 2.0)
        curves = ms.extract_shock_curves(tl, 1, 0.1, 0.5)
        fld = tl.slice_at(1.0)
        atoms = ms.lambda_component_slice(fld, 1, curves)
        assert atoms.ws == pytest.approx([-1.0])

    def test_remark_contact_atom_vanishes(self):
        # lambda_1 is identically zero, so the family-1 jump term is zero
        m = fc.make_model("remark-2x2")
        f = rm._system_front(m, 1, (0.0, 0.1), 0.15)
        f.id = 0
        fld = tk.FrontField(model=m, time=0.0, left_state=f.uL, fronts=[f],
                            xs=[0.0])
        curve = ms.ShockCurve(family=1, nodes=[(0.0, 0.0), (1.0, 0.0)],
                              node_events=[None, None],
                              segment_sizes=[f.size], segment_front_ids=[0],
                              survives=True)
        atoms = ms.lambda_component_slice(fld, 1, [curve])
        assert atoms.ws == pytest.approx([0.0], abs=1e-14)

    def test_unclassified_front_uses_continuous_branch(self):
        # off-curve fronts carry the rate-weighted continuous content
        m = fc.make_model("burgers")
        f = rm._system_front(m, 1, (0.2,), 0.1)
        f.id = 0
        fld = tk.FrontField(model=m, time=0.0, left_state=f.uL, fronts=[f],
                            xs=[0.0])
        atoms = ms.lambda_component_slice(fld, 1, [])
        assert atoms.ws == pytest.approx([0.1])  # rate 1 times content 0.1

    def test_constant_field_empty(self):
        fld = tk.FrontField(model=fc.make_model("burgers"), time=0.0,
                            left_state=(0.0,), fronts=[], xs=[])
        assert len(ms.lambda_component_slice(fld, 1, [])) == 0


class TestShockCurves:
    def test_persistent_shock_single_curve(self):
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                   "values": [[1.0], [0.0]]}, 0.1, 2.0)
        curves = ms.extract_shock_curves(tl, 1, 0.1, 0.5)
        assert len(curves) == 1
        c = curves[0]
        assert c.t_minus == 0.0 and c.nodes[-1][0] == 2.0 and c.survives

    def test_below_eps1_empty(self, burgers_fan_timeline):
        assert ms.extract_shock_curves(burgers_fan_timeline, 1, 0.001, 0.5) == []

    def test_merge_leftmost_rule(self, burgers_merge_timeline):
        curves = ms.extract_shock_curves(burgers_merge_timeline, 1, 0.1, 0.5)
        assert len(curves) == 2
        left, right = curves[0], curves[1]
        t_ev = burgers_merge_timeline.events[0].t
        # left incoming curve continues through the merge
        assert left.nodes[-1][0] == burgers_merge_timeline.t_end
        assert left.segment_sizes == pytest.approx([-0.5, -1.0])
        # right incoming curve terminates at the node
        assert right.nodes[-1][0] == t_ev
        assert not right.survives

    def test_definition_reverified(self, sawtooth_timeline):
        eps0, eps1 = 0.05, 0.2
        curves = ms.extract_shock_curves(sawtooth_timeline, 1, eps0, eps1)
        recs = sawtooth_timeline.front_records
        for c in curves:
            assert all(abs(s) >= eps0 for s in c.segment_sizes)
            assert max(abs(s) for s in c.segment_sizes) >= eps1
            for fid in c.segment_front_ids:
                assert recs[fid].kind in ("shock", "contact")
                assert recs[fid].family == 1
            # nodes are interaction points (or data/horizon endpoints)
            for ev_idx in c.node_events[1:-1]:
                assert ev_idx is not None


class TestSplitJumpCont:
    def test_partition_is_exact(self, sawtooth_timeline):
        curves = ms.extract_shock_curves(sawtooth_timeline, 1, 0.05, 0.2)
        fld = sawtooth_timeline.slice_at(1.5)
        vi = ms.wave_measure_slice(fld, 1)
        vj, vc = ms.split_jump_cont(fld, 1, curves)
        assert len(vj) + len(vc) == len(vi)
        assert vj.mass() + vc.mass() == pytest.approx(vi.mass(), abs=1e-14)
        merged = sorted([(x, w) for x, w in zip(vj.xs, vj.ws)]
                        + [(x, w) for x, w in zip(vc.xs, vc.ws)])
        orig = sorted(zip(vi.xs, vi.ws))
        assert merged == orig

    def test_no_curves_all_continuous(self, burgers_fan_timeline):
        fld = burgers_fan_timeline.slice_at(1.0)
        vj, vc = ms.split_jump_cont(fld, 1, [])
        assert len(vj) == 0
        assert len(vc) == len(fld.fronts)


class TestSourceMeasures:
    def test_scalar_merge_atom_vanishes(self, burgers_merge_timeline):
        mu = ms.source_measure_mu_i(burgers_merge_timeline, 1)
        assert len(mu) == 1
        assert mu.ws[0] == pytest.approx(0.0, abs=1e-14)

    def test_horizontal_balance_identity(self, sawtooth_timeline):
        tl = sawtooth_timeline
        mu = ms.source_measure_mu_i(tl, 1)
        for t, prev in _distinct_event_times(tl)[:8]:
            before = 0.5 * (prev + t)
            v_minus = ms.wave_measure_slice(tl.slice_at(before), 1).mass()
            v_plus = ms.wave_measure_slice(tl.slice_at(t), 1).mass()
            atoms_at_t = float(mu.ws[mu.ts == t].sum())
            assert v_plus - v_minus == pytest.approx(atoms_at_t, abs=1e-12)

    def test_horizontal_balance_jump_identity(self, sawtooth_timeline):
        tl = sawtooth_timeline
        curves = ms.extract_shock_curves(tl, 1, 0.05, 0.2)
        atoms, _ = ms.source_measure_mu_jump(tl, 1, curves)
        for t, prev in _distinct_event_times(tl)[:8]:
            before = 0.5 * (prev + t)
            vj_minus, _ = ms.split_jump_cont(tl.slice_at(before), 1, curves)
            vj_plus, _ = ms.split_jump_cont(tl.slice_at(t), 1, curves)
            at_t = float(atoms.ws[atoms.ts == t].sum())
            assert vj_plus.mass() - vj_minus.mass() == pytest.approx(
                at_t, abs=1e-12)

    def test_mu_i_controlled_by_interaction(self, remark_timeline):
        mu = ms.source_measure_mu_i(remark_timeline, 2)
        for ev, p in zip(remark_timeline.events, mu.ws):
            assert abs(p) <= 20.0 * ev.amount_I + 1e-12

    def test_mu_jump_initiation_atom(self):
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                   "values": [[0.7], [0.0]]}, 0.1, 1.0)
        curves = ms.extract_shock_curves(tl, 1, 0.1, 0.5)
        atoms, report = ms.source_measure_mu_jump(tl, 1, curves)
        assert len(atoms) == 1
        assert atoms.ts[0] == 0.0
        assert atoms.ws[0] == pytest.approx(-0.7)
        assert report[0]["label"] == "initiation"

    def test_mu_jump_merge_atom_scalar_additivity(self, burgers_merge_timeline):
        curves = ms.extract_shock_curves(burgers_merge_timeline, 1, 0.1, 0.4)
        atoms, report = ms.source_measure_mu_jump(burgers_merge_timeline, 1, curves)
        t_ev = burgers_merge_timeline.events[0].t
        merge_atoms = [w for t, w in zip(atoms.ts, atoms.ws) if t == t_ev]
        assert merge_atoms == pytest.approx([0.0], abs=1e-14)
        labels = {r["label"] for r in report if r["t"] == t_ev}
        assert labels == {"merge"}

    def test_mu_jump_termination_and_offcurve(self):
        # strong shock eroded by a rarefaction below eps0: termination;
        # strong shock nicked by a tiny rarefaction: off-curve interaction
        init = {"kind": "breakpoints", "xs": [-1.0, 0.0],
                "values": [[0.3], [0.0], [0.25]]}
        tl = quick_run("burgers", init, epsilon=0.5, t_end=50.0)
        curves = ms.extract_shock_curves(tl, 1, 0.1, 0.25)
        atoms, report = ms.source_measure_mu_jump(tl, 1, curves)
        labels = [r["label"] for r in report]
        assert "termination" in labels
        term = next(r for r in report if r["label"] == "termination")
        assert term["q"] == pytest.approx(0.3)  # -s' with s' = -0.3

        init2 = {"kind": "breakpoints", "xs": [-1.0, 0.0],
                 "values": [[0.5], [0.0], [0.05]]}
        tl2 = quick_run("burgers", init2, epsilon=0.5, t_end=20.0)
        curves2 = ms.extract_shock_curves(tl2, 1, 0.1, 0.25)
        atoms2, report2 = ms.source_measure_mu_jump(tl2, 1, curves2)
        off = [r for r in report2 if r["label"] == "off_curve_interaction"]
        assert len(off) == 1
        assert off[0]["q"] == pytest.approx(0.05)  # s - s'


class TestMuICJ:
    def test_no_activity_empty(self):
        tl = quick_run("burgers", {"kind": "breakpoints", "xs": [0.0],
                                   "values": [[0.0], [0.0]]}, 0.1, 1.0)
        icj = ms.mu_ICJ(tl, 1, [])
        assert len(icj) == 0

    def test_single_merge_atom_is_ic_plus_jump(self, burgers_merge_timeline):
        tl = burgers_merge_timeline
        curves = tl.curves(1)
        icj = ms.mu_ICJ(tl, 1, curves)
        t_ev = tl.events[0].t
        at_event = float(icj.ws[icj.ts == t_ev].sum())
        _, mu_ic = ms.record_interaction_measures(tl.events)
        mu_jump, _ = ms.source_measure_mu_jump(tl, 1, curves)
        expect = float(mu_ic.ws[mu_ic.ts == t_ev].sum()) + abs(
            float(mu_jump.ws[mu_jump.ts == t_ev].sum()))
        assert at_event == pytest.approx(expect)

    def test_sawtooth_total_mass_bounded(self, sawtooth_timeline):
        curves = sawtooth_timeline.curves(1)
        icj = ms.mu_ICJ(sawtooth_timeline, 1, curves)
        ups0 = sawtooth_timeline.ledger.upsilon0()
        assert icj.total_mass() <= 50.0 * ups0


def _same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


class TestAgainstReference:
    """The one-pass measures against the two-pass references, bit for bit."""

    FIXTURES = ["remark_timeline", "sawtooth_timeline", "burgers_merge_timeline"]

    @staticmethod
    def cases(tl):
        for i in range(1, tl.model.N + 1):
            for curves in (tl.curves(i), []):
                yield i, curves

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_source_measure_mu_jump(self, fixture, request):
        tl = request.getfixturevalue(fixture)
        for i, curves in self.cases(tl):
            got, got_report = ms.source_measure_mu_jump(tl, i, curves)
            ref, ref_report = reference_source_measure_mu_jump(tl, i, curves)
            assert got_report == ref_report
            for name in ("ts", "xs", "ws"):
                assert _same_array(getattr(got, name), getattr(ref, name))

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_split_jump_cont(self, fixture, request):
        tl = request.getfixturevalue(fixture)
        times = sorted(set(tl.event_times()))
        times += [0.5 * (a + b) for a, b in zip(times[:-1], times[1:])]
        for t in times:
            fld = tl.slice_at(t)
            for i, curves in self.cases(tl):
                got = ms.split_jump_cont(fld, i, curves)
                ref = reference_split_jump_cont(fld, i, curves)
                for g, r in zip(got, ref):
                    assert _same_array(g.xs, r.xs) and _same_array(g.ws, r.ws)


class TestCalibration:
    def test_upsilon_nonincreasing_with_calibrated_c0(self, sawtooth_timeline):
        led = sawtooth_timeline.ledger
        assert led.calibrated
        assert np.all(np.diff(led.Upsilons) <= 1e-12 * led.upsilon0())
        assert np.allclose(led.Upsilons, led.Vs + led.C0 * led.Qs)

    @pytest.mark.parametrize("fixture", [
        "burgers_merge_timeline", "burgers_fan_timeline", "sawtooth_timeline",
        "remark_timeline"])
    def test_running_sums_are_sequential(self, fixture, request):
        # V and Q after event k are the sums before it plus its own deltas,
        # to the last bit
        tl = request.getfixturevalue(fixture)
        led = tl.ledger
        assert len(led.Vs) == len(led.Qs) == len(tl.events) + 1
        for k, ev in enumerate(tl.events):
            assert led.Vs[k + 1] == led.Vs[k] + ev.dV
            assert led.Qs[k + 1] == led.Qs[k] + ev.dQ


_BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """builtins.sum as Python 3.12 and later compute it on floats: Neumaier's
    compensated summation when start is 0 and every item is a float, the
    plain sum otherwise."""
    items = list(iterable)
    if (type(start) is not int or start != 0 or not items
            or not all(type(x) is float for x in items)):
        return _BUILTIN_SUM(items, start)
    total = comp = 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


class TestSumsDoNotDependOnPython:
    """V0, every dV and the wave balances sum their floats in one fixed
    order, so the ledger keeps its bits under the builtin sum of Python 3.12
    and later, which compensates its rounding."""

    def test_compensated_sum_differs_from_the_plain_one(self):
        items = [0.1] * 10
        assert fc.total(items) != 1.0 and compensated_sum(items) == 1.0

    @pytest.mark.parametrize("mid", sorted(CORPUS))
    def test_corpus_ledgers_keep_their_bits(self, mid, monkeypatch):
        def ledger_bits(tl):
            led = tl.ledger
            return [a.tobytes() for a in (led.Vs, led.Qs, led.dVs, led.dQs)]

        plain = [ledger_bits(corpus_run(mid, s)) for s in range(10)]
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        compensated = [ledger_bits(corpus_run(mid, s)) for s in range(10)]
        assert compensated == plain
