import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronttrack import flux_core as fc
from fronttrack import riemann as rm
from fronttrack import tracker as tk
from fronttrack.errors import (CapExceededError, CurveError, DomainError,
                              RiemannError)

from conftest import (assert_keeps_own_eigs, bits, random_state,
                      reference_curve_state, reference_solve_sizes, same_bits,
                      same_eigs)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def rk4_integral_curve(model, k, u0, s, rescale, n=4000):
    """Independent rarefaction-curve oracle: integrate du/dtau = r_k(u)
    (rescaled by the nonlinearity rate when requested) with fixed-step RK4."""
    u = np.asarray(u0, dtype=float).copy()
    h = s / n

    def rhs(w):
        sys = model.point_eig(w)
        r = np.array(sys.right[k - 1])
        if rescale:
            return r / sys.gnl_rates[k - 1]
        return r

    for _ in range(n):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def rh_residual(model, uL, uR, sigma):
    return float(np.max(np.abs(model.f(uR) - model.f(uL)
                               - sigma * np.subtract(uR, uL))))


def fan_closure_defect(fan, uL, uR):
    u = uL
    for f in fan:
        assert np.allclose(f.uL, u, atol=1e-9)
        u = f.uR
    return float(np.max(np.abs(np.subtract(u, uR))))


def curve_state(model, k, u0, s, parametrization="unit"):
    """(T, sigma) of riemann._curve_point from any sequence u0."""
    return rm._curve_point(model, k, fc.as_state(u0, model.N), s,
                           parametrization)[:2]


class TestElementaryCurve:
    def test_burgers_rarefaction_branch(self):
        m = fc.make_model("burgers")
        cp = rm.elementary_curve(m, 1, [0.0], 0.4)
        assert cp.state[0] == pytest.approx(0.4, abs=1e-12)
        assert cp.sigma == pytest.approx(0.4, abs=1e-12)

    def test_burgers_shock_branch(self):
        m = fc.make_model("burgers")
        cp = rm.elementary_curve(m, 1, [1.0], -1.0)
        assert cp.state[0] == pytest.approx(0.0, abs=1e-12)
        assert cp.sigma == pytest.approx(0.5, abs=1e-12)  # (f(1)-f(0))/1

    def test_remark_family1_contact_curve(self):
        m = fc.make_model("remark-2x2")
        cp = rm.elementary_curve(m, 1, [0.0, 0.0], 0.3)
        # integral curve of r1 keeps v = 0 from v = 0 and lambda_1 = 0
        assert cp.state == pytest.approx([0.3, 0.0], abs=1e-12)
        assert cp.sigma == 0.0
        assert fc.eig_decompose(m, cp.state).lambdas[0] == 0.0

    def test_remark_family1_matches_rk4_oracle(self):
        m = fc.make_model("remark-2x2")
        u0 = np.array([0.05, 0.1])
        target = rm.elementary_curve(m, 1, u0, 0.2, "unit").state
        # the arclength RK4 curve traces the same locus; compare via the
        # contact invariants (1+u+v)v and lambda_1 rather than the parameter
        inv0 = (1 + u0[0] + u0[1]) * u0[1]
        inv1 = (1 + target[0] + target[1]) * target[1]
        assert inv1 == pytest.approx(inv0, abs=1e-12)
        l1 = fc.eig_decompose(m, u0).left[0]
        proj = float(l1 @ np.subtract(target, u0))
        assert proj == pytest.approx(0.2, abs=1e-12)

    def test_remark_family2_lambda_parametrization(self):
        m = fc.make_model("remark-2x2")
        u0 = np.array([0.1, -0.05])
        for s in (0.05, 0.21):
            cp = rm.elementary_curve(m, 2, u0, s, "lambda")
            lam0 = fc.eig_decompose(m, u0).lambdas[1]
            lam1 = fc.eig_decompose(m, cp.state).lambdas[1]
            assert lam1 - lam0 == pytest.approx(s, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2])
    def test_psystem_rarefaction_against_rk4(self, k):
        m = fc.make_model("p-system")
        u0 = np.array([1.2, 0.1])
        s = 0.15
        cp = rm.elementary_curve(m, k, u0, s, "lambda")
        oracle = rk4_integral_curve(m, k, u0, s, rescale=True)
        assert np.max(np.abs(np.subtract(cp.state, oracle))) <= 1e-10
        lam0 = fc.eig_decompose(m, u0).lambdas[k - 1]
        lam1 = fc.eig_decompose(m, cp.state).lambdas[k - 1]
        assert lam1 - lam0 == pytest.approx(s, abs=1e-10)

    @pytest.mark.parametrize("k", [1, 2])
    def test_psystem_hugoniot_branch(self, k):
        m = fc.make_model("p-system")
        u0 = np.array([1.0, 0.0])
        cp = rm.elementary_curve(m, k, u0, -0.25, "unit")
        assert rh_residual(m, u0, cp.state, cp.sigma) <= 1e-10
        lam_l = fc.eig_decompose(m, u0).lambdas[k - 1]
        lam_r = fc.eig_decompose(m, cp.state).lambdas[k - 1]
        assert lam_r < cp.sigma < lam_l  # Lax inequalities

    def test_unit_parametrization_is_left_projection(self):
        rng = np.random.default_rng(4)
        for mid in ("remark-2x2", "p-system"):
            m = fc.make_model(mid)
            for _ in range(10):
                u0 = random_state(m, rng)
                for k in range(1, 3):
                    for s in (-0.05, 0.07):
                        try:
                            cp = rm.elementary_curve(m, k, u0, s, "unit")
                        except (CurveError, DomainError):
                            continue
                        proj = float(fc.eig_decompose(m, u0).left[k - 1]
                                     @ np.subtract(cp.state, u0))
                        assert proj == pytest.approx(s, abs=1e-12)

    def test_general_scalar_field_refused(self):
        with pytest.raises(CurveError):
            rm.elementary_curve(fc.make_model("cubic"), 1, [0.5], 0.1)

    def test_curve_radius_enforced(self):
        with pytest.raises(CurveError):
            rm.elementary_curve(fc.make_model("burgers"), 1, [0.0], 5.0)


class TestScalarEnvelopeFan:
    def test_burgers_single_shock(self):
        m = fc.make_model("burgers")
        fan = rm.scalar_envelope_fan(m, [1.0], [0.0], 0.25)
        assert len(fan) == 1
        f = fan[0]
        assert f.kind == "shock"
        assert f.speed == pytest.approx(0.5)
        assert f.size == pytest.approx(-1.0)

    def test_burgers_four_front_fan(self):
        # secant slopes of u^2/2 over [0,.25],...,[.75,1]
        m = fc.make_model("burgers")
        fan = rm.scalar_envelope_fan(m, [0.0], [1.0], 0.25)
        speeds = [f.speed for f in fan]
        assert speeds == pytest.approx([0.125, 0.375, 0.625, 0.875])
        assert all(f.kind == "rarefaction" for f in fan)

    def test_cubic_envelope_tangency(self):
        # convex envelope of u^3/3 on [-1, 1]: tangency 2u^3 + 3u^2 - 1 = 0
        # at u* = 1/2, shock speed f'(1/2) = 1/4, then a fan up to speed 1
        m = fc.make_model("cubic")
        fan = rm.scalar_envelope_fan(m, [-1.0], [1.0], 0.25)
        first = fan[0]
        assert first.kind == "shock"
        assert first.uR[0] == pytest.approx(0.5, abs=1e-10)
        assert first.speed == pytest.approx(0.25, abs=1e-10)
        rest = fan[1:]
        assert all(f.kind == "rarefaction" for f in rest)
        assert rest[-1].uR[0] == pytest.approx(1.0)
        # fan covers characteristic speeds [0.25, 1]
        assert m.fprime(rest[-1].uR[0]) == pytest.approx(1.0)

    def test_oleinik_admissibility_random_cubic(self):
        m = fc.make_model("cubic")
        rng = np.random.default_rng(12)
        for _ in range(20):
            a, b = random_state(m, rng)[0], random_state(m, rng)[0]
            if abs(a - b) < 1e-3:
                continue
            fan = rm.scalar_envelope_fan(m, [a], [b], 0.2)
            assert fan_closure_defect(fan, [a], [b]) == 0.0
            speeds = [f.speed for f in fan]
            assert all(s2 - s1 >= -1e-12 for s1, s2 in zip(speeds, speeds[1:]))
            for f in fan:
                if f.kind != "shock":
                    continue
                ua, ub = f.uL[0], f.uR[0]
                for w in np.linspace(ua, ub, 13)[1:-1]:
                    chord = (m.f_scalar(w) - m.f_scalar(ua)) / (w - ua)
                    assert f.speed <= chord + 1e-9  # Oleinik E-condition

    def test_rankine_hugoniot_exact_per_front(self):
        m = fc.make_model("cubic")
        fan = rm.scalar_envelope_fan(m, [-1.0], [1.0], 0.2)
        for f in fan:
            assert rh_residual(m, f.uL, f.uR, f.speed) <= 1e-14

    def test_fan_opening_bound(self):
        m = fc.make_model("burgers")
        eps = 0.07
        fan = rm.scalar_envelope_fan(m, [-0.8], [0.9], eps)
        for f in fan:
            opening = m.fprime(f.uR[0]) - m.fprime(f.uL[0])
            assert opening <= eps + 1e-12


class TestSolveAccurate:
    def test_identical_states_empty_fan(self):
        m = fc.make_model("p-system")
        fan = rm.solve_accurate(m, [1.0, 0.0], [1.0, 0.0], 0.1)
        assert fan == []

    def test_remark_pure_family2_rarefaction(self):
        m = fc.make_model("remark-2x2")
        fan = rm.solve_accurate(m, [0.0, 0.0], [0.0, 0.2], 0.05)
        sizes = [sum(f.size for f in fan if f.family == k) for k in (1, 2)]
        assert sizes[0] == pytest.approx(0.0, abs=1e-12)
        assert sizes[1] == pytest.approx(0.2, abs=1e-12)
        assert all(f.family == 2 and f.kind == "rarefaction" for f in fan)
        # oracle: uR already lies on the family-2 curve through uL
        cp = rm.elementary_curve(m, 2, [0.0, 0.0], 0.2, "unit")
        assert np.allclose(cp.state, [0.0, 0.2], atol=1e-12)

    @pytest.mark.parametrize("mid, uL, uR", [
        ("burgers", [0.0], [1.0]),  # the envelope's curved piece
        ("cubic", [-1.0], [1.0]),  # a shock, then a fan
        ("remark-2x2", [0.0, 0.0], [0.0, 0.2]),  # a family-2 fan
    ])
    def test_fan_cap_counts_before_building(self, mid, uL, uR, monkeypatch):
        # a fan of n fronts passes a cap of n and is refused under n - 1
        # before any of its fronts is built
        m = fc.make_model(mid)

        def fan_size(front_cap):
            return sum(f.kind == "rarefaction"
                       for f in rm.solve_accurate(m, uL, uR, 0.05, front_cap))

        n = fan_size(20000)
        assert n > 1 and fan_size(n) == n

        def never(*args):
            raise AssertionError("a fan front was built")

        # each scalar fan front takes a brentq root, each system one a speed
        monkeypatch.setattr(rm, "brentq", never)
        monkeypatch.setattr(rm, "front_speed", never)
        with pytest.raises(CapExceededError) as info:
            rm.solve_accurate(m, uL, uR, 0.05, front_cap=n - 1)
        assert str(info.value) == f"a fan of {n} fronts exceeds the front cap {n - 1}"

    def test_burgers_coincides_with_envelope(self):
        m = fc.make_model("burgers")
        fan_a = rm.solve_accurate(m, [0.0], [1.0], 0.25)
        fan_e = rm.scalar_envelope_fan(m, [0.0], [1.0], 0.25)
        assert len(fan_a) == len(fan_e)
        for fa, fe in zip(fan_a, fan_e):
            assert fa.speed == fe.speed
            assert fa.size == fe.size
            assert fa.kind == fe.kind

    @pytest.mark.parametrize("mid", ["remark-2x2", "p-system"])
    def test_closure_lax_rh_random(self, mid):
        model = fc.make_model(mid)
        rng = np.random.default_rng(21)
        eps = 0.04
        n_ok = 0
        for _ in range(25):
            uL = random_state(model, rng, 0.25)
            uR = random_state(model, rng, 0.25)
            try:
                fan = rm.solve_accurate(model, uL, uR, eps)
            except RiemannError:
                continue
            n_ok += 1
            assert fan_closure_defect(fan, uL, uR) <= 1e-12
            speeds = [f.speed for f in fan]
            assert all(b - a > -1e-12 for a, b in zip(speeds, speeds[1:]))
            for f in fan:
                k = f.family
                if f.kind == "shock" and model.field_kind[k - 1] == fc.GNL:
                    lam_l = model.point_eig(f.uL).lambdas[k - 1]
                    lam_r = model.point_eig(f.uR).lambdas[k - 1]
                    assert lam_r - 1e-12 < f.speed < lam_l + 1e-12
                    assert rh_residual(model, f.uL, f.uR, f.speed) <= 1e-10
                if f.kind == "contact":
                    assert rh_residual(model, f.uL, f.uR, f.speed) <= 1e-10
                if f.kind == "rarefaction":
                    lam_l = model.point_eig(f.uL).lambdas[k - 1]
                    lam_r = model.point_eig(f.uR).lambdas[k - 1]
                    assert lam_r - lam_l <= eps + 1e-12  # fan opening
                    jump = float(np.linalg.norm(f.jump()))
                    assert rh_residual(model, f.uL, f.uR, f.speed) <= \
                        10.0 * eps * jump + 1e-12
        assert n_ok >= 15

    def test_jump_too_large_rejected(self):
        m = fc.make_model("p-system")
        with pytest.raises(RiemannError):
            rm.solve_accurate(m, [0.55, -0.9], [1.95, 0.9], 0.05)


def _front(model, family, uL, s):
    return rm._system_front(model, family, fc.as_state(uL, model.N), s)


class TestSolveSimplified:
    def test_burgers_shocks_merge_exactly(self):
        m = fc.make_model("burgers")
        left = _front(m, 1, [1.0], -0.5)
        right = _front(m, 1, [0.5], -0.5)
        fan = rm.solve_simplified(m, left, right)
        phys = [f for f in fan if f.is_physical]
        assert len(phys) == 1
        assert phys[0].size == pytest.approx(-1.0)
        assert fan[-1].kind == "nonphysical"
        assert fan[-1].size == pytest.approx(0.0, abs=1e-15)

    def test_remark_transversal_keeps_sizes(self):
        # family-2 front (faster) hits a family-1 contact from the left
        m = fc.make_model("remark-2x2")
        left = _front(m, 2, [0.0, 0.1], -0.1)
        right = _front(m, 1, left.uR, 0.08)
        fan = rm.solve_simplified(m, left, right)
        phys = [f for f in fan if f.is_physical]
        assert [f.family for f in phys] == [1, 2]
        assert phys[0].size == pytest.approx(0.08)
        assert phys[1].size == pytest.approx(-0.1)
        assert fan[-1].kind == "nonphysical"
        assert fan[-1].speed == m.lambda_hat
        # closure is exact by construction of the residual
        assert fan_closure_defect(fan, left.uL, right.uR) == 0.0

    def test_same_family_opposite_signs(self):
        m = fc.make_model("burgers")
        left = _front(m, 1, [0.5], -0.5)
        right = _front(m, 1, [0.0], 0.3)
        fan = rm.solve_simplified(m, left, right)
        phys = [f for f in fan if f.is_physical]
        assert len(phys) == 1
        assert phys[0].size == pytest.approx(-0.2)
        assert fan_closure_defect(fan, [0.5], [0.3]) == 0.0


class TestSolveCrude:
    def test_zero_strength_nonphysical_reemits(self):
        m = fc.make_model("remark-2x2")
        phys = _front(m, 2, [0.0, 0.0], -0.1)
        nonphys = rm._nonphysical_front(m, (0.0, 0.0), (0.0, 0.0))
        fan = rm.solve_crude(m, nonphys, phys)
        out_phys = [f for f in fan if f.is_physical]
        assert out_phys[0].size == pytest.approx(-0.1)
        assert np.allclose(out_phys[0].uR, phys.uR, atol=1e-14)
        assert fan[-1].kind == "nonphysical"
        assert fan[-1].size <= 1e-14

    def test_shifted_left_state_chain_closure(self):
        m = fc.make_model("remark-2x2")
        base = (0.0, 0.0)
        shifted = (0.0, 0.04)
        phys = _front(m, 2, shifted, -0.1)
        nonphys = rm._nonphysical_front(m, base, shifted)
        fan = rm.solve_crude(m, nonphys, phys)
        assert fan_closure_defect(fan, base, phys.uR) == 0.0
        out_phys = [f for f in fan if f.is_physical][0]
        assert out_phys.size == pytest.approx(-0.1)
        assert out_phys.family == 2

    def test_contact_reemitted_at_zero_speed(self):
        m = fc.make_model("remark-2x2")
        phys = _front(m, 1, [0.0, 0.05], 0.1)
        nonphys = rm._nonphysical_front(m, (0.02, 0.05), (0.0, 0.05))
        fan = rm.solve_crude(m, nonphys, phys)
        out_phys = [f for f in fan if f.is_physical][0]
        assert out_phys.family == 1
        assert out_phys.speed == 0.0  # lambda_1 vanishes identically


class TestStoredEigensystem:
    """A system front keeps the averaged eigensystem of its own (uL, uR),
    the one its speed came from."""

    @pytest.mark.parametrize("mid,params", [
        ("remark-2x2", {}), ("p-system", {}),
        ("linear", {"matrix": [[0.0, 1.0], [1.0, 0.0]]}), ("burgers", {})])
    def test_accurate_fronts_closing_front_included(self, mid, params):
        model = fc.make_model(mid, params)
        rng = np.random.default_rng(8)
        solved = 0
        for _ in range(60):
            uL = random_state(model, rng)
            width = model.domain[:, 1] - model.domain[:, 0]
            uR = uL + 0.08 * width * (2.0 * rng.random(model.N) - 1.0)
            if not model.contains(uR):
                continue
            fronts = rm.solve_accurate(model, uL, uR, 0.02)
            # the closing front's right state is replaced by uR itself
            assert same_bits(fronts[-1].uR, uR)
            assert_keeps_own_eigs(model, fronts)
            solved += 1
        assert solved >= 30

    @pytest.mark.parametrize("mid,uL,uR,speeds", [
        # the contact and shock chain ends on uR bit for bit
        ("remark-2x2", [0.0, 0.0], [0.05, -0.05], 2),
        # the chain ends within roundoff of uR: the closing front is redone
        ("p-system", [1.0, 0.0], [1.0, -0.1], 3)])
    def test_closing_front_speed_taken_once(self, mid, uL, uR, speeds,
                                            monkeypatch):
        model = fc.make_model(mid)
        uL, uR = np.array(uL), np.array(uR)
        calls = []
        front_speed = rm.front_speed

        def counted(*args):
            calls.append(args)
            return front_speed(*args)

        monkeypatch.setattr(rm, "front_speed", counted)
        fronts = rm.solve_accurate(model, uL, uR, 0.05)
        assert len(fronts) == 2 and len(calls) == speeds
        last = fronts[-1]
        assert same_bits(last.uR, uR)
        speed, eigs = front_speed(model, last.family, last.uL, uR)
        assert last.speed == speed and same_eigs(last.eigs, eigs)

    @pytest.mark.parametrize("mid", ["remark-2x2", "p-system"])
    def test_simplified_and_crude_fronts(self, mid):
        model = fc.make_model(mid)
        u = random_state(model, np.random.default_rng(4))
        a = _front(model, 1, u, -0.03)
        b = _front(model, 2, a.uR, 0.02)
        c = _front(model, 1, a.uR, -0.02)
        for fronts in (rm.solve_simplified(model, a, b),
                       rm.solve_simplified(model, a, c)):
            assert any(not f.is_physical for f in fronts)
            assert_keeps_own_eigs(model, fronts)
        nonphys = rm.solve_simplified(model, a, b)[-1]
        assert_keeps_own_eigs(model, rm.solve_crude(
            model, nonphys, _front(model, 2, nonphys.uR, 0.01)))


def front_speeds_inside_fences(model, fronts):
    fences = model.lambda_fences
    return all(fences[f.family - 1] < f.speed < fences[f.family]
               for f in fronts)


def test_one_by_one_linear_is_one_contact():
    # a 1x1 linear model is a system of one contact family, not a scalar
    # flux: it has no f_scalar for the envelope
    model = fc.make_model("linear", {"matrix": [[2.0]]})
    (front,) = rm.solve_accurate(model, [0.0], [0.5], 0.1)
    assert (front.family, front.kind, front.speed) == (1, "contact", 2.0)
    assert front.uL == (0.0,) and front.uR == (0.5,)
    assert front.size == pytest.approx(0.5, abs=1e-15)
    assert front_speeds_inside_fences(model, [front])


PSYSTEM = fc.make_model("p-system")


def curve_outcome(curve, k, u0, s, parametrization):
    try:
        with np.errstate(all="raise"):
            return curve(PSYSTEM, k, u0, s, parametrization)
    except (CurveError, DomainError, FloatingPointError) as exc:
        return type(exc)


class TestFloatPsystemCurve:
    """riemann._psystem_curve on Python floats against the numpy reference:
    the same refusals, and otherwise state and sigma within 1e-13 (the
    contraction rounds differently, and Brent may stop on another iterate
    inside BRENT_XTOL)."""

    @pytest.mark.parametrize("parametrization", ["unit", "lambda"])
    @pytest.mark.parametrize("branch", [-1.0, 1.0])  # Hugoniot, rarefaction
    @pytest.mark.parametrize("k", [1, 2])
    @settings(max_examples=40)
    @given(v=st.floats(0.5, 2.0), w=st.floats(-1.0, 1.0),
           magnitude=st.one_of(st.just(0.0), st.floats(
               math.log10(rm.SIZE_FLOOR), math.log10(0.9))))
    def test_matches_numpy_reference(self, k, branch, parametrization, v, w,
                                     magnitude):
        s = 0.0 if magnitude == 0.0 else branch * 10.0 ** magnitude
        u0 = (v, w)
        got = curve_outcome(curve_state, k, u0, s, parametrization)
        ref = curve_outcome(reference_curve_state, k, u0, s, parametrization)
        if ref is FloatingPointError:
            # a Hugoniot curve from the box edge it would leave by: the
            # reference divided 0 by 0 and returned a point off the curve
            assert got is CurveError
            assert s < 0 and v == (0.5 if k == 1 else 2.0)
            return
        if isinstance(ref, type) or isinstance(got, type):
            assert got is ref
            return
        assert np.max(np.abs(np.subtract(got[0], ref[0]))) <= 1e-13
        assert abs(got[1] - ref[1]) <= 1e-13

    def test_brentq_takes_the_bracket_ends_once(self, monkeypatch):
        # the curve's sign test has fn at both ends; brentq does not call fn
        # there again
        brentq = rm.brentq
        roots = []

        def counted(fn, a, b, fa=None, fb=None):
            assert fa is not None and fb is not None
            roots.append((a, b))

            def watched(x):
                assert x != a and x != b, "bracket end evaluated again"
                return fn(x)

            return brentq(watched, a, b, fa, fb)

        monkeypatch.setattr(rm, "brentq", counted)
        rng = np.random.default_rng(3)
        width = PSYSTEM.domain[:, 1] - PSYSTEM.domain[:, 0]
        for _ in range(40):
            uL = random_state(PSYSTEM, rng, 0.25)
            uR = uL + 0.15 * width * (2.0 * rng.random(2) - 1.0)
            rm.solve_accurate(PSYSTEM, uL, uR, 0.05)
        # 294 roots: Newton's exact Jacobian takes no curve points for
        # finite-difference columns (with those it took over 400)
        assert len(roots) > 250


def pair_strategy(model_id):
    """(uL, uR), two states: uL in the middle 60% of the box, each component
    of uR - uL zero or between SIZE_FLOOR and 1 times 15% of the box
    width."""
    model = fc.make_model(model_id)
    lo, hi = model.domain[:, 0], model.domain[:, 1]
    unit = st.floats(0.0, 1.0)
    step = st.one_of(st.just(0.0), st.tuples(
        st.sampled_from([-1.0, 1.0]),
        st.floats(math.log10(rm.SIZE_FLOOR), 0.0)).map(
            lambda d: d[0] * 10.0 ** d[1]))
    return st.tuples(unit, unit, step, step).map(
        lambda d: (fc.as_state(lo + (hi - lo) * (0.2 + 0.6 * np.array(d[:2])), 2),
                   fc.as_state(lo + (hi - lo) * (0.2 + 0.6 * np.array(d[:2])
                                                 + 0.15 * np.array(d[2:])), 2)))


def test_weak_psystem_shock():
    # the Hugoniot bracket starts 1e-3 |target| from v0, so a shock this
    # weak has its root inside it
    uR = (0.8, -0.6 - 1e-10)
    fronts = rm.solve_accurate(PSYSTEM, [0.8, -0.6], uR, 0.05)
    assert fronts and same_bits(fronts[-1].uR, uR)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("jump", [3e-13, 3e-12, 3e-11, 3e-10, 3e-9])
def test_weak_psystem_jumps_close(jump, axis, sign):
    uL = (0.8, -0.6)
    uR = list(uL)
    uR[axis] += sign * jump
    fronts = rm.solve_accurate(PSYSTEM, uL, uR, 0.05)
    assert fronts and same_bits(fronts[-1].uR, uR)
    assert all(a.uR is b.uL for a, b in zip(fronts, fronts[1:]))


class TestAccurateSolverProperties:
    """The accurate solver on generated pairs: the Newton chain closes on
    uR, its legs are what a fresh evaluation gives, fans open at most eps,
    every speed sits between its family's fences, and every shock meets
    Lax's inequalities."""

    EPS = 0.05
    TOL = 1e-12

    def check(self, model, uL, uR):
        sizes, legs = rm._solve_sizes(model, uL, uR)
        assert float(np.max(np.abs(np.subtract(legs[-1], uR)))) <= self.TOL
        omega = uL
        for k in range(1, model.N + 1):
            if sizes[k - 1] != 0.0:
                omega, _ = curve_state(model, k, omega, sizes[k - 1])
            assert same_bits(omega, legs[k - 1])
        fronts = rm.solve_accurate(model, uL, uR, self.EPS)
        if not fronts:
            assert all(abs(x) < rm.SIZE_FLOOR for x in sizes)
            return
        assert same_bits(fronts[0].uL, uL)
        assert all(a.uR is b.uL for a, b in zip(fronts, fronts[1:]))
        assert same_bits(fronts[-1].uR, uR)
        assert front_speeds_inside_fences(model, fronts)
        for f in fronts:
            k = f.family
            lam_l = model.point_eig(f.uL).lambdas
            lam_r = model.point_eig(f.uR).lambdas
            if f.kind == "rarefaction":
                assert lam_r[k - 1] - lam_l[k - 1] <= self.EPS + self.TOL
            if f.kind == "shock":
                assert lam_r[k - 1] - self.TOL < f.speed < lam_l[k - 1] + self.TOL
                if k > 1:
                    assert lam_l[k - 2] < f.speed
                if k < model.N:
                    assert f.speed < lam_r[k]

    @settings(max_examples=60)
    @given(pair=pair_strategy("p-system"))
    def test_psystem(self, pair):
        self.check(PSYSTEM, *pair)

    @settings(max_examples=60)
    @given(pair=pair_strategy("remark-2x2"))
    def test_remark(self, pair):
        self.check(fc.make_model("remark-2x2"), *pair)

    @pytest.mark.parametrize("mid", ["p-system", "remark-2x2"])
    @settings(max_examples=80)
    @given(data=st.data())
    def test_on_one_wave_curve(self, mid, data):
        # uR on one family's curve through uL: Newton drives the other
        # family's size to 0 through values far under SIZE_FLOOR, and a
        # p-system shock that weak is still a curve point
        model = fc.make_model(mid)
        uL = data.draw(pair_strategy(mid))[0]
        k = data.draw(st.sampled_from([1, 2]))
        s = data.draw(st.floats(-0.1, 0.1))
        try:
            uR = curve_state(model, k, uL, s)[0]
        except (CurveError, DomainError):
            return
        self.check(model, uL, uR)
        assert abs(rm._solve_sizes(model, uL, uR)[0][k - 1] - s) <= 1e-9

    @pytest.mark.parametrize("mid", ["p-system", "remark-2x2"])
    def test_reused_legs_give_the_same_fronts(self, mid, monkeypatch):
        # the fronts built on Newton's converged chain are those built on
        # curve points evaluated afresh, bit for bit; in half the pairs the
        # 1-wave is floored to 0, so the 2-wave starts at uL and not at
        # Newton's first leg
        model = fc.make_model(mid)
        rng = np.random.default_rng(11)
        width = model.domain[:, 1] - model.domain[:, 0]
        pairs = []
        for _ in range(30):
            uL = random_state(model, rng, 0.25)
            uR = uL + 0.15 * width * (2.0 * rng.random(2) - 1.0)
            pairs.append((fc.as_state(uL, 2), fc.as_state(uR, 2)))
            # a 1-wave under SIZE_FLOOR (a rarefaction: a p-system shock
            # this weak is refused, see test_weak_psystem_shock), then a 2-wave
            tiny = float(rng.uniform(2e-14, 9e-14))
            mid_state = curve_state(model, 1, uL, tiny)[0]
            pairs.append((fc.as_state(uL, 2), curve_state(
                model, 2, mid_state, float(rng.uniform(-0.1, 0.1)))[0]))

        def outcome(uL, uR):
            try:
                return [(f.family, f.kind, f.speed, f.size, bits(f.uL),
                         bits(f.uR))
                        for f in rm.solve_accurate(model, uL, uR, 0.02)]
            except RiemannError as exc:
                return str(exc)

        reused = [outcome(*pair) for pair in pairs]
        floored = 0
        for pair in pairs:
            try:
                sizes = rm._solve_sizes(model, *pair)[0]
            except RiemannError:
                continue
            floored += any(0.0 < abs(x) < rm.SIZE_FLOOR for x in sizes)
        assert floored >= 10
        solve_sizes = rm._solve_sizes
        monkeypatch.setattr(rm, "_solve_sizes",
                            lambda *args: (solve_sizes(*args)[0], None))
        assert [outcome(*pair) for pair in pairs] == reused


class TestExactNewtonJacobian:
    """The curves' derivatives in the unit parametrization against central
    differences of the curves themselves, and Newton's sizes against the
    finite-difference Newton it replaced."""

    STEP = 1e-6  # central-difference step, times max(1, |s|)

    @staticmethod
    def central(fn, x, h):
        try:
            hi, lo = fn(x + h), fn(x - h)
        except (CurveError, DomainError):
            return None
        return [(a - b) / (2.0 * h) for a, b in zip(hi, lo)]

    @pytest.mark.parametrize("mid", ["p-system", "remark-2x2"])
    @pytest.mark.parametrize("branch", [-1.0, 1.0])  # shock, rarefaction
    @pytest.mark.parametrize("k", [1, 2])
    @settings(max_examples=60)
    @given(pos=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           edge=st.booleans(),
           magnitude=st.one_of(st.just(None), st.floats(
               math.log10(rm.SIZE_FLOOR), math.log10(0.5))))
    def test_columns_match_central_differences(self, mid, k, branch, pos,
                                               edge, magnitude):
        model = fc.make_model(mid)
        lo, hi = model.domain[:, 0], model.domain[:, 1]
        # half the draws within 1% of the box edges
        frac = np.array(pos)
        if edge:
            frac = np.where(frac < 0.5, 0.01 * frac, 1.0 - 0.01 * (1.0 - frac))
        u0 = (lo + (hi - lo) * frac).tolist()
        s = 0.0 if magnitude is None else branch * 10.0 ** magnitude
        try:
            _, _, ts, tu = rm._curve_point(model, k, u0, s, "unit")
        except (CurveError, DomainError):
            return
        h = self.STEP * max(1.0, abs(s))
        columns = [(ts, self.central(
            lambda x: rm._curve_point(model, k, u0, x, "unit")[0], s, h))]
        for j in range(2):
            def moved(x, j=j):
                u = list(u0)
                u[j] = x
                return rm._curve_point(model, k, u, s, "unit")[0]
            columns.append(([row[j] for row in tu], self.central(moved, u0[j], h)))
        for exact, diff in columns:
            if diff is None:  # a neighbour left the box or the curve
                continue
            # relative to the entry, or absolute for entries under 1
            for a, b in zip(exact, diff):
                assert abs(a - b) <= 1e-6 * max(1.0, abs(a)), (exact, diff)

    @pytest.mark.parametrize("mid", ["p-system", "remark-2x2"])
    @settings(max_examples=80)
    @given(data=st.data())
    def test_sizes_match_finite_difference_newton(self, mid, data):
        model = fc.make_model(mid)
        uL, uR = data.draw(pair_strategy(mid))
        try:
            ref = reference_solve_sizes(model, uL, uR)[0]
        except RiemannError:
            return
        sizes = rm._solve_sizes(model, uL, uR)[0]
        assert max(abs(a - b) for a, b in zip(sizes, ref)) <= 1e-12

    @pytest.mark.parametrize("mid", ["p-system", "remark-2x2"])
    def test_sizes_match_on_seeded_pairs(self, mid):
        # both Newtons stop once the residual is at most NEWTON_TOL * scale,
        # so their sizes may differ by |J^-1| (at most about 2 here) times
        # the two residuals: on p-system one pair stops at 9.9e-13 and
        # differs by 1.0e-12, the others by at most 7e-14
        model = fc.make_model(mid)
        rng = np.random.default_rng(3)
        width = model.domain[:, 1] - model.domain[:, 0]
        for _ in range(100):
            uL = random_state(model, rng, 0.25)
            uR = uL + 0.15 * width * (2.0 * rng.random(2) - 1.0)
            ref = reference_solve_sizes(model, uL, uR)[0]
            sizes = rm._solve_sizes(model, fc.as_state(uL, 2),
                                    fc.as_state(uR, 2))[0]
            assert max(abs(a - b) for a, b in zip(sizes, ref)) <= 4e-12


def test_psystem_curve_calls_per_run(monkeypatch):
    # one tracker.run of the shipped p-system scenario (corpus draw
    # p-system/0) takes 87 curve points; with finite-difference Newton
    # columns it took 171, and evaluating each Newton chain leg and each
    # fan's far state again took 227
    doc = json.loads((SCENARIOS / "psystem_waves.json").read_text())
    calls = []
    curve = rm._psystem_curve

    def counted(*args):
        calls.append(args)
        return curve(*args)

    monkeypatch.setattr(rm, "_psystem_curve", counted)
    tl = tk.run(tk.RunConfig(model_id="p-system", initial=doc["initial"],
                             **doc["numerics"]))
    assert len(tl.events) == 11 and tl.ledger.calibrated
    assert len(calls) == 87
