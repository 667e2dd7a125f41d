import itertools

import numpy as np
import pytest

from fronttrack import flux_core as fc
from fronttrack import riemann as rm
from fronttrack.errors import ConfigError, DomainError, UnknownModelError

from conftest import (MODEL_IDS, random_state, reference_average_matrix,
                      reference_jacobian_matrix, same_bits)


def average_matrix(model, uL, uR):
    """flux_core's GL8 average of Df between two state arrays, as an array."""
    return np.array(fc._average_rows(model, uL.tolist(), uR.tolist()))


def jacobian(model, u):
    """Df(u) as an array, from the model's rows; u any sequence."""
    return np.array(model.jacobian_rows(fc.as_state(u, model.N)))


def dense_average_matrix(model, uL, uR, n=20000):
    """Riemann-sum oracle for the averaged Jacobian."""
    thetas = (np.arange(n) + 0.5) / n
    acc = np.zeros((model.N, model.N))
    for th in thetas:
        acc += jacobian(model, th * uL + (1 - th) * uR)
    return acc / n


class TestJacobian:
    def test_burgers_point(self):
        m = fc.make_model("burgers")
        assert np.allclose(jacobian(m, [0.7]), [[0.7]])

    def test_remark_origin_hand_derivative(self):
        # d/d(u,v) of (0, (1+u+v)v) at the origin
        m = fc.make_model("remark-2x2")
        assert np.allclose(jacobian(m, [0.0, 0.0]), [[0.0, 0.0], [0.0, 1.0]])

    def test_linear_constant(self):
        mat = [[0.0, 2.0], [0.5, 0.0]]
        m = fc.make_model("linear", {"matrix": mat})
        for u in ([0.0, 0.0], [0.3, -0.1]):
            assert np.allclose(jacobian(m, u), mat)

    def test_out_of_domain_rejected(self):
        # the public entry point that evaluates Df refuses a state outside
        # the box, on either side, before any averaged eigensystem is formed
        m = fc.make_model("burgers")
        for uL, uR in (([5.0], [0.0]), ([0.0], [5.0])):
            with pytest.raises(DomainError):
                rm.solve_accurate(m, uL, uR, 0.05)


class TestEigDecompose:
    def test_burgers_scalar(self):
        m = fc.make_model("burgers")
        sys = m.point_eig([0.3])
        assert sys.lambdas == pytest.approx([0.3])
        assert np.allclose(sys.right, [[1.0]])
        assert np.allclose(sys.left, [[1.0]])
        assert sys.gnl_rates == pytest.approx([1.0])

    def test_remark_lambda2_and_gradient(self):
        m = fc.make_model("remark-2x2")
        sys = m.point_eig([0.1, 0.2])
        assert sys.lambdas == pytest.approx([0.0, 1.5], abs=1e-14)
        # finite-difference oracle for the lambda_2 gradient (1, 2)
        h = 1e-7
        for k, expect in ((0, 1.0), (1, 2.0)):
            up = np.array([0.1, 0.2])
            um = up.copy()
            up[k] += h
            um[k] -= h
            fd = (m.point_eig(up).lambdas[1]
                  - m.point_eig(um).lambdas[1]) / (2 * h)
            assert fd == pytest.approx(expect, rel=1e-6)

    def test_remark_origin_eigvectors(self):
        m = fc.make_model("remark-2x2")
        sys = m.point_eig([0.0, 0.0])
        assert sys.right[1] == pytest.approx([0.0, 1.0])
        assert sys.left[1] == pytest.approx([0.0, 1.0])
        assert sys.gnl_rates[1] == pytest.approx(2.0)

    def test_near_degenerate_rejected(self):
        # a repeated eigenvalue is a configuration error, exit 3
        with pytest.raises(ConfigError) as err:
            fc.make_model("linear", {"matrix": [[1.0, 0.0], [0.0, 1.0]]})
        assert err.value.key == "model.params.matrix"

    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_biorthogonality_and_order_random(self, mid):
        model = fc.make_model(mid)
        rng = np.random.default_rng(hash(mid) % 2 ** 32)
        for _ in range(10000):
            u = random_state(model, rng, margin=0.02)
            sys = model.point_eig(u)
            right = np.array(sys.right)
            gram = np.array(sys.left) @ right.T
            assert np.max(np.abs(gram - np.eye(model.N))) <= 1e-10
            if model.N > 1:
                gaps = np.diff(sys.lambdas)
                assert gaps.min() >= model.gap - 1e-9
            norms = np.linalg.norm(right, axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12


class TestAverageEigs:
    def test_burgers_secant_half(self):
        # integral of theta*0 + (1-theta)*1 over [0,1] is 1/2
        m = fc.make_model("burgers")
        assert fc.average_eigs(m, (0.0,), (1.0,)).lambdas[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_degenerate_pair_matches_point(self, mid):
        model = fc.make_model(mid)
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = tuple(random_state(model, rng).tolist())
            a = fc.average_eigs(model, u, u)
            b = model.point_eig(u)
            assert np.allclose(a.lambdas, b.lambdas, atol=1e-12)
            assert np.allclose(a.right, b.right, atol=1e-12)

    def test_linear_pair_is_constant_system(self):
        m = fc.make_model("linear", {"matrix": [[0.0, 1.0], [1.0, 0.0]]})
        sys = fc.average_eigs(m, (0.2, -0.1), (-0.4, 0.3))
        assert sys.lambdas == pytest.approx([-1.0, 1.0])

    @pytest.mark.parametrize("mid", ["burgers", "cubic"])
    def test_scalar_secant_property(self, mid):
        model = fc.make_model(mid)
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_state(model, rng), random_state(model, rng)
            if abs(b[0] - a[0]) < 1e-8:
                continue
            lam = fc.average_eigs(model, tuple(a.tolist()),
                                  tuple(b.tolist())).lambdas[0]
            secant = (model.f_scalar(b[0]) - model.f_scalar(a[0])) / (b[0] - a[0])
            assert lam == pytest.approx(secant, abs=1e-12)

    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_quadrature_against_dense_oracle(self, mid):
        model = fc.make_model(mid)
        rng = np.random.default_rng(5)
        uL, uR = random_state(model, rng), random_state(model, rng)
        amat = average_matrix(model, uL, uR)
        oracle = dense_average_matrix(model, uL, uR)
        assert np.max(np.abs(amat - oracle)) <= 1e-7

    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_continuity_under_perturbation(self, mid):
        model = fc.make_model(mid)
        rng = np.random.default_rng(9)
        uL, uR = random_state(model, rng), random_state(model, rng)
        base = fc.average_eigs(model, tuple(uL.tolist()), tuple(uR.tolist()))
        delta = 1e-7
        pert = fc.average_eigs(model, tuple((uL + delta).tolist()),
                               tuple(uR.tolist()))
        lip = np.max(np.abs(np.subtract(pert.lambdas, base.lambdas))) / delta
        assert lip < 1e3
        assert np.max(np.abs(np.subtract(pert.right, base.right))) / delta < 1e3


CATALOG = [("burgers", {}), ("cubic", {}), ("remark-2x2", {}), ("p-system", {}),
           ("linear", {"matrix": [[0.0, 1.0, 0.5], [1.0, 0.3, 0.0],
                                  [0.5, 0.0, -0.7]]})]


class TestStackedQuadrature:
    """average_eigs sums its 8 nodes' Jacobians on Python floats; the sum
    must equal the node-by-node numpy sum of point Jacobians to the bit."""

    @pytest.mark.parametrize("mid,params", CATALOG)
    def test_matches_per_node_reference(self, mid, params):
        model = fc.make_model(mid, params)
        rng = np.random.default_rng(41)
        for _ in range(300):
            uL, uR = random_state(model, rng, 0.0), random_state(model, rng, 0.0)
            assert same_bits(average_matrix(model, uL, uR),
                             reference_average_matrix(model, uL, uR))
            assert same_bits(jacobian(model, uL),
                             reference_jacobian_matrix(model, uL))

    def test_psystem_pairs_that_defeat_array_power(self):
        # on these seeded pairs numpy's array power gives other last bits
        # than the scalar pow at some node; the quadrature must not notice
        model = fc.make_model("p-system")
        rng = np.random.default_rng(2024)
        trapped = 0
        for _ in range(2000):
            uL, uR = random_state(model, rng, 0.0), random_state(model, rng, 0.0)
            vs = fc.GL8_NODES * uL[0] + (1.0 - fc.GL8_NODES) * uR[0]
            array_pow = -(model._ccoef * vs ** (-model._m)) ** 2
            scalar_pow = np.array([-model.sound(v) ** 2 for v in vs.tolist()])
            trapped += not same_bits(array_pow, scalar_pow)
            assert same_bits(average_matrix(model, uL, uR),
                             reference_average_matrix(model, uL, uR))
        assert trapped >= 100

    @pytest.mark.parametrize("mid,params", CATALOG)
    def test_jacobian_matrices_fresh_arrays(self, mid, params):
        # jacobian_rows hands back rows of Python floats in tuples, which no
        # caller can write to: the state, the model and the next call's
        # rows stay as they were
        model = fc.make_model(mid, params)
        u = fc.as_state(random_state(model, np.random.default_rng(3)), model.N)
        rows = model.jacobian_rows(u)
        assert type(rows) is tuple and len(rows) == model.N
        for row in rows:
            assert type(row) is tuple and len(row) == model.N
            assert all(type(x) is float for x in row)
        assert same_bits(model.jacobian_rows(u), rows)
        assert same_bits(np.array(rows), reference_jacobian_matrix(model, u))


def audit_field_kinds(model, n):
    """The nonlinearity rates point_eig reports on an n-point grid per axis
    of the model's box, as an array (point, family). Asserts that each
    family's rates fit its declared field kind (GNL: one strict sign; LD:
    |rate| <= 1e-10; GENERAL: both signs) and that every rate matches a
    centred difference of lambda_i along r_i within 1e-6 relative."""
    h = 1e-5
    axes = [np.linspace(lo, hi, n) for lo, hi in model.domain]
    rates = []
    for u in itertools.product(*axes):
        sys = model.point_eig(u)
        for i, (rate, r) in enumerate(zip(sys.gnl_rates, sys.right)):
            ahead = [x + h * y for x, y in zip(u, r)]
            behind = [x - h * y for x, y in zip(u, r)]
            diff = (model.point_eig(ahead).lambdas[i]
                    - model.point_eig(behind).lambdas[i]) / (2.0 * h)
            assert abs(rate - diff) <= 1e-6 * max(1.0, abs(rate)), (u, i)
        rates.append(sys.gnl_rates)
    rates = np.array(rates)
    for i, kind in enumerate(model.field_kind):
        lo, hi = rates[:, i].min(), rates[:, i].max()
        fits = {fc.GNL: lo > 0.0 or hi < 0.0,
                fc.LD: max(abs(lo), abs(hi)) <= 1e-10,
                fc.GENERAL: lo < 0.0 < hi}[kind]
        assert fits, f"{model.id}: family {i + 1} declared {kind} but " \
            f"rates span [{lo:.3e}, {hi:.3e}]"
    return rates


class TestGnlAudit:
    """Each catalog model's declared field kinds against the nonlinearity
    rates its eigensystems carry."""

    @pytest.mark.parametrize("mid,params", CATALOG)
    def test_catalog_field_kinds(self, mid, params):
        audit_field_kinds(fc.make_model(mid, params), 12)

    def test_burgers_rate_one(self):
        rates = audit_field_kinds(fc.make_model("burgers"), 16)
        assert rates.min() == pytest.approx(1.0)
        assert rates.max() == pytest.approx(1.0)

    def test_remark_hand_rates(self):
        # family 1: r1 prop (1+u+2v, -v) with grad lambda_1 = 0; family 2 rate 2
        model = fc.make_model("remark-2x2")
        assert model.field_kind == (fc.LD, fc.GNL)
        rates = audit_field_kinds(model, 12)
        assert np.abs(rates[:, 0]).max() <= 1e-10
        assert rates[:, 1].min() == pytest.approx(2.0)

    def test_linear_all_degenerate(self):
        model = fc.make_model("linear", {"matrix": [[0.0, 1.0], [1.0, 0.0]]})
        assert model.field_kind == (fc.LD, fc.LD)
        audit_field_kinds(model, 6)

    def test_mismatch_raises(self):
        model = fc.make_model("remark-2x2")
        model.field_kind = (fc.GNL, fc.GNL)  # family 1 is really degenerate
        with pytest.raises(AssertionError, match="family 1 declared"):
            audit_field_kinds(model, 6)


class TestCatalog:
    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            fc.make_model("kdv")

    def test_bad_params_name_the_key(self):
        with pytest.raises(ConfigError) as err:
            fc.make_model("burgers", {"nope": 1.0})
        assert "model.params" in str(err.value)

    def test_fences_bracket_eigenvalues(self, models):
        rng = np.random.default_rng(2)
        for model in models.values():
            fences = model.lambda_fences
            for _ in range(200):
                lam = model.point_eig(random_state(model, rng, 0.01)).lambdas
                for k in range(model.N):
                    assert fences[k] < lam[k] < fences[k + 1]
            assert model.lambda_hat > fences[-1]


class TestContains:
    @pytest.mark.parametrize("mid", MODEL_IDS + ["linear"])
    def test_matches_numpy_box_test(self, mid):
        model = fc.make_model(mid)
        lo, hi = model.domain[:, 0], model.domain[:, 1]

        def numpy_box(u):
            return bool(np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12))

        inside = 0.5 * (lo + hi)
        for k in range(model.N):
            edges = [lo[k] - 1e-12, hi[k] + 1e-12]
            probes = [lo[k], hi[k], inside[k], np.nan, np.inf, -np.inf]
            for e in edges:
                probes += [e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)]
            for v in probes:
                u = inside.copy()
                u[k] = v
                assert model.contains(u) is numpy_box(u), (k, v)
        assert not model.contains(np.full(model.N, np.nan))
        assert model.contains(inside)

    def test_lambda_hat_is_float(self):
        for mid in MODEL_IDS:
            assert type(fc.make_model(mid).lambda_hat) is float
