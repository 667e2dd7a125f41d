import numpy as np
import pytest

from fronttrack import flux_core as fc
from fronttrack.errors import (ConfigError, DomainError, ModelAuditError,
                               UnknownModelError)

from conftest import (MODEL_IDS, random_state, reference_average_matrix,
                      reference_jacobian_matrix, same_bits)


def average_matrix(model, uL, uR):
    """flux_core's GL8 average of Df between two state arrays, as an array."""
    return np.array(fc._average_rows(model, uL.tolist(), uR.tolist()))


def dense_average_matrix(model, uL, uR, n=20000):
    """Riemann-sum oracle for the averaged Jacobian."""
    thetas = (np.arange(n) + 0.5) / n
    acc = np.zeros((model.N, model.N))
    for th in thetas:
        acc += model.jacobian_matrix(th * uL + (1 - th) * uR)
    return acc / n


class TestJacobian:
    def test_burgers_point(self):
        m = fc.make_model("burgers")
        assert np.allclose(fc.jacobian(m, [0.7]), [[0.7]])

    def test_remark_origin_hand_derivative(self):
        # d/d(u,v) of (0, (1+u+v)v) at the origin
        m = fc.make_model("remark-2x2")
        assert np.allclose(fc.jacobian(m, [0.0, 0.0]), [[0.0, 0.0], [0.0, 1.0]])

    def test_linear_constant(self):
        mat = [[0.0, 2.0], [0.5, 0.0]]
        m = fc.make_model("linear", {"matrix": mat})
        for u in ([0.0, 0.0], [0.3, -0.1]):
            assert np.allclose(fc.jacobian(m, u), mat)

    def test_out_of_domain_rejected(self):
        m = fc.make_model("burgers")
        with pytest.raises(DomainError):
            fc.jacobian(m, [5.0])


class TestEigDecompose:
    def test_burgers_scalar(self):
        m = fc.make_model("burgers")
        sys = fc.eig_decompose(m, [0.3])
        assert sys.lambdas == pytest.approx([0.3])
        assert np.allclose(sys.right, [[1.0]])
        assert np.allclose(sys.left, [[1.0]])
        assert sys.gnl_rates == pytest.approx([1.0])

    def test_remark_lambda2_and_gradient(self):
        m = fc.make_model("remark-2x2")
        sys = fc.eig_decompose(m, [0.1, 0.2])
        assert sys.lambdas == pytest.approx([0.0, 1.5], abs=1e-14)
        # finite-difference oracle for the lambda_2 gradient (1, 2)
        h = 1e-7
        for k, expect in ((0, 1.0), (1, 2.0)):
            up = np.array([0.1, 0.2])
            um = up.copy()
            up[k] += h
            um[k] -= h
            fd = (fc.eig_decompose(m, up).lambdas[1]
                  - fc.eig_decompose(m, um).lambdas[1]) / (2 * h)
            assert fd == pytest.approx(expect, rel=1e-6)

    def test_remark_origin_eigvectors(self):
        m = fc.make_model("remark-2x2")
        sys = fc.eig_decompose(m, [0.0, 0.0])
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
        assert fc.average_eigs(m, [0.0], [1.0]).lambdas[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("mid", MODEL_IDS)
    def test_degenerate_pair_matches_point(self, mid):
        model = fc.make_model(mid)
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = random_state(model, rng)
            a = fc.average_eigs(model, u, u)
            b = fc.eig_decompose(model, u)
            assert np.allclose(a.lambdas, b.lambdas, atol=1e-12)
            assert np.allclose(a.right, b.right, atol=1e-12)

    def test_linear_pair_is_constant_system(self):
        m = fc.make_model("linear", {"matrix": [[0.0, 1.0], [1.0, 0.0]]})
        sys = fc.average_eigs(m, [0.2, -0.1], [-0.4, 0.3])
        assert sys.lambdas == pytest.approx([-1.0, 1.0])

    @pytest.mark.parametrize("mid", ["burgers", "cubic"])
    def test_scalar_secant_property(self, mid):
        model = fc.make_model(mid)
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_state(model, rng), random_state(model, rng)
            if abs(b[0] - a[0]) < 1e-8:
                continue
            lam = fc.average_eigs(model, a, b).lambdas[0]
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
        base = fc.average_eigs(model, uL, uR)
        delta = 1e-7
        pert = fc.average_eigs(model, uL + delta, uR)
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
            assert same_bits(model.jacobian_matrix(uL),
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
        # each jacobian_matrix call returns a new array: writing to one
        # changes neither the state, the model nor the next call's matrix
        model = fc.make_model(mid, params)
        u = random_state(model, np.random.default_rng(3))
        before = u.copy()
        jac = model.jacobian_matrix(u)
        jac += 1.0
        assert same_bits(u, before)
        assert same_bits(model.jacobian_matrix(u),
                         reference_jacobian_matrix(model, u))


class TestGnlAudit:
    def test_burgers_rate_one(self):
        rep = fc.gnl_audit(fc.make_model("burgers"), 16)
        fam = rep["families"][0]
        assert fam["declared"] == fc.GNL
        assert fam["rate_min"] == pytest.approx(1.0)
        assert fam["rate_max"] == pytest.approx(1.0)

    def test_remark_hand_rates(self):
        # family 1: r1 prop (1+u+2v, -v) with grad lambda_1 = 0; family 2 rate 2
        rep = fc.gnl_audit(fc.make_model("remark-2x2"), 12)
        assert rep["families"][0]["declared"] == fc.LD
        assert abs(rep["families"][0]["rate_max"]) <= 1e-10
        assert rep["families"][1]["rate_min"] == pytest.approx(2.0)

    def test_linear_all_degenerate(self):
        rep = fc.gnl_audit(fc.make_model("linear", {"matrix": [[0.0, 1.0], [1.0, 0.0]]}), 6)
        assert all(f["declared"] == fc.LD and f["verdict"] == "pass"
                   for f in rep["families"])

    def test_mismatch_raises(self):
        model = fc.make_model("remark-2x2")
        model.field_kind = (fc.GNL, fc.GNL)  # family 1 is really degenerate
        with pytest.raises(ModelAuditError):
            fc.gnl_audit(model, 6)

    def test_grid_resolution_validated(self):
        with pytest.raises(ValueError):
            fc.gnl_audit(fc.make_model("burgers"), 1)


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
