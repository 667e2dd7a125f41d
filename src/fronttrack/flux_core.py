"""Flux-model catalog: analytic Jacobians, eigensystems, wave curves and
averaged matrices.

Every catalog model carries exact formulas for f, Df, the point
eigensystem and its wave curves; the averaged matrix between two states is
always formed by fixed-order Gauss-Legendre quadrature (order 8, exact for
polynomial fluxes up to degree 15) and then eigen-decomposed with the same
per-model closed forms.

A state is a tuple of Python floats, and an EigenSystem holds tuples of
them; as_state makes one from any sequence of numbers at the public entry
points. Dots, norms, sums and the quadrature sum run on Python floats in a
fixed order (dot, norm, max_abs, total below): numpy hands a dot or a norm
of two float64 vectors to BLAS, whose kernel is picked per CPU at run time
and may fuse or reorder the products, and Python's builtin sum of floats
compensates its rounding from 3.12 on, so their last bits would depend on
the machine or the Python version.

Eigensystems carry unit right eigenvectors with biorthogonal left
covectors (l_j . r_i = delta_ij) and the nonlinearity rate
grad lambda_i . r_i of each family. Orientation: rate > 0 for genuinely
nonlinear fields, first nonzero component positive for linearly degenerate
ones, r = sign(f'') for scalar fields.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, CurveError, DomainError,
                     NearDegeneracyError, UnknownModelError, finite,
                     refuse_unknown_keys)

GNL = "genuinely-nonlinear"
LD = "linearly-degenerate"
GENERAL = "general"  # scalar-only: f'' changes sign; served by the envelope solver

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
GL8_NODES = 0.5 * (_GL_X + 1.0)
GL8_WEIGHTS = 0.5 * _GL_W
# theta, 1 - theta and the weight of each node as Python floats, in node order
_GL8_THETA = GL8_NODES.tolist()
_GL8_COTHETA = (1.0 - GL8_NODES).tolist()
_GL8_WEIGHTS = GL8_WEIGHTS.tolist()

DEFAULT_GAP_TOL = 1e-8


@dataclass
class EigenSystem:
    """Point eigensystem: ascending speeds, unit right rows, biorthogonal
    left rows, all tuples of Python floats."""

    lambdas: tuple
    right: tuple  # right[i] = r_{i+1}
    left: tuple  # left[i] = l_{i+1}
    gnl_rates: tuple  # grad lambda_i . r_i under the unit normalization


class FluxModel:
    """Base class for catalog flux models.

    DEFAULTS holds the parameters and their defaults. __init__ checks each
    given one (null takes the default) and passes them by name to _setup,
    which sets the attributes below; it refuses a set that makes the box
    empty, a box corner, the flux there, a fence or lambda_hat non-finite,
    the last two not ascending, or gap <= 0.

    Attributes:
        id: catalog identifier.
        N: state dimension.
        params: the checked parameters, numbers as floats.
        domain: (N, 2) array of componentwise box bounds.
        field_kind: per-family tag among GNL / LD / GENERAL.
        lambda_fences: N+1 ascending speed fences bracketing each family.
        gap: declared minimal eigenvalue gap on the domain.
        riemann_radius: largest |uR - uL| solve_accurate accepts.
        tv_budget: small-BV budget for initial data.
    """

    id = "abstract"
    DEFAULTS = {}

    def __init__(self, params=None):
        params = {} if params is None else params
        if not isinstance(params, dict):
            raise ConfigError("model.params", "must be a JSON object")
        refuse_unknown_keys("model.params", params, self.DEFAULTS)
        self.params = {}
        for name, default in self.DEFAULTS.items():
            value = default if params.get(name) is None else params[name]
            # a list (linear's matrix) is checked by the model's _setup
            self.params[name] = (value if isinstance(default, list)
                                 else finite(f"model.params.{name}", value))
        self.gap_tol = DEFAULT_GAP_TOL
        # far from the defaults a float power may raise, and a numpy
        # operation give inf or nan, which the finiteness test refuses
        try:
            with np.errstate(all="ignore"):
                self._setup(**self.params)
                corners = np.array(list(itertools.product(*self.domain)))
                flux = np.array([self.f(u) for u in corners])
        except OverflowError:
            raise ConfigError("model.params", f"{self.id}: overflows") from None
        speeds = np.append(self.lambda_fences, self.lambda_hat)
        if not (self.domain[:, 0] < self.domain[:, 1]).all():
            raise ConfigError("model.params", f"{self.id}: empty domain box")
        if not (np.isfinite(speeds).all() and np.isfinite(corners).all()
                and np.isfinite(flux).all() and (speeds[:-1] < speeds[1:]).all()):
            raise ConfigError("model.params", f"{self.id}: box corners, flux "
                              "there, fences or lambda_hat not finite, or the "
                              "last two not ascending")
        if not self.gap > 0:
            raise ConfigError("model.params", f"{self.id}: eigenvalues not "
                              "distinct on the domain box")

    # -- per-model analytic surface -------------------------------------
    def f(self, u):
        raise NotImplementedError

    def jacobian_rows(self, u):
        """Df(u) as a tuple of rows of Python floats; u a state."""
        raise NotImplementedError

    def point_eig(self, u):
        raise NotImplementedError

    def eig_of_average(self, amat, mid):
        """Eigen-decompose an averaged matrix; mid is the segment midpoint."""
        raise NotImplementedError

    def wave_curve(self, k, u0, s, parametrization, root):
        """Point on the k-th curve through the state u0: (T, dT/ds, dT/du0),
        with T and dT/ds tuples of floats and dT/du0 a tuple of rows.

        parametrization "unit" takes s = l_k(u0) . (T - u0). "lambda" takes
        lambda_k(T) = lambda_k(u0) + s, on the rarefaction branch (s >= 0) of a
        genuinely nonlinear system family, the one a fan splits; any other
        branch is in the unit parametrization. The derivatives are those in the
        unit parametrization, None on a "lambda" branch. root(fn, a, b, fa, fb)
        is the solver's root of fn in [a, b], with fa and fb fn's values at the
        ends. No field-kind gate (scalar 'general' allowed) and no box check.

        The base curve is the straight line u0 + s*r_k(u0), exact where r_k
        is constant along it. It reads s as the unit parameter on every
        branch, which is also the lambda one where grad lambda_k . r_k = 1,
        and returns the derivatives on every branch."""
        r = self.point_eig(u0).right[k - 1]
        state = tuple(x + s * y for x, y in zip(u0, r))
        identity = tuple(tuple(float(i == j) for j in range(self.N))
                         for i in range(self.N))
        return state, r, identity

    @property
    def lambda_hat(self):
        """Speed of nonphysical fronts, strictly above every fence."""
        return float(self.lambda_fences[-1]) + 1.0

    @property
    def domain(self):
        return self._domain

    @domain.setter
    def domain(self, box):
        self._domain = box
        # per-component (lo, hi) as floats, widened by the 1e-12 slack
        self._bounds = tuple((float(lo) - 1e-12, float(hi) + 1e-12)
                             for lo, hi in box)

    def contains(self, u):
        """Inside the domain box up to a 1e-12 slack; NaN is outside."""
        for x, (lo, hi) in zip(u, self._bounds):
            if not lo <= x <= hi:
                return False
        return True

    def require_inside(self, u, what="state"):
        if not self.contains(u):
            raise DomainError(f"{self.id}: {what} {np.asarray(u)} outside domain box")


def as_state(u, n):
    """u, a number or a sequence of numbers, as a state: a tuple of n
    Python floats. Any other shape is refused."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    if arr.shape != (n,):
        raise DomainError(f"state shape {arr.shape} incompatible with N={n}")
    return tuple(arr.tolist())


# ---------------------------------------------------------------------------
# scalar models
# ---------------------------------------------------------------------------


class ScalarModel(FluxModel):
    """Common machinery for N = 1 models: r, l are signs, lambda = f'."""

    N = 1

    def f_scalar(self, u):
        raise NotImplementedError

    def fprime(self, u):
        raise NotImplementedError

    def fsecond(self, u):
        raise NotImplementedError

    def f(self, u):
        return np.array([self.f_scalar(float(u[0]))])

    def jacobian_rows(self, u):
        return ((self.fprime(u[0]),),)

    def _orientation(self, u):
        if self.field_kind[0] == GNL:
            return 1.0 if self.fsecond(u) > 0 else -1.0
        return 1.0

    def point_eig(self, u):
        uu = float(u[0])
        r = self._orientation(uu)
        return EigenSystem(lambdas=(self.fprime(uu),), right=((r,),),
                           left=((r,),), gnl_rates=(self.fsecond(uu) * r,))

    def eig_of_average(self, amat, mid):
        r = self._orientation(mid[0])
        return EigenSystem(lambdas=(amat[0][0],), right=((r,),), left=((r,),),
                           gnl_rates=(self.fsecond(mid[0]) * r,))


class Burgers(ScalarModel):
    id = "burgers"
    DEFAULTS = {"radius": 2.0}

    def _setup(self, radius):
        self.domain = np.array([[-radius, radius]])
        self.field_kind = (GNL,)
        self.lambda_fences = np.array([-1.1 * radius, 1.1 * radius])
        self.gap = math.inf
        self.riemann_radius = 2.0 * radius
        self.tv_budget = 8.0

    def f_scalar(self, u):
        return 0.5 * u * u

    def fprime(self, u):
        return u

    def fsecond(self, u):
        return 1.0


class Cubic(ScalarModel):
    """f = u^3/3; convexity flips at u = 0, so the family is 'general'."""

    id = "cubic"
    DEFAULTS = {"radius": 2.0}

    def _setup(self, radius):
        self.domain = np.array([[-radius, radius]])
        self.field_kind = (GENERAL,)
        self.lambda_fences = np.array([-0.1, 1.1 * radius * radius])
        self.gap = math.inf
        self.riemann_radius = 2.0 * radius
        self.tv_budget = 8.0

    def f_scalar(self, u):
        return u ** 3 / 3.0

    def fprime(self, u):
        return u * u

    def fsecond(self, u):
        return 2.0 * u


# ---------------------------------------------------------------------------
# remark-2x2:  u_t = 0,  v_t + ((1 + u + v) v)_x = 0
# ---------------------------------------------------------------------------


class Remark2x2(FluxModel):
    """2x2 system with one contact family (lambda_1 = 0) and one GNL family.

    lambda_2 = 1 + u + 2v, grad lambda_2 = (1, 2), r_2 = (0, 1), rate 2;
    the family-1 integral curves keep (1 + u + v) v constant.
    """

    id = "remark-2x2"
    N = 2
    DEFAULTS = {"radius": 0.32}

    def _setup(self, radius):
        if not 0 < radius < 1.0 / 3.0:
            raise ConfigError("model.params.radius", "must sit in (0, 1/3)")
        self.domain = np.array([[-radius, radius], [-radius, radius]])
        self.field_kind = (LD, GNL)
        lam2_min = 1.0 - 3.0 * radius
        lam2_max = 1.0 + 3.0 * radius
        self.lambda_fences = np.array([-0.5 * lam2_min, 0.5 * lam2_min, lam2_max + 0.1])
        self.gap = lam2_min
        self.riemann_radius = 2.0 * radius
        self.tv_budget = 1.0

    def f(self, u):
        return np.array([0.0, (1.0 + u[0] + u[1]) * u[1]])

    def jacobian_rows(self, u):
        return (0.0, 0.0), (u[1], 1.0 + u[0] + 2.0 * u[1])

    def _eig_at(self, uu, vv):
        a = 1.0 + uu + 2.0 * vv  # lambda_2, positive on the domain
        n = math.hypot(a, vv)
        return EigenSystem(lambdas=(0.0, a),
                           right=((a / n, -vv / n), (0.0, 1.0)),
                           left=((n / a, 0.0), (vv / a, 1.0)),
                           gnl_rates=(0.0, 2.0))

    def point_eig(self, u):
        return self._eig_at(float(u[0]), float(u[1]))

    def eig_of_average(self, amat, mid):
        # A is linear in the state, so the averaged matrix is A at the segment
        # mean; recover that state from the matrix entries to keep lambda_1
        # identically zero in floating point.
        vv = amat[1][0]
        uu = amat[1][1] - 1.0 - 2.0 * vv
        return self._eig_at(uu, vv)

    def wave_curve(self, k, u0, s, parametrization, root):
        """Closed forms on both families; root is not needed."""
        uu, vv = u0
        a0 = 1.0 + uu + 2.0 * vv
        if k == 1:  # contact: (1+u+v)v stays constant, lambda_1 = 0
            n0 = math.hypot(a0, vv)
            wu = uu + s * a0 / n0
            inv = (1.0 + uu + vv) * vv
            disc = (1.0 + wu) ** 2 + 4.0 * inv
            if disc <= 0:
                raise CurveError("remark-2x2 family-1 curve left its branch")
            sq = math.sqrt(disc)
            wv = 0.5 * (-(1.0 + wu) + sq)
            # wu = uu + s a0/n0 with d(a0/n0) = vv (vv da0 - a0 dvv) / n0^3 and
            # da0 = du + 2 dv; wv moves with wu and with inv through sq
            n3 = n0 * n0 * n0
            wu_s, wu_u, wu_v = a0 / n0, 1.0 + s * vv * vv / n3, s * vv * (2.0 * vv - a0) / n3
            half = 0.5 * ((1.0 + wu) / sq - 1.0)
            return ((wu, wv), (wu_s, half * wu_s),
                    ((wu_u, wu_v),
                     (half * wu_u + vv / sq, half * wu_v + a0 / sq)))
        # family 2: the locus is the vertical line u = const for both branches,
        # along which lambda_2 = 1 + u + 2v moves twice as far as v
        if s >= 0 and parametrization == "lambda":
            return (uu, vv + 0.5 * s), None, None
        return (uu, vv + s), (0.0, 1.0), ((1.0, 0.0), (0.0, 1.0))


# ---------------------------------------------------------------------------
# p-system with gamma-law pressure, state (v, u)
# ---------------------------------------------------------------------------


class PSystem(FluxModel):
    """v_t - u_x = 0, u_t + p(v)_x = 0 with p = k v^(-gamma); both fields GNL."""

    id = "p-system"
    N = 2
    DEFAULTS = {"gamma": 1.4, "k": 1.0, "v_min": 0.5, "v_max": 2.0, "u_max": 1.0}

    def _setup(self, gamma, k, v_min, v_max, u_max):
        self.gamma, self.k = gamma, k
        if gamma <= 0 or k <= 0 or not 0 < v_min < v_max:
            raise ConfigError("model.params", "p-system needs gamma, k > 0 and 0 < v_min < v_max")
        self.domain = np.array([[v_min, v_max], [-u_max, u_max]])
        self._m = 0.5 * (self.gamma + 1.0)
        self._ccoef = math.sqrt(self.k * self.gamma)
        c_max = self.sound(v_min)
        c_min = self.sound(v_max)
        self.field_kind = (GNL, GNL)
        self.lambda_fences = np.array([-1.05 * c_max, 0.0, 1.05 * c_max])
        self.gap = 2.0 * c_min
        self.riemann_radius = 0.8 * (v_max - v_min)
        self.tv_budget = 1.2

    # c(v) = sqrt(-p'(v)) = sqrt(k gamma) v^(-(gamma+1)/2)
    def sound(self, v):
        return self._ccoef * v ** (-self._m)

    def sound_inv(self, c):
        return (self._ccoef / c) ** (1.0 / self._m)

    def dsound(self, v):
        return -self._m * self.sound(v) / v

    def pressure(self, v):
        return self.k * v ** (-self.gamma)

    def chord_sound_sq(self, v0, v):
        """-(p(v) - p(v0)) / (v - v0), the mean of c^2 over [v0, v], for
        v != v0: p(v) = p(v0) (1 + d/v0)^(-gamma) with d = v - v0, and
        expm1/log1p keep every bit of a weak shock's pressure jump, which a
        difference of the two pressures would cancel."""
        d = v - v0
        return -self.pressure(v0) * math.expm1(-self.gamma * math.log1p(d / v0)) / d

    def sound_antiderivative(self, v):
        """Antiderivative of c, used by the rarefaction Riemann invariants."""
        if self.gamma == 1.0:
            return self._ccoef * math.log(v)
        return self._ccoef * v ** (1.0 - self._m) / (1.0 - self._m)

    def f(self, u):
        return np.array([-u[1], self.pressure(u[0])])

    def jacobian_rows(self, u):
        # scalar pow: numpy's array power differs from it in the last bit
        # on some states
        return (0.0, -1.0), (-self.sound(u[0]) ** 2, 0.0)

    def _eig_for_sound(self, c, v_for_rate):
        n = math.hypot(1.0, c)
        rate = -self.dsound(v_for_rate) / n  # positive: c decreases in v
        return EigenSystem(lambdas=(-c, c),
                           right=((1.0 / n, c / n), (-1.0 / n, c / n)),
                           left=((0.5 * n, 0.5 * n / c), (-0.5 * n, 0.5 * n / c)),
                           gnl_rates=(rate, rate))

    def point_eig(self, u):
        v = float(u[0])
        return self._eig_for_sound(self.sound(v), v)

    def eig_of_average(self, amat, mid):
        msq = -amat[1][0]  # averaged -p', positive
        if msq <= 0:
            raise NearDegeneracyError("p-system averaged matrix lost hyperbolicity")
        return self._eig_for_sound(math.sqrt(msq), mid[0])

    def wave_curve(self, k, u0, s, parametrization, root):
        """Both branches on Python floats; the contraction l . (T - u0) is
        l0*dv + l1*dw, each product rounded. The unit parametrization's
        derivatives come from differentiating the residual that fixes v (g on
        the rarefaction, gsh on the shock) implicitly; at s = 0 they give the
        tangent r_k and the identity. root finds v off the closed forms."""
        v0, w0 = u0
        c0 = self.sound(v0)
        n0 = math.hypot(1.0, c0)
        v_lo, v_hi = float(self.domain[0, 0]), float(self.domain[0, 1])
        l0 = -0.5 * n0 if k == 2 else 0.5 * n0
        l1 = 0.5 * n0 / c0
        # the 2-rarefaction keeps w + F(v), the 1-rarefaction w - F(v)
        orient = -1.0 if k == 2 else 1.0

        if s >= 0:  # rarefaction branch
            F0 = self.sound_antiderivative(v0)
            speed_spaced = parametrization == "lambda"
            if speed_spaced:
                c_target = c0 + s if k == 2 else c0 - s
                if c_target <= 0:
                    raise CurveError("p-system rarefaction parameter too large")
                v = self.sound_inv(c_target)
            elif s == 0:
                v = v0
            else:
                def g(v):
                    dw = (w0 + orient * (self.sound_antiderivative(v) - F0)) - w0
                    return (l0 * (v - v0) + l1 * dw) - s

                a, b = (v_lo, v0) if k == 2 else (v0, v_hi)
                ga, gb = g(a), g(b)
                if ga * gb > 0:
                    raise CurveError("p-system rarefaction curve exits the domain")
                v = root(g, a, b, ga, gb)
            dF = self.sound_antiderivative(v) - F0
            state = (v, w0 + orient * dF)
            if speed_spaced:
                return state, None, None
            c = self.sound(v)
            # g = l0 (v - v0) + l1 orient (F(v) - F(v0)) - s, with l0 and l1
            # functions of v0 through c0
            dl0, dl1 = self._dl_dv0(k, v0, c0, n0)
            g_v = l0 + l1 * orient * c
            g_v0 = dl0 * (v - v0) - l0 + orient * (dl1 * dF - l1 * c0)
            v_s, v_v0 = 1.0 / g_v, -g_v0 / g_v
            return (state, (v_s, orient * c * v_s),
                    ((v_v0, 0.0), (orient * (c * v_v0 - c0), 1.0)))

        # shock branch
        if abs(s) < 8.0 * math.ulp(v0) * n0:
            # the root lies within 8 ulp of v0, nearer than a bracket can start;
            # there the Hugoniot locus is its tangent r_k to the last bit
            r = (orient / n0, c0 / n0)
            return (v0 + s * r[0], w0 + s * r[1]), r, ((1.0, 0.0), (0.0, 1.0))

        def shock(v):
            # the chord slope of -p, its root sigma (signed by the family),
            # and w on the Hugoniot locus
            q = self.chord_sound_sq(v0, v)
            sig = math.sqrt(q)
            if k == 1:
                sig = -sig
            return w0 - sig * (v - v0), sig, q

        def gsh(v):
            return (l0 * (v - v0) + l1 * (shock(v)[0] - w0)) - s

        # the bracket starts at most 1e-3 |s| away from v0, so that the root of
        # a weak shock lies inside it, and at least 4 ulp away, so that its end
        # is not v0
        h = min(max(1e-12, 1e-9 * v0), max(4.0 * math.ulp(v0), 1e-3 * abs(s)))
        lo, hi = (v0 + h, v_hi) if k == 2 else (v_lo, v0 - h)
        if v0 == (v_hi if k == 2 else v_lo):  # the bracket would be empty
            raise CurveError("p-system Hugoniot curve starts on the box edge "
                             "it leaves by")
        glo, ghi = gsh(lo), gsh(hi)
        if glo * ghi > 0:
            raise CurveError("p-system Hugoniot parameter outside reachable range")
        v = root(gsh, lo, hi, glo, ghi)
        w, sigma, q = shock(v)
        # w - w0 = phi = -sigma (v - v0) with sigma^2 = q; dq/dv = (c^2 - q)/(v - v0)
        # and dq/dv0 = (q - c0^2)/(v - v0), so the (v - v0) factors cancel
        dl0, dl1 = self._dl_dv0(k, v0, c0, n0)
        phi_v = -sigma - (self.sound(v) ** 2 - q) / (2.0 * sigma)
        phi_v0 = sigma - (q - c0 * c0) / (2.0 * sigma)
        g_v = l0 + l1 * phi_v
        g_v0 = dl0 * (v - v0) - l0 + dl1 * (-sigma * (v - v0)) + l1 * phi_v0
        v_s, v_v0 = 1.0 / g_v, -g_v0 / g_v
        return ((v, w), (v_s, phi_v * v_s),
                ((v_v0, 0.0), (phi_v * v_v0 + phi_v0, 1.0)))

    def _dl_dv0(self, k, v0, c0, n0):
        """d l0/d v0 and d l1/d v0 for l = (-+0.5 n0, 0.5 n0/c0), n0 =
        hypot(1, c0)."""
        dc0 = self.dsound(v0)
        dn0 = c0 * dc0 / n0
        dl0 = -0.5 * dn0 if k == 2 else 0.5 * dn0
        return dl0, -0.5 * dc0 / (n0 * c0 * c0)


# ---------------------------------------------------------------------------
# constant-matrix advection systems (numeric eigen path)
# ---------------------------------------------------------------------------


class Linear(FluxModel):
    """f(u) = M u for a constant M with distinct real eigenvalues; all LD."""

    id = "linear"
    DEFAULTS = {"matrix": [[1.0]], "radius": 1.0}

    def _setup(self, matrix, radius):
        if not (isinstance(matrix, list) and matrix and all(
                isinstance(row, list) and len(row) == len(matrix) for row in matrix)):
            raise ConfigError("model.params.matrix",
                              "must be a square list of rows of numbers")
        self.M = np.array([[finite("model.params.matrix", e) for e in row]
                           for row in matrix])
        self.params["matrix"] = self.M.tolist()
        self._rows = tuple(map(tuple, self.params["matrix"]))
        self.N = self.M.shape[0]
        self.domain = np.array([[-radius, radius]] * self.N)
        self.field_kind = (LD,) * self.N
        self._system = self._decompose(self.M)
        lam = self._system.lambdas
        self.gap = float(np.diff(lam).min()) if self.N > 1 else math.inf
        fences = [lam[0] - 1.0]
        fences += [0.5 * (lam[i] + lam[i + 1]) for i in range(self.N - 1)]
        fences.append(lam[-1] + 1.0)
        self.lambda_fences = np.array(fences)
        self.riemann_radius = 2.0 * radius * math.sqrt(self.N)
        self.tv_budget = 8.0

    def _decompose(self, mat):
        w, vr = np.linalg.eig(mat)
        order = np.argsort(w.real)
        if (np.abs(w.imag).max() > 1e-10
                or self.N > 1 and np.diff(w.real[order]).min() < self.gap_tol):
            raise ConfigError("model.params.matrix",
                              "must have distinct real eigenvalues")
        w, vr = w.real[order], vr.real[:, order]
        right = []
        for i in range(self.N):
            r = vr[:, i] / np.linalg.norm(vr[:, i])
            nz = np.nonzero(np.abs(r) > 1e-12)[0][0]
            if r[nz] < 0:
                r = -r
            right.append(r)
        right = np.array(right)
        try:
            left = np.linalg.inv(right.T)  # rows biorthogonal to right rows
        except np.linalg.LinAlgError:
            raise ConfigError("model.params.matrix", "must have linearly "
                              "independent eigenvectors") from None
        return EigenSystem(lambdas=tuple(map(float, w)),
                           right=tuple(tuple(map(float, r)) for r in right),
                           left=tuple(tuple(map(float, r)) for r in left),
                           gnl_rates=(0.0,) * self.N)

    def f(self, u):
        return self.M @ u

    def jacobian_rows(self, u):
        return self._rows

    def point_eig(self, u):
        return self._system

    def eig_of_average(self, amat, mid):
        return self._system


_CATALOG = {m.id: m for m in (Burgers, Cubic, Remark2x2, PSystem, Linear)}


def catalog_ids():
    return sorted(_CATALOG)


def make_model(model_id, params=None):
    try:
        cls = _CATALOG[model_id]
    except KeyError:
        raise UnknownModelError(model_id) from None
    return cls(params)


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------


def _average_rows(model, a, b):
    """Gauss-Legendre order-8 average of Df along the segment from a to b
    (sequences of Python floats), as a list of rows: each node's state is
    theta*a + (1 - theta)*b, and each entry sums its weighted node values
    from zero in node order."""
    nodes = zip(*[[theta * x + cotheta * y
                   for theta, cotheta in zip(_GL8_THETA, _GL8_COTHETA)]
                  for x, y in zip(a, b)])
    jacs = [model.jacobian_rows(u) for u in nodes]
    rows = []
    for i in range(model.N):
        row = []
        for j in range(model.N):
            acc = 0.0
            for w, jac in zip(_GL8_WEIGHTS, jacs):
                acc += w * jac[i][j]
            row.append(acc)
        rows.append(row)
    return rows


def average_eigs(model, uL, uR):
    """EigenSystem of the averaged matrix A(uL, uR); gnl_rates use the
    segment midpoint gradient, and uL == uR gives the point system. The
    states are tuples of floats inside the box, as the solvers make them."""
    if uL == uR:
        return model.point_eig(uL)
    sys = model.eig_of_average(_average_rows(model, uL, uR),
                               [0.5 * (x + y) for x, y in zip(uL, uR)])
    _check_gap(model, sys.lambdas)
    return sys


def _check_gap(model, lam):
    if model.N > 1 and min(y - x for x, y in zip(lam, lam[1:])) < model.gap_tol:
        raise NearDegeneracyError(
            f"{model.id}: eigenvalue gap below gap_tol={model.gap_tol}")


# ---------------------------------------------------------------------------
# state vectors on Python floats, in a fixed rounding order
# ---------------------------------------------------------------------------


def dot(a, b):
    """a . b for sequences of Python floats: a[0]*b[0] + a[1]*b[1] + ...,
    each product rounded and the sum taken left to right."""
    acc = a[0] * b[0]
    for i in range(1, len(a)):
        acc += a[i] * b[i]
    return acc


def norm(d):
    """Euclidean norm math.sqrt(dot(d, d)): the squares rounded and summed
    in order, then one correctly rounded square root. math.hypot would
    avoid overflow, which states inside a domain box cannot reach, and its
    algorithm has changed between Python versions."""
    return math.sqrt(dot(d, d))


def max_abs(d):
    """Largest |d_i|; exact, so its order does not matter."""
    return max(map(abs, d))


def total(xs):
    """Sum of Python floats from 0.0, left to right, each addition rounded:
    the builtin sum's result before Python 3.12, on every version."""
    acc = 0.0
    for x in xs:
        acc += x
    return acc
