"""Riemann machinery: scalar envelope fans and the accurate / simplified /
crude approximate solvers. The solvers walk each model's own wave curves
(FluxModel.wave_curve) through _curve_point, which lends them brentq.

Size conventions (see flux_core): every Front.size is the unit-normalized
curve parameter s = l_k(base) . (T_s - base). A system rarefaction fan puts
its fronts at points equally spaced in the characteristic speed, where
lambda_k(T_s) = lambda_k(base) + s along the rarefaction branch.

Every solver returns its outgoing fronts as a plain list, ordered by speed
and chained left to right (each front's uL is its left neighbour's uR).
States are tuples of Python floats (see flux_core).
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from . import flux_core as fc
from .errors import (CapExceededError, CurveError, DomainError, RiemannError,
                     SolverError)
from .flux_core import GNL, LD

SIZE_FLOOR = 1e-13  # below this, a wave size is treated as absent
NEWTON_TOL = 1e-12
NEWTON_MAXIT = 50
FLOAT_EPS = sys.float_info.epsilon  # a Python float: brentq stays off numpy scalars
BRENT_XTOL = 1e-14
BRENT_MAXIT = 120
CLASSIFY_TOL = 1e-12  # Lax-condition slack when labelling a scalar front


@dataclass(eq=False)
class Front:
    """One moving discontinuity; family N+1 marks nonphysical fronts.

    Once the tracker splices a front, the object is its birth-to-death
    record: it moves on the straight line through (born_t, born_x) with its
    speed, and its fields do not change except for the death ones. Fronts
    compare by identity, so a front list is searched for the record itself.

    eigs is the averaged eigensystem of (uL, uR) that a system front's speed
    came from (fc.average_eigs); None for scalar and nonphysical fronts.
    """

    family: int
    speed: float
    uL: tuple
    uR: tuple
    size: float
    kind: str  # shock | rarefaction | contact | nonphysical
    id: int = -1
    born_t: float = 0.0
    born_x: float = 0.0
    died_t: float | None = None
    eigs: fc.EigenSystem | None = field(default=None, repr=False)

    @property
    def is_physical(self):
        return self.kind != "nonphysical"

    def position(self, t):
        return self.born_x + self.speed * (t - self.born_t)

    def jump(self):
        return tuple(y - x for x, y in zip(self.uL, self.uR))

    def strength(self):
        """Euclidean norm of the jump; the bookkeeping size of nonphysical fronts."""
        return fc.norm(self.jump())


# ---------------------------------------------------------------------------
# robust scalar root solving (Brent), lent to the models' wave curves
# ---------------------------------------------------------------------------


def brentq(fn, a, b, fa=None, fb=None):
    """Root of fn in [a, b]; fa and fb, when given, are fn(a) and fn(b)
    from the caller's sign test, and fn is not called there again."""
    if fa is None:
        fa = fn(a)
    if fb is None:
        fb = fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise SolverError(f"brentq: no sign change on [{a}, {b}]")
    c, fc_ = a, fa
    d = e = b - a
    for _ in range(BRENT_MAXIT):
        if fb * fc_ > 0:
            c, fc_ = a, fa
            d = e = b - a
        if abs(fc_) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc_ = fb, fc_, fb
        tol1 = 2.0 * FLOAT_EPS * abs(b) + 0.5 * BRENT_XTOL
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc_
                r = fb / fc_
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        b = b + (d if abs(d) > tol1 else math.copysign(tol1, xm))
        fb = fn(b)
    raise SolverError("brentq: no convergence")


def _curve_point(model, k, u0, s, parametrization):
    """model.wave_curve's (T, dT/ds, dT/du0) through u0, with brentq as its
    root finder; DomainError when T leaves the box. brentq is read from this
    module at each call, so a wrapper set on riemann.brentq sees every root
    a curve takes."""
    out = model.wave_curve(k, u0, s, parametrization, brentq)
    if not model.contains(out[0]):
        raise DomainError(f"{model.id}: curve point {np.array(out[0])} left "
                          "the domain")
    return out


# ---------------------------------------------------------------------------
# scalar envelope construction
# ---------------------------------------------------------------------------

_ENVELOPE_GRID = 2048


def _lower_hull(xs, ys):
    idx = []
    for kk in range(len(xs)):
        while len(idx) >= 2:
            o, p = idx[-2], idx[-1]
            cross = (xs[p] - xs[o]) * (ys[kk] - ys[o]) - (ys[p] - ys[o]) * (xs[kk] - xs[o])
            if cross <= 0:  # p on or above chord o->kk: not on the lower hull
                idx.pop()
            else:
                break
        idx.append(kk)
    return idx


def _refine_bridge(gval, gp, gpp, lo, hi, p0, q0, left_interior, right_interior):
    """Polish supporting-line contact points by damped Newton on the tangency
    residuals; grid values p0 < q0 are the starting guess."""
    p, q = p0, q0

    def resid(pp, qq):
        dg = gval(qq) - gval(pp)
        r = []
        if left_interior:
            r.append(gp(pp) * (qq - pp) - dg)
        if right_interior:
            r.append(gp(qq) * (qq - pp) - dg)
        return r

    if not (left_interior or right_interior):
        return p, q
    scale = max(1.0, abs(gval(q0) - gval(p0)))
    r = resid(p, q)
    for _ in range(60):
        if fc.max_abs(r) <= 1e-12 * scale:
            return p, q
        rows = []
        if left_interior:
            rows.append([gpp(p) * (q - p), gp(p) - gp(q)] if right_interior
                        else [gpp(p) * (q - p)])
        if right_interior:
            rows.append([gp(p) - gp(q), gpp(q) * (q - p)] if left_interior
                        else [gpp(q) * (q - p)])
        step = _solve_linear(rows, [-x for x in r])
        if step is None:
            raise RiemannError("envelope tangency root-finding failed (singular)")
        lam = 1.0
        for _ in range(40):
            pn, qn = p, q
            si = 0
            if left_interior:
                pn = p + lam * step[si]
                si += 1
            if right_interior:
                qn = q + lam * step[si]
            if lo <= pn < qn <= hi:
                rn = resid(pn, qn)
                if fc.max_abs(rn) < fc.max_abs(r):
                    p, q, r = pn, qn, rn
                    break
            lam *= 0.5
        else:
            raise RiemannError("envelope tangency root-finding failed (damping)")
    raise RiemannError("envelope tangency root-finding failed (no convergence)")


def _envelope_pieces(model, lo, hi, concave):
    """Pieces of the convex (or concave) envelope of f on [lo, hi] in
    increasing u: list of ("affine", a, b) and ("curved", a, b)."""
    sgn = -1.0 if concave else 1.0
    us = np.linspace(lo, hi, _ENVELOPE_GRID + 1)
    gs = sgn * model.f_scalar(us)

    def gval(u):
        return sgn * model.f_scalar(u)

    def gp(u):
        return sgn * model.fprime(u)

    def gpp(u):
        return sgn * model.fsecond(u)

    hull = _lower_hull(us, gs)
    bridges = []
    for e in range(len(hull) - 1):
        i, j = hull[e], hull[e + 1]
        if j > i + 1:
            bridges.append((i, j))
    refined = []
    for i, j in bridges:
        p, q = _refine_bridge(gval, gp, gpp, lo, hi, us[i], us[j],
                              left_interior=(i != 0), right_interior=(j != _ENVELOPE_GRID))
        refined.append((p, q))
    # rebuild: affine pieces are the refined bridges, curved pieces the gaps
    pieces = []
    cursor = lo
    for p, q in refined:
        p = max(p, cursor)
        if p - cursor > 1e-12 * max(1.0, hi - lo):
            pieces.append(("curved", cursor, p))
        pieces.append(("affine", p, q))
        cursor = q
    if hi - cursor > 1e-12 * max(1.0, hi - lo):
        pieces.append(("curved", cursor, hi))
    return pieces


def _secant(model, a, b):
    return (model.f_scalar(b) - model.f_scalar(a)) / (b - a)


def _classify_scalar(model, a, b, sigma):
    if (model.fprime(a) >= sigma - CLASSIFY_TOL
            and sigma >= model.fprime(b) - CLASSIFY_TOL):
        return "shock"
    return "rarefaction"


def _fan_count(dlam, eps, front_cap):
    """ceil(dlam / eps) fronts, at least one, for a fan opening dlam split at
    most eps apart; a count over front_cap is refused before any is built."""
    count = dlam / eps - 1e-12
    if count > front_cap:
        n = math.ceil(count) if math.isfinite(count) else count
        raise CapExceededError(
            f"a fan of {n} fronts exceeds the front cap {front_cap}")
    return max(1, math.ceil(count))


def _split_curved(model, u_from, u_to, eps, fronts, front_cap):
    """Append rarefaction fronts covering a curved envelope piece, splitting
    uniformly in lambda = f' so that the fan opening never exceeds eps."""
    lam_a, lam_b = model.fprime(u_from), model.fprime(u_to)
    dlam = lam_b - lam_a
    if dlam <= 1e-12:
        fronts.append((u_from, u_to, _secant(model, u_from, u_to), "rarefaction"))
        return
    n = _fan_count(dlam, eps, front_cap)
    lo, hi = (u_from, u_to) if u_from < u_to else (u_to, u_from)
    prev = u_from
    for m in range(1, n + 1):
        if m == n:
            nxt = u_to
        else:
            target = lam_a + dlam * m / n
            nxt = brentq(lambda x: model.fprime(x) - target, lo, hi)
        fronts.append((prev, nxt, _secant(model, prev, nxt), "rarefaction"))
        prev = nxt


def scalar_envelope_fan(model, uL, uR, eps, front_cap=math.inf, *,
                        checked=False):
    """Riemann fan for general scalar flux via the convex/concave envelope.

    Affine envelope pieces become single shocks at their secant speed;
    curved pieces become rarefaction fans with opening <= eps, each of at
    most front_cap fronts (CapExceededError otherwise). uL and uR are
    converted and box-checked unless checked says they are states inside
    the box already.
    """
    if not isinstance(model, fc.ScalarModel):
        raise RiemannError("scalar_envelope_fan needs a scalar model")
    if not checked:
        uL, uR = _checked_ends(model, uL, uR)
    (a,), (b,) = uL, uR
    if a == b:
        return []
    raw = []
    if abs(b - a) < 1e-12:
        raw.append((a, b, _secant(model, a, b), _classify_scalar(model, a, b, _secant(model, a, b))))
    elif model.field_kind[0] == GNL:
        # uniformly convex/concave flux: pure fan one way, single shock the other
        rising = model.fsecond(0.5 * (a + b)) > 0
        if (a < b) == rising:
            _split_curved(model, a, b, eps, raw, front_cap)
        else:
            raw.append((a, b, _secant(model, a, b), "shock"))
    else:
        concave = a > b
        lo, hi = (a, b) if a < b else (b, a)
        pieces = _envelope_pieces(model, lo, hi, concave)
        order = pieces if a < b else reversed(pieces)
        for kind, pa, pb in order:
            u_from, u_to = (pa, pb) if a < b else (pb, pa)
            if kind == "affine":
                raw.append((u_from, u_to, _secant(model, u_from, u_to), "shock"))
            else:
                _split_curved(model, u_from, u_to, eps, raw, front_cap)
    fronts = []
    left_state = uL
    for (u_from, u_to, sigma, kind) in raw:
        if abs(u_to - u_from) < 1e-14:
            continue
        right_state = (float(u_to),)
        fronts.append(Front(family=1, speed=float(sigma), uL=left_state,
                            uR=right_state, size=float(u_to - u_from), kind=kind))
        left_state = right_state
    if fronts:
        fronts[-1].uR = uR
    return fronts


# ---------------------------------------------------------------------------
# front speed helper
# ---------------------------------------------------------------------------


def front_speed(model, k, uL, uR):
    """(speed, eigs) of a family-k jump: the averaged-matrix speed
    lambda_tilde_k with the averaged eigensystem it came from; the secant
    and None for scalar models."""
    if isinstance(model, fc.ScalarModel):
        return _secant(model, uL[0], uR[0]), None
    eigs = fc.average_eigs(model, uL, uR)
    return eigs.lambdas[k - 1], eigs


def _system_front(model, k, uL, s, state=None):
    """Single physical front of family k with unit size s starting at uL;
    state, when given, is its curve point already found by the caller."""
    if state is None:
        state = _curve_point(model, k, uL, s, "unit")[0]
    kind_tag = model.field_kind[k - 1]
    speed, eigs = front_speed(model, k, uL, state)
    if isinstance(model, fc.ScalarModel):
        kind = _classify_scalar(model, uL[0], state[0], speed)
    else:
        kind = "contact" if kind_tag == LD else ("shock" if s < 0 else "rarefaction")
    return Front(family=k, speed=speed, uL=uL, uR=state, size=s, kind=kind,
                 eigs=eigs)


def _nonphysical_front(model, uL, uR):
    return Front(family=model.N + 1, speed=model.lambda_hat, uL=uL, uR=uR,
                 size=fc.norm([y - x for x, y in zip(uL, uR)]),
                 kind="nonphysical")


# ---------------------------------------------------------------------------
# accurate solver
# ---------------------------------------------------------------------------


def _checked_ends(model, uL, uR):
    """uL and uR as states, each refused outside the model's box."""
    uL = fc.as_state(uL, model.N)
    uR = fc.as_state(uR, model.N)
    model.require_inside(uL, "left state")
    model.require_inside(uR, "right state")
    return uL, uR


def solve_accurate(model, uL, uR, eps, front_cap=math.inf, *, checked=False):
    """Full approximate Riemann solution between uL and uR.

    Scalar models go through the envelope construction; systems solve the
    composed curve map by damped Newton and emit one shock or a rarefaction
    fan per genuinely nonlinear family and one contact per degenerate family.
    A fan of more than front_cap fronts raises CapExceededError before it
    is built. uL and uR are converted and box-checked unless checked says
    they are states inside the box already, as the tracker's are.
    """
    if not checked:
        uL, uR = _checked_ends(model, uL, uR)
    if isinstance(model, fc.ScalarModel):
        return scalar_envelope_fan(model, uL, uR, eps, front_cap, checked=True)
    dvec = [y - x for x, y in zip(uL, uR)]
    dist = fc.norm(dvec)
    if dist < 1e-14:
        return []
    if dist > model.riemann_radius:
        raise RiemannError(f"|uR-uL|={dist:.3g} exceeds Riemann radius")
    sizes, legs = _solve_sizes(model, uL, uR)
    fronts = []
    omega = uL
    for k in range(1, model.N + 1):
        sk = sizes[k - 1]
        if abs(sk) < SIZE_FLOOR:
            if sk != 0.0:
                legs = None  # the floored size moves every later leg's start
            continue
        # Newton's chain went through omega with size sk: its end is ours
        end = legs[k - 1] if legs else None
        kind_tag = model.field_kind[k - 1]
        if kind_tag == GNL and sk > 0:
            omega = _emit_fan(model, k, omega, sk, eps, fronts, front_cap, end)
        else:
            f = _system_front(model, k, omega, sk, end)
            fronts.append(f)
            omega = f.uR
    defect = fc.max_abs([x - y for x, y in zip(omega, uR)] if fronts else dvec)
    if defect > 1e-9 * max(1.0, fc.max_abs(uR)):
        raise RiemannError(f"accurate solver closure defect {defect:.3e}")
    if fronts and _bits(fronts[-1].uR) != _bits(uR):
        # a chain end equal to uR bit for bit has its speed and eigs already
        last = fronts[-1]
        last.uR = uR
        last.speed, last.eigs = front_speed(model, last.family, last.uL, uR)
    return fronts


def _bits(u):
    """A state's float64 bytes, which unlike == tell -0.0 from 0.0."""
    return struct.pack(f"{len(u)}d", *u)


def _solve_sizes(model, uL, uR):
    """Sizes s of the composed curve map from uL to uR, by damped Newton on
    Python floats, and the converged chain: legs[k-1] is the state after
    family k (the previous one where s[k-1] is 0).

    The Jacobian is exact: column k is dT_k/ds at the chain's k-th leg,
    carried through dT_j/du0 of every later family j by the chain rule."""
    n = model.N
    d = [y - x for x, y in zip(uL, uR)]
    s = [fc.dot(row, d) for row in model.point_eig(uL).left]
    scale = max(1.0, fc.max_abs(d))

    def chain(svec):
        # legs, and each family's (dT/ds, dT/du0); a zero size keeps the
        # leg and takes the curve's derivatives at s = 0
        omega, legs, jets = uL, [], []
        for k in range(1, n + 1):
            point, ts, tu = _curve_point(model, k, omega, svec[k - 1], "unit")
            if svec[k - 1] != 0.0:
                omega = point
            legs.append(omega)
            jets.append((ts, tu))
        return legs, jets, [x - y for x, y in zip(omega, uR)]

    try:
        legs, jets, res = chain(s)
    except (DomainError, CurveError) as exc:
        raise RiemannError(f"accurate solver: initial guess failed ({exc})")
    for _ in range(NEWTON_MAXIT):
        size = fc.max_abs(res)
        if size <= NEWTON_TOL * scale:
            return s, legs
        # columns from the last family back: carry holds the product of
        # the dT/du0 of the families after column k
        cols, carry = [None] * n, None
        for k in range(n - 1, -1, -1):
            ts, tu = jets[k]
            cols[k] = ts if carry is None else [fc.dot(row, ts) for row in carry]
            if k:
                carry = tu if carry is None else [
                    [fc.dot(row, col) for col in zip(*tu)] for row in carry]
        step = _solve_linear([list(row) for row in zip(*cols)],
                             [-x for x in res])
        if step is None:
            raise RiemannError("accurate solver: singular Newton system")
        lam = 1.0
        for _ in range(30):
            cand = [x + lam * y for x, y in zip(s, step)]
            try:
                clegs, cjets, cres = chain(cand)
            except (DomainError, CurveError):
                lam *= 0.5
                continue
            if fc.max_abs(cres) < size or lam < 1e-6:
                s, legs, jets, res = cand, clegs, cjets, cres
                break
            lam *= 0.5
        else:
            raise RiemannError("accurate solver: Newton damping failed")
    raise RiemannError("accurate solver: Newton did not converge")


def _solve_linear(rows, rhs):
    """x with rows . x = rhs, by Gaussian elimination with partial pivoting
    on Python floats (rows and rhs are overwritten); None on a zero pivot.
    One equation gives rhs[0] / rows[0][0], as LAPACK's solve does."""
    n = len(rhs)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(rows[r][c]))
        if rows[p][c] == 0.0:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        rhs[c], rhs[p] = rhs[p], rhs[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            for j in range(c, n):
                rows[r][j] -= f * rows[c][j]
            rhs[r] -= f * rhs[c]
    x = [0.0] * n
    for c in range(n - 1, -1, -1):
        acc = rhs[c]
        for j in range(c + 1, n):
            acc -= rows[c][j] * x[j]
        x[c] = acc / rows[c][c]
    return x


def _emit_fan(model, k, omega0, sk, eps, fronts, front_cap, end=None):
    """Rarefaction fan for family k: partition uniform in the lambda-scaled
    parameter, so consecutive openings are exactly dlam/n <= eps. end, when
    given, is the fan's far state, already found by the caller."""
    if end is None:
        end = _curve_point(model, k, omega0, sk, "unit")[0]
    lam0 = model.point_eig(omega0).lambdas[k - 1]
    lam1 = model.point_eig(end).lambdas[k - 1]
    dlam = lam1 - lam0
    if dlam <= 1e-14:
        f = _system_front(model, k, omega0, sk, end)
        fronts.append(f)
        return f.uR
    n = _fan_count(dlam, eps, front_cap)
    prev = omega0
    for m in range(1, n + 1):
        if m == n:
            nxt = end
        else:
            nxt = _curve_point(model, k, omega0, dlam * m / n, "lambda")[0]
        piece_size = fc.dot(model.point_eig(prev).left[k - 1],
                            [y - x for x, y in zip(prev, nxt)])
        speed, eigs = front_speed(model, k, prev, nxt)
        fronts.append(Front(family=k, speed=speed, uL=prev, uR=nxt,
                            size=piece_size, kind="rarefaction", eigs=eigs))
        prev = nxt
    return end


# ---------------------------------------------------------------------------
# simplified and crude solvers
# ---------------------------------------------------------------------------


def solve_simplified(model, left, right):
    """Outgoing waves keep the incoming families and sizes (merged when the
    families agree); the closure residual rides a single nonphysical front."""
    if not (left.is_physical and right.is_physical):
        raise RiemannError("simplified solver needs two physical fronts")
    uL, uR = left.uL, right.uR
    fronts = []
    omega = uL
    if left.family == right.family:
        s = left.size + right.size
        if abs(s) >= SIZE_FLOOR:
            f = _system_front(model, left.family, omega, s)
            fronts.append(f)
            omega = f.uR
    else:
        lo_front, hi_front = (right, left) if left.family > right.family else (left, right)
        f1 = _system_front(model, lo_front.family, omega, lo_front.size)
        fronts.append(f1)
        f2 = _system_front(model, hi_front.family, f1.uR, hi_front.size)
        fronts.append(f2)
        omega = f2.uR
    fronts.append(_nonphysical_front(model, omega, uR))
    return fronts


def solve_crude(model, nonphys, phys):
    """Nonphysical front overtaking a physical one: re-emit the physical wave
    from the shifted left state, push the residual into the nonphysical."""
    if nonphys.is_physical or not phys.is_physical:
        raise RiemannError("crude solver needs (nonphysical, physical) incoming")
    uL, uR = nonphys.uL, phys.uR
    f = _system_front(model, phys.family, uL, phys.size)
    f.kind = phys.kind
    return [f, _nonphysical_front(model, f.uR, uR)]
