"""Independent exact solutions for the convergence studies.

Each oracle maps a time to a piecewise description of the exact profile:
a list of (x_lo, x_hi, payload) where payload is either a constant state
(a tuple of floats) or a scalar callable on x. These are written from the
closed-form solutions (Rankine-Hugoniot speeds, centered fans, envelope
tangency, characteristic translates), never from the solver under test.
"""

from __future__ import annotations

import math

import numpy as np

from . import flux_core as fc
from .errors import ConfigError


def burgers_riemann_oracle(uL, uR):
    """Exact entropy solution of Burgers with a single initial jump at x = 0."""

    def pieces(t, lo, hi):
        if t <= 0:
            return [(lo, 0.0, (uL,)), (0.0, hi, (uR,))]
        if uL > uR:
            xs = 0.5 * (uL + uR) * t
            return [(lo, xs, (uL,)), (xs, hi, (uR,))]
        xa, xb = uL * t, uR * t
        return [(lo, xa, (uL,)),
                (xa, xb, lambda x: x / t),
                (xb, hi, (uR,))]

    return pieces


def cubic_riemann_oracle():
    """Exact solution for f = u^3/3 from -1 to 1 at x = 0: shock from -1 to
    1/2 at speed 1/4 (convex-envelope tangency 2u^3 + 3u^2 - 1 = 0), then the
    fan u = sqrt(x/t) up to speed 1."""

    def pieces(t, lo, hi):
        if t <= 0:
            return [(lo, 0.0, (-1.0,)), (0.0, hi, (1.0,))]
        xs = 0.25 * t
        xb = t
        return [(lo, xs, (-1.0,)),
                (xs, xb, lambda x: math.sqrt(x / t)),
                (xb, hi, (1.0,))]

    return pieces


def linear_system_oracle(model, xs, values):
    """Characteristic translates of piecewise-constant data for f(u) = Mu:
    u = sum over k of (l_k . u0(x - lambda_k t)) r_k, each component summed
    over k in order."""
    sys = model.point_eig((0.0,) * model.N)
    xs = [float(x) for x in xs]
    values = [fc.as_state(v, model.N) for v in values]

    def state_at(x):
        u = values[0]
        for xj, vj in zip(xs, values[1:]):
            if xj <= x:
                u = vj
            else:
                break
        return u

    def pieces(t, lo, hi):
        cuts = sorted({lo, hi} | {xj + lam * t for xj in xs for lam in sys.lambdas})
        cuts = [c for c in cuts if lo <= c <= hi]
        out = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            xm = 0.5 * (a + b)
            waves = [fc.dot(row, state_at(xm - lam * t))
                     for row, lam in zip(sys.left, sys.lambdas)]
            out.append((a, b, tuple(
                fc.total(w * r[j] for w, r in zip(waves, sys.right))
                for j in range(model.N))))
        return out

    return pieces


SIMPSON_PANELS = 32  # even number of Simpson subintervals per piece


def _simpson(fn, a, b):
    xs = np.linspace(a, b, SIMPSON_PANELS + 1)
    ys = np.array([fn(x) for x in xs])
    h = (b - a) / SIMPSON_PANELS
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def l1_error(field, oracle_pieces, lo, hi):
    """L1 distance between a piecewise-constant field and an oracle profile
    over [lo, hi]; exact on constant pieces, Simpson elsewhere (vector norms
    are the 1-norm)."""
    cuts = {lo, hi}
    cuts.update(x for x in field.xs if lo < x < hi)
    for (a, b, payload) in oracle_pieces:
        if lo < a < hi:
            cuts.add(a)
        if lo < b < hi:
            cuts.add(b)
    cuts = sorted(cuts)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= 0:
            continue
        xm = 0.5 * (a + b)
        u_num = field.state_at(xm)
        payload = None
        for (pa, pb, pl) in oracle_pieces:
            if pa <= xm <= pb:
                payload = pl
                break
        if payload is None:
            raise ConfigError("diagnostics.convergence", "oracle window too small")
        if callable(payload):
            c = u_num[0]
            total += _piece_l1_scalar(c, payload, a, b)
        else:
            total += float(np.abs(np.subtract(u_num, payload)).sum()) * (b - a)
    return total


def _piece_l1_scalar(c, g, a, b):
    """Integral of |c - g(x)| over [a, b] for monotone-ish smooth g: split at
    the sign change of c - g when present, then Simpson on each part."""
    da, db = c - g(a), c - g(b)
    if da * db < 0:
        lo_, hi_ = a, b
        fa = da
        for _ in range(80):
            mid = 0.5 * (lo_ + hi_)
            fm = c - g(mid)
            if fa * fm <= 0:
                hi_ = mid
            else:
                lo_ = mid
                fa = fm
        xstar = 0.5 * (lo_ + hi_)
        return (abs(_simpson(lambda x: c - g(x), a, xstar))
                + abs(_simpson(lambda x: c - g(x), xstar, b)))
    return _simpson(lambda x: abs(c - g(x)), a, b)
