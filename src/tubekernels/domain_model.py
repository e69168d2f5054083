"""Convex defining functions for tube domains over epigraphs in the plane.

A domain here is the tube R^2 + i*omega_f with omega_f = {(x, y): y > f(x)}
and f(x) = x^(2m) g(x), g(0) > 0.  The origin is a weakly pseudoconvex
boundary point of type 2m; everything downstream (kernels, blow-up charts,
asymptotics) consumes a :class:`DefiningFunction` built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicHermiteSpline, CubicSpline, PPoly

__all__ = [
    "DomainError",
    "BoundaryRelativePoint",
    "DefiningFunction",
    "mollify",
    "damp_tails",
    "model_domain",
    "rational_domain",
    "blended_linear_domain",
    "table_domain",
]


class DomainError(ValueError):
    """Input outside the represented class: bad parameters, exterior points,
    or a requested construction that cannot satisfy its own constraints."""


def _check_order(m) -> None:
    """DomainError unless the degeneracy order m is an integer >= 1."""
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise DomainError(f"m must be an integer >= 1, got {m!r}")


@dataclass(frozen=True)
class BoundaryRelativePoint:
    """Imaginary parts (x, y) of a point of the tube; interior means y > f(x)."""

    x: float
    y: float


class DefiningFunction:
    """f(x) = x^(2m) g(x) with f convex and g(0) > 0.

    Internal callables operate on 1-d numpy arrays; the public accessors
    accept scalars or arrays and return matching shapes.  ``tail_slopes``
    are the exact limits of f(x)/|x| on the (x -> -inf, x -> +inf) branches,
    with ``math.inf`` for superlinear growth; both must be positive.  They
    fix the dual cone: zeta1/zeta2 ranges over (-slope(+inf), slope(-inf)).
    """

    def __init__(
        self,
        m: int,
        f: Callable,
        fprime: Callable,
        fsecond: Callable,
        g: Callable,
        gprime: Callable,
        *,
        label: str,
        full_theorem_class: bool = True,
        tail_slopes: tuple[float, float],
        is_mollified: bool = False,
    ):
        _check_order(m)
        self.m = int(m)
        self._f = f
        self._fp = fprime
        self._fpp = fsecond
        self._g = g
        self._gp = gprime
        self.label = str(label)
        self.full_theorem_class = bool(full_theorem_class)
        neg, pos = (float(r) for r in tail_slopes)
        if not (neg > 0 and pos > 0):
            raise DomainError(f"tail slopes must be positive, got ({neg!r}, {pos!r})")
        self.tail_slopes = (neg, pos)
        self.is_mollified = bool(is_mollified)
        g0 = float(self._g(np.asarray([0.0]))[0])
        if not (math.isfinite(g0) and g0 > 0):
            raise DomainError(f"g(0) must be positive and finite, got {g0!r}")
        self.g0 = g0
        self._validate()

    # -- public accessors ---------------------------------------------------

    def f(self, x):
        return self._call(self._f, x)

    def fprime(self, x):
        return self._call(self._fp, x)

    def fsecond(self, x):
        return self._call(self._fpp, x)

    def g(self, x):
        return self._call(self._g, x)

    def gprime(self, x):
        return self._call(self._gp, x)

    def contains(self, p: BoundaryRelativePoint) -> bool:
        """True when (p.x, p.y) lies strictly inside omega_f."""
        return bool(p.y > self.f(p.x))

    def require_interior(self, p: BoundaryRelativePoint) -> None:
        if not self.contains(p):
            raise DomainError(
                f"point (x={p.x!r}, y={p.y!r}) is not interior: f(x)={self.f(p.x)!r}"
            )

    def __repr__(self):
        return f"DefiningFunction({self.label}, m={self.m}, g0={self.g0})"

    @staticmethod
    def _call(fn, x):
        arr = np.asarray(x, dtype=float)
        out = np.asarray(fn(np.atleast_1d(arr).ravel()), dtype=float)
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        xs = _SAMPLE_XS
        f = self.f(xs)
        fpp = self.fsecond(xs)
        g = self.g(xs)
        gp = self.gprime(xs)

        if abs(self.f(0.0)) > 1e-12:
            raise DomainError(f"f(0) must vanish, got {self.f(0.0)!r}")
        if not np.all(np.isfinite(f)):
            raise DomainError("f takes non-finite values on the sample grid")

        # f' of a convex f rises toward the tail slope, so f'(12) bounds it
        # from below on each branch
        reached = self.fprime(np.array([-12.0, 12.0])) * np.array([-1.0, 1.0])
        for side, declared, least in zip(("-inf", "+inf"), self.tail_slopes, reached):
            if declared < least - 1e-9 * abs(least):
                raise DomainError(
                    f"tail slope {declared!r} declared at x -> {side} is below "
                    f"|f'| = {float(least)!r} at |x| = 12"
                )

        tol = 1e-9 * (1.0 + np.abs(fpp))
        bad = fpp < -tol
        if np.any(bad):
            i = int(np.argmin(fpp + tol))
            raise DomainError(
                f"f is not convex: f''({float(xs[i])!r}) = {float(fpp[i])!r}"
            )

        # structural consistency f = x^(2m) g on a moderate window
        mid = np.abs(xs) <= 3.0
        lhs = f[mid]
        rhs = xs[mid] ** (2 * self.m) * g[mid]
        if not np.allclose(lhs, rhs, rtol=1e-6, atol=1e-12):
            raise DomainError("f and x^(2m) g(x) disagree on the sample grid")

        if self.full_theorem_class:
            i = _xg_violation(xs, g, gp)
            if i is not None:
                raise DomainError(
                    f"x g'(x) <= 0 violated at x={float(xs[i])!r}: "
                    f"x g' = {float(xs[i] * gp[i])!r}"
                )


# the points at which DefiningFunction checks its invariants
_SAMPLE_XS = np.concatenate(
    [[0.0], np.geomspace(1e-8, 12.0, 400), -np.geomspace(1e-8, 12.0, 400)]
)


def _xg_violation(xs: np.ndarray, g: np.ndarray, gp: np.ndarray) -> int | None:
    """Index of the largest x g' when some x g' exceeds 1e-9 (1 + |g|)."""
    xg = xs * gp
    if np.any(xg > 1e-9 * (1.0 + np.abs(g))):
        return int(np.argmax(xg))
    return None


def _f_from_g(m: int, g: Callable, gp: Callable, gpp: Callable):
    """(f, f', f'') of f = x^(2m) g from g and its first two derivatives."""
    n = 2 * int(m)

    def fv(x):
        return x**n * g(x)

    def fpv(x):
        return x ** (n - 1) * (n * g(x) + x * gp(x))

    def fppv(x):
        return x ** (n - 2) * (n * (n - 1) * g(x) + 2.0 * n * x * gp(x) + x * x * gpp(x))

    return fv, fpv, fppv


# ---------------------------------------------------------------------------
# built-in domains
# ---------------------------------------------------------------------------


def model_domain(m: int, g0: float = 1.0) -> DefiningFunction:
    """The homogeneous model f(x) = g0 x^(2m)."""
    if not (g0 > 0 and math.isfinite(g0)):
        raise DomainError(f"g0 must be positive, got {g0!r}")
    n = 2 * int(m)
    return DefiningFunction(
        m,
        lambda x: g0 * x**n,
        lambda x: n * g0 * x ** (n - 1),
        lambda x: n * (n - 1) * g0 * x ** (n - 2),
        lambda x: np.full_like(x, g0),
        lambda x: np.zeros_like(x),
        label=f"model(m={int(m)},g0={g0:g})",
        tail_slopes=(math.inf, math.inf),
    )


def rational_domain(m: int) -> DefiningFunction:
    """f(x) = x^(2m) / (1 + x^2): curvature decays but tails stay superlinear.

    Needs m >= 2; at m = 1 this profile loses convexity near |x| ~ 1.
    """
    if int(m) < 2:
        raise DomainError(f"rational_domain needs m >= 2, got {m!r}")

    def g(x):
        return 1.0 / (1.0 + x * x)

    def gp(x):
        return -2.0 * x / (1.0 + x * x) ** 2

    def gpp(x):
        return (6.0 * x * x - 2.0) / (1.0 + x * x) ** 3

    return DefiningFunction(
        m,
        *_f_from_g(m, g, gp, gpp),
        g,
        gp,
        label=f"rational(m={int(m)})",
        tail_slopes=(math.inf, math.inf),
    )


def blended_linear_domain(m: int, slope: float = 1.0) -> DefiningFunction:
    """Type-2m core with exactly linear tails of the given slope.

    Realized through f'(x) = slope * tanh(2m x^(2m-1) / slope), which keeps
    x g'(x) <= 0 globally and saturates to +-slope so fast that the tail
    slopes are exact at double precision.  The resulting dual cone is the
    finite square (-slope, slope).
    """
    if not (slope > 0 and math.isfinite(slope)):
        raise DomainError(f"slope must be positive and finite, got {slope!r}")
    n = 2 * int(m)
    s = float(slope)
    # tanh argument 21.5 leaves a relative saturation gap below 2e-19
    x_sat = (21.5 * s / n) ** (1.0 / (n - 1))

    grid = np.linspace(0.0, x_sat, 4001)

    def fp_half(x):
        return s * np.tanh(n * x ** (n - 1) / s)

    def fpp_half(x):
        t = np.tanh(n * x ** (n - 1) / s)
        return (1.0 - t * t) * n * (n - 1) * x ** (n - 2)

    F = CubicHermiteSpline(grid, fp_half(grid), fpp_half(grid)).antiderivative()

    # series region: the spline antiderivative carries roundoff-scale
    # negatives near 0, so tiny |x| goes through the expansion of g instead
    c_series = n**3 / (3.0 * s * s * (3 * n - 2))
    x_series = (1e-8 / c_series) ** (1.0 / (2 * n - 2))

    def fv(x):
        ax = np.abs(x)
        out = np.empty_like(ax)
        small = ax < x_series
        xs = ax[small]
        out[small] = xs**n * (1.0 - c_series * xs ** (2 * n - 2))
        xb = ax[~small]
        inner = np.minimum(xb, x_sat)
        out[~small] = F(inner) + s * np.maximum(xb - x_sat, 0.0)
        return out

    def fpv(x):
        return np.sign(x) * fp_half(np.abs(x))

    def fppv(x):
        return fpp_half(np.abs(x))

    def gv(x):
        ax = np.abs(x)
        out = np.empty_like(ax)
        small = ax < x_series
        out[small] = 1.0 - c_series * ax[small] ** (2 * n - 2)
        xs = ax[~small]
        out[~small] = fv(xs) / xs**n
        return out

    def gpv(x):
        ax = np.abs(x)
        out = np.empty_like(ax)
        small = ax < x_series
        out[small] = -(2 * n - 2) * c_series * ax[small] ** (2 * n - 3)
        xs = ax[~small]
        out[~small] = (xs * fp_half(xs) - n * fv(xs)) / xs ** (n + 1)
        return out * np.sign(x)

    return DefiningFunction(
        m,
        fv,
        fpv,
        fppv,
        gv,
        gpv,
        label=f"blended-linear(m={int(m)},slope={s:g})",
        tail_slopes=(s, s),
    )


def table_domain(
    xs: Sequence[float],
    gs: Sequence[float],
    gprimes: Sequence[float],
    m: int,
    *,
    label: str = "table",
) -> DefiningFunction:
    """Domain from sampled (x, g, g') rows; g is frozen outside the table range.

    The constant extension keeps the tails superlinear (x^(2m) times the
    boundary value), so the dual cone is the full half-plane; the usual
    class invariants are still validated on the represented grid.
    """
    xs = np.asarray(xs, dtype=float)
    gs = np.asarray(gs, dtype=float)
    gps = np.asarray(gprimes, dtype=float)
    if xs.ndim != 1 or xs.size < 4:
        raise DomainError("table needs at least 4 sample rows")
    if np.any(np.diff(xs) <= 0):
        raise DomainError("table x-values must be strictly increasing")
    if not (xs[0] < 0.0 < xs[-1]):
        raise DomainError("table must bracket x = 0")
    i = _xg_violation(xs, gs, gps)
    if i is not None:
        raise DomainError(
            f"x g'(x) <= 0 violated at table row x={float(xs[i])!r}: "
            f"x g' = {float(xs[i] * gps[i])!r}"
        )
    spl = CubicHermiteSpline(xs, gs, gps)
    dspl = spl.derivative()
    ddspl = dspl.derivative()
    lo, hi = float(xs[0]), float(xs[-1])
    # the rows pass, so a violation on the validation points inside the
    # table comes from the interpolant between two rows
    inside = _SAMPLE_XS[(_SAMPLE_XS >= lo) & (_SAMPLE_XS <= hi)]
    gp_in = dspl(inside)
    j = _xg_violation(inside, spl(inside), gp_in)
    if j is not None:
        k = min(int(np.searchsorted(xs, inside[j], side="right")), xs.size - 1)
        raise DomainError(
            f"the cubic Hermite interpolant of the table breaks x g'(x) <= 0 on "
            f"[{float(xs[k - 1])!r}, {float(xs[k])!r}], though both rows meet it: "
            f"x g' = {float(inside[j] * gp_in[j])!r} at x={float(inside[j])!r}; "
            f"add rows there"
        )
    glo, ghi = float(gs[0]), float(gs[-1])

    def gv(x):
        xc = np.clip(x, lo, hi)
        out = np.asarray(spl(xc), dtype=float)
        out[x < lo] = glo
        out[x > hi] = ghi
        return out

    def gpv(x):
        out = np.asarray(dspl(np.clip(x, lo, hi)), dtype=float)
        out[(x < lo) | (x > hi)] = 0.0
        return out

    def gppv(x):
        out = np.asarray(ddspl(np.clip(x, lo, hi)), dtype=float)
        out[(x < lo) | (x > hi)] = 0.0
        return out

    return DefiningFunction(
        m,
        *_f_from_g(m, gv, gpv, gppv),
        gv,
        gpv,
        label=label,
        tail_slopes=(math.inf, math.inf),
    )


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t<=0, 1 for t>=1, flat to all orders at both ends."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.clip(t, 1e-300, None)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.clip(1.0 - t, 1e-300, None)), 0.0)
    return a / (a + b)


def _bump(s: np.ndarray, a: float, b: float) -> np.ndarray:
    """Unit-height plateau bump on [a, b] with smooth-step ramps, each a
    fifth of the width."""
    r = 0.2 * (b - a)
    return _smooth_step((s - a) / r) * _smooth_step((b - s) / r)


def mollify(f: DefiningFunction, delta: float) -> DefiningFunction:
    """Flatten g outside |x| <= delta so the boundary is strictly convex
    away from the origin while the germ at 0 is untouched.

    The blend keeps g~ = g on |x| <= delta, lands exactly on (9/10) g(0)
    with zero slope at |x| = 1, and stays constant beyond.  The curvature
    budget |x^2 g~''| < g(0)/5 caps how much drop a given delta can carry;
    deltas beyond roughly 0.19 cannot reach the required 0.1 g(0) drop with
    any admissible profile and are rejected.  Both sides are blended from
    g(delta) and g'(delta), so a parent whose g is not even at |x| = delta
    is rejected too.
    """
    d = float(delta)
    if not (0.0 < d < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta!r}")
    g0 = f.g0
    target = 0.9 * g0
    bound = g0 / 5.0

    g_d = f.g(d)
    gp_d = f.gprime(d)
    g_m, gp_m = f.g(-d), f.gprime(-d)
    if abs(g_m - g_d) > 1e-9 * g0 or abs(gp_m + gp_d) > 1e-9 * g0:
        raise DomainError(
            f"mollify needs g even at |x| = {d:g}: g(-delta) = {g_m:.10g} vs "
            f"g(delta) = {g_d:.10g}, g'(-delta) = {gp_m:.10g} vs "
            f"g'(delta) = {gp_d:.10g} (asymmetric g)"
        )
    if g_d < target:
        raise DomainError(
            f"g({d}) = {g_d} already below the flat level {target}; "
            "choose a smaller delta"
        )

    # two plateau bumps in s^2 g~''(s): down on [delta, xs], up on [xs, 1]
    xs_split = 2.0 * d / (1.0 + d)

    # the bumps over s^2 as one two-column spline on the blend's nodes: its
    # antiderivative at 1 gives I = int B/s^2, and its second gives
    # J = int (1 - s) B/s^2 (by parts), the same integrals g~ is built from
    nodes = np.unique(
        np.concatenate(
            [
                np.linspace(d, 1.0, 6001),
                np.linspace(d, xs_split, 1500),
                np.linspace(xs_split, 1.0, 1500),
            ]
        )
    )
    bumps = np.column_stack([_bump(nodes, d, xs_split), _bump(nodes, xs_split, 1.0)])
    over_s2 = CubicSpline(nodes, bumps / nodes[:, None] ** 2)
    I1, I2 = over_s2.antiderivative()(1.0)
    J1, J2 = over_s2.antiderivative(2)(1.0)

    # g~'' = (-c1 B1 + c2 B2)/s^2 with: slope zero at 1, value 0.9 g0 at 1
    # [ -I1  I2 ] [c1]   [ -g'(delta)                         ]
    # [ -J1  J2 ] [c2] = [ 0.9 g0 - g(delta) - g'(delta)(1-d) ]
    det = (-I1) * J2 - I2 * (-J1)
    rhs1 = -gp_d
    rhs2 = target - g_d - gp_d * (1.0 - d)
    if abs(det) < 1e-300:
        raise DomainError("singular mollifier system")
    c1 = (rhs1 * J2 - I2 * rhs2) / det
    c2 = ((-I1) * rhs2 - rhs1 * (-J1)) / det

    amp = max(abs(c1), abs(c2))
    if amp >= 0.95 * bound:
        raise DomainError(
            f"delta = {d} too large for the blend to exist: the required "
            f"curvature amplitude {amp:.4g} exceeds the budget "
            f"|x^2 g~''| < {bound:.4g}"
        )

    sp2 = PPoly(over_s2.c @ np.array([-c1, c2]), nodes)
    sp1 = sp2.antiderivative()  # zero at delta
    sp0 = sp1.antiderivative()

    g_end = g_d + gp_d * (1.0 - d) + float(sp0(1.0))

    def gv(x):
        s = np.abs(x)
        out = np.empty_like(s)
        inner = s <= d
        outer = s >= 1.0
        midm = ~(inner | outer)
        out[inner] = f.g(x[inner])
        out[outer] = g_end
        sm = s[midm]
        out[midm] = g_d + gp_d * (sm - d) + sp0(sm)
        return out

    def gpv(x):
        s = np.abs(x)
        out = np.empty_like(s)
        inner = s <= d
        outer = s >= 1.0
        midm = ~(inner | outer)
        out[inner] = f.gprime(x[inner])
        out[outer] = 0.0
        out[midm] = (gp_d + sp1(s[midm])) * np.sign(x[midm])
        return out

    def gppv(x):
        # on the core the parent's f'' stands in for the one built from g~''
        s = np.abs(x)
        out = np.zeros_like(s)
        midm = (s > d) & (s < 1.0)
        out[midm] = sp2(s[midm])
        return out

    fv, fpv, fppv_blend = _f_from_g(f.m, gv, gpv, gppv)

    def fppv(x):
        out = fppv_blend(x)
        inner = np.abs(x) <= d
        out[inner] = f.fsecond(x[inner])
        return out

    out = DefiningFunction(
        f.m,
        fv,
        fpv,
        fppv,
        gv,
        gpv,
        label=f"mollified({f.label},delta={d:g})",
        full_theorem_class=f.full_theorem_class,
        tail_slopes=(math.inf, math.inf),
        is_mollified=True,
    )

    # post-conditions of the construction itself
    ss = np.linspace(d, 1.0, 2001)[1:-1]
    if np.any(np.abs(ss * ss * sp2(ss)) >= bound):
        raise DomainError("mollifier curvature bound violated on the blend")
    if np.any(gp_d + sp1(ss) > 1e-12):
        raise DomainError("mollified g failed to stay non-increasing")
    return out


def damp_tails(f: DefiningFunction, radius: float) -> DefiningFunction:
    """Same core as f, exactly linear tails: the localization partner.

    The second derivative is multiplied by a plateau that equals 1 through
    1.1 * radius (so the two domains agree there exactly by double
    integration from 0) and falls smoothly to zero by 2.4 * radius, after
    which the function continues as an exact straight line.  Convexity is
    inherited; the dual cone is known in closed form.  The core is f itself
    on both sides; both tails are built from x > 0, so f must be even on
    |x| <= 1.1 * radius.
    """
    r = float(radius)
    if not (r > 0 and math.isfinite(r)):
        raise DomainError(f"radius must be positive, got {radius!r}")
    r1, r2 = 1.1 * r, 2.4 * r
    core = np.linspace(0.0, r1, 257)
    f_pos, f_neg = f.f(core), f.f(-core)
    gap = np.abs(f_neg - f_pos) - 1e-9 * np.abs(f_pos)
    if np.any(gap > 0):
        i = int(np.argmax(gap))
        raise DomainError(
            f"damp_tails needs f even on |x| <= {r1:g}: f(-{core[i]:g}) = "
            f"{f_neg[i]:.10g} vs f({core[i]:g}) = {f_pos[i]:.10g} (asymmetric g)"
        )

    def theta(s):
        return _smooth_step((r2 - s) / (r2 - r1))

    s_nodes = np.linspace(r1, r2, 4001)
    sp2 = CubicSpline(s_nodes, f.fsecond(s_nodes) * theta(s_nodes))
    sp1 = sp2.antiderivative()
    sp0 = sp1.antiderivative()
    f_r1 = f.f(r1)
    fp_r1 = f.fprime(r1)
    slope = fp_r1 + float(sp1(r2))
    f_r2 = f_r1 + fp_r1 * (r2 - r1) + float(sp0(r2))

    def fv(x):
        s = np.abs(x)
        out = np.empty_like(s)
        a = s <= r1
        c = s >= r2
        b = ~(a | c)
        out[a] = f.f(x[a])
        out[b] = f_r1 + fp_r1 * (s[b] - r1) + sp0(s[b])
        out[c] = f_r2 + slope * (s[c] - r2)
        return out

    def fpv(x):
        s = np.abs(x)
        out = np.empty_like(s)
        a = s <= r1
        c = s >= r2
        b = ~(a | c)
        out[a] = f.fprime(x[a])
        out[b] = np.sign(x[b]) * (fp_r1 + sp1(s[b]))
        out[c] = np.sign(x[c]) * slope
        return out

    def fppv(x):
        s = np.abs(x)
        out = np.zeros_like(s)
        a = s <= r1
        b = (s > r1) & (s < r2)
        out[a] = f.fsecond(x[a])
        out[b] = sp2(s[b])
        return out

    n = 2 * f.m

    def gv(x):
        s = np.abs(x)
        out = np.empty_like(s)
        a = s <= r1
        out[a] = f.g(x[a])
        xs = s[~a]
        out[~a] = fv(xs) / xs**n
        return out

    def gpv(x):
        s = np.abs(x)
        out = np.empty_like(s)
        a = s <= r1
        out[a] = f.gprime(x[a])
        xs = s[~a]
        out[~a] = (xs * fpv(xs) - n * fv(xs)) / xs ** (n + 1) * np.sign(x[~a])
        return out

    return DefiningFunction(
        f.m,
        fv,
        fpv,
        fppv,
        gv,
        gpv,
        label=f"linear-tails({f.label},r={r:g})",
        full_theorem_class=False,
        tail_slopes=(slope, slope),
    )
