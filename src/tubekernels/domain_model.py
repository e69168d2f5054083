"""Convex defining functions for tube domains over epigraphs in the plane.

A domain here is the tube R^2 + i*omega_f with omega_f = {(x, y): y > f(x)}
and f(x) = x^(2m) g(x), g(0) > 0.  The origin is a weakly pseudoconvex
boundary point of type 2m; everything downstream (kernels, blow-up charts,
asymptotics) consumes a :class:`DefiningFunction` built here.

Array integer powers are products, through ``_int_pow``: every phase the
evaluators sum reads x^(2m) on both sides of a peak, and numpy 2.4's
``power`` computes x**n (n >= 3) on an array with negative entries by
scalar libm ``pow``, about 60 ns a point on a 2-core x86-64 VM, against
3 ns on positive entries and 0.8 ns for ``np.square(np.square(x))``
(1,600 points).  Squaring first makes even powers exactly even and odd
ones exactly odd, so mirrored reads agree bit for bit.  Powers of Python
floats stay ``**``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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


def _int_pow(x, n: int) -> np.ndarray:
    """x**n elementwise for an integer n >= 0, as a product of squares.

    The bits of n are read from the lowest: a set bit multiplies the
    current square into the product, and the square is squared.  So x^n is
    (x^2)^(n/2) for even n and x (x^2)^((n-1)/2) for odd n: even powers are
    even and odd powers odd bit for bit, -0.0 included.  n = 0
    gives ones (NaN too) and inf and NaN propagate as under ``pow``.  Only
    powers x^(2^k) <= x^n in magnitude are formed, so a product overflows
    or underflows only where x^n does.  A product of n factors in any order
    is within gamma_(n-1) = (n - 1) u / (1 - (n - 1) u) relative of x^n,
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Lemma 3.1): at most 3.2e-15 from ``np.power`` at n = 34 on 400,000
    random points, 1.6e-15 at n = 16.
    """
    x = np.asarray(x, dtype=float)
    if n < 2:
        return np.ones_like(x) if n == 0 else x.copy()
    # one new array for n = 2..5: later squares and products are in place
    odd = x if n & 1 else None
    sq = x * x
    n >>= 1
    while n > 1:
        if n & 1:
            odd = sq.copy() if odd is None else odd * sq
        sq *= sq
        n >>= 1
    if odd is not None:
        sq *= odd
    return sq


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
    ``is_even`` declares f(-x) = f(x), so g(-x) = g(x) too, for every x;
    the constructors set it, and validation checks f and g against their
    mirrors on the sample grid and asks an even f for one tail slope.  On
    the axis x = 0 of an even f, ``direct_pair``'s outer integrand is even
    and it integrates half of it.
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
        is_even: bool = False,
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
        self.is_even = bool(is_even)
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
        rhs = _int_pow(xs[mid], 2 * self.m) * g[mid]
        if not np.allclose(lhs, rhs, rtol=1e-6, atol=1e-12):
            raise DomainError("f and x^(2m) g(x) disagree on the sample grid")

        if self.is_even:
            self._check_even(xs, f, g)

        if self.full_theorem_class:
            i = _xg_violation(xs, g, gp)
            if i is not None:
                raise DomainError(
                    f"x g'(x) <= 0 violated at x={float(xs[i])!r}: "
                    f"x g' = {float(xs[i] * gp[i])!r}"
                )

    def _check_even(self, xs: np.ndarray, f: np.ndarray, g: np.ndarray) -> None:
        """DomainError unless f and g, read on ``_SAMPLE_XS``, equal their
        mirrors to 1e-12 relative and the tail slopes are one slope."""
        if self.tail_slopes[0] != self.tail_slopes[1]:
            raise DomainError(
                f"f is declared even, but its tail slopes {self.tail_slopes!r} differ"
            )
        # _SAMPLE_XS holds 0, then the positive points, then their mirrors
        n = (xs.size - 1) // 2
        for name, v in (("f", f), ("g", g)):
            pos, neg = v[1 : n + 1], v[n + 1 :]
            bad = ~(np.abs(neg - pos) <= 1e-12 * np.abs(pos))
            if np.any(bad):
                i = int(np.argmax(bad))
                raise DomainError(
                    f"{name} is declared even, but {name}({float(xs[n + 1 + i])!r}) = "
                    f"{float(neg[i])!r} differs from {name}({float(xs[1 + i])!r}) = "
                    f"{float(pos[i])!r}"
                )


# the points at which DefiningFunction checks its invariants: 0, then 400
# positive points, then their mirrors in the same order
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
        return _int_pow(x, n) * g(x)

    def fpv(x):
        return _int_pow(x, n - 1) * (n * g(x) + x * gp(x))

    def fppv(x):
        return _int_pow(x, n - 2) * (
            n * (n - 1) * g(x) + 2.0 * n * x * gp(x) + x * x * gpp(x)
        )

    return fv, fpv, fppv


def _at_infinity(fn: Callable, neg: float, pos: float) -> Callable:
    """The accessor fn with its limits neg at x = -inf and pos at +inf,
    where a closed form reads inf * 0 or inf / inf; a call with no infinite
    x is fn's alone, so every finite value is fn's."""

    def limited(x):
        big = np.isinf(x)
        if not big.any():
            return fn(x)
        out = np.empty_like(x)
        out[~big] = fn(x[~big])
        out[big] = np.where(x[big] > 0, pos, neg)
        return out

    return limited


def _on_abs(lo: float, core, mid: Callable, hi: float, tail, odd: bool = False) -> Callable:
    """The accessor x -> core(x) on |x| <= lo, mid(|x|) on lo < |x| < hi and
    tail(|x|) on |x| >= hi; NaN goes to mid.  ``core`` and ``tail`` may be
    constants, written with no gather of |x|.  Where ``odd`` is set, sign(x)
    multiplies mid and the tail after their read, but a zero tail stays +0.0
    on both sides."""

    def fn(x):
        s = np.abs(x)
        out = np.empty_like(s)
        a = s <= lo
        out[a] = core(x[a]) if callable(core) else core
        c = s >= hi
        b = ~(a | c)
        t = tail(s[c]) if callable(tail) else tail
        out[c] = t * np.sign(x[c]) if odd and (callable(tail) or tail != 0.0) else t
        out[b] = mid(s[b]) * np.sign(x[b]) if odd else mid(s[b])
        return out

    return fn


def _g_from_f(m: int, fv: Callable, fpv: Callable, core: float, g_core: Callable,
              gp_core: Callable):
    """(g, g') of g = f / x^(2m): ``g_core``, ``gp_core`` on |x| <= core,
    f / x^(2m), (x f' - 2m f) / x^(2m+1) from f and f' outside it, and 0 at
    |x| = inf, their limit for an f with linear tails (there the quotients
    read inf / inf)."""
    n = 2 * int(m)
    return (
        _on_abs(core, g_core, lambda s: fv(s) / _int_pow(s, n), math.inf, 0.0),
        _on_abs(core, gp_core, lambda s: (s * fpv(s) - n * fv(s)) / _int_pow(s, n + 1),
                math.inf, 0.0, odd=True),
    )


# ---------------------------------------------------------------------------
# piecewise cubics
# ---------------------------------------------------------------------------


class _Cubic:
    """Piecewise polynomial with coefficients c[j, i] of (v - x[i])^(k-1-j)
    on [x[i], x[i+1]], k = c.shape[0]; trailing axes of c are columns.  The
    end pieces extrapolate."""

    def __init__(self, c: np.ndarray, x: np.ndarray):
        self.c = c
        self.x = x

    def _cols(self, a):
        """a with one axis per column of c, to broadcast against its rows."""
        if self.c.ndim == 2:
            return a
        return np.reshape(a, np.shape(a) + (1,) * (self.c.ndim - 2))

    def _per_row(self, k: int) -> np.ndarray:
        """k, k - 1, ..., 1 shaped to broadcast against a c of k rows."""
        return np.arange(k, 0.0, -1.0).reshape((k,) + (1,) * (self.c.ndim - 1))

    def __call__(self, v):
        # searching the inner nodes puts v below x[1] on the first piece and
        # v at or past x[-2] (and NaN) on the last
        v = np.asarray(v, dtype=float)
        return self.read(v, np.searchsorted(self.x[1:-1], v, side="right"))

    def read(self, v, i):
        """The polynomial of piece i at v, by Horner, one row of c gathered
        at a time (a gather of all of c[:, i] holds k rows at once)."""
        d = self._cols(v - self.x[i])
        out = self.c[0][i]
        for row in self.c[1:]:
            out *= d
            out += row[i]
        return out

    def derivative(self) -> _Cubic:
        return _Cubic(self.c[:-1] * self._per_row(self.c.shape[0] - 1), self.x)

    def antiderivative(self) -> _Cubic:
        """The antiderivative zero at x[0]: a piece's constant term sums the
        earlier pieces' rises."""
        h = self._cols(np.diff(self.x))
        c = np.concatenate([self.c / self._per_row(self.c.shape[0]), np.zeros_like(self.c[:1])])
        # each piece's rise across itself, from a zero constant term
        rise = c[0] * h
        for row in c[1:-1]:
            rise += row
            rise *= h
        c[-1, 1:] = np.cumsum(rise[:-1], axis=0)
        return _Cubic(c, self.x)


def _hermite(x: np.ndarray, y: np.ndarray, dy: np.ndarray) -> _Cubic:
    """The cubic Hermite interpolant of values y and slopes dy at the nodes
    x, with columns along y's trailing axes."""
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / h
    t = (dy[:-1] + dy[1:] - 2.0 * slope) / h
    return _Cubic(np.stack([t / h, (slope - dy[:-1]) / h - t, dy[:-1], y[:-1]]), x)


def _not_a_knot_lu(x: np.ndarray) -> tuple[list, list, list]:
    """The not-a-knot slope system on the nodes x, eliminated once.

    Row i of the system (de Boor, A Practical Guide to Splines, ch. IV)
    reads lower[i-1] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]; its
    first and last rows make the third derivative continuous across x[1]
    and x[-2].  One Thomas sweep over Python floats factors it as L U, L
    unit lower bidiagonal with ``factors`` below the diagonal and U upper
    bidiagonal with ``pivots`` on it and ``upper`` above; returned as
    (upper, pivots, factors).
    """
    h = np.diff(x)
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = np.append(h[1:], d1).tolist()
    diag = np.concatenate([h[1:2], 2.0 * (h[:-1] + h[1:]), h[-2:-1]]).tolist()
    upper = np.insert(h[:-1], 0, d0).tolist()
    p = diag[0]
    pivots, factors = [p], []
    for a, b, c in zip(lower, diag[1:], upper):
        w = a / p
        p = b - w * c
        factors.append(w)
        pivots.append(p)
    return upper, pivots, factors


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> _Cubic:
    """The not-a-knot cubic spline through (x, y), at least 4 nodes.

    Its node slopes solve ``_not_a_knot_lu``'s system; each column of y
    reuses the one elimination.
    """
    h = np.diff(x)
    hr = h.reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / hr
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    rhs = np.concatenate(
        [
            [((hr[0] + 2.0 * d0) * hr[1] * slope[0] + hr[0] ** 2 * slope[1]) / d0],
            3.0 * (hr[1:] * slope[:-1] + hr[:-1] * slope[1:]),
            [(hr[-1] ** 2 * slope[-2] + (2.0 * d1 + hr[-1]) * hr[-2] * slope[-1]) / d1],
        ]
    )
    upper, pivots, factors = _not_a_knot_lu(x)
    back = list(zip(upper[::-1], pivots[-2::-1]))
    cols = rhs.reshape(len(x), -1).T
    dy = np.empty_like(cols)
    for col, r in zip(dy, cols.tolist()):
        s = r[0]
        fwd = [s] + [s := rj - w * s for w, rj in zip(factors, r[1:])]
        s /= pivots[-1]
        out = [s] + [s := (rj - c * s) / p for (c, p), rj in zip(back, fwd[-2::-1])]
        col[:] = out[::-1]
    return _hermite(x, y, dy.T.reshape(y.shape))


def _not_a_knot_area(x: np.ndarray) -> np.ndarray:
    """Weights a on the nodes x with a @ y the integral over [x[0], x[-1]]
    of the not-a-knot spline through (x, y).

    A Hermite piece of width h integrates to h (y0 + y1) / 2 + h^2 (s0 - s1)
    / 12, so the integral is the trapezoid sum plus c . s / 12, with
    c[i] = h[i]^2 - h[i-1]^2 (h[-1] = h[n] = 0).  The slopes are s = M^-1 R y
    for ``_not_a_knot``'s system M and its map R from y to the right-hand
    side, so a is the trapezoid's weights plus R^T M^-T c / 12: one sweep
    through the transposed factors, exact on any nodes.
    """
    h = np.diff(x)
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    c = np.diff(np.concatenate([[0.0], h * h, [0.0]])).tolist()
    upper, pivots, factors = _not_a_knot_lu(x)
    # M^T = U^T L^T: U^T z = c forwards, then L^T g = z backwards
    z = c[0] / pivots[0]
    zs = [z] + [z := (cj - u * z) / p for cj, u, p in zip(c[1:], upper, pivots[1:])]
    g = zs[-1]
    gs = [g] + [g := zj - w * g for zj, w in zip(zs[-2::-1], factors[::-1])]
    g = np.array(gs[::-1])
    # R^T: the transpose of the right-hand side's rows, slope by slope
    r = np.zeros_like(h)
    r[:-1] += 3.0 * h[1:] * g[1:-1]
    r[1:] += 3.0 * h[:-1] * g[1:-1]
    r[:2] += np.array([(h[0] + 2.0 * d0) * h[1], h[0] ** 2]) * (g[0] / d0)
    r[-2:] += np.array([h[-1] ** 2, (2.0 * d1 + h[-1]) * h[-2]]) * (g[-1] / d1)
    # D^T for slope = diff(y) / h, then the trapezoid's weights
    r = np.diff(np.concatenate([[0.0], r / h, [0.0]]))
    half = np.concatenate([[0.0], 0.5 * h, [0.0]])
    return half[:-1] + half[1:] - r / 12.0


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
        lambda x: g0 * _int_pow(x, n),
        lambda x: n * g0 * _int_pow(x, n - 1),
        lambda x: n * (n - 1) * g0 * _int_pow(x, n - 2),
        lambda x: np.full_like(x, g0),
        lambda x: np.zeros_like(x),
        label=f"model(m={int(m)},g0={g0:g})",
        tail_slopes=(math.inf, math.inf),
        is_even=True,
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
        return (6.0 * x * x - 2.0) / _int_pow(1.0 + x * x, 3)

    fv, fpv, fppv = _f_from_g(m, g, gp, gpp)
    # f tends to x^(2m-2), so f'' to 2 at m = 2 and to inf above
    fpp_inf = 2.0 if int(m) == 2 else math.inf
    return DefiningFunction(
        m,
        _at_infinity(fv, math.inf, math.inf),
        _at_infinity(fpv, -math.inf, math.inf),
        _at_infinity(fppv, fpp_inf, fpp_inf),
        g,
        _at_infinity(gp, 0.0, 0.0),
        label=f"rational(m={int(m)})",
        tail_slopes=(math.inf, math.inf),
        is_even=True,
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
        return s * np.tanh(n * _int_pow(x, n - 1) / s)

    def fpp_half(x):
        t = np.tanh(n * _int_pow(x, n - 1) / s)
        return (1.0 - t * t) * n * (n - 1) * _int_pow(x, n - 2)

    F = _hermite(grid, fp_half(grid), fpp_half(grid)).antiderivative()

    # series region: the spline antiderivative carries roundoff-scale
    # negatives near 0, so tiny |x| goes through the expansion of g instead
    c_series = n**3 / (3.0 * s * s * (3 * n - 2))
    x_series = (1e-8 / c_series) ** (1.0 / (2 * n - 2))

    def fv(x):
        ax = np.abs(x)
        out = np.empty_like(ax)
        small = ax < x_series
        xs = ax[small]
        out[small] = _int_pow(xs, n) * (1.0 - c_series * _int_pow(xs, 2 * n - 2))
        xb = ax[~small]
        inner = np.minimum(xb, x_sat)
        out[~small] = F(inner) + s * np.maximum(xb - x_sat, 0.0)
        return out

    def fpv(x):
        return np.sign(x) * fp_half(np.abs(x))

    def fppv(x):
        return fpp_half(np.abs(x))

    return DefiningFunction(
        m,
        fv,
        fpv,
        fppv,
        *_g_from_f(
            m, fv, fpv, x_series,
            lambda x: 1.0 - c_series * _int_pow(x, 2 * n - 2),
            lambda x: -(2 * n - 2) * c_series * _int_pow(x, 2 * n - 3),
        ),
        label=f"blended-linear(m={int(m)},slope={s:g})",
        tail_slopes=(s, s),
        is_even=True,
    )


def table_domain(
    xs: Sequence[float],
    gs: Sequence[float],
    gprimes: Sequence[float],
    m: int,
    *,
    label: str = "table",
) -> DefiningFunction:
    """Domain from sampled (x, g, g') rows, continued C1 past the table ends.

    Past an end x_e, g = g_e + g'_e l (1 - e^(-|x - x_e|/l)) sign(x - x_e),
    l = g_e / (2 |g'_e|): g and g' meet the rows at the end, g' keeps its
    sign and decays, so x g' <= 0 holds, and g falls from g_e toward
    g_e / 2 (stays g_e where g'_e = 0), so the tails stay superlinear
    (x^(2m) times that level): the dual cone is the full half-plane.  The
    usual class invariants are validated on the represented grid.

    Between the ends g is the cubic Hermite interpolant of the rows, which
    is C1 only: g'' and so f'' are piecewise continuous, with a jump at
    every row (2.0e-5, or 1.6e-6 relative, in f'' at the row x = 1.1 for
    g = 1/(1 + x^2) on 241 rows in [-3, 3] at m = 3), and a read at a row
    takes the piece on its right.
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
    spl = _hermite(xs, gs, gps)
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
    # past the end x_e, with s = sign(x - x_e), k = 2 |g'_e| / g_e and
    # e = e^(-k |x - x_e|): g = g_e + s g'_e (1 - e) / k, which is g_e + s
    # sign(g'_e) (1 - e) g_e / 2, g' = g'_e e and g'' = -s k g'_e e
    def tail(i, s):
        g_e, gp_e = float(gs[i]), float(gps[i])
        k = 2.0 * abs(gp_e) / g_e
        return float(xs[i]), s, (
            lambda d: g_e - 0.5 * g_e * s * np.sign(gp_e) * np.expm1(-k * d),
            lambda d: gp_e * np.exp(-k * d),
            lambda d: -s * k * gp_e * np.exp(-k * d),
        )

    ends = [tail(0, -1.0), tail(-1, 1.0)]

    def piecewise(inner, order):
        def fn(x):
            x = np.asarray(x, dtype=float)
            out = np.asarray(inner(np.clip(x, lo, hi)), dtype=float)
            for x_e, s, parts in ends:
                past = s * (x - x_e) > 0
                out[past] = parts[order](np.abs(x[past] - x_e))
            return out

        return fn

    gv, gpv, gppv = piecewise(spl, 0), piecewise(dspl, 1), piecewise(ddspl, 2)
    fv, fpv, fppv = _f_from_g(m, gv, gpv, gppv)
    # at +-inf f' reads inf * 0, and a flat end row's tail (k = 0) -0 * inf:
    # the accessors write the limits, g_e + s sign(g'_e) g_e / 2 for g, twice
    # that for f'' where f tends to g x^2 (m = 1)
    g_neg, g_pos = gs[[0, -1]] * (1.0 + 0.5 * np.array([-1.0, 1.0]) * np.sign(gps[[0, -1]]))
    fpp_inf = (2.0 * g_neg, 2.0 * g_pos) if int(m) == 1 else (math.inf, math.inf)

    out = DefiningFunction(
        m,
        _at_infinity(fv, math.inf, math.inf),
        _at_infinity(fpv, -math.inf, math.inf),
        _at_infinity(fppv, *fpp_inf),
        _at_infinity(gv, g_neg, g_pos),
        _at_infinity(gpv, 0.0, 0.0),
        label=label,
        tail_slopes=(math.inf, math.inf),
        is_even=False,
    )
    # the sample grid has passed f; f'' >= 0 on every interval too, read on
    # its own piece at both ends and 7 points between, so that a row's f''
    # counts on each side of it
    piece = np.arange(xs.size - 1).repeat(9)
    v = (xs[:-1, None] + np.diff(xs)[:, None] * np.linspace(0.0, 1.0, 9)).ravel()
    on_piece = [lambda x, s=s: s.read(x, piece) for s in (spl, dspl, ddspl)]
    fpp = _f_from_g(m, *on_piece)[2](v)
    bad = fpp < -1e-9 * (1.0 + np.abs(fpp))
    if np.any(bad):
        j = int(np.argmin(np.where(bad, fpp, np.inf)))
        k = piece[j]
        raise DomainError(
            f"the cubic Hermite interpolant of the table makes f concave on "
            f"[{float(xs[k])!r}, {float(xs[k + 1])!r}]: f'' = {float(fpp[j])!r} at "
            f"x={float(v[j])!r}; add rows there"
        )
    return out


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
    over_s2 = _not_a_knot(nodes, bumps / nodes[:, None] ** 2)
    once = over_s2.antiderivative()
    I1, I2 = once(1.0)
    J1, J2 = once.antiderivative()(1.0)

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

    sp2 = _Cubic(over_s2.c @ np.array([-c1, c2]), nodes)
    sp1 = sp2.antiderivative()  # zero at delta
    sp0 = sp1.antiderivative()

    g_end = g_d + gp_d * (1.0 - d) + float(sp0(1.0))

    gv = _on_abs(d, f.g, lambda s: g_d + gp_d * (s - d) + sp0(s), 1.0, g_end)
    gpv = _on_abs(d, f.gprime, lambda s: gp_d + sp1(s), 1.0, 0.0, odd=True)
    # on the core the parent's f'' stands in for the one built from g~''
    gppv = _on_abs(d, 0.0, sp2, 1.0, 0.0)
    fv, fpv, fppv_blend = _f_from_g(f.m, gv, gpv, gppv)
    # past |x| = 1, f = g_end x^(2m): f' and f'' read inf * 0 at +-inf
    fpv = _at_infinity(fpv, -math.inf, math.inf)
    fpp_inf = 2.0 * g_end if f.m == 1 else math.inf
    fppv_blend = _at_infinity(fppv_blend, fpp_inf, fpp_inf)

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
        is_even=f.is_even,
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
    on both sides; both tails are built from x > 0, so f must be even, and
    f' odd, on |x| <= 1.1 * radius.
    """
    r = float(radius)
    if not (r > 0 and math.isfinite(r)):
        raise DomainError(f"radius must be positive, got {radius!r}")
    r1, r2 = 1.1 * r, 2.4 * r
    core = np.linspace(0.0, r1, 257)
    for name, fn, mirror in (("f", f.f, 1.0), ("f'", f.fprime, -1.0)):
        pos, neg = fn(core), fn(-core)
        gap = np.abs(mirror * neg - pos) - 1e-9 * np.abs(pos)
        if np.any(gap > 0):
            i = int(np.argmax(gap))
            raise DomainError(
                f"damp_tails needs f even on |x| <= {r1:g}: {name}(-{core[i]:g}) = "
                f"{neg[i]:.10g} vs {name}({core[i]:g}) = {pos[i]:.10g} (asymmetric g)"
            )

    def theta(s):
        return _smooth_step((r2 - s) / (r2 - r1))

    s_nodes = np.linspace(r1, r2, 4001)
    sp2 = _not_a_knot(s_nodes, f.fsecond(s_nodes) * theta(s_nodes))
    sp1 = sp2.antiderivative()
    sp0 = sp1.antiderivative()
    f_r1 = f.f(r1)
    fp_r1 = f.fprime(r1)
    slope = fp_r1 + float(sp1(r2))
    f_r2 = f_r1 + fp_r1 * (r2 - r1) + float(sp0(r2))

    fv = _on_abs(r1, f.f, lambda s: f_r1 + fp_r1 * (s - r1) + sp0(s), r2,
                 lambda s: f_r2 + slope * (s - r2))
    fpv = _on_abs(r1, f.fprime, lambda s: fp_r1 + sp1(s), r2, slope, odd=True)
    fppv = _on_abs(r1, f.fsecond, sp2, r2, 0.0)

    return DefiningFunction(
        f.m,
        fv,
        fpv,
        fppv,
        *_g_from_f(f.m, fv, fpv, r1, f.g, f.gprime),
        label=f"linear-tails({f.label},r={r:g})",
        full_theorem_class=False,
        tail_slopes=(slope, slope),
        is_even=f.is_even,
    )
