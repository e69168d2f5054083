"""Log-scaled adaptive quadrature and the kernel evaluators.

Everything here works on logarithms of positive Laplace-type integrands;
dynamic ranges of several hundred e-folds are routine (1/phi factors reach
exp(-40000) at moderate arguments for m = 2).  The engine is a 15-point
Kronrod rule with embedded 7-point Gauss estimate, panels held in arrays and
split worst error first, and sums taken relative to the largest term.  Inner
Laplace transforms are not re-integrated per frequency: a profile grid
samples the convex phase once and serves every frequency in a declared range
as an exponential sum over its nodes, each term scaled by the phase minimum,
which is what makes the double and triple integrals tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain_model import BoundaryRelativePoint, DefiningFunction, DomainError, dual_cone

__all__ = [
    "QuadratureError",
    "QuadratureConfig",
    "KernelValue",
    "compute_D",
    "direct_pair",
    "bergman_normalized",
    "ProfileGrid",
    "log_adaptive_multi",
]


class QuadratureError(RuntimeError):
    """An integral failed to reach its requested tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for all evaluators.

    ``truncation_drop`` sets where integrand tails are abandoned relative to
    the running peak; ``max_depth`` bounds the subdivision work (the engine
    translates it into a panel budget).
    """

    rel_tol: float = 1e-8
    max_depth: int = 60
    truncation_drop: float = 1e-16

    def __post_init__(self):
        if not (self.rel_tol > 0):
            raise DomainError("rel_tol must be positive")
        if self.max_depth < 1:
            raise DomainError("max_depth must be >= 1")
        if not (0 < self.truncation_drop < 1):
            raise DomainError("truncation_drop must lie in (0, 1)")

    @property
    def log_drop(self) -> float:
        """Truncation depth in e-folds, with a safety pad."""
        return -math.log(self.truncation_drop) + 5.0

    @property
    def max_panels(self) -> int:
        return 40 * self.max_depth


@dataclass(frozen=True)
class KernelValue:
    log_value: float
    value: float
    err_estimate: float
    evaluations: int
    kind: str


def _pack_value(log_value: float, err: float, evaluations: int, kind: str) -> KernelValue:
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    return KernelValue(
        log_value=float(log_value),
        value=value,
        err_estimate=float(err),
        evaluations=int(evaluations),
        kind=kind,
    )


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15(7) engine in log space
# ---------------------------------------------------------------------------

XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
WG7 = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])


# log weights of both rules on the 15 Kronrod nodes; -inf where the Gauss
# rule has no node, so one log-sum-exp evaluates both
LOG_W2 = np.full((2, 15), -np.inf)
LOG_W2[0] = np.log(WGK)
LOG_W2[1, G7_IDX] = np.log(WG7)


# log-integrals whose total falls below this many e-folds count as zero
LOG_ABS_FLOOR = -690.0


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over the last axis.

    A row whose maximum is -inf gives -inf; a row holding NaN or +inf
    gives NaN, never a finite value.
    """
    m = np.max(x, axis=-1)
    m = np.where(m == -np.inf, 0.0, m)
    return m + np.log(np.sum(np.exp(x - m[..., None]), axis=-1))


def _kronrod_nodes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths (n,) and the 15 Kronrod nodes (n, 15) of the panels [a, b]."""
    h = 0.5 * (b - a)
    return h, 0.5 * (a + b)[:, None] + h[:, None] * XGK


def _panel_rules(lf: np.ndarray, h: np.ndarray):
    """(l15, lerr), each of shape (k rows, n panels), from the log-integrand
    ``lf`` (k, 15 n) on the Kronrod nodes of panels with half-widths ``h``:
    the log Kronrod value and the log of its distance to the Gauss value."""
    lf = lf.reshape(lf.shape[0], h.size, 1, 15)
    rules = _logsumexp(lf + LOG_W2) + np.log(h)[:, None]  # (k, n, 2)
    l15, l7 = rules[..., 0], rules[..., 1]
    hi = np.maximum(l15, l7)
    with np.errstate(invalid="ignore", divide="ignore"):
        lerr = np.where(
            np.isfinite(hi), hi + np.log1p(1e-300 - np.exp(-np.abs(l15 - l7))), -np.inf
        )
    return l15, lerr


def log_adaptive_multi(
    logf: Callable,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-9,
    max_panels: int = 2400,
    init: int = 8,
    init_edges=None,
):
    """Integrate the rows of exp(logf) over [a, b].

    ``logf(x: array(n)) -> array(k, n)`` gives log-integrand values for k
    integrand rows sharing the same panels.  Each round splits, in the row
    with the largest relative error, the panel with the largest error.
    Returns ``(log_values(k), rel_err(k), n_rule_points)``; a zero integrand
    gives -inf, and a NaN or +inf integrand value a NaN log value, both
    with an infinite error.

    ``init_edges``, when given, overrides the uniform initial subdivision.
    Initial panels must straddle any feature narrower than a panel, or the
    embedded error estimate can miss it entirely; callers that know where
    their peaks are pass edges here.
    """
    if init_edges is not None:
        edges = np.asarray(init_edges, dtype=float)
    else:
        edges = np.linspace(a, b, init + 1)
    lo, hi = edges[:-1], edges[1:]
    h, x = _kronrod_nodes(lo, hi)
    # one logf call per initial panel: one call over all of them was slower,
    # the profile-grid integrands' log-sum-exp matrices then outgrowing cache
    lf = np.concatenate([np.atleast_2d(logf(xi)) for xi in x], axis=1)
    l15, lerr = _panel_rules(lf, h)
    nev = 15 * lo.size

    while True:
        # sums scaled by the largest rule or error term, so nothing overflows
        off = np.max((l15, lerr))
        if off == -np.inf:
            off = 0.0
        tot = np.sum(np.exp(l15 - off), axis=1)
        err = np.sum(np.exp(lerr - off), axis=1)
        if nev >= max_panels * 15:
            break
        if not (off + math.log(max(tot[0], 1e-300)) >= LOG_ABS_FLOOR):
            break  # total is zero at the floor, or NaN
        if np.all(err <= rel_tol * np.abs(tot)):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.nanargmax(err / np.abs(tot))
        j = np.argmax(lerr[r])
        pa, pb = lo[j], hi[j]
        mid = 0.5 * (pa + pb)
        if mid - pa < 1e-14 * (abs(pa) + abs(mid)) + 1e-300:
            break
        h, x = _kronrod_nodes(np.array([pa, mid]), np.array([mid, pb]))
        c15, cerr = _panel_rules(np.atleast_2d(logf(x.ravel())), h)
        nev += 30
        lo = np.append(np.delete(lo, j), (pa, mid))
        hi = np.append(np.delete(hi, j), (mid, pb))
        l15 = np.concatenate((np.delete(l15, j, axis=1), c15), axis=1)
        lerr = np.concatenate((np.delete(lerr, j, axis=1), cerr), axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        lv = off + np.log(np.maximum(tot, 0.0))
        re = np.where(tot > 0, err / np.abs(tot), np.inf)
    return lv, re, nev


# ---------------------------------------------------------------------------
# profile grid: one phase sampling serves a whole frequency range
# ---------------------------------------------------------------------------


# the x4 ladder of the inner-edge search: exponents of its first rung past
# |xi - xi_star| = 1e60 and of its first rung at or below 1e-280
_K_UP = math.ceil(math.log(1e60, 4.0))
_K_DOWN = math.floor(math.log(1e-280, 4.0))
# the inner edge is a rung of the 4^(1/16384) ladder: where 14 geometric
# halvings of a x4 bracket stop, so grids keep their nodes to round-off
_EDGE_STEPS = 16384
_FINE_STEPS = np.arange(0, _EDGE_STEPS + 1, _EDGE_STEPS // 16)
_FINE_RUNGS = 4.0 ** (_FINE_STEPS / _EDGE_STEPS)


def _inner_edge(c_side: Callable, c_min: float) -> tuple[float, int]:
    """First rung u of the 4^(1/16384) ladder with c_side(u) >= c_min, for
    c_side nondecreasing in u > 0, and the number of points evaluated.

    A x4 ladder, 8 rungs a call from the block ending at u = 1, finds the
    crossing's x4 bracket (lo, 4 lo]; a 4^(1/16) ladder narrows it to 1024
    steps; a window of 7 steps around the inverse quadratic interpolant of
    log c through three of its rungs then finds the step, with even
    ladders across what remains when the window misses.
    """
    nev = 0
    k = np.arange(-7, 1)
    while True:
        us = 4.0 ** k
        cs = c_side(us)
        nev += us.size
        hit = cs >= c_min
        if hit[0] and k[-1] <= 0 and k[0] > _K_DOWN:
            # lower; the next block keeps this block's bottom rung
            k = np.arange(max(k[0] - 8, _K_DOWN), k[0] + 1)
        elif hit.any():
            break
        elif k[-1] >= _K_UP:
            raise QuadratureError(
                f"profile phase stays below {c_min:.3e} out to "
                f"|xi - xi_star| = {us[-1]:.3e} (last value {cs[-1]:.3e})"
            )
        else:
            k = np.arange(k[-1] + 1, min(k[-1] + 9, _K_UP + 1))
    lo = 0.25 * float(us[hit.argmax()])
    cs = c_side(lo * _FINE_RUNGS)
    nev += cs.size
    j = 1 + int((cs[1:] >= c_min).argmax())
    ja, jb = int(_FINE_STEPS[j - 1]), int(_FINE_STEPS[j])
    i = [j - 1, j, j + 1] if j < 16 else [j - 2, j - 1, j]
    (x0, x1, x2), (c0, c1, c2) = _FINE_STEPS[i].tolist(), cs[i].tolist()
    guess = math.nan
    if 0 < c0 < c1 < c2:
        y0, y1, y2, yt = math.log(c0), math.log(c1), math.log(c2), math.log(c_min)
        guess = (
            x0 * (yt - y1) * (yt - y2) / ((y0 - y1) * (y0 - y2))
            + x1 * (yt - y0) * (yt - y2) / ((y1 - y0) * (y1 - y2))
            + x2 * (yt - y0) * (yt - y1) / ((y2 - y0) * (y2 - y1))
        )
    while jb - ja > 1:
        if math.isfinite(guess):
            g = round(min(max(guess, ja), jb))
            probe = np.arange(max(g - 3, ja + 1), min(g + 4, jb))
        else:
            probe = np.arange(ja + 1, jb, max(1, (jb - ja) // 32))
        guess = math.nan
        hit = c_side(lo * 4.0 ** (probe / _EDGE_STEPS)) >= c_min
        nev += probe.size
        if hit.any():
            jb = int(probe[hit.argmax()])
        below = probe[~hit & (probe < jb)]
        if below.size:
            ja = int(below[-1])
    return lo * 4.0 ** (jb / _EDGE_STEPS), nev


class ProfileGrid:
    """Quadrature grid for G(eta) = int exp(-eta c(xi)) dxi, c convex with
    minimum 0 at xi_star, valid for every eta in [eta_lo, eta_hi].

    Panels are laid out geometrically in c-height on both sides: the
    innermost edge sits where c ~ c_small/eta_hi (flat at the stiffest
    frequency) and the outermost where c ~ log_drop/eta_lo (truncated at the
    softest).  Both edges are found by vectorized ladders, so a build makes
    a handful of ``c_fn`` calls.  One Kronrod rule per panel; G(eta) is
    then a sum over the stored nodes in linear space, each term scaled by
    exp(eta min c) so that none overflows.
    """

    RATIO = 1.45
    C_SMALL = 0.03

    def __init__(self, c_fn, xi_star, eta_lo, eta_hi, *, log_drop=42.0):
        c_min = self.C_SMALL / eta_hi
        c_max = log_drop / eta_lo
        c_parts = []
        w_parts = []
        nev = 0
        for side in (-1.0, +1.0):

            def c_side(u):
                return c_fn(xi_star + side * u)

            u0, n = _inner_edge(c_side, c_min)
            nev += n
            # RATIO ladder out to c_max, stopping at its first rung past 1e60
            n_cap = math.ceil((math.log(1e60) - math.log(u0)) / math.log(self.RATIO))
            n_cap = max(n_cap, 1)
            n_guess = 80
            while True:
                us = u0 * self.RATIO ** np.arange(min(n_guess, n_cap) + 1)
                cs = c_side(us)
                nev += us.size
                idx = np.nonzero(cs >= c_max)[0]
                if idx.size:
                    us = us[: idx[0] + 1]
                    break
                if n_guess >= n_cap:
                    raise QuadratureError(
                        f"profile phase stays below c_max = {c_max:.3e} out to "
                        f"|xi - xi_star| = {us[-1]:.3e} (last value {cs[-1]:.3e})"
                    )
                n_guess *= 2
            edges = np.concatenate(([0.0], us))
            h, x = _kronrod_nodes(edges[:-1], edges[1:])
            cv = c_side(x.ravel())
            nev += cv.size
            c_parts.append(cv)
            w_parts.append((h[:, None] * WGK[None, :]).ravel())
        self.c = np.concatenate(c_parts)
        self.c_low = self.c.min()
        self.dc = self.c - self.c_low
        self.w = np.concatenate(w_parts)
        self.n_evals = nev

    def log_G(self, eta) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        # exponents -eta (c - min c) <= 0, so nothing overflows, and the
        # minimum node keeps every sum positive; numpy's sum, not BLAS, so
        # reruns are bit-identical whatever the BLAS threads.  Exponents are
        # floored at -700: exp takes a slow path where its result underflows,
        # and a term e^-700 w is below 1e-300 of its weight, under the
        # round-off of any sum whose weights span less than 1e280
        terms = np.multiply.outer(-eta, self.dc)
        np.maximum(terms, -700.0, out=terms)
        np.exp(terms, out=terms)
        terms *= self.w
        return np.log(terms.sum(axis=1)) - eta * self.c_low


def _pick(cond, x, y):
    return x if cond else y


def _bracket_root(fn: Callable, a, b):
    """Root of a nondecreasing ``fn``, searched outward from [a, b].

    While an end has the wrong sign the bracket widens past it by a doubling
    step, the other end moving to the last point that kept its sign; then
    bisection runs until b - a <= 1e-14 (1 + |a| + |b|).  Both phases are
    capped; at a cap, or without a sign change, QuadratureError names the
    bracket and the values of ``fn`` there.

    Floats ``a`` and ``b`` give a float, and ``fn`` is called with floats.
    Arrays ``a`` and ``b`` solve elementwise, ``fn`` mapping an array of
    their shape to one of values: each element takes exactly the steps it
    would take alone, and the error names the first failing element.
    """
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        a, b = float(a), float(b)
        pick, some, every = _pick, bool, bool
    else:
        a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
        pick, some, every = np.where, np.any, np.all
    fa, fb = fn(a), fn(b)
    step = b - a
    for _ in range(100):
        left, right = fa > 0, fb < 0  # left wins where both hold
        if not some(left | right):
            break
        x = pick(left, a - step, pick(right, b + step, a))
        fx = fn(x)
        a, fa, b, fb = pick(
            left, (x, fx, a, fa), pick(right, (b, fb, x, fx), (a, fa, b, fb))
        )
        step = pick(left | right, 2.0 * step, step)
    ok = (fa <= 0) & (fb >= 0)
    if not every(ok):
        a, b, fa, fb = _first_failure(ok, a, b, fa, fb)
        raise QuadratureError(
            f"root search found no sign change on [{a!r}, {b!r}]: "
            f"values {fa!r}, {fb!r}"
        )
    for _ in range(200):
        done = b - a <= 1e-14 * (1.0 + abs(a) + abs(b))
        if every(done):
            return 0.5 * (a + b)
        mid = 0.5 * (a + b)
        a, b = pick(done, (a, b), pick(fn(mid) > 0, (a, mid), (mid, b)))
    a, b, fa, fb = _first_failure(done, a, b, fn(a), fn(b))
    raise QuadratureError(
        f"root search did not converge on [{a!r}, {b!r}]: values {fa!r}, {fb!r}"
    )


def _first_failure(ok, *values) -> list[float]:
    """The values, as floats, at the first element where ``ok`` is false."""
    i = np.flatnonzero(np.logical_not(ok))[0]
    return [float(np.ravel(v)[i]) for v in values]


# ---------------------------------------------------------------------------
# D and the kernels
# ---------------------------------------------------------------------------


def _cone_interval(f: DefiningFunction) -> tuple[float, float]:
    cone = dual_cone(f)
    return -cone.r_minus, cone.r_plus


def compute_D(
    f: DefiningFunction, zeta1: float, zeta2: float, cfg: QuadratureConfig | None = None
) -> tuple[float, float]:
    """log D(zeta1, zeta2) = log int exp(-xi zeta1 - f(xi) zeta2) dxi.

    The point must lie in the open dual cone: zeta2 > 0 and zeta1/zeta2
    inside (-r_minus, r_plus).  The error estimate is measured, not assumed:
    the profile is integrated on two grids of different density and the
    difference reported.
    """
    cfg = cfg or QuadratureConfig()
    if not (zeta2 > 0):
        raise DomainError(f"zeta2 must be positive, got {zeta2!r}")
    lo, hi = _cone_interval(f)
    zeta = zeta1 / zeta2
    if not (lo < zeta < hi):
        raise DomainError(
            f"zeta1/zeta2 = {zeta!r} outside the dual cone ({lo!r}, {hi!r})"
        )
    xi_s = _bracket_root(lambda xi: f.fprime(xi) + zeta, -1.0, 1.0)
    A = f.f(xi_s) + zeta * xi_s

    def c_fn(xi):
        return f.f(xi) + zeta * xi - A

    pg = ProfileGrid(c_fn, xi_s, zeta2, zeta2, log_drop=cfg.log_drop)
    lg = float(pg.log_G(np.array([zeta2]))[0])

    # density-halved grid for an honest error measurement
    half = _CoarseProfile(c_fn, xi_s, zeta2, zeta2, log_drop=cfg.log_drop)
    lg2 = float(half.log_G(np.array([zeta2]))[0])
    err = abs(math.expm1(lg2 - lg)) + 1e-14
    return -zeta2 * A + lg, err


class _CoarseProfile(ProfileGrid):
    RATIO = ProfileGrid.RATIO ** 2


def direct_pair(
    f: DefiningFunction, p: BoundaryRelativePoint, cfg: QuadratureConfig | None = None
) -> tuple[KernelValue, KernelValue]:
    """(Bergman, Szego) at one point by the sector-coordinate double integral.

    With zeta1 = zeta * eta, zeta2 = eta the representation becomes
    (1/(4pi)^2) int dzeta int deta e^{-eta(y + x zeta)} eta^p / E(zeta, eta),
    p = 2 for Bergman and 1 for Szego, over zeta in the dual cone interval.
    Both weights ride the same panels (the eta-integral rows share every
    profile grid), so the pair costs barely more than either alone.

    The outer integrand is batched per panel: one elementwise root search
    gives the phase minimum xi_s of E(zeta, .) for all of the panel's zetas
    and one call of ``f.f`` its value; each zeta then builds its profile
    grid and runs its inner eta integral.
    """
    cfg = cfg or QuadratureConfig()
    f.require_interior(p)
    x, y = float(p.x), float(p.y)
    ps = np.array([2.0, 1.0])
    log_drop = cfg.log_drop
    # h = eta * r is the rescaled frequency; the integrand carries h^(p+3/2)
    # near 0, so this floor keeps the discarded mass below ~0.03 * rel_tol
    h_lo = max(1e-6, (0.03 * cfg.rel_tol) ** (1.0 / 2.5))
    h_hi = 1.55 * log_drop
    t_lo, t_hi = math.log(h_lo), math.log(h_hi)
    n_init_mid = int(np.ceil((t_hi - t_lo) / 0.8))
    nev = [0]

    def inner(zeta: float, xi_s: float, A: float, r: float) -> np.ndarray:
        pg = ProfileGrid(
            lambda xi: f.f(xi) + zeta * xi - A,
            xi_s,
            h_lo / r,
            h_hi / r,
            log_drop=log_drop,
        )
        nev[0] += pg.n_evals

        def logI(t):
            h = np.exp(t)
            eta = h / r
            lg = pg.log_G(eta)
            return -h + np.log(eta)[None, :] * ps[:, None] - lg[None, :] + t[None, :]

        lv, re, ne = log_adaptive_multi(
            logI,
            t_lo,
            t_hi,
            rel_tol=cfg.rel_tol * 0.25,
            max_panels=cfg.max_panels,
            init=n_init_mid,
        )
        nev[0] += ne
        return lv - math.log(r)

    def middles(zetas: np.ndarray) -> np.ndarray:
        ones = np.ones_like(zetas)
        xi_s = _bracket_root(lambda xi: f.fprime(xi) + zetas, -ones, ones)
        A = f.f(xi_s) + zetas * xi_s
        r = y + x * zetas - A  # >= y - f(x) > 0
        out = np.empty((2, zetas.size))
        for j in range(zetas.size):
            out[:, j] = inner(float(zetas[j]), float(xi_s[j]), float(A[j]), float(r[j]))
        return out

    lo, hi = _cone_interval(f)
    v0 = middles(np.zeros(1))[0, 0]
    scan = [(0.0, v0)]
    for s in (+1.0, -1.0):
        lim = hi if s > 0 else -lo
        z = 0.5
        best = v0
        while z < lim:
            if z > 1e30:
                raise QuadratureError(f"zeta scan found no decay by |zeta| = {z:.1e}")
            zz = s * z
            v = middles(np.array([zz]))[0, 0]
            scan.append((zz, v))
            best = max(best, v)
            if v < best - log_drop:
                break
            z *= 2.0
        else:
            zz = s * lim * (1.0 - 1e-9)
            v = middles(np.array([zz]))[0, 0]
            scan.append((zz, v))
    scan.sort()
    zs = np.array([q[0] for q in scan])
    vals = np.array([q[1] for q in scan])
    peak = vals.max()
    keep = np.nonzero(vals > peak - log_drop)[0]
    ilo = max(keep[0] - 1, 0)
    ihi = min(keep[-1] + 1, len(zs) - 1)
    edges = zs[ilo : ihi + 1]

    lv, re, ne = log_adaptive_multi(
        middles,
        edges[0],
        edges[-1],
        rel_tol=cfg.rel_tol,
        max_panels=cfg.max_panels,
        init_edges=edges,
    )
    achieved = float(np.max(re))
    if not (achieved <= 20.0 * cfg.rel_tol):
        raise QuadratureError(
            f"kernel quadrature did not converge at (x={x}, y={y}): achieved "
            f"rel err {achieved:.3e} (requested {cfg.rel_tol:.1e})"
        )
    lv = lv - 2.0 * math.log(4.0 * math.pi)
    err = re + 0.35 * cfg.rel_tol  # inner + truncation budget
    return (
        _pack_value(lv[0], err[0], nev[0], "bergman"),
        _pack_value(lv[1], err[1], nev[0], "szego"),
    )


# ---------------------------------------------------------------------------
# normalized representation (internal consistency oracle)
# ---------------------------------------------------------------------------


class _WGrid:
    """Fixed grid for phi(v, X) = int exp(-ghat(X w) w^(2m) + v w) dw.

    Because the mollified ghat stays within [0.9, 1] of its center value,
    the phase is pinned between two pure powers and one linear-panel grid
    resolves every tilted peak with |v| <= v_max.
    """

    GLO = 0.85

    def __init__(self, ghat, X, v_max, m2, drop=45.0):
        glo = self.GLO
        wstar = (v_max / (m2 * glo)) ** (1.0 / (m2 - 1))
        w = wstar
        while glo * w**m2 - v_max * w < drop:
            if w > 1e30:
                raise QuadratureError(f"W-grid extent unbounded for v_max = {v_max!r}")
            w *= 1.12
        w_pos = w
        # tilts of either sign occur, so both sides carry the full extent
        w_neg = w_pos
        width = (m2 * (m2 - 1) * 1.05 * max(wstar, 1.0) ** (m2 - 2)) ** -0.5
        dw = min(0.8 * width, 0.25)
        n_pan = int(np.ceil((w_pos + w_neg) / dw))
        edges = np.linspace(-w_neg, w_pos, n_pan + 1)
        h, nodes = _kronrod_nodes(edges[:-1], edges[1:])
        self.w = nodes = nodes.ravel()
        self.logw = np.log(h[:, None] * WGK[None, :]).ravel()
        self.Q = ghat(X * nodes) * nodes**m2
        self.n = nodes.size

    def log_phi(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return _logsumexp((self.logw - self.Q)[None, :] + v[:, None] * self.w[None, :])


def _growth_rate_floor(m: int) -> float:
    """Conservative lower bound for the v-growth rate of log phi."""
    m2 = 2 * m
    alpha = m2 ** (-1.0 / (m2 - 1))
    a = alpha - m2 ** (-m2 / (m2 - 1.0))
    return 0.75 * a


def _log_P(ghat, u: float, tilt: float, m: int, log_drop: float) -> tuple[float, int]:
    """log P(x, u) = log int exp(tilt * v) / phi(v, 1/u) dv."""
    m2 = 2 * m
    X = 1.0 / u
    rate_lo = _growth_rate_floor(m)
    ex = (m2 - 1.0) / m2
    # fixed point of v = ((drop + |tilt| v)/rate)^ex bounds the explored
    # v-range; superlinear growth guarantees it exists, monotone iteration
    # from below reaches it
    v_max = ((log_drop + 16.0) / rate_lo) ** ex
    for _ in range(200):
        nxt = ((log_drop + 16.0 + abs(tilt) * v_max) / rate_lo) ** ex
        if nxt <= v_max * (1.0 + 1e-9):
            break
        v_max = nxt
    v_max += 10.0
    wg = _WGrid(ghat, X, v_max, m2)
    lphi0 = float(wg.log_phi(np.array([0.0]))[0])

    def c_raw(v):
        return wg.log_phi(v) - lphi0 - tilt * v

    if tilt == 0.0:
        v_star, c_off = 0.0, 0.0
    else:
        v_star = _bracket_root(
            lambda v: float(
                (c_raw(np.array([v + 1e-5])) - c_raw(np.array([v - 1e-5])))[0] / 2e-5
            ),
            -1.0,
            1.0,
        )
        c_off = float(c_raw(np.array([v_star]))[0])

    pg = ProfileGrid(
        lambda v: c_raw(v) - c_off, v_star, 1.0, 1.0, log_drop=log_drop
    )
    lp = -lphi0 - c_off + float(pg.log_G(np.array([1.0]))[0])
    return lp, wg.n + pg.n_evals


def bergman_normalized(
    f: DefiningFunction,
    p: BoundaryRelativePoint,
    cfg: QuadratureConfig | None = None,
    *,
    u_floor: float = 1.0,
) -> KernelValue:
    """The normalized Bergman representation

        Kbar = (2m/(4pi)^2) g(0)^(1/m) int_{u_floor}^inf e^{-y u^(2m)}
               P(x, u) u^(4m+1) du

    with P's frequency profile phi built from the rescaled, mollified
    ghat(x) = g~(g(0)^(-1/(2m)) x)/g(0) in [0.9, 1].  The default lower
    limit 1 drops a smooth-at-the-boundary piece, so Kbar differs from
    the direct Bergman kernel by a bounded function as y -> 0 (passing u_floor -> 0
    recovers the direct kernel, which is how the chain is validated).
    """
    cfg = cfg or QuadratureConfig()
    if not f.is_mollified:
        raise DomainError("bergman_normalized requires a mollify() output")
    f.require_interior(p)
    m = f.m
    m2 = 2 * m
    g0 = float(f.g(0.0))
    scale = g0 ** (-1.0 / m2)

    def ghat(xhat):
        return f.g(scale * np.asarray(xhat, dtype=float)) / g0

    x, y = float(p.x), float(p.y)
    u_hi = ((cfg.log_drop + 13.0) / y) ** (1.0 / m2)
    if u_floor > 0 and u_floor >= u_hi:
        raise DomainError("u_floor is beyond the truncation range for this y")
    t_lo = math.log(u_floor) if u_floor > 0 else -12.0
    t_hi = math.log(u_hi)
    nev = [0]

    def rows(t):
        u = np.exp(t)
        out = np.empty((1, u.size))
        for i, uu in enumerate(u):
            tilt = g0 ** (1.0 / m2) * x * uu
            lp, ne = _log_P(ghat, uu, tilt, m, cfg.log_drop)
            nev[0] += ne
            out[0, i] = -y * uu**m2 + lp + (2 * m2 + 1) * math.log(uu) + t[i]
        return out

    n_init = max(14, int((t_hi - t_lo) / 0.1))
    lv, re, ne = log_adaptive_multi(
        rows, t_lo, t_hi, rel_tol=cfg.rel_tol, max_panels=cfg.max_panels, init=n_init
    )
    nev[0] += ne
    if not (re[0] <= 20.0 * cfg.rel_tol):
        raise QuadratureError(
            f"normalized representation did not converge: achieved {re[0]:.3e}"
        )
    pref = math.log(m2) + math.log(g0) / m - 2.0 * math.log(4.0 * math.pi)
    return _pack_value(
        lv[0] + pref, re[0] + 0.5 * cfg.rel_tol, nev[0], "bergman"
    )
