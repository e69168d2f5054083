"""Log-scaled adaptive quadrature and the kernel evaluators.

Everything here works on logarithms of positive Laplace-type integrands;
dynamic ranges of several hundred e-folds are routine (1/phi factors reach
exp(-40000) at moderate arguments for m = 2).  The engine is a 15-point
Kronrod rule with embedded 7-point Gauss estimate, panels held in arrays and
split worst error first, and sums taken relative to the largest term.  Inner
Laplace transforms are not re-integrated per frequency: a profile grid
samples the convex phase once and serves every frequency in a declared range
as an exponential sum over its nodes, each term scaled by the phase minimum,
which is what makes the double and triple integrals tractable.  Smooth 1-D
profiles are tabulated once per use, as Chebyshev tables sized by the
tolerance: log G in log frequency once per zeta in ``direct_pair``, and
log P in log u once per ``bergman_normalized`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    s = np.sum(np.exp(x - m[..., None]), axis=-1)
    # log only where the sum is nonzero, so a zero sum gives -inf without a
    # divide warning while a NaN sum still gives NaN
    return m + np.log(s, out=np.full_like(s, -np.inf), where=s != 0)


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
    lf = np.atleast_2d(logf(x.ravel()))
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
# exponents of the first x4 block; the kernel evaluators' grids cross c_min
# above its bottom rung, from 4^-6 at small y up to 4^2 at large |zeta|
_K_FIRST = np.arange(-7, 3)
# the 17 rungs 4^(j/16), j = 0..16, across one x4 step
_FINE_RUNGS = 4.0 ** (np.arange(17) / 16)


def _inner_edge(c_side: Callable, c_min: float) -> tuple[float, int]:
    """First rung u of the 4^(1/16) ladder through u = 1 with
    c_side(u) >= c_min, for c_side nondecreasing in u > 0, and the number of
    points evaluated.

    A x4 ladder finds the crossing's x4 bracket (lo, 4 lo]: one call on the
    block 4^-7..4^2 across u = 1, then, while needed, 8 rungs a call
    downward or upward.  One more call on the rungs lo 4^(j/16), 0 < j < 16,
    picks the first that reaches c_min, or else 4 lo.  The ladder has seen
    lo miss, unless it stopped at its floor; then lo is evaluated too.
    """
    nev = 0
    k = _K_FIRST
    up = False
    while True:
        us = 4.0 ** k
        cs = c_side(us)
        nev += us.size
        hit = cs >= c_min
        if hit[0] and not up and k[0] > _K_DOWN:
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
            up = True
            k = np.arange(k[-1] + 1, min(k[-1] + 9, _K_UP + 1))
    i = hit.argmax()
    floor = i == 0 and not up
    fine = 0.25 * float(us[i]) * _FINE_RUNGS[0 if floor else 1 : 16]
    hit = c_side(fine) >= c_min
    u = fine[hit.argmax()] if hit.any() else us[i]
    return float(u), nev + fine.size


class ProfileGrid:
    """Quadrature grid for G(eta) = int exp(-eta c(xi)) dxi, c convex with
    minimum 0 at xi_star, valid for every eta in [eta_lo, eta_hi].

    On each side one panel runs from xi_star to the inner edge, the first
    4^(1/16) rung with c >= c_small/eta_hi (flat at the stiffest frequency);
    panels then grow by RATIO out to the first rung with c >= log_drop/eta_lo
    (truncated at the softest).  Vectorized ladders find both edges, so a
    build usually makes eight ``c_fn`` calls.  One Kronrod rule per panel;
    G(eta) is a sum over the stored nodes in linear space, each term scaled by
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
    # isinstance, not np.ndim, which costs more than a scalar halving
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
        pick, some, every = np.where, np.any, np.all
    else:
        a, b = float(a), float(b)
        pick, some, every = _pick, bool, bool
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
        up = fn(mid) > 0
        # a moves unless up or done, b only if up and not done (up > done);
        # a scalar is never done here, so both picks read up alone
        a, b = pick(up | done, a, mid), pick(up > done, mid, b)
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

    The outer integrand is batched: one elementwise root search gives the
    phase minimum xi_s of E(zeta, .) for all of a call's zetas (every
    initial panel in the first call, one split panel in each later call) and
    one call of ``f.f`` its value.  Each zeta then builds its profile grid
    and tabulates log G(e^t / r) once, a Chebyshev table in t = log h
    (``_cheb_table``) sized until its tail is at most rel_tol / 10, usually
    17 or 65 samples; its inner eta integral reads that table.
    ``err_estimate`` is the outer integral's relative error, plus
    0.35 rel_tol for the inner integrals and the truncation, plus the largest
    table tail (an absolute error of log G is a relative error of the
    integrand); ``evaluations`` counts the profile grids' phase points, the
    table samples and the rule points of both integrals.
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
    tail_G = [0.0]

    def inner(zeta: float, xi_s: float, A: float, r: float) -> np.ndarray:
        pg = ProfileGrid(
            lambda xi: f.f(xi) + zeta * xi - A,
            xi_s,
            h_lo / r,
            h_hi / r,
            log_drop=log_drop,
        )
        # log G(e^t / r) is smooth in t: tabulate it once for this zeta
        samples, tail = _cheb_table(
            lambda t: pg.log_G(np.exp(t) / r), t_lo, t_hi, 0.1 * cfg.rel_tol
        )
        nev[0] += pg.n_evals + samples.size
        tail_G[0] = max(tail_G[0], tail)
        log_r = math.log(r)

        def logI(t):
            lg = _cheb_read(samples, t_lo, t_hi, t)
            return (t - log_r)[None, :] * ps[:, None] + (t - np.exp(t) - lg)[None, :]

        lv, re, ne = log_adaptive_multi(
            logI,
            t_lo,
            t_hi,
            rel_tol=cfg.rel_tol * 0.25,
            max_panels=cfg.max_panels,
            init=n_init_mid,
        )
        nev[0] += ne
        return lv - log_r

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
    # inner + truncation budget, and the worst log G table's error
    err = re + 0.35 * cfg.rel_tol + tail_G[0]
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


def _cheb_table(fn: Callable, a: float, b: float, tol: float) -> tuple[np.ndarray, float]:
    """Chebyshev interpolant of ``fn`` on [a, b], sized by ``tol``.

    ``fn`` maps an array of points to an array of values.  It is sampled at
    the Chebyshev-Lobatto points cos(pi k / n) mapped onto [a, b], starting
    at n = 16 and doubling n; the grids are nested, so each doubling calls
    ``fn`` once, on the new odd-index points only.  The coefficients c_k come
    from the FFT of the even extension of the samples.  The table stops when
    the largest |c_k| over the top quarter is at or below ``tol``, or when
    the coefficients end in a round-off plateau (``_plateau``) at this size
    and the one before; past 513 points it raises QuadratureError.

    Returns ``(samples, tail)``, the samples at cos(pi k / n), k = 0..n, read
    by ``_cheb_read``.  ``tail`` estimates the interpolant's error: the
    stopping figure, or at a plateau the sum of |c_k| over it, floored at
    8 eps sum |c_k| (the samples' round-off, amplified by the Lebesgue
    constant, below 5 at 513 points, plus the round-off of the reader).
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    n = 16
    vals = fn(mid + half * np.cos(np.pi * np.arange(n + 1) / n))
    flat_before = False
    while True:
        ext = np.concatenate((vals, vals[-2:0:-1]))
        c = np.fft.rfft(ext).real[: n + 1] / n
        c[0] *= 0.5
        c[n] *= 0.5
        floor = 8.0 * np.finfo(float).eps * float(np.sum(np.abs(c)))
        tail = float(np.max(np.abs(c[(3 * n) // 4 :])))
        if tail <= tol:
            return vals, max(tail, floor)
        j = _plateau(c)
        if j is not None and flat_before:
            return vals, max(float(np.sum(np.abs(c[j:]))), floor)
        flat_before = j is not None
        if n >= 512:
            raise QuadratureError(
                f"Chebyshev table on [{a!r}, {b!r}] did not resolve at "
                f"{n + 1} points: tail {tail:.3e} (requested {tol:.1e})"
            )
        new = np.empty(2 * n + 1)
        new[0::2] = vals
        new[1::2] = fn(mid + half * np.cos(np.pi * np.arange(1, 2 * n, 2) / (2 * n)))
        vals = new
        n *= 2


def _plateau(c: np.ndarray) -> int | None:
    """Start of a round-off plateau of the Chebyshev coefficients ``c``.

    Aurentz & Trefethen's plateau test ("Chopping a Chebyshev series", 2017)
    at tolerance eps: with e_j = max_{k >= j} |c_k| / max |c_k|, the plateau
    starts at the first j with e_j2 >= 3 (1 - log e_j / log eps) e_j, where
    j2 = round(1.25 j + 5) is still a coefficient.  The factor is below 1
    only where e_j < eps^(2/3), so coefficients still decaying, or flat above
    that level, give None.
    """
    env = np.maximum.accumulate(np.abs(c)[::-1])[::-1]
    e = env / env[0]
    j = np.arange(1, c.size)
    j2 = np.rint(1.25 * j + 5.0).astype(int)
    j, j2 = j[j2 < c.size], j2[j2 < c.size]
    eps = np.finfo(float).eps
    r = 3.0 * (1.0 - np.log(np.maximum(e[j], np.finfo(float).tiny)) / math.log(eps))
    flat = np.flatnonzero(e[j2] >= r * e[j])
    return int(j[flat[0]]) if flat.size else None


@lru_cache(maxsize=8)
def _lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The points cos(pi k / n), k = 0..n, and their barycentric weights."""
    w = np.ones(n + 1)
    w[1::2] = -1.0
    w[[0, n]] *= 0.5
    return np.cos(np.pi * np.arange(n + 1) / n), w


def _cheb_read(samples: np.ndarray, a: float, b: float, t: np.ndarray) -> np.ndarray:
    """The interpolant of a ``_cheb_table`` on [a, b] at the points ``t``.

    The barycentric formula on the Chebyshev-Lobatto points (Berrut &
    Trefethen, SIAM Review 46, 2004): one points x samples matrix, summed by
    numpy, not BLAS, so reruns are bit-identical.  A point on a sample gives
    that sample.
    """
    nodes, w = _lobatto(samples.size - 1)
    x = (2.0 * t - a - b) / (b - a)
    q = np.subtract.outer(x, nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(w, q, out=q)
        out = np.einsum("ij,j->i", q, samples) / np.einsum("ij->i", q)
    bad = np.isnan(out)
    if bad.any():
        hit = x[bad, None] == nodes
        out[bad] = np.where(hit.any(axis=1), samples[hit.argmax(axis=1)], np.nan)
    return out


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

    The integral runs in t = log u over [log u_floor, log u_hi] (from t = -12
    when u_floor is 0), u_hi where e^{-y u^(2m)} falls below the truncation
    depth.  P does not depend on y, and log P is smooth in t, so each call
    tabulates it once: a Chebyshev table in t (``_cheb_table``) sized until
    its coefficient tail is at most rel_tol / 10, or until the coefficients
    level off at log P's own round-off (near 2e-13 on the mollified m = 2
    model, so from rel_tol 1e-12 down), usually 65 or 129 ``_log_P``
    evaluations.  The adaptive u-integral then reads the table.
    ``err_estimate`` is the integral's relative error, plus 0.5 rel_tol for
    the truncation, plus the table's tail (an absolute error of log P is a
    relative error of Kbar); ``evaluations`` counts the W-grid and profile
    grid points of the tabulated ``_log_P`` calls and the integral's rule
    points.
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

    def log_P(ts):
        out = np.empty(ts.size)
        for i, t in enumerate(ts):
            u = math.exp(t)
            out[i], ne = _log_P(ghat, u, g0 ** (1.0 / m2) * x * u, m, cfg.log_drop)
            nev[0] += ne
        return out

    samples, tail = _cheb_table(log_P, t_lo, t_hi, 0.1 * cfg.rel_tol)

    def rows(t):
        lp = _cheb_read(samples, t_lo, t_hi, t)
        return (-y * np.exp(m2 * t) + lp + (2 * m2 + 2) * t)[None, :]

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
        lv[0] + pref, re[0] + 0.5 * cfg.rel_tol + tail, nev[0], "bergman"
    )
