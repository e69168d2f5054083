"""Log-scaled adaptive quadrature and the kernel evaluators.

Everything here works on logarithms of positive Laplace-type integrands;
dynamic ranges of several hundred e-folds are routine (1/phi factors reach
exp(-40000) at moderate arguments for m = 2).  The engine is a 15-point
Kronrod rule with embedded 7-point Gauss estimate, panels held in arrays and
split worst error first, and sums taken relative to the largest term.  Inner
Laplace transforms are not re-integrated per frequency: a profile grid
samples the convex phase once and serves every frequency in a declared range
as an exponential sum over its nodes, each term scaled by the phase minimum,
which is what makes the double and triple integrals tractable.  D, the
kernel pair's E, L and P are one tilted-Laplace integral int exp(-(L(v) -
t v)) dv of a convex L, taken one way: the peak L'(v) = t is a root of
the package's one root search, ``_bracket_root``, by safeguarded Newton
steps on the local power law of L' with the exact L'' (``_tilted_peak``
for f of a domain and log phi's spline, from a start on the phase's own
power law; ``_log_P`` on each W-grid row's own L' and L''), ``_tilted``
(in ``_log_P``, read by row) moves the phase's minimum to 0, and
``ProfileGrid.log_G`` sums it.  A
``ProfileGrid`` build serves k phases c_fn(xi, i), k = 1 included, as
rows (k, nodes), each step one call of the phase on all rows, so a caller
with many phases builds their grids together: ``direct_pair`` per chunk
of zetas, ``log_L`` per chunk of u and ``_log_P`` per chunk of its table's
u.
A grid's two edges come from one search: one x4 ladder brackets where each
side of a phase reaches the inner level and the outer one, and finer rungs
inside each bracket place the edge, in four calls of the phase a build.
``log_G`` sums its terms in ``_blocks`` of at most ``_LOG_G_BLOCK``, so its
memory does not grow with the rows and frequencies of a call, and callers
hand it all of theirs at once.
Smooth 1-D profiles are tabulated once per use, as Chebyshev tables sized
by the tolerance, one size for all the rows of a table: log G in log
frequency once per zeta in ``direct_pair``, and log P in log u once per
``bergman_normalized`` call, each level of new samples in chunks of at most
``_U_CHUNK`` u: one W-grid per distinct reach of the chunk's tilts, one
``ProfileGrid`` build and one ``log_G`` call a chunk.  ``direct_pair``
works on the zetas of an outer integrand call in chunks of
``_ZETA_CHUNK``, sized by speed: one grid build, one table pass that
samples the log G of the whole chunk, and one engine call that integrates
the chunk's inner rows on shared panels.
Its outer integral runs on a double-exponential map of the dual cone,
centred on the outer peak at zeta* = -f'(x) and scaled to its width, so
the tails decay double-exponentially and need no truncation; on the axis
of an even domain it takes the half line and doubles it.  The W-grid
behind ``bergman_normalized``'s log P has uniform panels, so its
exponential sum factors by panel: each tilt costs one exp per panel and
one per Kronrod abscissa instead of one per node, with the same nodes and
weights, so the factored sum is the dense one up to rounding.  A grid
has one set of panels, sized by its reach, and a row for each u of that
reach: on the axis one grid holds a chunk, off it each u has its own.
It does its work in ``_blocks`` of at most ``_W_BLOCK`` terms, so a
call's memory is bounded by the chunk and the block, not by the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .domain_model import BoundaryRelativePoint, DefiningFunction, DomainError, _int_pow

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
    """The relative tolerance of all evaluators; the truncation depth and
    the engine's panel budget are module constants, not settings.  The
    tolerance alone also picks ``direct_pair``'s profile-grid rule: 15
    Gauss-Legendre nodes a panel at RATIO 2.5 from rel_tol 1e-7 up, the
    Kronrod rule at RATIO 1.45 below."""

    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be finite and positive, got {self.rel_tol!r}")


# Truncation depth in e-folds (a 1e-16 relative drop plus a 5 e-fold pad),
# the one depth of every ProfileGrid.  Fixed, because direct_pair's
# 0.35 rel_tol and bergman_normalized's 0.5 rel_tol error budgets treat the
# mass dropped below it as negligible.
_TRUNCATION_DEPTH = -math.log(1e-16) + 5.0


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


_MAX_PANELS = 2400  # the engine's refinement budget: 40 panels x 60 levels


def log_adaptive_multi(
    logf: Callable,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-9,
    init: int = 8,
    init_edges=None,
):
    """Integrate the rows of exp(logf) over [a, b].

    ``logf(x: array(n)) -> array(k, n)`` gives log-integrand values for k
    integrand rows sharing the same panels.  Each round splits, in the row
    with the largest relative error, the panel with the largest error.
    Every row's sums are scaled by its own largest term, and a row whose
    total is below ``LOG_ABS_FLOOR`` e-folds, or NaN, asks for no
    refinement, so a k-row call that refines nothing gives each row its
    one-row value and error bit for bit.
    Returns ``(log_values(k), rel_err(k), n_rule_points)``; a zero integrand
    gives -inf, and a NaN or +inf integrand value a NaN log value, both
    with an infinite error.  Refinement also stops at ``_MAX_PANELS``
    panels' worth of rule points, so callers check the error returned.

    ``init_edges``, when given, overrides the uniform initial subdivision.
    Initial panels must straddle any feature narrower than a panel, or the
    embedded error estimate can miss it entirely.  No caller in the package
    passes it, but the benchmark's tracer reads it from every call's bound
    arguments to count refinements, so it stays.
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
        # each row's sums scaled by its largest rule or error term, so
        # nothing overflows and no row is measured against another's scale
        off = np.maximum(np.max(l15, axis=1), np.max(lerr, axis=1))
        off[off == -np.inf] = 0.0
        tot = np.sum(np.exp(l15 - off[:, None]), axis=1)
        err = np.sum(np.exp(lerr - off[:, None]), axis=1)
        if nev >= _MAX_PANELS * 15:
            break
        # a row whose total is zero at the floor, or NaN, asks for nothing
        live = off + np.log(np.maximum(tot, 1e-300)) >= LOG_ABS_FLOOR
        if np.all(~live | (err <= rel_tol * tot)):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.argmax(np.where(live, err / tot, 0.0))
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


# the x4 ladder of the edge search: exponents of its first rung past
# |xi - xi_star| = 1e60 and of its first rung at or below 1e-280
_K_UP = math.ceil(math.log(1e60, 4.0))
_K_DOWN = math.floor(math.log(1e-280, 4.0))
# exponents of the first x4 block: the kernel evaluators' grids cross c_min
# above its bottom rung (from 4^-6 at small y) and c_max at or below its
# top rung (up to 4^10 at m = 1, rel_tol 1e-10).  A row's block moves up
# until its top rung reaches 4^_K_SCALE |xi_star|: power-like tails tilted
# to a peak far out vary on the scale |xi_star| (direct_pair's reach 2.2e10
# on x^2, with edges in 4^-3.2..4^6.2 |xi_star| at m = 1..3)
_K_FIRST = np.arange(-7, 11)
_K_SCALE = 7
# the 17 rungs 4^(j/16), j = 0..16, across one x4 step
_FINE_RUNGS = 4.0 ** (np.arange(17) / 16)


def _inner_edge(
    c_rungs: Callable, c_min: np.ndarray, c_max: np.ndarray, xi_star: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """For each row r, the first rung u of the 4^(1/16) ladder through
    u = 1 with c_r(u) >= c_min[r], the first x4 rung 4^k, k >= _K_DOWN,
    with c_r >= c_max[r], and the number of points evaluated in all, for
    phases c_r nondecreasing in u > 0 and c_min < c_max.  ``c_rungs(rows,
    u)`` gives c_rows[i](u[i, j]) for the rows (n,) at the rungs u, (n, M)
    or a block (M,) shared by all rows.

    A x4 ladder brackets each row's c_min crossing in (lo, 4 lo] and finds
    its first rung at c_max: one call on the block 4^-7..4^10 for all rows,
    then, while needed, 8 rungs a call downward for every row whose lo lies
    below the block, and upward for every row with no rung yet at c_min or
    at c_max: rows that start together stay in step.  A downward chain ends
    before any upward block runs and starts none, and an upward block sets
    only the c_min brackets still open.  One more call on the rungs
    lo 4^(j/16), j < 16, of all rows picks each row's first that reaches
    c_min, or else 4 lo; the ladder has seen lo miss unless it stopped at
    its floor.  A row's x4 rungs, floor and cap included, are the ladder's
    times 4^shift, moving its first block up with |xi_star| (``_K_FIRST``).
    QuadratureError names the ``xi_star`` of the first row whose ladder
    passes 1e60 4^shift below c_min or c_max, and that level.
    """
    n = c_min.size
    lo = np.full(n, np.nan)  # 4 lo, NaN while a row's c_min bracket is open
    hi = np.full(n, np.inf)
    nev = 0
    e = np.frexp(xi_star)[1]  # |xi_star| < 2^e; row r's x4 rungs are 4^k x4[r]
    shift = np.maximum(((e + 1) >> 1) + (_K_SCALE - _K_FIRST[-1]), 0)
    x4 = 4.0 ** np.minimum(shift, _K_UP - _K_FIRST[-1])
    # (rows, their block's exponents, -1 down, 0 first, 1 up); LIFO, so a
    # downward chain ends before the upward block queued beside it starts
    blocks = [(np.arange(n), _K_FIRST, 0)]
    while blocks:
        rows, ks, way = blocks.pop()
        us = 4.0**ks
        cs = c_rungs(rows, us * x4[rows, None])
        nev += cs.size
        hi[rows] = np.minimum(hi[rows], np.where(cs >= c_max[rows, None], us, np.inf).min(axis=1))
        hit = cs >= c_min[rows, None]
        edge = np.isnan(lo[rows]) & hit.any(axis=1)
        # lower; the next block keeps this block's bottom rung
        down = edge & hit[:, 0] & (way <= 0 and ks[0] > _K_DOWN)
        edge &= ~down
        lo[rows[edge]] = us[hit[edge].argmax(axis=1)]
        more = (np.isnan(lo[rows]) & ~down) | (hi[rows] == np.inf)
        if way >= 0 and more.any():
            if ks[-1] >= _K_UP:
                i = more.argmax()
                level, c = ("c_min", c_min) if np.isnan(lo[rows[i]]) else ("c_max", c_max)
                raise QuadratureError(
                    f"profile phase at xi_star = {float(xi_star[rows[i]])!r} stays below "
                    f"{level} = {c[rows[i]]:.3e} out to |xi - xi_star| = "
                    f"{us[-1] * x4[rows[i]]:.3e} (last value {cs[i, -1]:.3e})"
                )
            blocks.append((rows[more], np.arange(ks[-1] + 1, min(ks[-1] + 9, _K_UP + 1)), 1))
        if down.any():
            blocks.append((rows[down], np.arange(max(ks[0] - 8, _K_DOWN), ks[0] + 1), -1))
    lo, hi = lo * x4, hi * x4
    fine = (0.25 * lo)[:, None] * _FINE_RUNGS[:16]
    hit = c_rungs(np.arange(n), fine) >= c_min[:, None]
    u = np.where(hit.any(axis=1), fine[np.arange(n), hit.argmax(axis=1)], lo)
    return u, hi, nev + fine.size


# terms per block of ProfileGrid.log_G's exponential sums, 1 MB of doubles,
# one block live at a time.  Against one block per call, blocks of 2^16
# raised laplace_1d's scaled op_s_p50 by 6% (medians over seeds 21-26 on a
# 2-core VM), and blocks of 2^17 left it level
_LOG_G_BLOCK = 2**17


def _blocks(k: int, n: int, per: int, budget: int) -> list[tuple[slice, slice]]:
    """The (rows, columns) slices that tile a (k, n) array of items of
    ``per`` terms each in blocks of at most ``budget`` terms: as many
    columns as fit, then as many rows, one item a block where one alone
    is over budget.  The first block is the largest."""
    per = max(per, 1)
    cols = max(min(n, budget // per), 1)
    rows = max(budget // (cols * per), 1)
    return [(slice(i, i + rows), slice(j, j + cols))
            for i in range(0, k, rows) for j in range(0, n, cols)]


class _PanelRule(NamedTuple):
    """A ``ProfileGrid``'s panel rule: nodes and weights on [-1, 1], RATIO,
    the factor by which each panel's outer end lies past the one before
    it, and c_small, the level of the phase at the first panel's outer end
    at the stiffest frequency, in e-folds of the integrand."""

    nodes: np.ndarray
    weights: np.ndarray
    ratio: float
    c_small: float


# the rule of every grid but direct_pair's at loose tolerances; its first
# panel stays flat, 0.03 e-folds, at the stiffest frequency
_KRONROD_RULE = _PanelRule(XGK, WGK, 1.45, 0.03)
# the density-halved grid behind compute_D's error estimate
_COARSE_RULE = _KRONROD_RULE._replace(ratio=_KRONROD_RULE.ratio**2)
# Gauss-Legendre 15, exact to degree 29 where the Kronrod rule is exact to
# 23, so it holds the same accuracy on wider panels: direct_pair's inner
# grids from rel_tol _GAUSS_FROM up.  Its first panel reaches 5 e-folds at
# the stiffest frequency, which carries about e^-65 of direct_pair's inner
# integrand: of 1, 2, 3, 5 and 10 the largest that kept the mollified
# model's Bergman values at rel_tol 1e-7 within 0.06 rel_tol of 1e-11
# references (direct_pair's docstring).  The values of
# np.polynomial.legendre.leggauss(15), written out: importing
# numpy.polynomial added 10 ms and 0.6 MB to every start
_GAUSS_RULE = _PanelRule(
    np.array([
        -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
        -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
        -0.20119409399743451, 0.0,
        0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
        0.7244177313601701, 0.8482065834104272, 0.9372733924007058,
        0.9879925180204854,
    ]),
    np.array([
        0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
        0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
        0.1984314853271116, 0.2025782419255613,
        0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
        0.13957067792615444, 0.10715922046717141, 0.0703660474881084,
        0.030753241996117203,
    ]),
    2.5,
    5.0,
)


class ProfileGrid:
    """Quadrature grids for G_i(eta) = int exp(-eta c_i(xi)) dxi of k phases
    c_i, each convex with minimum 0 at xi_star[i] and valid for every eta
    in [eta_lo[i], eta_hi[i]].

    On each side of a phase one panel runs from xi_star to the inner edge,
    the first 4^(1/16) rung with c >= c_small/eta_hi; panels then grow by
    RATIO out to the first rung with c >= _TRUNCATION_DEPTH/eta_lo
    (truncated at the softest frequency).  ``rule``, a ``_PanelRule``,
    gives every panel its nodes and weights and the grid its RATIO and
    inner edge level c_small: by default Kronrod's 15 nodes at RATIO 1.45
    and c_small 0.03, flat at the stiffest frequency (``_KRONROD_RULE``);
    ``compute_D``'s error estimate builds the same nodes and edge at
    1.45^2, and ``direct_pair`` from rel_tol 1e-7 up 15 Gauss-Legendre
    nodes at 2.5 with c_small 5.  The two sides of every phase are rows of
    one build, and each step takes all rows in one ``c_fn`` call: the x4
    blocks and fine rungs of ``_inner_edge``, whose x4 search also
    brackets each row's outer edge, the ceil(log_RATIO(4 RATIO)) RATIO
    rungs inside that bracket (5 at 1.45, 3 at 2.5), and every row's
    nodes, so a build of any k usually makes four ``c_fn`` calls.  A rung
    splits RATIO^j in two factors, so that it stays finite out to
    4^_K_UP.  G(eta) is a sum over the stored nodes in linear space, each
    term scaled by exp(eta min c) so that none overflows.

    ``xi_star`` is an array (k,), a float being k = 1, and ``c_fn(xi, i)``
    gives phase i[j] at xi[j] for flat arrays; ``eta_lo`` and ``eta_hi``
    are arrays (k,) or floats.  ``dc`` and ``w`` are (k, nodes), each
    phase's nodes at the start of its row and padding (w = 0) after them,
    and ``c_low`` is (k, 1), so ``log_G`` reads row i of eta (k, n) on grid
    i.  ``c`` holds every phase's node values, flat, and ``n_evals`` the
    number of points evaluated.
    """

    def __init__(self, c_fn, xi_star, eta_lo, eta_hi, rule: _PanelRule = _KRONROD_RULE):
        xi_star = np.array(xi_star, dtype=float, ndmin=1)
        k = xi_star.size
        # row 2i is phase i's side xi < xi_star, row 2i + 1 its side xi > xi_star
        phase = np.arange(2 * k) >> 1
        side = np.empty(2 * k)
        side[0::2], side[1::2] = -1.0, 1.0
        x0 = xi_star.repeat(2)
        lims = np.empty((2, k))
        lims[0], lims[1] = rule.c_small / eta_hi, _TRUNCATION_DEPTH / eta_lo
        c_min, c_max = lims.repeat(2, axis=1)

        def c_rungs(r, u):
            xi = x0[r, None] + side[r, None] * u
            return c_fn(xi.ravel(), phase[r].repeat(xi.shape[1])).reshape(xi.shape)

        # rung j of a row, u0 RATIO^j: RATIO^j alone overflows past j_fin
        # (1,910 for 1.45, 774 for 2.5), so the excess is a second factor,
        # 1 up to j_fin
        ratio = rule.ratio
        j_fin = math.floor(math.log(np.finfo(float).max) / math.log(ratio))

        def rungs(u0, j):
            j_lo = np.minimum(j, j_fin)
            return u0 * ratio**j_lo * ratio ** (j - j_lo)

        u0, hi4, nev = _inner_edge(c_rungs, c_min, c_max, x0)
        # the RATIO rungs across the x4 bracket (hi4/4, hi4], from the last
        # at or below hi4/4 (or u0): the rungs below it miss c_max, as hi4/4 did
        j0 = np.floor((np.log(0.25 * hi4) - np.log(u0)) / math.log(ratio)).clip(0)
        j = j0[:, None].astype(int) + np.arange(math.ceil(math.log(4.0 * ratio, ratio)))
        cs = c_rungs(np.arange(2 * k), rungs(u0[:, None], j))
        nev += cs.size
        # the rung after them lies past hi4, so it reaches c_max
        hit = np.c_[cs >= c_max[:, None], np.ones(2 * k, dtype=bool)]
        n_rungs = j[:, 0] + hit.argmax(axis=1) + 1

        # panels [0, u_0], [u_0, u_1], ... out to each row's last rung
        r, j = np.nonzero(np.arange(n_rungs.max(initial=0)) < n_rungs[:, None])
        b = rungs(u0[r], j)
        a = np.where(j > 0, np.roll(b, 1), 0.0)
        h = 0.5 * (b - a)
        c = c_rungs(r, 0.5 * (a + b)[:, None] + h[:, None] * rule.nodes).ravel()
        nev += c.size

        n_nodes = rule.nodes.size * n_rungs.reshape(k, 2).sum(axis=1)
        nodes = np.arange(n_nodes.max(initial=0)) < n_nodes[:, None]
        self.dc = np.full(nodes.shape, np.inf)
        self.dc[nodes] = c
        self.c_low = self.dc.min(axis=1, initial=np.inf, keepdims=True)
        self.dc -= self.c_low
        self.dc[~nodes] = 0.0
        self.w = np.zeros(nodes.shape)
        self.w[nodes] = (h[:, None] * rule.weights).ravel()
        self.c = c
        self.n_evals = int(nev)

    def log_G(self, eta) -> np.ndarray:
        """log G at the frequencies ``eta`` (k, n), row i on grid i: (k, n).

        Exponents -eta (c - min c) are <= 0, so nothing overflows, and the
        minimum node keeps every sum positive.  Exponents are floored at
        -700: exp takes a slow path where its result underflows, and a term
        e^-700 w is below 1e-300 of its weight, under the round-off of any
        sum whose weights span less than 1e280.

        The terms are taken in the blocks of ``_blocks``, at most
        ``_LOG_G_BLOCK`` terms of rows x frequencies x nodes a block, so
        memory does not grow with k n.  A call fills one buffer, block after
        block, with the exponents and their exps in place, and weights and
        sums each block in one ``np.einsum("rcn,rn->rc")`` over the nodes:
        no BLAS, so reruns are bit-identical whatever the BLAS threads.
        Each (row, frequency) sum is the same sum over the row's nodes in
        any block, so the result does not depend on the blocking.
        """
        eta = np.asarray(eta, dtype=float)
        d = self.dc.shape[1]
        out, buf = np.empty(eta.shape), None
        for r, c in _blocks(*eta.shape, d, _LOG_G_BLOCK):
            e = -eta[r, c]
            if buf is None:  # the first block is the largest
                buf = np.empty(e.size * d)
            terms = buf[: e.size * d].reshape(*e.shape, d)
            np.multiply(e[..., None], self.dc[r, None, :], out=terms)
            np.maximum(terms, -700.0, out=terms)
            np.exp(terms, out=terms)
            out[r, c] = np.einsum("rcn,rn->rc", terms, self.w[r])
        return np.log(out) - eta * self.c_low


# |x| out to which ``_bracket_root`` takes a Newton step or starts, so that
# every search reaches what 100 widenings from [-1, 1] reach, 2^101 - 1
_PEAK_REACH = 2.0**100

# the Newton step's stop: a step of at most this times (1 + |x|)
_NEWTON_TOL = 1e-14


def _bracket_root(g: Callable, target, a, b, dg: Callable | None = None):
    """Root of g(x) = target for a nondecreasing ``g``, elementwise over the
    broadcast of target, a and b; floats give a float.

    Each round reads one point of each open element; lo and hi are the last
    points read with g <= target and with g > target.  Given the exact
    derivative ``dg``, the point is the Newton step on the local power law
    g = c |x|^p sign(x), p = x g'/g: x (target / g(x))^(1/p), exact on a
    pure power, quadratic at the root, and at a flat point of order p the
    step in x |x|^(p - 1) (``rtsafe``, Press et al., Numerical Recipes, 3rd
    ed., 9.4), taken only inside [lo, hi] and within +-``_PEAK_REACH``; a
    point where g = target is its own step.  Otherwise the point bisects a
    closed bracket, or widens an open one past its read end by a step that
    doubles, b - a at first (1 where a = b).  An element is done at a
    Newton step of at most ``_NEWTON_TOL`` (1 + |x|), or at a bracket at
    most 1e-14 (1 + |lo| + |hi|) wide, which gives its midpoint: one floor,
    so a slope's rounding near x = 0 ends a search.  The first read is a,
    then b where a < b and g(a) <= target; a or b past the reach, or NaN,
    starts from [-1, 1].  QuadratureError after 100 widenings of an element
    or 300 rounds.  ``g`` and ``dg`` map points to values and see the open
    elements only, so each element takes the steps it would take alone.
    """
    t, a, b = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (target, a, b)))
    shape = t.shape
    t, a, b = t.ravel(), a.ravel(), b.ravel()
    near = (np.abs(a) < _PEAK_REACH) & (np.abs(b) < _PEAK_REACH)  # False at NaN
    if not near.all():
        a, b = np.where(near, a, -1.0), np.where(near, b, 1.0)
    x, step, wide = np.array(b), b - a, np.zeros(t.size, dtype=int)
    lo, hi = np.full(t.size, -np.inf), np.full(t.size, np.inf)
    j = np.flatnonzero(a < b)
    if j.size:  # where g(a) > target the bracket widens past a at once
        wide[j] = up = g(a[j]) > t[j]
        lo[j], hi[j] = np.where(up, -np.inf, a[j]), np.where(up, a[j], np.inf)
        x[j] = np.where(up, a[j] - step[j], b[j])
        step[j] *= 1.0 + up
    i = np.arange(t.size)
    for _ in range(300):
        if not i.size:
            return x.reshape(shape) if shape else float(x[0])
        xi, ti = x[i], t[i]
        gi = g(xi)
        up = gi > ti
        a, b = np.where(up, lo[i], xi), np.where(up, xi, hi[i])
        if dg is None:
            (ok, done), new = np.zeros((2, i.size), dtype=bool), np.empty(i.size)
        else:
            # a zero g or g' gives an exponent or ratio of 0, inf or NaN
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                p = xi * dg(xi) / gi
                q = ti / gi
                new = xi * np.sign(q) * np.abs(q) ** (1.0 / p)
                small = np.abs(new - xi) <= _NEWTON_TOL * (1.0 + np.abs(new))
            ok = (p > 0) & (new >= a) & (new <= b) & (np.abs(new) < _PEAK_REACH)
            hit = gi == ti
            done = hit | (ok & small)
            ok = done | (ok & (new > a) & (new < b))
            new = np.where(hit, xi, new)
        if not ok.all():
            r = np.flatnonzero(~ok)
            ar, br = a[r], b[r]
            closed = (ar > -np.inf) & (br < np.inf)
            new[r] = 0.5 * (ar + br)
            done[r] = closed & (br - ar <= 1e-14 * (1.0 + np.abs(ar) + np.abs(br)))
            if not closed.all():
                o = r[~closed]
                k = i[o]
                wide[k] += 1
                if wide[k].max() > 100:
                    # lo or hi, not yet moved this round, holds the point before x
                    e = k[np.argmax(wide[k])]
                    ends = np.where(np.isinf([lo[e], hi[e]]), x[e], [lo[e], hi[e]])
                    raise QuadratureError(_search_failure("found no sign change", g, ends, t[e]))
                s = np.where(step[k] > 0, step[k], 1.0)
                new[o] = np.where(up[o], b[o] - s, a[o] + s)
                step[k] = 2.0 * s
        lo[i], hi[i], x[i] = a, b, new
        i = i[~done]
    raise QuadratureError(_search_failure("did not converge", g, [lo[i[0]], hi[i[0]]], t[i[0]]))


def _search_failure(what: str, g: Callable, ends, target) -> str:
    """A root search's failure, naming its two points and g - target there."""
    with np.errstate(all="ignore"):
        a, b, fa, fb = (float(v) for v in (*ends, *(g(np.asarray(ends)) - target)))
    return f"root search {what} on [{a!r}, {b!r}]: values {fa!r}, {fb!r}"


def _tilted_peak(L: Callable, dL: Callable, t, d2L: Callable, v0):
    """Peak v of the tilted phase L(v) - t v of a convex L, where L'(v) = t,
    and A = L(v) - t v there, by ``_bracket_root``'s Newton steps on L'
    with the exact L'' from ``v0``; elementwise, or floats for a float."""
    v = _bracket_root(dL, t, v0, v0, d2L)
    return v, L(v) - t * v


def _power_law_peak(f: DefiningFunction, t):
    """``_tilted_peak`` of f at the tilts t by its Newton path, from the
    peak sign(t) (|t| / (2m g0))^(1/(2m-1)) of the model g0 x^(2m), which is
    exact on the model and leaves one step at rounding level."""
    n = 2 * f.m
    # an overflowing start lies past the reach: the search starts from [-1, 1]
    with np.errstate(over="ignore"):
        v0 = np.sign(t) * (np.abs(t) / (n * f.g0)) ** (1.0 / (n - 1))
    return _tilted_peak(f.f, f.fprime, t, f.fsecond, v0)


def _tilted(L: Callable, t, A) -> Callable:
    """The tilted phases L(v) - t v - A, each minimum A moved to 0, as a
    ``ProfileGrid`` c_fn(v, i) of phase i[j] at v[j], for t and A arrays
    (k,) or floats (k = 1)."""
    t, A = np.atleast_1d(t, A)
    return lambda v, i: L(v) - t[i] * v - A[i]


# ---------------------------------------------------------------------------
# D and the kernels
# ---------------------------------------------------------------------------


def _cone_interval(f: DefiningFunction) -> tuple[float, float]:
    """The dual cone's range of zeta1/zeta2, from f's exact tail slopes."""
    neg, pos = f.tail_slopes
    return -pos, neg


def compute_D(
    f: DefiningFunction, zeta1: float, zeta2: float, cfg: QuadratureConfig | None = None
) -> tuple[float, float]:
    """log D(zeta1, zeta2) = log int exp(-xi zeta1 - f(xi) zeta2) dxi.

    The point must lie in the open dual cone: zeta2 > 0 and zeta1/zeta2
    inside the range ``_cone_interval`` reads from f's tail slopes.  The
    profile grid is fixed; the error estimate is measured, not assumed: the
    profile is integrated again on a grid of half the density and the
    difference reported.  QuadratureError when that error exceeds
    ``cfg.rel_tol``.

    Off the axis the claim also carries the rounding of the exponents,
    twice eps zeta2 (|f(xi_s)| + |zeta1/zeta2 xi_s|) at the peak xi_s, which
    the grid comparison cannot see: at zeta1/zeta2 = 0.7 on x^4 it reaches
    1e-8 near zeta2 = 5e7, so a huge zeta2 raises QuadratureError instead
    of claiming 1e-14.

    QuadratureError too for a zeta2 past the peak's resolution: once
    zeta2 times the tilted phase's dip below 0, the rounding of the peak
    xi_s and of its offset A, exceeds the inner edge level of its grids'
    rule, ``_KRONROD_RULE.c_small`` (on x^2 and x^4 at zeta1/zeta2 = 0.3
    already at zeta2 = 1e20), the first panel is not flat.  On the axis
    zeta1 = 0 the peak search (``_power_law_peak``) starts on the exact
    peak 0 with A = 0, so no dip arises there.
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
    xi_s, A = _power_law_peak(f, -zeta)
    c = _tilted(f.f, -zeta, A)
    grid, eta = ProfileGrid(c, xi_s, zeta2, zeta2), np.array([[zeta2]])
    dip = -zeta2 * float(grid.c_low[0, 0])
    if dip > _KRONROD_RULE.c_small:
        raise QuadratureError(
            f"D({zeta1!r}, {zeta2!r}): zeta2 is past the resolution of the peak at "
            f"xi = {xi_s!r}: the tilted phase undercuts it by {dip:.3e} e-folds"
        )
    lg = float(grid.log_G(eta)[0, 0])

    # density-halved grid for an honest error measurement
    lg2 = float(ProfileGrid(c, xi_s, zeta2, zeta2, rule=_COARSE_RULE).log_G(eta)[0, 0])
    # each exponent zeta2 (f + zeta xi - A) rounds by about eps zeta2 (|f|
    # + |zeta xi|) near the peak, f(xi_s) = A - zeta xi_s: an error of log D
    # that no grid comparison sees, claimed twice over
    zx = zeta * xi_s
    rounding = 2.0 * math.ulp(1.0) * zeta2 * float(abs(A - zx) + abs(zx))
    err = abs(math.expm1(lg2 - lg)) + 1e-14 + rounding
    if not (err <= cfg.rel_tol):
        raise QuadratureError(
            f"D({zeta1!r}, {zeta2!r}) missed its tolerance: measured rel err "
            f"{err:.3e} (requested {cfg.rel_tol:.1e})"
        )
    return -zeta2 * A + lg, err


# zetas per chunk of direct_pair's inner layer, sized by speed: a chunk's
# fixed cost (one grid build, one table pass, one inner engine call) sets
# the pace, while log_G bounds its own terms.  Median fixed_tau_paths pass,
# scaled, on a 2-core x86-64 VM (seeds 11-20): 0.363 s at 16, 0.304 s at
# 32, 0.277 s at 40, 0.286 s at 48 and 0.282 s at 64.  The traced peak of
# the larger of test_direct_pair_memory_stays_bounded's calls: 1.79 MB at
# 32, 2.18 MB at 40, 2.49 MB at 48 and 3.03 MB at 64 (bound 3 MB)
_ZETA_CHUNK = 40


# the smallest rel_tol at which direct_pair's inner grids take _GAUSS_RULE:
# their measured error on the mollified model (direct_pair's docstring),
# up to 3.8e-9, is 4% of 1e-7 but 38% of 1e-8, more than the inner
# layer's fixed 0.35 rel_tol budget absorbs
_GAUSS_FROM = 1e-7

# e-folds below the centre's Bergman value within which direct_pair's width
# search accepts a rung, read through the Bergman middle's law r^(-7/2): 2
# took the fewest evaluations over 18 fixed-tau points at rel_tol 1e-7
# (2.91M; 0.5, 1, 4 and 8 took 3.14M-5.57M)
_PEAK_DROP = 2.0

# rungs w = 0.5 2^-j of direct_pair's width search, down to w = 1e-30
_WIDTH_RUNGS = 99

# s-range of direct_pair's outer map: |s| <= 3.5 reaches |z - z*| = 9.5e10 w,
# past which an integrand decaying like |zeta|^(-a) on an infinite end keeps
# about (9.5e10)^(1 - a) of its mass (relative, for w of order 1)
_DE_REACH = 3.5

# relative distance from a finite cone end within which direct_pair's outer
# integrand counts as zero: vanishing like the distance, it holds ~1e-24 there
_END_GAP = 1e-12


def _cone_map(lo: float, hi: float) -> tuple[Callable, Callable]:
    """A map psi of the real line onto the cone (lo, hi), as z -> (psi(z),
    log psi'(z)) for arrays z, and its inverse on floats: the identity where
    both ends are infinite, lo + e^z or hi - e^-z where one is finite, and
    (lo + hi)/2 + (hi - lo)/2 tanh z where both are, so that a power of the
    distance to a finite end decays exponentially in z."""
    if lo == -math.inf and hi == math.inf:
        return (lambda z: (z, np.zeros_like(z))), (lambda zeta: zeta)
    if hi == math.inf:
        return (lambda z: (lo + np.exp(z), z)), (lambda zeta: math.log(zeta - lo))
    if lo == -math.inf:
        return (lambda z: (hi - np.exp(-z), -z)), (lambda zeta: -math.log(hi - zeta))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def psi(z):
        # log sech^2 z = log 4 - 2|z| - 2 log(1 + e^(-2|z|)), finite for every z
        a = np.abs(z)
        return mid + half * np.tanh(z), math.log(4 * half) - 2 * (a + np.log1p(np.exp(-2 * a)))

    return psi, (lambda zeta: math.atanh((zeta - mid) / half))


def direct_pair(
    f: DefiningFunction, p: BoundaryRelativePoint, cfg: QuadratureConfig | None = None
) -> tuple[KernelValue, KernelValue]:
    """(Bergman, Szego) at one point by the sector-coordinate double integral.

    With zeta1 = zeta * eta, zeta2 = eta the representation becomes
    (1/(4pi)^2) int dzeta int deta e^{-eta(y + x zeta)} eta^p / E(zeta, eta),
    p = 2 for Bergman and 1 for Szego, over zeta in the dual cone interval.
    Both weights ride the same panels (the eta-integral rows share every
    profile grid), so the pair costs barely more than either alone.

    The outer integrand is batched: one elementwise ``_tilted_peak`` gives
    the peak xi_s and value A of E(zeta, .), f tilted by -zeta, at all of an
    engine call's zetas (by ``_bracket_root``'s Newton steps from the
    model's peak, ``_power_law_peak``: about 2.5 calls of f' and f'' a
    search on the fixed-tau points of the benchmark, where bisection to
    1e-14 took about 55 of f'), and the inner layer takes them in chunks
    of at most ``_ZETA_CHUNK``: one ``ProfileGrid`` build of the chunk's ``_tilted``
    phases, one ``_cheb_table`` pass of log G(e^t / r) in t = log h, grown
    until every row's tail is at most rel_tol / 10 (usually 17 or 65
    samples), and one ``log_adaptive_multi`` call on the chunk's 2k eta rows
    (Bergman and Szego for each zeta) on shared t panels; a row that ends
    above its 0.25 rel_tol budget raises QuadratureError naming its zeta.
    The inner layer follows the tolerance, chosen by one comparison with
    ``_GAUSS_FROM`` (1e-7): from it up the grids take 15 Gauss-Legendre
    nodes a panel at RATIO 2.5 with their inner edge at c_small 5
    (``_GAUSS_RULE``), and the inner call starts on t panels 1.2 wide (11
    at 1e-7); below it they take the Kronrod rule at 1.45 and c_small 0.03
    of every other grid, and the call starts on panels 0.8 wide (17 at
    1e-8).  The Gauss grids' error is measured, not estimated: on the
    mollified m = 2 model, whose spline knots the panels fall on, the
    error moves with where the panel edges fall.  At rel_tol 1e-7 on 24
    points there (x in {0, 0.01, 0.03, 0.1, 0.2, 0.35}, y - f(x) in
    {2^-10, 2^-6, 1/8, 0.9}) the Bergman values lie within 5.5e-9 of
    rel_tol 1e-11 references, 6% of 1e-7, inside the 0.35 rel_tol budget
    below (3.1e-9 with c_small 0.03, 5.2e-9 with 3, 1.1e-8 with 1 and
    1.3e-8 with 10); on x^2, x^4 and the rational m = 2 domain the two
    rules' values differ by less than 1e-13.
    The outer integral runs in s on a double-exponential map (Takahasi &
    Mori, 1974), zeta = psi(z* + w sinh((pi/2) sinh s)), |s| <= _DE_REACH,
    psi from ``_cone_map`` and z* = psi^-1(zeta*) at the outer peak zeta* =
    -f'(x), about (d f''(x))^(1/2) wide near the boundary, d = y - f(x).
    The width w is read from r = y + x zeta - A alone, r >= y - f(x): the
    Bergman middle is, to leading order, a constant times r^(-7/2) (exactly
    so on x^2), and w is the first rung 0.5 2^-j whose zetas psi(z* -+ w)
    in the cone keep 3.5 log(r / r(zeta*)) within ``_PEAK_DROP`` e-folds (a
    rung with none in the cone passes), from one ``_tilted_peak`` call on
    the centre and every rung's zetas, with no grid, table or inner
    integral; no rung passes by w = 1e-30 and QuadratureError is raised.
    The map makes the integrand's algebraic tails, and its vanishing at a
    finite cone end, double-exponential in s, so no truncation depth in
    zeta is needed
    (``_DE_REACH`` and ``_END_GAP`` bound what is left out).  One
    ``log_adaptive_multi`` call integrates middles(zeta(s)) + log zeta'(s)
    from 8 panels; where rounding noise in r keeps it bisecting to its panel
    budget, its error estimate reports the noise.  On the axis x = 0 of a
    domain whose ``is_even`` is set, zeta -> -zeta mirrors A, r and every
    tilted grid, so the integrand is even in s: the call takes s in
    [0, _DE_REACH] from 4 panels, the right half of the 8 with the same
    nodes and widths, and the integral is twice its value.  The width
    search, the inner layer and the error budget are the same either way.
    QuadratureError where y + x zeta - A is not positive: y below the
    rounding of a tilted peak's offset A.
    ``err_estimate`` is the outer integral's relative error, plus 0.35
    rel_tol for the inner integrals, grids, tables and truncation, plus
    the largest table tail over the outer rule's zetas (an absolute error
    of log G is relative in the integrand).  A tail is the table's
    stopping figure, not its error, which can be larger (``_cheb_table``);
    the error stays within the tables' tolerance rel_tol / 10, which the
    0.35 rel_tol covers beside the inner rows' 0.25 rel_tol.
    ``evaluations`` sums, over the outer rule's zetas, its grid's phase
    points, its table's samples and its inner call's rule points, counted
    once per zeta where a chunk shares them; a folded call counts only the
    zetas of its half line, about half the full line's, and the width
    search counts nothing.
    """
    cfg = cfg or QuadratureConfig()
    f.require_interior(p)
    x, y = float(p.x), float(p.y)
    ps = np.array([[2.0], [1.0]])
    inner_tol = 0.25 * cfg.rel_tol
    # h = eta * r is the rescaled frequency; the integrand carries h^(p+3/2)
    # near 0, so this floor keeps the discarded mass below ~0.03 * rel_tol
    h_lo = max(1e-6, (0.03 * cfg.rel_tol) ** (1.0 / 2.5))
    h_hi = 1.55 * _TRUNCATION_DEPTH
    t_lo, t_hi = math.log(h_lo), math.log(h_hi)
    # the grids' rule and the inner call's first t panels follow the tolerance
    rule, t_panel = (_GAUSS_RULE, 1.2) if cfg.rel_tol >= _GAUSS_FROM else (_KRONROD_RULE, 0.8)
    n_init_mid = int(np.ceil((t_hi - t_lo) / t_panel))
    nev, tail_G = [0], [0.0]

    def inner(zetas: np.ndarray, xi_s: np.ndarray, A: np.ndarray, r: np.ndarray):
        # one profile grid build for the chunk, of the phases f tilted by -zeta
        grids = ProfileGrid(_tilted(f.f, -zetas, A), xi_s, h_lo / r, h_hi / r, rule=rule)
        k = zetas.size

        # log G(e^t / r) is smooth in t: tabulate it once for each zeta
        def log_G(t):
            return grids.log_G(np.exp(t)[None, :] / r[:, None])

        table, tails = _cheb_table(log_G, t_lo, t_hi, 0.1 * cfg.rel_tol)
        log_r = np.log(r)

        def logI(t):
            lg = _cheb_read(table, t_lo, t_hi, t)
            tp = (t[None, :] - log_r[:, None])[:, None, :] * ps
            return (tp + ((t - np.exp(t))[None, :] - lg)[:, None, :]).reshape(2 * k, -1)

        lv, re, ne = log_adaptive_multi(logI, t_lo, t_hi, rel_tol=inner_tol, init=n_init_mid)
        miss = np.flatnonzero(~(re <= inner_tol))
        if miss.size:
            i = miss[0]
            raise QuadratureError(
                f"inner eta integral at zeta = {float(zetas[i // 2])!r} did not converge: "
                f"achieved rel err {re[i]:.3e} (requested {inner_tol:.1e})"
            )
        nev[0] += grids.n_evals + table.size + k * ne
        tail_G[0] = max(tail_G[0], float(tails.max()))
        return (lv.reshape(k, 2) - log_r[:, None]).T

    def peaks(zetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the peak xi_s and value A of f tilted by -zeta, and r = y + x zeta - A
        xi_s, A = _power_law_peak(f, -zetas)
        r = y + x * zetas - A  # >= y - f(x) > 0, unless A's rounding exceeds it
        if not np.all(r > 0):
            i = np.argmin(r > 0)
            raise QuadratureError(
                f"y = {y!r} is below the rounding of the tilted peak at zeta = "
                f"{float(zetas[i])!r}: y + x zeta - A = {float(r[i])!r}"
            )
        return xi_s, A, r

    def middles(zetas: np.ndarray) -> np.ndarray:
        xi_s, A, r = peaks(zetas)
        out = np.empty((2, zetas.size))
        for j in range(0, zetas.size, _ZETA_CHUNK):
            c = slice(j, j + _ZETA_CHUNK)
            out[:, c] = inner(zetas[c], xi_s[c], A[c], r[c])
        return out

    lo, hi = _cone_interval(f)
    psi, psi_inv = _cone_map(lo, hi)
    # the outer integrand counts as zero within _END_GAP of a finite end (a
    # centre on the end moves there) and, on a one-sided exp map's infinite
    # end, past the zetas that the identity map reaches at its widest, w = 0.5
    lo_c, hi_c = lo * (1.0 - _END_GAP), hi * (1.0 - _END_GAP)
    zc = min(max(-float(f.fprime(x)), lo_c), hi_c) + 0.0  # + 0.0: 0.0 on the axis, not -0.0
    reach = 0.5 * math.sinh(0.5 * math.pi * math.sinh(_DE_REACH))
    lo_c, hi_c = max(lo_c, zc - reach), min(hi_c, zc + reach)
    z_star = psi_inv(zc)
    # the rungs psi(z* -+ 0.5 2^-j) that lie in the cone, with the centre,
    # in one peak search; a rung passes where its zetas all keep the Bergman
    # middle's r^(-7/2) within _PEAK_DROP of the centre's (none counts as all)
    ws = 0.5 * 2.0 ** -np.arange(_WIDTH_RUNGS)
    zs = psi(z_star + np.column_stack([-ws, ws]).ravel())[0]
    live = (zs > lo_c) & (zs < hi_c)
    r = peaks(np.concatenate([[zc], zs[live]]))[2]
    near = np.ones(zs.size, dtype=bool)
    near[live] = 3.5 * np.log(r[1:] / r[0]) <= _PEAK_DROP
    near = near.reshape(-1, 2).all(axis=1)
    if not near.any():
        raise QuadratureError(
            f"outer width search found no edge of the peak by w = {0.5 * ws[-1]:.1e}"
        )
    w = float(ws[np.argmax(near)])

    def outer(s: np.ndarray) -> np.ndarray:
        u = 0.5 * math.pi * np.sinh(s)
        with np.errstate(over="ignore"):
            zeta, log_dpsi = psi(z_star + w * np.sinh(u))
        out = np.full((2, s.size), -np.inf)
        live = (zeta > lo_c) & (zeta < hi_c)
        if live.any():
            log_dz = log_dpsi + math.log(0.5 * math.pi * w) + np.log(np.cosh(u) * np.cosh(s))
            out[:, live] = middles(zeta[live]) + log_dz[live]
        return out

    if x == 0.0 and f.is_even:
        # zeta -> -zeta mirrors the tilted phases, so the integrand is even
        # in s: the right half of the 8 panels, twice
        lv, re, ne = log_adaptive_multi(outer, 0.0, _DE_REACH, rel_tol=cfg.rel_tol, init=4)
        lv = lv + math.log(2.0)
    else:
        lv, re, ne = log_adaptive_multi(outer, -_DE_REACH, _DE_REACH, rel_tol=cfg.rel_tol, init=8)
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


# _WGrid ends where the lower phase bound GLO w^(2m) - v_max w first reaches this
_W_DROP = 45.0

# terms per block of a _WGrid's work: ghat's points (rows x 15 x panels) at
# a build, and the tilts x panels of log_phi's panel sums, so that
# neither grows with the rows of a grid or the points of a call.  With
# chunks of 32 u, bergman_normalized on the mollified m = 2 model at
# (0, 2^-10), rel_tol 1e-10 took 62 ms at 2^13, 57 ms at 2^14, 56 ms at
# 2^15 and 59 ms at 2^16 (medians over 8 rounds of the median of 7 calls
# on a 2-core x86-64 VM), with tracemalloc peaks of 1.5, 1.9, 3.2 and
# 4.7 MB at rel_tol 1e-12
_W_BLOCK = 2**14

# u per chunk of bergman_normalized's log P table fill: one _WGrid per
# distinct reach (one on the axis), one ProfileGrid build and one log_G
# call a chunk.  At the point above (blocks of 2^14), 16 u took 60 ms,
# 24 58 ms, 32 57 ms and 64 57 ms, with
# peaks at rel_tol 1e-12 of 1.6, 1.8, 1.9 and 3.0 MB: from 32 up a chunk
# holds all of a 1e-10 table's first three levels (17, 16 and 32 u)
_U_CHUNK = 32


class _WGrid:
    """Fixed grids for phi(v, X_j) = int exp(-ghat(X_j w) w^(2m) + v w) dw,
    one row j for each X_j, tilts |v| <= v_max.

    Because the mollified ghat stays within [0.9, 1] of its center value,
    the phase is pinned between two pure powers and one grid of uniform
    panels resolves every tilted peak with |v| <= v_max.  The panels, P of
    them, with centers c_p and one half-width h, are set by v_max alone
    and shared by every row: they cover |w| <= w_end on both sides, w_end
    where the lower phase bound GLO w^(2m) - v_max w first reaches
    ``_W_DROP`` on a x1.12 scan from its minimum.

    Every node is w = c_p + h x_k, Kronrod abscissa x_k.  With a = log(h
    w_k) - Q at a row's nodes and A_p its maximum over panel p, the
    exponential sum factors exactly:

        phi(v) = sum_p e^(A_p + v c_p) sum_k E[k, p] e^(v h x_k),

    E = e^(a - A_p) <= 1 stored once, (k, 15, P) with the panels last, so
    a tilt v takes P + 15 exps instead of one per node, and ``_sums``
    contracts the abscissae with ``np.einsum("rkp,rvk->rvp")``, whose
    inner loop runs along the panels.  Exponents of E are floored at -700
    (as in ``ProfileGrid.log_G``), so each panel keeps a positive entry at
    its outer node and log phi stays finite at the far rungs the
    profile-grid ladders probe (tested to |v| = 1e60).  Within a panel the
    tilt moves an exponent by at most 2 |v| h, so for |v| <= v_max (|v| h
    below 20 at the largest tilts of m = 1..4) a floored entry stays over
    650 e-folds below its panel's largest term.

    A build evaluates ghat on rows x 15 x P, and ``log_phi`` sums on rows
    x tilts x P, in the blocks of ``_blocks``, at most ``_W_BLOCK`` terms
    each, so a grid holds its (k, 15, P) E and blocks of bounded size.
    ``X`` is an array (k,) or a float (k = 1), ``v_max`` a float; ``n``
    is the number of nodes over all rows.
    """

    GLO = 0.85

    def __init__(self, ghat, X, v_max, m2):
        X = np.array(X, dtype=float, ndmin=1)
        glo = self.GLO
        wstar = (v_max / (m2 * glo)) ** (1.0 / (m2 - 1))
        w = wstar
        while glo * w**m2 - v_max * w < _W_DROP:
            if w > 1e30:
                raise QuadratureError(f"W-grid extent unbounded for v_max = {v_max!r}")
            w *= 1.12
        # tilts of either sign occur, so both sides carry the full extent w
        width = (m2 * (m2 - 1) * 1.05 * max(wstar, 1.0) ** (m2 - 2)) ** -0.5
        P = int(np.ceil(2.0 * w / min(0.8 * width, 0.25)))
        edges = np.linspace(-w, w, P + 1)
        self.c, self.h = 0.5 * (edges[:-1] + edges[1:]), w / P
        nodes = self.c + self.h * XGK[:, None]
        power, log_hw = _int_pow(nodes, m2), np.log(self.h * WGK[:, None])
        k = X.size
        self.A = np.empty((k, P))
        self.E = np.empty((k, 15, P))
        for r, _ in _blocks(k, 1, 15 * P, _W_BLOCK):
            a = log_hw - power * ghat((X[r, None, None] * nodes).ravel()).reshape(-1, 15, P)
            A = a.max(axis=1)
            a -= A[:, None, :]
            np.maximum(a, -700.0, out=a)
            np.exp(a, out=self.E[r])
            self.A[r] = A
        self.n = 15 * P * k

    def log_phi(self, v, i) -> np.ndarray:
        """log phi of row i[j] at the tilt v[j], for flat arrays (n,): (n,).

        The tilts are grouped by row, each row's run padded to the longest;
        a tilt v on row r is scaled by e^(max_p (A_p + v c_p) + |v| h max
        x_k), so no factor exceeds 1 and a value depends on its own row and
        tilt alone.  ``np.einsum``, not BLAS, so reruns are bit-identical.
        """
        v = np.asarray(v, dtype=float)
        order = np.argsort(i, kind="stable")
        rows, first, count = np.unique(i[order], return_index=True, return_counts=True)
        run = np.repeat(np.arange(rows.size), count)
        slot = np.arange(v.size) - first[run]
        tilts = np.zeros((rows.size, count.max()))
        tilts[run, slot] = v[order]
        vals = np.empty(tilts.shape)
        for r, c in _blocks(*tilts.shape, self.c.size, _W_BLOCK):
            vals[r, c] = self._sums(tilts[r, c], rows[r])
        out = np.empty(v.size)
        out[order] = vals[run, slot]
        return out

    def _sums(self, v: np.ndarray, r: np.ndarray) -> np.ndarray:
        """log phi at the tilts v (b, n), row r[j] of v on grid row r[j]."""
        panel = self.A[r, None, :] + v[..., None] * self.c
        top = panel.max(axis=2)
        vh = v * self.h
        reach = np.abs(vh) * XGK[-1]
        tilt = np.exp(vh[..., None] * XGK - reach[..., None])
        inner = np.einsum("rkp,rvk->rvp", self.E[r], tilt)
        panel -= top[..., None]
        np.exp(panel, out=panel)
        return top + reach + np.log(np.einsum("rvp,rvp->rv", panel, inner))

    def slope(self, v, j) -> tuple[np.ndarray, np.ndarray]:
        """Row j's exact L' and L'' at the tilts v (n,): the mean and variance of
        w under its node weights E[k, p] e^(A_p + v w), scaled as in ``log_phi``."""
        v = np.asarray(v, dtype=float)[:, None, None]
        c, h = self.c[:, None], self.h
        w, vh = c + h * XGK, v * h
        panel = self.A[j, :, None] + v * c
        p = np.exp(panel - panel.max(axis=1, keepdims=True) + vh * XGK - np.abs(vh) * XGK[-1])
        p *= self.E[j].T
        p /= p.sum(axis=(1, 2), keepdims=True)
        mean = np.einsum("npk,pk->n", p, w)
        return mean, np.einsum("npk,npk->n", p, np.square(w - mean[:, None, None]))


def _cheb_table(fn: Callable, a: float, b: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev interpolants of k functions on [a, b], one size for all.

    ``fn(t)`` maps points t to the (k, t.size) array of the k functions'
    values; k is read from the first call.  Every row is sampled at the
    Chebyshev-Lobatto points cos(pi j / n) mapped onto [a, b], starting at
    n = 16 and doubling n; the grids are nested, so each doubling calls
    ``fn`` once, on the new odd-index points only.  A row's coefficients
    c_k come from the FFT of the even extension of its samples.  A row is
    resolved when the largest |c_k| over the top quarter is at or below
    ``tol``, or when its coefficients end in a round-off plateau
    (``_plateau``) at this size and the one before; it stays resolved, with
    the tail of the size that resolved it, while the table grows for the
    rows still open.  Past 513 points QuadratureError names the first row
    still open.

    Returns ``(table, tails)``: the (k, n + 1) samples at cos(pi j / n),
    j = 0..n, read by ``_cheb_read``, and ``tails[i]``, the figure at
    which row i stopped: its largest top-quarter |c_k|, or at a plateau the
    sum of |c_k| over it, floored at 8 eps sum |c_k| (the samples'
    round-off, amplified by the Lebesgue constant, below 5 at 513 points,
    plus the round-off of the reader).  A tail is not a bound on the
    interpolant's error.  Read at 399 points off the samples, a quarter of
    the log G rows of a ``fixed_tau_paths`` pass err above their tail, by
    up to 30 times, and the oracle's log P table on the axis of the
    mollified m = 2 model at rel_tol 1e-10 errs by 5.1e-12 against a
    tail of 2.3e-13; every row measured stayed within ``tol`` (at most
    0.54 ``tol``).
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    n = 16
    vals = fn(mid + half * np.cos(np.pi * np.arange(n + 1) / n))
    k = vals.shape[0]
    tails = np.empty(k)
    done = np.zeros(k, dtype=bool)
    flat_before = np.zeros(k, dtype=bool)
    while True:
        ext = np.concatenate((vals, vals[:, -2:0:-1]), axis=1)
        c = np.fft.rfft(ext, axis=1).real[:, : n + 1] / n
        c[:, 0] *= 0.5
        c[:, n] *= 0.5
        floor = 8.0 * np.finfo(float).eps * np.sum(np.abs(c), axis=1)
        tail = np.max(np.abs(c[:, (3 * n) // 4 :]), axis=1)
        # only open rows that miss tol look for a plateau (a zero row has none)
        look = ~done & (tail > tol)
        j = np.zeros(k, dtype=int)
        j[look] = _plateau(c[look])
        flat = j > 0
        est = tail.copy()
        for i in np.flatnonzero(flat):
            est[i] = np.sum(np.abs(c[i, j[i] :]))
        now = ~done & ((tail <= tol) | (flat & flat_before))
        tails[now] = np.maximum(est, floor)[now]
        done |= now
        if done.all():
            return vals, tails
        if n >= 512:
            i = np.flatnonzero(~done)[0]
            raise QuadratureError(
                f"Chebyshev table row {i} on [{a!r}, {b!r}] did not resolve "
                f"at {n + 1} points: tail {tail[i]:.3e} (requested {tol:.1e})"
            )
        flat_before = flat
        new = np.empty((k, 2 * n + 1))
        new[:, 0::2] = vals
        new[:, 1::2] = fn(mid + half * np.cos(np.pi * np.arange(1, 2 * n, 2) / (2 * n)))
        vals = new
        n *= 2


def _plateau(c: np.ndarray) -> np.ndarray:
    """Start of a round-off plateau in each row of the Chebyshev
    coefficients ``c`` (k, n + 1), or 0 where a row has none.

    Aurentz & Trefethen's plateau test ("Chopping a Chebyshev series", 2017)
    at tolerance eps: with e_j = max_{k >= j} |c_k| / max |c_k|, the plateau
    starts at the first j with e_j2 >= 3 (1 - log e_j / log eps) e_j, where
    j2 = round(1.25 j + 5) is still a coefficient.  The factor is below 1
    only where e_j < eps^(2/3), so coefficients still decaying, or flat above
    that level, give 0.
    """
    env = np.maximum.accumulate(np.abs(c)[:, ::-1], axis=1)[:, ::-1]
    e = env / env[:, :1]
    n1 = c.shape[1]
    j = np.arange(1, n1)
    j2 = np.rint(1.25 * j + 5.0).astype(int)
    j, j2 = j[j2 < n1], j2[j2 < n1]
    eps = np.finfo(float).eps
    r = 3.0 * (1.0 - np.log(np.maximum(e[:, j], np.finfo(float).tiny)) / math.log(eps))
    flat = e[:, j2] >= r * e[:, j]
    return np.where(flat.any(axis=1), j[flat.argmax(axis=1)], 0)


@lru_cache(maxsize=8)
def _lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The points cos(pi k / n), k = 0..n, and their barycentric weights."""
    w = np.ones(n + 1)
    w[1::2] = -1.0
    w[[0, n]] *= 0.5
    return np.cos(np.pi * np.arange(n + 1) / n), w


def _cheb_read(table: np.ndarray, a: float, b: float, t: np.ndarray) -> np.ndarray:
    """The interpolants of a ``_cheb_table`` table (k, n + 1) on [a, b] at
    the points ``t``: an array (k, t.size).

    The barycentric formula on the Chebyshev-Lobatto points (Berrut &
    Trefethen, SIAM Review 46, 2004): one points x samples matrix,
    contracted with every row by ``np.einsum``, not BLAS, so reruns are
    bit-identical.  A point on a sample gives that sample.
    """
    x = (2.0 * t - a - b) / (b - a)
    nodes, w = _lobatto(table.shape[1] - 1)
    q = np.subtract.outer(x, nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(w, q, out=q)
        vals = np.einsum("ij,kj->ki", q, table) / np.einsum("ij->i", q)
    bad = np.isnan(vals)
    if bad.any():
        r, j = np.nonzero(bad)
        hit = x[j, None] == nodes
        vals[bad] = np.where(hit.any(axis=1), table[r, hit.argmax(axis=1)], np.nan)
    return vals


def _tilt_reach(tilt, m: int) -> np.ndarray:
    """The v_max of ``_log_P``'s W-grids at the tilts (k,), one grid per
    distinct value: 10 past the v where 0.75 a v^(2m/(2m-1)) = D + |tilt| v,
    a = ``growth_constant_a(m)``, D = ``_TRUNCATION_DEPTH`` + 16.  In
    sigma = (v / v0)^(1/(2m-1)), v0 the zero tilt's v, one ``_bracket_root``
    call solves sigma - sigma^(1-2m) = |tilt| v0 / D for all tilts; a zero
    tilt reads sigma = 1 and gets v0 + 10, so on the axis every u shares
    one grid."""
    m2 = 2 * m
    rate = 0.75 * (m2 ** (-1.0 / (m2 - 1)) - m2 ** (-m2 / (m2 - 1.0)))
    depth = _TRUNCATION_DEPTH + 16.0
    v0 = (depth / rate) ** ((m2 - 1.0) / m2)
    c = np.abs(tilt) * v0 / depth
    sigma = _bracket_root(lambda s: s - s ** (1 - m2), c, 1.0, 1.0 + c,
                          lambda s: 1.0 + (m2 - 1) * s**-m2)
    return v0 * sigma ** (m2 - 1) + 10.0


def _log_P(
    ghat, u: np.ndarray, tilt: np.ndarray, m: int, even: bool = False
) -> tuple[np.ndarray, int]:
    """log P(x, u) = log int exp(tilt * v) / phi(v, 1/u) dv at the u and
    tilts (k,): L = log phi tilted by ``tilt``, and the number of points
    evaluated.  Each u's L is a row of a ``_WGrid``, one grid per distinct
    reach of the tilts (one ``_tilt_reach`` call; one grid on the axis,
    where every reach is the zero tilt's); a tilted row's peak takes
    Newton steps on its row's ``_WGrid.slope``, read once a point for both
    L' and L'' (0 for a zero tilt: on the axis no search runs), each grid's
    ``log_phi`` reads its rows' A, and one ``ProfileGrid`` build and one
    ``log_G`` call sum all the rows' phases, each read on its row's grid.

    With ``even`` (ghat is even) and every tilt 0, phi(v) = phi(-v): the
    phase is read at |v|, each distinct (row, |v|) of a call once, by one
    sort, so the two sides of a P-grid row are exact mirrors (the W-grid's
    sums at v and -v differ in the last bits at about a fifth of the
    tilts).  The count still counts every P-grid point."""
    u, tilt = np.asarray(u, dtype=float), np.asarray(tilt, dtype=float)
    reach, grid = np.unique(_tilt_reach(tilt, m), return_inverse=True)
    rows = [np.flatnonzero(grid == g) for g in range(reach.size)]
    wgs = [_WGrid(ghat, 1.0 / u[j], vm, 2 * m) for j, vm in zip(rows, reach.tolist())]
    slot = np.empty(u.size, dtype=int)  # each u's row on its grid
    for j in rows:
        slot[j] = np.arange(j.size)

    def log_phi(v, i):
        out, gi = np.empty(v.size), grid[i]
        for g, wg in enumerate(wgs):
            on = gi == g
            out[on] = wg.log_phi(v[on], slot[i[on]])
        return out

    last = {}  # the last point read and its (L', L''): one slope read a point

    def slope(v, j, d):
        key = (j, v.tobytes())
        if key not in last:
            last.clear()
            last[key] = wgs[grid[j]].slope(v, slot[j])
        return last[key][d]

    v_star = np.zeros(u.size)
    for j in np.flatnonzero(tilt):
        v_star[j] = _bracket_root(lambda v: slope(v, j, 0), tilt[j], -1.0, 1.0,
                                  lambda v: slope(v, j, 1))
    A = log_phi(v_star, np.arange(u.size)) - tilt * v_star

    def phase(v, i):
        return log_phi(v, i) - tilt[i] * v - A[i]

    def folded(v, i):
        # each distinct (row, |v|) once, in one sort of the points
        a = np.abs(v)
        order = np.lexsort((a, i))
        a, i = a[order], i[order]
        new = np.ones(a.size, dtype=bool)
        new[1:] = (a[1:] != a[:-1]) | (i[1:] != i[:-1])
        out = np.empty(a.size)
        out[order] = (log_phi(a[new], i[new]) - A[i[new]])[np.cumsum(new) - 1]
        return out

    pg = ProfileGrid(folded if even and not tilt.any() else phase, v_star, 1.0, 1.0)
    n = sum(wg.n for wg in wgs)
    return pg.log_G(np.ones((u.size, 1)))[:, 0] - A, n + pg.n_evals


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
    when u_floor is 0).  P grows like e^{f(x) u^(2m)}, so the integrand
    decays like e^{-d u^(2m)} with d = y - f(x), the point's height over
    the boundary, and u_hi is where that falls below the truncation depth.
    P does not depend on y, and log P is smooth in t, so each call
    tabulates it once: a one-row Chebyshev table in t (``_cheb_table``)
    sized until its coefficient tail is at most rel_tol / 10, or until the
    coefficients level off at log P's own round-off (near 2e-13 on the
    mollified m = 2 model, so from rel_tol 1e-12 down), usually 65 or 129
    u.  Each level's new u go to ``_log_P`` in chunks of at most
    ``_U_CHUNK``: one ``_WGrid`` per distinct reach of the chunk's tilts,
    with a row per u (one grid on the axis, one a u off it), one
    ``ProfileGrid`` build of the chunk's tilted phases and one ``log_G``
    call, with phi read at every tilt the grid asks for through its row's
    factored sum, P + 15 exps a tilt on P panels, which takes most of the
    table's time.  A row's value depends on its own u and tilt alone, so
    the table is the one of a ``_log_P`` call per u: bit for bit on the
    axis, where every tilt is 0 and every row is on one grid; there, on
    an even domain, the W-grid sums each (row, |v|) once, about half the
    P-grid's points.
    The chunks and ``_WGrid``'s blocks of ``_W_BLOCK`` terms bound a
    call's memory: a ``tracemalloc`` peak near 2 MB on the mollified m = 2
    model at (0, 2^-10), rel_tol 1e-10 and 1e-12.  The adaptive
    u-integral then reads the table.
    ``err_estimate`` is the integral's relative error, plus 0.5 rel_tol for
    the truncation and the table, plus the table's tail (an absolute error
    of log P is a relative error of Kbar).  The tail is the table's
    stopping figure, not its error (``_cheb_table``): on the axis at
    rel_tol 1e-10 the table errs by 5.1e-12 against a tail of 2.3e-13,
    within its tolerance rel_tol / 10, which the 0.5 rel_tol covers.
    ``evaluations`` counts the W-grid and profile grid points of the
    tabulated ``_log_P`` calls, folded or not, and the integral's rule
    points.
    """
    cfg = cfg or QuadratureConfig()
    if not f.is_mollified:
        raise DomainError("bergman_normalized requires a mollify() output")
    f.require_interior(p)
    m = f.m
    m2 = 2 * m
    g0 = f.g0
    scale = g0 ** (-1.0 / m2)

    def ghat(xhat):
        return f.g(scale * np.asarray(xhat, dtype=float)) / g0

    if not (math.isfinite(u_floor) and u_floor >= 0):
        raise DomainError(f"u_floor must be finite and >= 0, got {u_floor!r}")
    x, y = float(p.x), float(p.y)
    u_hi = ((_TRUNCATION_DEPTH + 13.0) / (y - f.f(x))) ** (1.0 / m2)
    if u_floor > 0 and u_floor >= u_hi:
        raise DomainError("u_floor is beyond the truncation range for this y")
    t_lo = math.log(u_floor) if u_floor > 0 else -12.0
    t_hi = math.log(u_hi)
    nev = [0]

    def log_P(ts):
        # libm's e^t, the u of a float t: numpy's exp differs from it in
        # the last bit at about 4% of points
        u = np.array([math.exp(t) for t in ts.tolist()])
        out = np.empty(ts.size)
        for j in range(0, ts.size, _U_CHUNK):
            c = slice(j, j + _U_CHUNK)
            out[c], ne = _log_P(ghat, u[c], g0 ** (1.0 / m2) * x * u[c], m, f.is_even)
            nev[0] += ne
        return out

    table, (tail,) = _cheb_table(lambda ts: log_P(ts)[None, :], t_lo, t_hi, 0.1 * cfg.rel_tol)

    def rows(t):
        lp = _cheb_read(table, t_lo, t_hi, t)
        return -y * np.exp(m2 * t) + lp + (2 * m2 + 2) * t

    n_init = max(14, int((t_hi - t_lo) / 0.1))
    lv, re, ne = log_adaptive_multi(rows, t_lo, t_hi, rel_tol=cfg.rel_tol, init=n_init)
    nev[0] += ne
    if not (re[0] <= 20.0 * cfg.rel_tol):
        raise QuadratureError(
            f"normalized representation did not converge: achieved {re[0]:.3e}"
        )
    pref = math.log(m2) + math.log(g0) / m - 2.0 * math.log(4.0 * math.pi)
    return _pack_value(
        lv[0] + pref, re[0] + 0.5 * cfg.rel_tol + tail, nev[0], "bergman"
    )
