"""Kernel quadrature: profile integrals, the D oracle, and both kernels."""

from __future__ import annotations

import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma

from tubekernels import (
    ApproachPath,
    BlowupChart,
    BoundaryRelativePoint,
    DefiningFunction,
    DomainError,
    PhiSpline,
    PolarPoint,
    QuadratureConfig,
    QuadratureError,
    bergman_normalized,
    blended_linear_domain,
    compute_D,
    damp_tails,
    direct_pair,
    from_polar,
    log_L,
    model_domain,
    mollify,
    rational_domain,
)
from tubekernels import asymptotics, quadrature
from tubekernels.experiments import path_points
from tubekernels.quadrature import (
    WGK,
    XGK,
    ProfileGrid,
    _COARSE_RULE,
    _GAUSS_RULE,
    _KRONROD_RULE,
    _MAX_PANELS,
    _PEAK_DROP,
    _TRUNCATION_DEPTH,
    _PanelRule,
    _WGrid,
    _bracket_root,
    _cheb_read,
    _cheb_table,
    _inner_edge,
    _log_P,
    _logsumexp,
    log_adaptive_multi,
)

# frozen at rel_tol = 1e-12; the suite reruns at looser settings and must land
# inside these to ~1e-7
K4_AXIS = 0.02175172310013568  # K(0, 1), f = x^4
S4_AXIS = 0.014501148723162648  # S(0, 1), f = x^4
K4_OFF = 0.04943513323543007  # K(0.4, 0.9)
S4_OFF = 0.0257664688504766  # S(0.4, 0.9)
D4_ORACLE = 1.7959267415781637  # D(0.3, 1.1), f = x^4


def _full_line(f: DefiningFunction) -> DefiningFunction:
    """f rebuilt with ``is_even`` False, so that ``direct_pair`` integrates
    the whole outer line on the axis too, as on a domain that is not even."""
    return DefiningFunction(
        f.m, f._f, f._fp, f._fpp, f._g, f._gp,
        label=f.label,
        full_theorem_class=f.full_theorem_class,
        tail_slopes=f.tail_slopes,
        is_mollified=f.is_mollified,
        is_even=False,
    )


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="rel_tol"):
            QuadratureConfig(rel_tol=bad)


def test_adaptive_rescales_past_a_missed_peak():
    # the first pass samples this cusp far below its peak; the running offset
    # must follow the refined panels up by thousands of e-folds
    c = 0.5303
    lv, _, _ = log_adaptive_multi(
        lambda x: np.atleast_2d(3000.0 - 3e5 * np.abs(x - c)),
        0.0, 1.0, init=8, rel_tol=1e-9,
    )
    exact = 3000.0 + math.log((2.0 - math.exp(-3e5 * c) - math.exp(-3e5 * (1.0 - c))) / 3e5)
    assert abs(math.expm1(lv[0] - exact)) <= 1e-6


def test_nan_or_infinite_integrand_is_not_converged():
    # the inputs are NaN, infinite or zero on purpose, so numpy's warnings are too
    with np.errstate(invalid="ignore", divide="ignore"):
        rows = _logsumexp(np.array([[-np.inf, -np.inf], [np.nan, 0.0], [np.inf, 0.0], [0.0, 0.0]]))
        assert rows[0] == -np.inf and np.isnan(rows[1]) and np.isnan(rows[2])
        assert math.isclose(rows[3], math.log(2.0), rel_tol=1e-15)
        for bad in (np.nan, np.inf):
            _, re, _ = log_adaptive_multi(
                lambda x: np.atleast_2d(np.where(x > 0.5, bad, 0.0)), 0.0, 1.0
            )
            assert not (re[0] <= 1e-6)
        lv, re, _ = log_adaptive_multi(
            lambda x: np.atleast_2d(np.full_like(x, -np.inf)), 0.0, 1.0
        )
        assert lv[0] == -np.inf and re[0] == np.inf


def test_zero_integrand_is_minus_inf_without_a_warning():
    # no errstate: a zero integrand is a documented input, not an accident
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lv, re, _ = log_adaptive_multi(
            lambda x: np.atleast_2d(np.full_like(x, -np.inf)), 0.0, 1.0
        )
    assert lv[0] == -np.inf and re[0] == np.inf


def test_adaptive_refines_the_worst_row():
    # row 0 converges on the first pass; only row 1's narrow peak needs work
    c = 0.5303
    lv, _, n = log_adaptive_multi(
        lambda x: np.vstack([np.zeros_like(x), 50.0 - 5e4 * (x - c) ** 2]),
        0.0, 1.0, init=8, rel_tol=1e-9,
    )
    assert n <= 600
    assert math.isclose(lv[1], 50.0 + math.log(math.sqrt(math.pi / 5e4)), rel_tol=1e-9)


def test_adaptive_rows_do_not_see_each_other():
    # six smooth rows, resolved by the initial panels: one 6-row call gives
    # each row's one-row value and error bit for bit
    peaks = (0.2, 0.35, 0.5, 0.6, 0.75, 0.9)

    def rows(x):
        return np.vstack([3.0 * j - 4.0 * (x - c) ** 2 for j, c in enumerate(peaks)])

    lv, re, n = log_adaptive_multi(rows, 0.0, 1.0, init=8, rel_tol=1e-6)
    assert n == 15 * 8
    for j in range(len(peaks)):
        one, one_re, one_n = log_adaptive_multi(
            lambda x: rows(x)[j : j + 1], 0.0, 1.0, init=8, rel_tol=1e-6
        )
        assert one_n == n and one[0] == lv[j] and one_re[0] == re[j], j
    # a row e^-800 below another keeps its own scale and a finite value
    lv, re, _ = log_adaptive_multi(
        lambda x: np.vstack([-x * x, -800.0 - x * x]), 0.0, 1.0, init=8, rel_tol=1e-9
    )
    assert math.isfinite(lv[1]) and abs(lv[1] - (lv[0] - 800.0)) <= 1e-12
    assert re[1] <= 1e-9


def test_adaptive_stops_at_its_panel_budget():
    # a request no error can meet runs to the budget, exactly, and reports
    # the error it reached
    lv, re, n = log_adaptive_multi(lambda x: -x * x, -1.0, 1.0, rel_tol=0.0)
    assert n == _MAX_PANELS * 15 == 36000
    assert 0 < re[0] <= 1e-13
    assert math.isclose(lv[0], math.log(math.sqrt(math.pi) * math.erf(1.0)), rel_tol=1e-14)


def test_adaptive_stops_at_its_panel_width_floor():
    # a jump at 1/3 is never resolved: the panel around it halves down to the
    # width floor, where refinement stops long before the budget
    lv, re, n = log_adaptive_multi(
        lambda x: np.where(x < 1.0 / 3.0, 0.0, -np.inf), 0.0, 1.0, rel_tol=1e-20
    )
    assert n == 1500 < _MAX_PANELS * 15
    assert 1e-20 < re[0] <= 1e-13
    assert abs(lv[0] - math.log(1.0 / 3.0)) <= 1e-13


def test_search_loops_are_capped():
    t0 = time.perf_counter()
    with pytest.raises(QuadratureError):
        _bracket_root(lambda x: 1.0, -1.0, 1.0)
    with pytest.raises(QuadratureError):
        ProfileGrid(lambda xi, i: 1.0 - np.exp(-(xi**2)), 0.0, 0.01, 0.01)
    # the phase saturates between c_min and c_max; the search stops at a
    # finite distance, before anything overflows
    with pytest.raises(QuadratureError, match="c_max") as info:
        with np.errstate(over="raise", invalid="raise"):
            ProfileGrid(lambda xi, i: 1.0 - np.exp(-(xi**2)), 0.0, 1.0, 1.0)
    dist = re.search(r"\|xi - xi_star\| = (\S+)", str(info.value)).group(1)
    assert math.isfinite(float(dist))
    assert time.perf_counter() - t0 < 1.0
    root = _bracket_root(lambda x: x**3 - 2.0, -1.0, 1.0)
    assert math.isclose(root, 2.0 ** (1 / 3), rel_tol=1e-14)


def test_bracket_root_is_elementwise():
    # 200 monotone cubics whose roots lie left or right of their brackets,
    # 50 with roots inside, 20 with roots on the first midpoint (where fn is
    # exactly 0) and 10 with brackets already converged: one array call must
    # take, element by element, a scalar call's steps
    rng = np.random.default_rng(20)
    n = 200
    a = rng.uniform(-1.0, 0.0, n + 80)
    b = a + rng.uniform(0.01, 1.0, n + 80)
    b[-10:] = a[-10:] + 1e-15
    roots = np.concatenate(
        [
            rng.uniform(-60.0, -2.0, n // 2),
            rng.uniform(2.0, 60.0, n // 2),
            rng.uniform(a[n : n + 50], b[n : n + 50]),
            0.5 * (a[n + 50 : n + 70] + b[n + 50 : n + 70]),
            a[-10:],
        ]
    )
    slopes = rng.uniform(0.1, 10.0, roots.size)

    def cubic(x, r, k):
        d = x - r
        return k * d + d * d * d

    got = _bracket_root(lambda x: cubic(x, roots, slopes), a, b)
    seen = set()

    def scalar_fn(x, r, k):
        seen.add(type(x))
        return cubic(x, r, k)

    for i in range(roots.size):
        r, k = float(roots[i]), float(slopes[i])
        one = _bracket_root(lambda x: scalar_fn(x, r, k), float(a[i]), float(b[i]))
        assert type(one) is float
        assert one == got[i], i
    assert seen == {float}
    assert np.max(np.abs(got - roots)) < 1e-12

    # one element without a sign change fails the whole call, by name
    const = np.array([0.0, 1.0, 0.0])
    with pytest.raises(QuadratureError, match=r"no sign change on \[.*\]: values 1.0, 1.0"):
        _bracket_root(lambda x: np.where(const > 0, 1.0, x - 0.5), -np.ones(3), np.ones(3))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(1e-3, 1e3), st.floats(1.0, 8.0), st.floats(1e-10, 1e2), st.floats(1.01, 1e8)
        ),
        min_size=1,
        max_size=12,
    )
)
def test_inner_edge_is_the_first_fine_rung_reaching_c_min(rows):
    # one call finds the inner edges and the outer x4 brackets of a batch of
    # rows c_r(u) = a u^p, with c_max = c_min times a factor
    a, p, c_min, factor = (np.array(col) for col in zip(*rows))
    c_max = c_min * factor
    seen_r, seen_u = [], []

    def c_rungs(r, u):
        u = np.broadcast_to(u, (r.size, np.shape(u)[-1]))
        seen_r.append(np.broadcast_to(r[:, None], u.shape).ravel())
        seen_u.append(u.ravel())
        return a[r, None] * u ** p[r, None]

    u, hi, n = _inner_edge(c_rungs, c_min, c_max, np.zeros(len(rows)))
    rs, us = np.concatenate(seen_r), np.concatenate(seen_u)
    assert n == us.size
    for i in range(len(rows)):
        # c(u) >= c_min > c(u / 4^(1/16)), both read off the rungs evaluated
        mine = us[rs == i]
        below = mine[mine < u[i]]
        assert math.isclose(below.max(), u[i] / 4.0 ** (1 / 16), rel_tol=1e-14)
        assert a[i] * u[i] ** p[i] >= c_min[i] > a[i] * below.max() ** p[i]
        assert u[i] in mine
        # hi is an x4 rung evaluated at c_max, and the x4 rung below it was
        # evaluated and missed
        assert hi[i] in mine and hi[i] == 4.0 ** round(math.log(hi[i], 4.0))
        assert a[i] * hi[i] ** p[i] >= c_max[i] > a[i] * (hi[i] / 4.0) ** p[i]
        assert hi[i] / 4.0 in mine


@pytest.mark.parametrize("scale", [1e5, 2.2e10, 1e40])
def test_inner_edge_moves_its_first_block_with_xi_star(scale):
    # rows c(u) = (u/scale)^2 at a peak xi_star = -scale, a phase of
    # power-like tails tilted far out: their first block, moved up with
    # |xi_star|, holds both edges, and the edges are the ones found from
    # the block of a peak at 0
    c_min, c_max = np.array([1e-3, 0.5]), np.array([1e5, 1e4])
    calls = []

    def c_rungs(r, u):
        calls.append(r.size)
        return (np.broadcast_to(u, (r.size, np.shape(u)[-1])) / scale) ** 2

    u, hi, n = _inner_edge(c_rungs, c_min, c_max, np.full(2, -scale))
    assert len(calls) == 2
    u0, hi0, n0 = _inner_edge(c_rungs, c_min, c_max, np.zeros(2))
    assert u.tolist() == u0.tolist() and hi.tolist() == hi0.tolist()
    assert len(calls) > 4 and n < n0


def test_direct_pair_grids_find_their_inner_edges_in_two_calls(monkeypatch):
    # this point's 150 zetas, all the full outer line's (the width search
    # builds no grid), have grids that cross c_min and c_max within their
    # first x4 blocks, c_min below u = 1 at small |zeta| and above it at
    # large |zeta|, out to the double-exponential tails' |zeta| = 4.4e10,
    # whose blocks move up with |xi_star|: a build of a chunk's phases makes
    # two calls for the edges, one for the RATIO rungs and one for the
    # nodes; so do log_L's chunks and the grid of each _log_P
    builds = []  # per build: [c_fn calls, phases]

    class Counted(ProfileGrid):
        def __init__(self, c_fn, xi_star, *args, **kwargs):
            builds.append([0, np.size(xi_star)])

            def counted(*a):
                builds[-1][0] += 1
                return c_fn(*a)

            super().__init__(counted, xi_star, *args, **kwargs)

    monkeypatch.setattr(quadrature, "ProfileGrid", Counted)
    monkeypatch.setattr(asymptotics, "ProfileGrid", Counted)
    cfg = QuadratureConfig(rel_tol=1e-7)
    direct_pair(_full_line(model_domain(1)), BoundaryRelativePoint(0.0, 0.25), cfg)
    assert sum(k for _, k in builds) >= 150
    assert max(k for _, k in builds) == quadrature._ZETA_CHUNK
    assert max(n for n, _ in builds) <= 4
    for m, u_max in ((1, 30.0), (3, 8.0)):
        # the spline's log_phi build is a build too, of k = 1
        phis = asymptotics._phi_spline_for(m, u_max)
        builds.clear()
        log_L(np.linspace(0.0, u_max, 300), phis)
        assert len(builds) == 5 and max(k for _, k in builds) == asymptotics._L_CHUNK, m
        assert max(n for n, _ in builds) <= 4, m
    builds.clear()
    _, ghat = _mollified_w_grid(0.5, 60.0)
    for tilt in (0.0, 0.8, -3.0):
        _log_P(ghat, 2.0, tilt, 2)
    assert len(builds) == 3 and max(n for n, _ in builds) <= 4


def _row_by_row_grid(c_side, xi_star, eta_lo, eta_hi, rule=_KRONROD_RULE):
    """(dc, w, c_low, n_evals) of one phase's grid, built side by side and
    rung by rung as the one-grid build did: the reference the batched
    build must equal bit for bit."""
    ratio = rule.ratio
    c_min = ProfileGrid.C_SMALL / eta_hi
    c_max = _TRUNCATION_DEPTH / eta_lo
    c_parts, w_parts, nev = [], [], 0
    for side in (-1.0, +1.0):

        def c(u):
            return c_side(xi_star + side * u)

        k, up = np.arange(-7, 3), False
        while True:
            us = 4.0**k
            hit = c(us) >= c_min
            nev += us.size
            if hit[0] and not up and k[0] > quadrature._K_DOWN:
                k = np.arange(max(k[0] - 8, quadrature._K_DOWN), k[0] + 1)
            elif hit.any():
                break
            else:
                assert k[-1] < quadrature._K_UP
                up, k = True, np.arange(k[-1] + 1, min(k[-1] + 9, quadrature._K_UP + 1))
        i = hit.argmax()
        fine = 0.25 * float(us[i]) * 4.0 ** (np.arange(0 if i == 0 and not up else 1, 16) / 16)
        hit = c(fine) >= c_min
        nev += fine.size
        u0 = float(fine[hit.argmax()] if hit.any() else us[i])
        n_cap = max(math.ceil((math.log(1e60) - math.log(u0)) / math.log(ratio)), 1)
        n_guess = 80
        while True:
            us = u0 * ratio ** np.arange(min(n_guess, n_cap) + 1)
            idx = np.nonzero(c(us) >= c_max)[0]
            nev += us.size
            if idx.size:
                break
            assert n_guess < n_cap
            n_guess *= 2
        edges = np.concatenate(([0.0], us[: idx[0] + 1]))
        h = 0.5 * (edges[1:] - edges[:-1])
        x = 0.5 * (edges[:-1] + edges[1:])[:, None] + h[:, None] * rule.nodes
        c_parts.append(c(x.ravel()))
        w_parts.append((h[:, None] * rule.weights).ravel())
        nev += c_parts[-1].size
    c_all = np.concatenate(c_parts)
    return c_all - c_all.min(), np.concatenate(w_parts), c_all.min(), nev


def _tilted_rows(f, rows):
    """Peaks and offsets of f tilted by -zeta for rows of (zeta, eta_lo, eta_hi)."""
    zetas, lo, hi = (np.array(col) for col in zip(*rows))
    xi_s, A = quadrature._tilted_peak(f.f, f.fprime, -zetas)
    return quadrature._tilted(f.f, -zetas, A), xi_s, lo, hi


def _w_grid_rows(rows):
    """The tilted log phi of a mollified m = 2 W-grid for rows of (tilt, eta_lo, eta_hi)."""
    wg, _ = _mollified_w_grid(0.5, 60.0)
    tilts, lo, hi = (np.array(col) for col in zip(*rows))

    def slope(v):
        return (wg.log_phi(v + 1e-5) - wg.log_phi(v - 1e-5))[0] / 2e-5

    v_s = np.array([_bracket_root(lambda v: slope(v) - t, -1.0, 1.0) for t in tilts])
    return quadrature._tilted(wg.log_phi, tilts, wg.log_phi(v_s) - tilts * v_s), v_s, lo, hi


# (zeta or tilt, eta_lo, eta_hi): both edges reached from the first x4
# block, an inner edge found going down (large eta_hi), one going up (tiny
# eta_hi or a steep tilt) and an outer edge far out (tiny eta_lo); the
# model-m1 batch also holds a row that goes down for c_min and up for c_max
# at once, and one whose c_max lies below the first block
_BATCHES = {
    "model-m1": lambda: _tilted_rows(
        model_domain(1),
        [
            (0.0, 1e-4, 50.0), (0.7, 1e-2, 1e20), (-40.0, 1e-32, 1e-30), (0.3, 1e-30, 1e2),
            (0.2, 1e-30, 1e20), (-0.5, 1e12, 1e20),
        ],
    ),
    "model-m2": lambda: _tilted_rows(
        model_domain(2),
        [(0.0, 1e-4, 50.0), (0.7, 1.0, 1e20), (-40.0, 1e-10, 1e-8), (0.3, 1e-200, 1e2)],
    ),
    "rational-m2": lambda: _tilted_rows(
        rational_domain(2),
        [(0.0, 1e-4, 50.0), (0.7, 1.0, 1e20), (-2.0, 1e-8, 1e-6), (0.3, 1e-30, 1e2)],
    ),
    "mollified-m2": lambda: _tilted_rows(
        mollify(model_domain(2), 0.1),
        [(0.0, 1e-2, 3e3), (0.3, 1.0, 1e20), (-1.0, 1e-10, 1e-8), (0.7, 1e-60, 1e2)],
    ),
    "blended-m2": lambda: _tilted_rows(
        blended_linear_domain(2),
        [(0.0, 1e-4, 50.0), (0.5, 1.0, 1e20), (-0.9, 1e-8, 1e-6), (0.3, 1e-30, 1e2)],
    ),
    "w-grid": lambda: _w_grid_rows(
        [(0.0, 1.0, 1.0), (0.8, 1.0, 1e12), (-1.2, 1e-4, 1e-3), (1.0, 1e-40, 1.0)]
    ),
    # a phase with a kink at xi_star: its ladder stops at its floor
    "floor": lambda: (lambda xi, i: np.sqrt(np.abs(xi)), np.array([0.0]), 1e100, 1e200),
}


def _counted(c_fn):
    """c_fn, and a list that it extends by the number of points of each call."""
    sizes = []

    def counted(xi, i):
        sizes.append(np.size(xi))
        return c_fn(xi, i)

    return counted, sizes


@pytest.mark.parametrize("make", list(_BATCHES.values()), ids=list(_BATCHES))
def test_batched_build_equals_one_row_builds(make):
    c_fn, xi_s, eta_lo, eta_hi = make()
    eta_lo, eta_hi = np.broadcast_to(eta_lo, xi_s.shape), np.broadcast_to(eta_hi, xi_s.shape)
    counted, sizes = _counted(c_fn)
    grids = ProfileGrid(counted, xi_s, eta_lo, eta_hi)
    k = xi_s.size
    assert grids.dc.shape == grids.w.shape and grids.dc.shape[0] == k
    assert grids.c_low.shape == (k, 1)
    assert grids.n_evals == sum(sizes)
    total = 0
    for i in range(k):

        def c_one(xi, j):  # phase i alone, as the one phase of a k = 1 build
            return c_fn(xi, j + i)

        def c_side(xi):
            return c_fn(xi, np.full(xi.shape, i))

        dc, w, c_low, n_evals = _row_by_row_grid(c_side, xi_s[i], eta_lo[i], eta_hi[i])
        n = dc.size
        assert grids.dc[i, :n].tolist() == dc.tolist() and grids.w[i, :n].tolist() == w.tolist(), i
        assert not grids.dc[i, n:].any() and not grids.w[i, n:].any(), i
        assert grids.c_low[i, 0] == c_low, i
        total += n_evals
        # a k = 1 build from a float xi_star, with each rule: the default,
        # the coarse grid of compute_D's error estimate and direct_pair's
        # Gauss rule, by the same build; each evaluates no more points than
        # the rung-by-rung search did
        for rule in (_KRONROD_RULE, _COARSE_RULE, _GAUSS_RULE):
            dc, w, c_low, n_evals = _row_by_row_grid(
                c_side, xi_s[i], eta_lo[i], eta_hi[i], rule=rule
            )
            counted, sizes = _counted(c_one)
            args = (counted, float(xi_s[i]), float(eta_lo[i]), float(eta_hi[i]))
            one = ProfileGrid(*args, rule=rule)
            assert one.dc.shape == one.w.shape == (1, dc.size) and one.c_low.shape == (1, 1), i
            assert one.dc[0].tolist() == dc.tolist() and one.w[0].tolist() == w.tolist(), i
            assert one.c_low[0, 0] == c_low, i
            assert one.n_evals == sum(sizes) <= n_evals, i
    assert grids.n_evals <= total


def test_batched_build_covers_every_search_branch(monkeypatch):
    # the model-m1 rows of the equality test above do reach the branches
    # they name: each row's c_min bracket (lo/4, lo] and first x4 rung at
    # c_max lie in, below or above the first x4 block
    c_fn, xi_s, lo, hi = _BATCHES["model-m1"]()
    edges = []
    real = quadrature._inner_edge

    def recorded(*args):
        edges.append(real(*args))
        return edges[-1]

    monkeypatch.setattr(quadrature, "_inner_edge", recorded)
    counted, sizes = _counted(c_fn)
    ProfileGrid(counted, xi_s, lo, hi)
    u0, hi4, _ = edges[0]
    block = quadrature._K_FIRST

    def where(k):
        return np.where(k < block[0], "down", np.where(k > block[-1], "up", "first")).tolist()

    assert where(np.ceil(np.log(u0[::2]) / math.log(4.0))) == [
        "first", "down", "up", "first", "down", "down"
    ]
    assert where(np.rint(np.log(hi4[::2]) / math.log(4.0))) == [
        "first", "first", "up", "up", "up", "down"
    ]
    # the first block, one block down, three up, the fine rungs, the RATIO
    # rungs and the nodes
    assert len(sizes) == 8
    # a kink at xi_star: the inner edge, the first panel's width, sits one
    # x4 rung below the floor, and the ladder runs past 320 rungs
    one = ProfileGrid(lambda xi, i: np.sqrt(np.abs(xi)), 0.0, 1e100, 1e200)
    assert one.w[0, :15].sum() == pytest.approx(4.0 ** (quadrature._K_DOWN - 1), rel=1e-14)
    assert one.w.size > 2 * 15 * 320


def test_log_L_float_call_reads_the_row_by_row_grid():
    # a float u is a batch of one: no padding, so log_L's value is the one
    # of a single grid built row by row, bit for bit
    phis = PhiSpline(2, 400.0)
    for u in (0.0, 0.4, 2.7, 3.2):
        v_s, A = quadrature._tilted_peak(phis, phis.deriv, np.array([u]))
        c_fn = quadrature._tilted(phis, np.array([u]), A)
        ref = ProfileGrid.__new__(ProfileGrid)
        dc, w, c_low, _ = _row_by_row_grid(lambda v: c_fn(v, 0), v_s[0], 1.0, 1.0)
        ref.dc, ref.w, ref.c_low = dc[None], w[None], np.array([[c_low]])
        assert log_L(u, phis) == -A[0] + ref.log_G(np.ones((1, 1)))[0, 0], u


def test_batched_build_of_no_phases_is_empty():
    grids = ProfileGrid(lambda xi, i: xi * xi, np.empty(0), 1.0, 1.0)
    assert grids.dc.shape == grids.w.shape == (0, 0) and grids.c_low.shape == (0, 1)
    assert grids.n_evals == 0 and grids.c.size == 0
    assert grids.log_G(np.empty((0, 3))).shape == (0, 3)
    assert log_L(np.empty(0), PhiSpline(2, 64.0)).shape == (0,)


@pytest.mark.parametrize("eta_lo", [1.0, 1e-13, 1e-20])
def test_ratio_ladder_stays_finite_out_to_its_cap(eta_lo):
    # a kink at xi_star puts the inner edge at the ladder floor (u0 near
    # 1e-281), so the ladder runs past the 1,910 rungs at which 1.45^j
    # alone overflows; G(eta) = int exp(-eta |xi|^(1/2)) dxi = 4 / eta^2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = ProfileGrid(lambda xi, i: np.sqrt(np.abs(xi)), 0.0, eta_lo, 1e200)
        etas = np.array([[eta_lo, 1.0, 1e3]])
        got = grid.log_G(etas)[0]
    assert np.isfinite(grid.w).all() and np.isfinite(grid.dc).all()
    want = np.log(4.0 / etas[0] ** 2)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), got - want


@pytest.mark.parametrize(
    "make, zetas, etas, tol",
    [
        (lambda: model_domain(1), (0.0, 0.7, -2.0), (1e-4, 50.0), 1e-14),
        (lambda: model_domain(2), (0.0, 0.7, -2.0), (1e-4, 50.0), 1e-14),
        (lambda: rational_domain(2), (0.0, 0.7, -2.0), (1e-4, 50.0), 1e-14),
        # RATIO 1.45 resolves the mollified profile to about 1e-9 only
        (lambda: mollify(model_domain(2), 0.1), (0.0, 0.3, -1.0, 0.7, -2.0), (1e-2, 3e3), 3e-9),
    ],
    ids=["model-m1", "model-m2", "rational-m2", "mollified-m2"],
)
def test_profile_grid_matches_a_dense_grid_in_few_calls(make, zetas, etas, tol):
    dense_rule = _PanelRule(XGK, WGK, 1.1)
    f = make()
    etas = np.geomspace(*etas, 40)
    for zeta in zetas:
        xi_s = _bracket_root(lambda xi: f.fprime(xi) + zeta, -1.0, 1.0)
        A = f.f(xi_s) + zeta * xi_s
        calls = [0]

        def c_fn(xi, i):
            calls[0] += 1
            return f.f(xi) + zeta * xi - A

        grid = ProfileGrid(c_fn, xi_s, etas[0], etas[-1])
        assert calls[0] <= 4, zeta
        # the linear-space sum against the log-sum-exp over the same nodes
        lse = _logsumexp(np.log(grid.w[0]) - np.multiply.outer(etas, grid.c))
        assert np.max(np.abs(grid.log_G(etas[None])[0] - lse)) <= 1e-13, zeta
        dense = ProfileGrid(c_fn, xi_s, etas[0], etas[-1], rule=dense_rule)
        assert np.max(np.abs(grid.log_G(etas[None]) - dense.log_G(etas[None]))) <= tol, zeta
        # the stiffest frequency of a wide range stays finite
        wide = ProfileGrid(c_fn, xi_s, 1e-4, 1e8)
        assert np.isfinite(wide.log_G(np.array([[1e8]]))).all(), zeta


def test_compute_d_quadratic_closed_form():
    f = model_domain(1)
    for z1 in (-1.0, 0.0, 2.0):
        for z2 in (0.5, 3.0):
            lg, err = compute_D(f, z1, z2)
            want = math.sqrt(math.pi / z2) * math.exp(z1**2 / (4.0 * z2))
            assert math.isclose(math.exp(lg), want, rel_tol=1e-9), (z1, z2)
            assert err < 1e-7


def test_compute_d_quartic_axis_closed_form():
    f = model_domain(2)
    for z2 in (0.7, 2.0):
        lg, _ = compute_D(f, 0.0, z2)
        want = 2.0 * gamma(1.25) * z2**-0.25
        assert math.isclose(math.exp(lg), want, rel_tol=1e-9)


def test_compute_d_against_library_quadrature():
    f = model_domain(2)
    lg, err = compute_D(f, 0.3, 1.1)
    # tails below 1e-30 by |t| = 8, so a finite interval reference is exact
    ref, ref_err = quad(
        lambda t: math.exp(-1.1 * t**4 - 0.3 * t), -8.0, 8.0,
        epsabs=1e-13, epsrel=1e-13,
    )
    assert ref_err < 1e-10 * ref
    assert math.isclose(math.exp(lg), ref, rel_tol=1e-9)
    assert math.isclose(math.exp(lg), D4_ORACLE, rel_tol=1e-10)


def test_compute_d_raises_when_it_misses_its_tolerance():
    # the half-density error carries a 1e-14 floor, so 1e-15 is out of reach
    f = model_domain(1)
    with pytest.raises(QuadratureError, match="measured rel err"):
        compute_D(f, 0.0, 1.0, QuadratureConfig(rel_tol=1e-15))
    _, err = compute_D(f, 0.0, 1.0, QuadratureConfig())
    assert err <= QuadratureConfig().rel_tol


@pytest.mark.parametrize("m, zeta2", [(1, 1e20), (1, 1e30), (1, 1e40), (2, 1e20), (2, 1e60),
                                      (2, 1e100)])
def test_compute_d_is_within_its_claim_or_refuses_a_huge_zeta2(m, zeta2):
    # the peak is found to about 1e-14, so a phase narrower than that is
    # not resolved; D on the axis is 2 Gamma(1 + 1/(2m)) zeta2^(-1/(2m))
    f = model_domain(m)
    cfg = QuadratureConfig(rel_tol=1e-8)
    want = math.log(2.0 * gamma(1.0 + 0.5 / m)) - math.log(zeta2) / (2 * m)
    if zeta2 > 1e20:
        with pytest.raises(QuadratureError, match="resolution of the peak"):
            compute_D(f, 0.0, zeta2, cfg)
    else:
        lg, err = compute_D(f, 0.0, zeta2, cfg)
        assert abs(math.expm1(lg - want)) <= err


def test_compute_d_rejects_frequencies_outside_dual_cone():
    f = blended_linear_domain(2, slope=1.0)
    lg, _ = compute_D(f, 0.5, 1.0)  # |zeta1/zeta2| < 1 is fine
    assert math.isfinite(lg)
    with pytest.raises(DomainError):
        compute_D(f, 1.5, 1.0)
    with pytest.raises(DomainError):
        compute_D(f, 0.0, -2.0)


def test_direct_pair_parabola_closed_forms():
    f = model_domain(1)
    for x, y in ((0.0, 1.0), (0.7, 0.8)):
        K, S = direct_pair(f, BoundaryRelativePoint(x, y))
        d = y - x * x
        assert math.isclose(K.value, 1.0 / (4.0 * math.pi**2 * d**3), rel_tol=5e-7)
        assert math.isclose(S.value, 1.0 / (8.0 * math.pi**2 * d**2), rel_tol=5e-7)
        assert K.kind == "bergman" and S.kind == "szego"
        assert K.evaluations > 0 and S.evaluations > 0
        assert math.isclose(math.exp(K.log_value), K.value, rel_tol=1e-12)


def test_direct_pair_quartic_frozen_values():
    f = model_domain(2)
    K, S = direct_pair(f, BoundaryRelativePoint(0.0, 1.0))
    assert math.isclose(K.value, K4_AXIS, rel_tol=1e-7)
    assert math.isclose(S.value, S4_AXIS, rel_tol=1e-7)
    K, S = direct_pair(f, BoundaryRelativePoint(0.4, 0.9))
    assert math.isclose(K.value, K4_OFF, rel_tol=1e-7)
    assert math.isclose(S.value, S4_OFF, rel_tol=1e-7)


def test_direct_pair_quartic_homogeneity():
    # f = x^4 has no scale: K(0, y) y^(5/2) and S(0, y) y^(3/2) are constant
    f = model_domain(2)
    K1, S1 = direct_pair(f, BoundaryRelativePoint(0.0, 0.25))
    assert math.isclose(K1.value * 0.25**2.5, K4_AXIS, rel_tol=5e-7)
    assert math.isclose(S1.value * 0.25**1.5, S4_AXIS, rel_tol=5e-7)


def test_direct_pair_guards():
    f = model_domain(1)
    with pytest.raises(DomainError):
        direct_pair(f, BoundaryRelativePoint(0.0, -1.0))


def test_error_estimate_tracks_tolerance():
    f = model_domain(1)
    p = BoundaryRelativePoint(0.0, 1.0)
    loose, _ = direct_pair(f, p, QuadratureConfig(rel_tol=1e-5))
    tight, _ = direct_pair(f, p, QuadratureConfig(rel_tol=1e-10))
    assert tight.err_estimate < loose.err_estimate
    want = 1.0 / (4.0 * math.pi**2)
    assert abs(tight.value - want) / want < 1e-9
    assert abs(loose.value - want) / want < 10.0 * loose.err_estimate + 1e-12


def test_bergman_normalized_recovers_direct_kernel():
    f = mollify(model_domain(2), 0.1)
    p = BoundaryRelativePoint(0.03, 0.9)
    cfg = QuadratureConfig(rel_tol=1e-9)
    full = bergman_normalized(f, p, cfg, u_floor=0.0)
    K, _ = direct_pair(f, p, cfg)
    assert math.isclose(full.value, K.value, rel_tol=1e-7)
    assert abs(full.value / K.value - 1.0) <= full.err_estimate + K.err_estimate
    trimmed = bergman_normalized(f, p, cfg)  # default floor at 1
    assert 0.0 < trimmed.value < full.value


def test_bergman_normalized_requires_mollified_domain():
    with pytest.raises(DomainError):
        bergman_normalized(model_domain(2), BoundaryRelativePoint(0.0, 1.0))


@pytest.mark.parametrize("u_floor", [-1.0, math.nan, math.inf])
def test_bergman_normalized_rejects_a_bad_u_floor(u_floor):
    f = mollify(model_domain(2), 0.1)
    with pytest.raises(DomainError, match="u_floor"):
        bergman_normalized(
            f, BoundaryRelativePoint(0.0, 0.25), QuadratureConfig(rel_tol=1e-8), u_floor=u_floor
        )


@pytest.mark.parametrize("m", [1, 2, 3])
def test_log_P_with_a_flat_ghat_is_log_L(m):
    # with ghat = 1, phi(v, X) = phi(v) for every X, so the W-grid's log P
    # and the spline's log L are the same tilted integral
    phis = PhiSpline(m, 256.0)
    for u, tilt in ((1.0, 0.0), (3.0, 0.5), (0.5, -1.5), (2.0, 1.2)):
        got, _ = _log_P(np.ones_like, u, tilt, m)
        want = log_L(tilt, phis)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("y", [2.0**-2, 2.0**-8])
def test_bergman_normalized_recovers_direct_kernel_on_the_axis(y):
    f = mollify(model_domain(2), 0.1)
    p = BoundaryRelativePoint(0.0, y)
    cfg = QuadratureConfig(rel_tol=1e-9)
    full = bergman_normalized(f, p, cfg, u_floor=0.0)
    K, _ = direct_pair(f, p, cfg)
    assert abs(full.value / K.value - 1.0) <= full.err_estimate + K.err_estimate


def _mollified_w_grid(X, v_max):
    """The W-grid of _log_P on the mollified m = 2 model, with its ghat."""
    f = mollify(model_domain(2), 0.1)
    g0 = float(f.g(0.0))

    def ghat(xhat):
        return f.g(g0**-0.25 * np.asarray(xhat, dtype=float)) / g0

    return _WGrid(ghat, X, v_max, 4), ghat


@pytest.mark.parametrize("X, v_max", [(1.0, 56.0), (0.2, 600.0)])
def test_w_grid_log_phi_matches_the_dense_sum(X, v_max):
    wg, ghat = _mollified_w_grid(X, v_max)
    # the dense sum over the grid's nodes c_p + h x_k with weights h w_k
    nodes = (wg.c[:, None] + wg.h * XGK).ravel()
    a = np.log(wg.h * np.tile(WGK, wg.c.size)) - ghat(X * nodes) * nodes**4
    v = np.linspace(-v_max, v_max, 401)
    want = _logsumexp(a[None, :] + v[:, None] * nodes[None, :])
    got = wg.log_phi(v)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    assert wg.n == nodes.size


def test_w_grid_log_phi_is_finite_and_monotone_at_extreme_tilts():
    # the profile grids of _log_P probe tilts up to ~1e12 on their ladders
    wg, _ = _mollified_w_grid(1.0, 56.0)
    ladder = 10.0 ** np.arange(0, 61)
    assert 1e12 in ladder and 1e60 in ladder
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for side in (1.0, -1.0):
            lp = wg.log_phi(side * ladder)
            assert np.all(np.isfinite(lp))
            assert np.all(np.diff(lp) >= 0.0)


def test_w_grid_rows_do_not_see_each_other():
    wg, _ = _mollified_w_grid(1.0, 56.0)
    v = np.random.default_rng(5).uniform(-60.0, 60.0, 37)
    rows = wg.log_phi(v)
    singles = np.array([wg.log_phi(v[i : i + 1])[0] for i in range(v.size)])
    assert np.array_equal(rows, singles)
    assert np.array_equal(wg.log_phi(v[:2]), rows[:2])


def test_cheb_table_tail_bounds_its_error_and_no_point_repeats():
    seen = []

    def fn(t):
        seen.append(t)
        return np.log(2.0 + np.sin(3.0 * t))

    samples, (tail,) = _cheb_table(lambda t: fn(t)[None, :], -1.0, 2.0, 1e-12)
    pts = np.concatenate(seen)
    assert pts.size == samples.size == np.unique(pts).size and tail <= 1e-12
    t = np.random.default_rng(7).uniform(-1.0, 2.0, 200)
    err = np.abs(_cheb_read(samples, -1.0, 2.0, t)[0] - fn(t))
    assert err.max() <= tail
    # the ends are samples; reading them divides by zero, without a warning
    ends = _cheb_read(samples, -1.0, 2.0, np.array([2.0, np.nan, -1.0]))[0]
    assert ends[0] == samples[0, 0] and np.isnan(ends[1]) and ends[2] == samples[0, -1]


def test_cheb_table_rows_share_one_size():
    # rows that resolve at 17 samples, at 65 on a noise plateau, at 65 on the
    # tail, at 129 and, a zero row, at 17 without a warning: the 5-row table
    # grows to 129 for all of them, every point is sampled once, and each
    # row keeps the tail of the size that resolved it, its one-row tail
    fns = [
        lambda t: 1.0 + 0.1 * t,
        lambda t: np.exp(t) + 1e-12 * np.sin(3e5 * t),
        lambda t: np.exp(np.sin(2.0 * t)),
        lambda t: np.log(2.0 + np.sin(3.0 * t)),
        lambda t: 0.0 * t,
    ]
    seen = []

    def fn(t):
        seen.append(t)
        return np.array([g(t) for g in fns])

    table, tails = _cheb_table(fn, -1.0, 2.0, 1e-13)
    pts = np.concatenate(seen)
    assert table.shape == (5, 129) and pts.size == np.unique(pts).size == 129
    assert tails[1] > 1e-13 >= tails[2]  # the plateau claims its level
    for i, g in enumerate(fns):
        one, (one_tail,) = _cheb_table(lambda t: g(t)[None, :], -1.0, 2.0, 1e-13)
        assert one.shape[1] == [17, 65, 65, 129, 17][i], i
        # the nested grids: the one-row table is every (128 / n)-th sample
        step = 128 // (one.shape[1] - 1)
        assert np.array_equal(one[0], table[i, ::step]) and one_tail == tails[i], i
    # the k rows read together equal k one-row reads, the table ends (exact
    # samples) included
    t = np.concatenate(([-1.0, 2.0], np.random.default_rng(3).uniform(-1.0, 2.0, 300)))
    got = _cheb_read(table, -1.0, 2.0, t)
    for i in range(len(fns)):
        assert np.array_equal(got[i], _cheb_read(table[i : i + 1], -1.0, 2.0, t)[0]), i
    assert got[0, 0] == table[0, -1] and got[3, 1] == table[3, 0]


@pytest.mark.parametrize("amp", [1e-14, 1e-12])
def test_cheb_table_stops_on_a_noise_plateau(amp):
    # exp(t) plus a ripple no table below 513 points resolves: the request
    # cannot be met, so the table stops on its plateau and claims it
    seen = []

    def fn(t):
        seen.append(t.size)
        return np.exp(t) + amp * np.sin(3e5 * t)

    samples, (tail,) = _cheb_table(lambda t: fn(t)[None, :], -1.0, 2.0, 1e-16)
    assert sum(seen) == samples.size <= 129
    t = np.random.default_rng(5).uniform(-1.0, 2.0, 400)
    err = np.abs(_cheb_read(samples, -1.0, 2.0, t)[0] - np.exp(t)).max()
    assert amp <= err <= tail <= 20.0 * amp


def test_cheb_table_rejects_a_kink_at_its_cap():
    t0 = time.perf_counter()
    with pytest.raises(QuadratureError, match=r"\[-1.0, 2.0\].* 513 points: tail"):
        _cheb_table(lambda t: np.abs(t - 0.3)[None, :], -1.0, 2.0, 1e-12)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "x, y, t_lo, tol", [(0.0, 2.0**-10, 0.0, 1e-11), (0.03, 0.9, -12.0, 1e-10)]
)
def test_log_P_table_matches_direct_log_P(x, y, t_lo, tol):
    # the table bergman_normalized builds, at its own u-range
    f = mollify(model_domain(2), 0.1)
    m, m2 = 2, 4
    g0 = float(f.g(0.0))

    def ghat(xhat):
        return f.g(g0 ** (-1.0 / m2) * np.asarray(xhat, dtype=float)) / g0

    def log_P(t):
        u = math.exp(t)
        return _log_P(ghat, u, g0 ** (1.0 / m2) * x * u, m)[0]

    t_hi = math.log(((_TRUNCATION_DEPTH + 13.0) / y) ** (1.0 / m2))
    table, (tail,) = _cheb_table(
        lambda ts: np.array([[log_P(t) for t in ts]]), t_lo, t_hi, tol
    )
    assert tail <= tol
    for t in np.random.default_rng(11).uniform(t_lo, t_hi, 12):
        got = _cheb_read(table, t_lo, t_hi, np.array([t]))[0, 0]
        assert abs(got - log_P(t)) <= 1e-11, t


def test_bergman_normalized_tabulates_log_P(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _log_P(*args)

    monkeypatch.setattr(quadrature, "_log_P", counted)
    f = mollify(model_domain(2), 0.1)
    cfg = QuadratureConfig(rel_tol=1e-10)
    kv = bergman_normalized(f, BoundaryRelativePoint(0.0, 2.0**-10), cfg)
    assert 0 < calls[0] <= 129 and math.isfinite(kv.log_value)


def test_bergman_normalized_stops_its_table_on_the_noise_plateau(monkeypatch):
    # log P's coefficients level off near 2e-13; at 1e-13 the table stops
    # there, as at 1e-12, and claims the plateau instead of running to 513
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _log_P(*args)

    monkeypatch.setattr(quadrature, "_log_P", counted)
    f = mollify(model_domain(2), 0.1)
    p = BoundaryRelativePoint(0.0, 0.25)
    tight = bergman_normalized(f, p, QuadratureConfig(rel_tol=1e-13))
    assert calls[0] <= 257
    loose = bergman_normalized(f, p, QuadratureConfig(rel_tol=1e-12))
    assert abs(tight.value / loose.value - 1.0) <= tight.err_estimate


def test_direct_pair_tabulates_log_G(monkeypatch):
    # one Chebyshev table row of log G per grid row, each table of 17, 33 or
    # 65 samples a row, in at most three sampling rounds
    grid_rows = [0]
    tables = []  # per table: [sampling rounds, rows, samples a row]

    class Counted(ProfileGrid):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            grid_rows[0] += self.dc.shape[0]

    real_table = quadrature._cheb_table

    def counted_table(fn, a, b, tol):
        mine = [0, 0, 0]
        tables.append(mine)

        def sampled(t):
            out = fn(t)
            mine[0] += 1
            mine[1] = out.shape[0]
            mine[2] += t.size
            return out

        return real_table(sampled, a, b, tol)

    monkeypatch.setattr(quadrature, "ProfileGrid", Counted)
    monkeypatch.setattr(quadrature, "_cheb_table", counted_table)
    cfg = QuadratureConfig(rel_tol=1e-7)
    direct_pair(_full_line(model_domain(2)), BoundaryRelativePoint(0.0, 0.25), cfg)
    assert grid_rows[0] >= 150 and sum(k for _, k, _ in tables) == grid_rows[0]
    assert max(n for n, _, _ in tables) <= 3
    assert max(size for _, _, size in tables) <= 65


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8])
def test_direct_pair_claims_cover_the_parabola_closed_forms(rel_tol):
    f = model_domain(1)
    cfg = QuadratureConfig(rel_tol=rel_tol)
    for x, y in ((0.0, 0.25), (0.7, 0.8), (-0.3, 0.1), (0.2, 2.0)):
        K, S = direct_pair(f, BoundaryRelativePoint(x, y), cfg)
        d = y - x * x
        k_err = abs(K.value * 4.0 * math.pi**2 * d**3 - 1.0)
        s_err = abs(S.value * 8.0 * math.pi**2 * d**2 - 1.0)
        assert k_err <= K.err_estimate and s_err <= S.err_estimate, (x, y)


def test_gauss_rule_integrates_polynomials_to_degree_29():
    # the rule's literals are numpy's 15 Gauss-Legendre nodes and weights,
    # exact to degree 2 * 15 - 1 and no further
    nodes, weights, _ = _GAUSS_RULE
    want = np.polynomial.legendre.leggauss(15)
    assert np.array_equal(nodes, want[0]) and np.array_equal(weights, want[1])
    for k in range(31):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        miss = abs(np.sum(weights * nodes**k) - exact)
        assert (miss <= 1e-15) == (k <= 29), (k, miss)


@pytest.mark.parametrize(
    "make, where",
    [
        (lambda: model_domain(1), 0.3),
        (lambda: model_domain(1), 1.0),
        (lambda: model_domain(2), 0.3),
        (lambda: model_domain(2), 1.0),
        (lambda: rational_domain(2), 0.3),
        (lambda: rational_domain(2), 1.0),
        (lambda: mollify(model_domain(2), 0.1), (0.0, 2.0**-10)),
        (lambda: mollify(model_domain(2), 0.1), (0.03, 0.9)),
    ],
    ids=[
        "model-m1-tau0.3", "model-m1-tau1", "model-m2-tau0.3", "model-m2-tau1",
        "rational-m2-tau0.3", "rational-m2-tau1", "mollified-m2-axis", "mollified-m2-far",
    ],
)
def test_direct_pair_gauss_grids_keep_their_claims(make, where):
    # at rel_tol 1e-7 the inner grids take the Gauss rule; against the
    # closed forms on x^2 and the Kronrod grids at rel_tol 1e-10 elsewhere,
    # both claims hold, and the mollified Bergman value, whose grid error
    # moves with how panels fall on the spline's knots, stays well inside
    # the inner layer's budget.  A float ``where`` is a tau at rho = 2^-9
    f = make()
    if isinstance(where, tuple):
        p = BoundaryRelativePoint(*where)
    else:
        p = from_polar(f, BlowupChart(f.m), PolarPoint(tau=where, rho=2.0**-9, branch=1))
    rel_tol = 1e-7
    assert rel_tol >= quadrature._GAUSS_FROM
    K, S = direct_pair(f, p, QuadratureConfig(rel_tol))
    if f.m == 1:
        d = p.y - p.x**2
        K_ref, S_ref = -math.log(4.0 * math.pi**2 * d**3), -math.log(8.0 * math.pi**2 * d**2)
    else:
        K_ref, S_ref = (kv.log_value for kv in direct_pair(f, p, QuadratureConfig(1e-10)))
    k_err, s_err = abs(math.expm1(K.log_value - K_ref)), abs(math.expm1(S.log_value - S_ref))
    assert k_err <= K.err_estimate and s_err <= S.err_estimate, (k_err, s_err)
    if f.is_mollified:
        assert k_err <= 0.05 * rel_tol, k_err


def test_direct_pair_work_shrinks_with_the_tolerance():
    # from rel_tol 1e-7 up the inner grids take the Gauss rule on wider
    # panels: on the folded axis line 34,350 evaluations at 1e-4 against
    # 157,200 at 1e-10 (68,700 and 314,400 on the full line, and 119,040 at
    # 1e-4 with the Kronrod rule at every tolerance)
    f, p = model_domain(1), BoundaryRelativePoint(0.0, 0.25)
    loose = direct_pair(f, p, QuadratureConfig(1e-4))[0].evaluations
    tight = direct_pair(f, p, QuadratureConfig(1e-10))[0].evaluations
    assert 3 * loose <= tight, (loose, tight)


# (rel_tol, domain): direct_pair's (Bergman, Szego) (log_value,
# err_estimate) pairs and evaluations at (0, 2^-10) on the full outer line,
# as the Kronrod rule at every tolerance gave them
_TIGHT_PAIRS = {
    (1e-8, "model-m2"): (
        (13.500617212407922, 5.936965215141713e-09),
        (6.163680297974352, 4.569888596870375e-09),
        198120,
    ),
    (1e-10, "model-m2"): (
        (13.500617212407958, 4.943884632965063e-11),
        (6.163680298688833, 4.2808004899224105e-11),
        348690,
    ),
    (1e-8, "mollified-m2"): (
        (13.494524824179704, 5.930703179188807e-09),
        (6.153159396173704, 4.767639982355815e-09),
        198210,
    ),
    (1e-10, "mollified-m2"): (
        (13.49452482405693, 9.476299335482925e-11),
        (6.153159396742131, 1.1575828702326415e-10),
        491010,
    ),
}


@pytest.mark.parametrize("rel_tol, domain", list(_TIGHT_PAIRS), ids=lambda v: str(v))
def test_direct_pair_below_the_gauss_tolerance_keeps_its_values(rel_tol, domain):
    # below _GAUSS_FROM every inner grid keeps the Kronrod rule, bit for bit
    assert rel_tol < quadrature._GAUSS_FROM
    f = model_domain(2) if domain == "model-m2" else mollify(model_domain(2), 0.1)
    p = BoundaryRelativePoint(0.0, 2.0**-10)
    K, S = direct_pair(_full_line(f), p, QuadratureConfig(rel_tol))
    k_want, s_want, evaluations = _TIGHT_PAIRS[rel_tol, domain]
    assert (K.log_value, K.err_estimate) == k_want and (S.log_value, S.err_estimate) == s_want
    assert K.evaluations == S.evaluations == evaluations


@pytest.mark.parametrize(
    "m, rel_tol",
    [(m, rel_tol) for m in (1, 2, 3, 4) for rel_tol in (1e-9, 1e-11)] + [(6, 1e-9), (8, 1e-9)],
)
def test_direct_pair_ratio_is_within_the_claims_on_the_model_axis(m, rel_tol):
    # on x^(2m), S/K = y m/(m + 1) on the axis x = 0; the outer map keeps
    # Szego's slowly decaying tail (a zeta scan cut at the truncation depth
    # dropped it from m = 2 on); at m = 6 and 8 the law r^(-7/2) that sets
    # the width is only the leading order of the Bergman middle
    y = 0.25
    K, S = direct_pair(model_domain(m), BoundaryRelativePoint(0.0, y), QuadratureConfig(rel_tol))
    gap = S.log_value - K.log_value - math.log(y * m / (m + 1))
    assert abs(gap) <= K.err_estimate + S.err_estimate, gap


@pytest.mark.parametrize("m", [1, 3])
def test_direct_pair_loses_nothing_past_its_de_reach(monkeypatch, m):
    # |s| <= 3.5 reaches |zeta - zeta*| = 9.5e10 w, past which an outer
    # integrand decaying like |zeta|^(-a) keeps about (9.5e10)^(1 - a) of
    # its mass; s out to 4.0 (2e18 w) adds nothing that rel_tol sees
    p, cfg = BoundaryRelativePoint(0.0, 0.25), QuadratureConfig(1e-10)
    new = direct_pair(model_domain(m), p, cfg)
    monkeypatch.setattr(quadrature, "_DE_REACH", 4.0)
    wide = direct_pair(model_domain(m), p, cfg)
    for a, b in zip(new, wide):
        assert abs(a.log_value - b.log_value) < 0.1 * cfg.rel_tol, (a, b)


_EVEN_DOMAINS = {
    "model-m1": lambda: model_domain(1),
    "model-m2": lambda: model_domain(2),
    "model-m3": lambda: model_domain(3),
    "model-m4": lambda: model_domain(4),
    "rational-m2": lambda: rational_domain(2),
    "blended-linear-m1": lambda: blended_linear_domain(1),
    "mollified-m2": lambda: mollify(model_domain(2), 0.1),
    "linear-tails-m2": lambda: damp_tails(model_domain(2), 0.5),
}


@pytest.mark.parametrize("rel_tol", [1e-7, 1e-8, 1e-10])
@pytest.mark.parametrize("name", list(_EVEN_DOMAINS))
def test_direct_pair_folds_the_outer_line_on_the_axis_of_an_even_domain(
    name, rel_tol, monkeypatch
):
    # on the axis of an even f the outer integrand is even in s, so the
    # outer rule takes s in [0, _DE_REACH] from 4 panels and doubles it.
    # The folded pair and the full line's agree within their claims and
    # both meet the closed forms of x^(2m) on the axis.  The full line
    # refines a panel and its mirror in two rounds and may stop between
    # them; counted with that last mirror, its outer zetas are at least
    # twice the folded call's, and its evaluations at least 1/0.55 times
    real = quadrature.log_adaptive_multi
    outer = []  # (a, init, rule points) of each outer call

    def recorded(logf, a, b, **kwargs):
        out = real(logf, a, b, **kwargs)
        if b == quadrature._DE_REACH:
            outer.append((a, kwargs["init"], out[2]))
        return out

    monkeypatch.setattr(quadrature, "log_adaptive_multi", recorded)
    f = _EVEN_DOMAINS[name]()
    assert f.is_even
    full = _full_line(f)
    cfg = QuadratureConfig(rel_tol)
    for y in (0.25, 2.0**-10):
        p = BoundaryRelativePoint(0.0, y)
        outer.clear()
        folded, whole = direct_pair(f, p, cfg), direct_pair(full, p, cfg)
        (a_fold, init_fold, n_fold), (a_full, init_full, n_full) = outer
        assert (a_fold, init_fold, a_full, init_full) == (0.0, 4, -quadrature._DE_REACH, 8)
        for a, b in zip(folded, whole):
            assert abs(a.log_value - b.log_value) <= a.err_estimate + b.err_estimate, (y, a, b)
        if f.label.startswith("model"):
            m = f.m
            for K, S in (folded, whole):
                gap = S.log_value - K.log_value - math.log(y * m / (m + 1))
                assert abs(gap) <= K.err_estimate + S.err_estimate, (y, gap)
                if m == 1:
                    assert abs(K.value * 4.0 * math.pi**2 * y**3 - 1.0) <= K.err_estimate
                    assert abs(S.value * 8.0 * math.pi**2 * y**2 - 1.0) <= S.err_estimate
        # 8 panels and 30 points a refinement: an odd count leaves a mirror out
        paired = n_full + 30 * ((n_full - 120) // 30 % 2)
        assert 2 * n_fold <= paired, (y, n_fold, n_full)
        assert folded[0].evaluations <= 0.55 * whole[0].evaluations * paired / n_full, y


def _record_zetas(monkeypatch) -> list[list[float]]:
    """The zetas of each ``_tilted_peak`` call of the direct_pair calls to
    come: the first is the width search's, the centre and then the rungs'
    zetas that lie in the cone; then the outer rule's first, 15 a panel on 8
    panels, fewer where a finite cone end cuts it, then 30 a refinement."""
    real = quadrature._tilted_peak
    calls = []

    def recorded(L, dL, t):
        calls.append([-float(z) for z in t])
        return real(L, dL, t)

    monkeypatch.setattr(quadrature, "_tilted_peak", recorded)
    return calls


def _rungs(calls) -> tuple[float, list[tuple[float, float]]]:
    """The width search's centre and its (minus, plus) rungs in order, where
    every rung lies in the cone: the first call holds the centre and both
    zetas of all ``_WIDTH_RUNGS`` rungs."""
    width = calls[0]
    assert len(width) == 1 + 2 * quadrature._WIDTH_RUNGS
    return width[0], list(zip(width[1::2], width[2::2]))


def _axis_rungs(y) -> int:
    """How many rungs 0.5 2^-j the width search takes on x^2 at (0, y): up
    to the first within _PEAK_DROP of the centre, by the closed form."""
    j = 0
    while _axis_drop(0.5 / 2**j, y) > _PEAK_DROP:
        j += 1
    return j + 1


@pytest.mark.parametrize("y", [3e-11, 1e-16, 1e-26])
def test_direct_pair_finds_a_peak_narrower_than_its_first_zeta_rung(y, monkeypatch):
    # on x^2 at x = 0 the outer peak has width about y^(1/2); the width
    # search reads every rung from the rungs +-0.5, which lie past the
    # truncation depth, down to 1e-30, the outer rule evaluates no zeta
    # twice, and the pair meets its closed forms (a scan that did not halve
    # found half of them); the outer rule runs on the full line
    calls = _record_zetas(monkeypatch)
    f = _full_line(model_domain(1))
    K, S = direct_pair(f, BoundaryRelativePoint(0.0, y), QuadratureConfig(1e-8))
    assert abs(K.value * 4.0 * math.pi**2 * y**3 - 1.0) <= K.err_estimate
    assert abs(S.value * 8.0 * math.pi**2 * y**2 - 1.0) <= S.err_estimate
    zetas = [z for call in calls[1:] for z in call]
    assert len(set(zetas)) == len(zetas)
    zc, rungs = _rungs(calls)
    assert zc == 0.0 and rungs == [(-0.5 / 2**j, 0.5 / 2**j) for j in range(len(rungs))]
    # the outer rule maps with the rung the closed form picks
    w = 0.5 / 2 ** (_axis_rungs(y) - 1)
    assert calls[1] == pytest.approx(w * np.sinh(0.5 * math.pi * np.sinh(_outer_nodes())), rel=1e-14)


def _axis_drop(zeta, y):
    # on x^2 at x = 0 the Bergman middle integrand is a constant times
    # r^(-7/2), r = y + zeta^2/4: its drop in e-folds from zeta* = 0
    return 3.5 * math.log1p(zeta * zeta / (4.0 * y))


def _outer_nodes() -> np.ndarray:
    # the s nodes of the outer rule's first call: 15 a panel on 8 panels
    edges = np.linspace(-quadrature._DE_REACH, quadrature._DE_REACH, 9)
    return quadrature._kronrod_nodes(edges[:-1], edges[1:])[1].ravel()


def test_direct_pair_halves_its_width_until_both_rungs_are_near_the_centre(monkeypatch):
    # the width search takes w = 0.5 2^-j, the first rung whose zetas
    # zeta* -+ w both keep r^(-7/2) within _PEAK_DROP of the centre's, from
    # one peak search on the centre and every rung; at y = 1e-6 that is the
    # tenth rung, counted from the parabola's closed form r^(-7/2), and the
    # outer rule, here on the full line, maps with w
    y = 1e-6
    n = _axis_rungs(y)
    assert n == 10
    calls = _record_zetas(monkeypatch)
    f = _full_line(model_domain(1))
    direct_pair(f, BoundaryRelativePoint(0.0, y), QuadratureConfig(1e-8))
    zc, rungs = _rungs(calls)
    assert zc == 0.0
    assert rungs == [(-0.5 / 2**j, 0.5 / 2**j) for j in range(quadrature._WIDTH_RUNGS)]
    # then the outer rule: 8 panels of 15 zetas, 30 a refinement
    w = 0.5 / 2 ** (n - 1)
    s = _outer_nodes()
    assert calls[1] == pytest.approx(w * np.sinh(0.5 * math.pi * np.sinh(s)), rel=1e-14)
    assert all(len(c) == 30 for c in calls[2:])


def test_direct_pair_centres_its_width_search_off_the_axis(monkeypatch):
    # on x^4 at x = 0.3 the search starts at zeta* = -f'(0.3) = -0.108 and
    # its rungs lie at zeta* -+ 0.5 2^-j, j = 0, 1, ..., in order; the tiny
    # ones round onto zeta*
    f = model_domain(2)
    x = 0.3
    zc_want = -float(f.fprime(x))
    calls = _record_zetas(monkeypatch)
    direct_pair(f, BoundaryRelativePoint(x, float(f.f(x)) + 1e-4), QuadratureConfig(1e-8))
    zc, rungs = _rungs(calls)
    assert zc == zc_want and zc == pytest.approx(-0.108, rel=1e-14)
    for j, (minus, plus) in enumerate(rungs):
        assert plus == zc + 0.5 / 2**j and minus == zc - 0.5 / 2**j
    assert rungs[-1] == (zc, zc)


@pytest.mark.parametrize("x", [1.0, 6.0])
def test_direct_pair_searches_its_width_in_z_on_a_finite_cone(x, monkeypatch):
    # blended_linear_domain(1) has the cone (-1, 1), mapped from the real
    # line by zeta = tanh z: the rungs lie at tanh(z* -+ w), z* = atanh(zeta*),
    # w = 0.5 2^-j in order, so a centre 0.036 (x = 1) or 8e-11 (x = 6) from
    # the end -1 still gets rungs on both sides at a width of its own
    f = blended_linear_domain(1)
    zc_want = -float(f.fprime(x))
    calls = _record_zetas(monkeypatch)
    direct_pair(f, BoundaryRelativePoint(x, float(f.f(x)) + 1e-3), QuadratureConfig(1e-8))
    zc, rungs = _rungs(calls)
    assert zc == zc_want and 1.0 + zc < (0.04 if x == 1.0 else 1e-10)
    z_star = math.atanh(zc)
    for j, (minus, plus) in enumerate(rungs):
        assert -1.0 < minus <= zc <= plus < 1.0
        w = 0.5 / 2**j
        assert plus == pytest.approx(math.tanh(z_star + w), rel=1e-15)
        assert minus == pytest.approx(math.tanh(z_star - w), rel=1e-15)
    assert rungs[0][0] < zc < rungs[0][1]


def _near_boundary(f, x, d):
    return f, BoundaryRelativePoint(x, float(f.f(x)) + d)


@pytest.mark.parametrize(
    "case, rel_tol",
    [
        (lambda: (model_domain(1), BoundaryRelativePoint(0.0, 1e-6)), 1e-8),
        (lambda: _near_boundary(model_domain(2), 0.3, 1e-4), 1e-8),
        (lambda: _near_boundary(blended_linear_domain(1), 6.0, 1e-3), 1e-8),
        (lambda: (mollify(model_domain(2), 0.1), BoundaryRelativePoint(0.0, 0.25)), 1e-8),
        (
            lambda: (
                rational_domain(2),
                BoundaryRelativePoint(0.020801049585227105, 0.00011260726143374602),
            ),
            1e-7,
        ),
    ],
    ids=["model-m1-axis", "model-m2-off-axis", "blended-x6", "mollified-m2-j0", "rational-m2"],
)
def test_direct_pair_width_search_builds_no_table(monkeypatch, case, rel_tol):
    # the width search reads r alone: its one peak search is followed by
    # the outer rule's first, with no ProfileGrid build and no log G table
    # between them
    events = []
    real_peak, real_table = quadrature._tilted_peak, quadrature._cheb_table

    class Logged(ProfileGrid):
        def __init__(self, *args, **kwargs):
            events.append("grid")
            super().__init__(*args, **kwargs)

    def peak(L, dL, t):
        events.append("peak")
        return real_peak(L, dL, t)

    def table(*args):
        events.append("table")
        return real_table(*args)

    monkeypatch.setattr(quadrature, "ProfileGrid", Logged)
    monkeypatch.setattr(quadrature, "_tilted_peak", peak)
    monkeypatch.setattr(quadrature, "_cheb_table", table)
    f, p = case()
    K, S = direct_pair(f, p, QuadratureConfig(rel_tol))
    assert math.isfinite(K.log_value) and math.isfinite(S.log_value)
    assert events[:3] == ["peak", "peak", "grid"] and "table" in events


def test_direct_pair_width_search_stops_at_its_floor(monkeypatch):
    # with no rung able to pass, the search reads every rung 0.5 2^-j down
    # to w = 1e-30, each zeta once, and names the width it stopped at
    monkeypatch.setattr(quadrature, "_PEAK_DROP", -1.0)
    calls = _record_zetas(monkeypatch)
    with pytest.raises(QuadratureError, match=r"no edge of the peak by w = 7\.9e-31"):
        direct_pair(model_domain(1), BoundaryRelativePoint(0.0, 0.25), QuadratureConfig(1e-8))
    zetas = [z for c in calls for z in c]
    assert len(set(zetas)) == len(zetas) == 1 + 2 * quadrature._WIDTH_RUNGS
    assert min(abs(z) for z in zetas if z) == 0.5 / 2 ** (quadrature._WIDTH_RUNGS - 1) > 1e-30


# log K and log S of direct_pair before its scan centred on zeta* (7800b06),
# on blended_linear_domain(1) at y = f(x) + 1e-3, rel_tol 1e-8
_BLENDED_REFERENCE = {
    0.0: (17.046511209526713, 9.444611872958108),
    1.0: (14.396552700019795, 6.795534002197256),
    3.0: (8.30456921755157, 1.1022806649817127),
    6.0: (5.875743987413546, -1.1391861898209283),
}


@pytest.mark.parametrize("x", list(_BLENDED_REFERENCE))
def test_direct_pair_on_a_linear_tailed_domain_keeps_its_values(x):
    # zeta* = -f'(x) runs from 0 to within 8e-11 of the cone's end -1; a scan
    # that gave a side within 0.5 of the end no rung read log K = 13.837 at x = 1
    f = blended_linear_domain(1)
    K, S = direct_pair(f, BoundaryRelativePoint(x, float(f.f(x)) + 1e-3), QuadratureConfig(1e-8))
    k_ref, s_ref = _BLENDED_REFERENCE[x]
    assert abs(K.log_value - k_ref) <= K.err_estimate
    assert abs(S.log_value - s_ref) <= S.err_estimate


def _half_linear(side):
    """x^2 on one side of 0 and blended_linear_domain(1) on the side
    ``side``, whose tail is linear: its dual cone is finite at one end."""
    b = blended_linear_domain(1)

    def pick(blended, parabola):
        return lambda x: np.where(side * x > 0, blended(x), parabola(x))

    return DefiningFunction(
        1,
        pick(b.f, np.square),
        pick(b.fprime, lambda x: 2.0 * x),
        pick(b.fsecond, lambda x: np.full_like(x, 2.0)),
        pick(b.g, np.ones_like),
        pick(b.gprime, np.zeros_like),
        label=f"half-linear({side})",
        tail_slopes=(1.0, math.inf) if side < 0 else (math.inf, 1.0),
    )


@pytest.mark.parametrize("x, y", [(0.0, 0.25), (0.5, 0.3), (-0.5, 0.3)])
def test_direct_pair_maps_a_cone_finite_at_one_end(x, y):
    # the domain with the linear tail at -inf has the cone (-inf, 1), mapped
    # by 1 - e^-z; its mirror image has (-1, inf), mapped by -1 + e^z, and
    # the same kernel at (-x, y).  It lies between the parabola's domain
    # and blended_linear_domain(1)'s, so its Bergman kernel lies between
    # theirs
    cfg = QuadratureConfig(1e-8)
    K, S = direct_pair(_half_linear(-1), BoundaryRelativePoint(x, y), cfg)
    K_m, S_m = direct_pair(_half_linear(1), BoundaryRelativePoint(-x, y), cfg)
    assert abs(K.log_value - K_m.log_value) <= K.err_estimate + K_m.err_estimate
    assert abs(S.log_value - S_m.log_value) <= S.err_estimate + S_m.err_estimate
    p = BoundaryRelativePoint(x, y)
    inside, _ = direct_pair(model_domain(1), p, cfg)
    outside, _ = direct_pair(blended_linear_domain(1), p, cfg)
    assert outside.value * (1.0 - outside.err_estimate) <= K.value * (1.0 + K.err_estimate)
    assert K.value * (1.0 - K.err_estimate) <= inside.value * (1.0 + inside.err_estimate)


def test_direct_pair_moves_a_centre_on_the_cone_end_inside_it():
    # from about x = 9.3 on blended_linear_domain(1), f'(x) rounds to the
    # tail slope 1, so zeta* = -f'(x) is the cone's end -1, where the tilted
    # phase is flat and no grid finds an edge (a QuadratureError under the
    # zeta scan); the centre moves _END_GAP inside the end, and the values
    # at rel_tol 1e-8 and 1e-10 agree within their claims
    f = blended_linear_domain(1)
    p = BoundaryRelativePoint(10.0, float(f.f(10.0)) + 1e-3)
    assert f.fprime(10.0) == 1.0
    loose = direct_pair(f, p, QuadratureConfig(1e-8))
    tight = direct_pair(f, p, QuadratureConfig(1e-10))
    for a, b in zip(loose, tight):
        assert abs(a.log_value - b.log_value) <= a.err_estimate + b.err_estimate


def test_direct_pair_work_does_not_grow_toward_the_boundary():
    # along fixed_tau tau = 0.8 on x^2 the width search fits w to the outer
    # peak as rho falls, so the outer rule's work stays within a factor 1.4
    # of the path's first point: it alternates between about 150k and 190k
    # evaluations with w's dyadic fit to the peak (a zeta scan centred on
    # 0 cost 464k-564k here)
    f = model_domain(1)
    path = ApproachPath("fixed_tau", {"tau": 0.8}, 2.0 ** -np.arange(9, 15))
    evals = [
        direct_pair(f, p, QuadratureConfig(1e-7))[0].evaluations for p in path_points(f, path)
    ]
    assert max(evals) <= 1.4 * evals[0], evals


def test_direct_pair_names_a_y_below_the_peak_rounding():
    # at y = 1e-30 the tilted peak's offset A carries more rounding than y,
    # so r = y + x zeta - A is not positive; no log of it is taken
    with pytest.raises(QuadratureError, match=r"y = 1e-30 .* zeta = 0\.0"):
        direct_pair(model_domain(1), BoundaryRelativePoint(0.0, 1e-30), QuadratureConfig(1e-8))


@pytest.mark.parametrize(
    "x, y, rel_tol", [(0.25, 1 / 16 + 2.0**-40, 1e-7), (0.375, 9 / 64 + 2.0**-33, 1e-8)]
)
def test_direct_pair_meets_the_closed_forms_near_the_boundary_off_the_axis(x, y, rel_tol):
    # d = y - x^2 is exact here.  At (0.25, 1/16 + 2^-40) zeta* = -0.5, and
    # a scan centred on 0 put its rung -0.5 on the peak with both neighbours
    # past the depth, so K 4 pi^2 d^3 was 0.5.  Near zeta*, r = y + x zeta - A
    # subtracts terms near x^2 to leave about d, and its rounding noise keeps
    # the outer engine bisecting to its panel budget at both points (about
    # 45M evaluations, 10 s each).  The claims cover the errors because the
    # engine's estimate reports that noise, not because the noise is gone:
    # K's error is 5.9e-8 against a 1.8e-7 claim at the first point and
    # 3.2e-9 against 4.4e-8 at the second (2.6e-8 against a 1.4e-8 claim
    # before the double-exponential outer map)
    K, S = direct_pair(model_domain(1), BoundaryRelativePoint(x, y), QuadratureConfig(rel_tol))
    d = y - x * x
    assert abs(K.value * 4.0 * math.pi**2 * d**3 - 1.0) <= K.err_estimate
    assert abs(S.value * 8.0 * math.pi**2 * d**2 - 1.0) <= S.err_estimate


def test_direct_pair_raises_on_a_missed_inner_row(monkeypatch):
    # the engine reports one inner eta row above its 0.25 rel_tol budget;
    # direct_pair must name it, not fold the row into the outer integral
    real = quadrature.log_adaptive_multi
    inner_calls = [0]

    def engine(logf, a, b, *, rel_tol, **kwargs):
        lv, re, n = real(logf, a, b, rel_tol=rel_tol, **kwargs)
        if rel_tol < 1e-7:
            inner_calls[0] += 1
            if inner_calls[0] == 3:
                re = re.copy()
                re[-1] = 1e-3
        return lv, re, n

    monkeypatch.setattr(quadrature, "log_adaptive_multi", engine)
    with pytest.raises(QuadratureError, match=r"inner eta integral at zeta = .* 1\.000e-03"):
        direct_pair(model_domain(1), BoundaryRelativePoint(0.0, 0.25), QuadratureConfig(1e-7))


@pytest.mark.parametrize(
    "make, y, rel_tol",
    [
        (lambda: rational_domain(2), 2.0**-12, 1e-7),
        (lambda: mollify(model_domain(2), 0.1), 2.0**-10, 1e-10),
    ],
    ids=["rational-m2", "mollified-m2"],
)
def test_direct_pair_memory_stays_bounded(make, y, rel_tol):
    # the batched inner layer works on chunks of zetas: one call's peak
    # allocation stays at 3 MB, where one batch of all a call's zetas
    # would take 30-60 MB
    f = make()
    tracemalloc.start()
    try:
        direct_pair(f, BoundaryRelativePoint(0.0, y), QuadratureConfig(rel_tol))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def _rational_off_axis_point():
    f = rational_domain(2)
    path = ApproachPath("fixed_tau", {"tau": 0.8}, 2.0 ** -np.arange(9, 11))
    return f, path_points(f, path)[-1]


@pytest.mark.parametrize(
    "case",
    [
        lambda: (model_domain(1), BoundaryRelativePoint(0.0, 0.25)),
        _rational_off_axis_point,
        lambda: (mollify(model_domain(2), 0.1), BoundaryRelativePoint(0.0, 2.0**-10)),
    ],
    ids=["model-m1", "rational-m2-tau08", "mollified-m2"],
)
def test_direct_pair_does_not_depend_on_its_chunk(monkeypatch, case):
    # the chunk sets how many zetas share one grid build, table and inner
    # engine call, not what each zeta's inner integral is
    f, p = case()
    cfg = QuadratureConfig(1e-10)
    new = direct_pair(f, p, cfg)
    monkeypatch.setattr(quadrature, "_ZETA_CHUNK", 6)
    old = direct_pair(f, p, cfg)
    for a, b in zip(new, old):
        assert abs(a.log_value - b.log_value) <= 1e-13 * abs(b.log_value), (a, b)
        assert abs(a.value - b.value) <= 1e-13 * b.value, (a, b)


def test_log_G_blocks_equal_one_block(monkeypatch):
    # log_G sums its terms in blocks of rows and frequencies; each (row,
    # frequency) sum is the same sum over the row's nodes in any block, so
    # the blocks give one block's output bit for bit, in bounded memory
    m2 = 4
    phi_grid = ProfileGrid(lambda x, i: x**m2 - m2 * x + (m2 - 1), 1.0, 1e-3, 1e4)
    f = model_domain(2)

    def tilted_grids(k, eta_lo, eta_hi):
        zetas = np.linspace(-0.9, 0.9, k)
        xi_s, A = quadrature._tilted_peak(f.f, f.fprime, -zetas)
        return ProfileGrid(quadrature._tilted(f.f, -zetas, A), xi_s, eta_lo, eta_hi)

    cases = [
        (phi_grid, np.geomspace(1e-3, 1e4, 5000)[None, :]),
        (tilted_grids(40, 0.5, 2.0), np.geomspace(0.5, 2.0, 65)[None, :].repeat(40, 0)),
        (tilted_grids(64, 1e-8, 1e16), np.geomspace(1e-8, 1e16, 64)[:, None]),
    ]
    block = quadrature._LOG_G_BLOCK
    nodes = [grid.dc.shape[1] for grid, _ in cases]
    # the 5,000 frequencies take several blocks of one row; the 40 rows of
    # 65 frequencies take blocks of a few rows, the last one short; the 64
    # rows of one frequency take two blocks
    assert block // nodes[0] < 5000
    assert 1 < block // (65 * nodes[1]) < 40 and 40 % (block // (65 * nodes[1]))
    assert block // nodes[2] < 64
    got = [grid.log_G(eta) for grid, eta in cases]
    monkeypatch.setattr(quadrature, "_LOG_G_BLOCK", 2**62)
    for (grid, eta), g in zip(cases, got):
        assert np.array_equal(g, grid.log_G(eta)) and np.isfinite(g).all()
    monkeypatch.undo()

    # one block of all would take 31 MB and 119 MB
    v = np.linspace(-300.0, 300.0, 5000)
    grid, eta = cases[2][0], np.geomspace(1e-8, 1e16, 65)[None, :].repeat(64, 0)
    for call, bound in ((lambda: asymptotics.log_phi(v, 2), 2e6), (lambda: grid.log_G(eta), 1.5e6)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
