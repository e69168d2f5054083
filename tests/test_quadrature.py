"""Kernel quadrature: profile integrals, the D oracle, and both kernels."""

from __future__ import annotations

import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma

from tubekernels import (
    BoundaryRelativePoint,
    DomainError,
    QuadratureConfig,
    QuadratureError,
    bergman_normalized,
    blended_linear_domain,
    compute_D,
    direct_pair,
    model_domain,
    mollify,
    rational_domain,
)
from tubekernels import quadrature
from tubekernels.quadrature import (
    ProfileGrid,
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


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    cfg = QuadratureConfig()
    assert cfg.log_drop > 30.0
    assert cfg.max_panels >= cfg.max_depth


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


def test_search_loops_are_capped():
    t0 = time.perf_counter()
    with pytest.raises(QuadratureError):
        _bracket_root(lambda x: 1.0, -1.0, 1.0)
    with pytest.raises(QuadratureError):
        ProfileGrid(lambda xi: 1.0 - np.exp(-(xi**2)), 0.0, 0.01, 0.01)
    # the phase saturates between c_min and c_max; the search stops at a
    # finite distance, before anything overflows
    with pytest.raises(QuadratureError, match="c_max") as info:
        with np.errstate(over="raise", invalid="raise"):
            ProfileGrid(lambda xi: 1.0 - np.exp(-(xi**2)), 0.0, 1.0, 1.0)
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
@given(st.floats(1e-3, 1e3), st.floats(1.0, 8.0), st.floats(1e-10, 1e2))
def test_inner_edge_is_the_first_fine_rung_reaching_c_min(a, p, c_min):
    seen_u, seen_c = [], []

    def c_side(u):
        seen_u.append(u)
        seen_c.append(a * u**p)
        return seen_c[-1]

    u, n = _inner_edge(c_side, c_min)
    us, cs = np.concatenate(seen_u), np.concatenate(seen_c)
    assert n == us.size
    # c(u) >= c_min > c(u / 4^(1/16)), both read off the evaluated rungs
    below = us < u
    prev = us[below].max()
    assert math.isclose(prev, u / 4.0 ** (1 / 16), rel_tol=1e-14)
    assert cs[us == u].min() >= c_min > cs[below].max()


def test_direct_pair_grids_find_their_inner_edges_in_two_calls(monkeypatch):
    # every grid of this point crosses c_min within the first x4 block,
    # below u = 1 at small |zeta| and above it at large |zeta|
    calls = []

    class Counted(ProfileGrid):
        def __init__(self, c_fn, *args, **kwargs):
            calls.append(0)

            def counted(xi):
                calls[-1] += 1
                return c_fn(xi)

            super().__init__(counted, *args, **kwargs)

    monkeypatch.setattr(quadrature, "ProfileGrid", Counted)
    cfg = QuadratureConfig(rel_tol=1e-7)
    direct_pair(model_domain(1), BoundaryRelativePoint(0.0, 0.25), cfg)
    assert len(calls) > 300 and max(calls) <= 8


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
    class Dense(ProfileGrid):
        RATIO = 1.1

    f = make()
    etas = np.geomspace(*etas, 40)
    for zeta in zetas:
        xi_s = _bracket_root(lambda xi: f.fprime(xi) + zeta, -1.0, 1.0)
        A = f.f(xi_s) + zeta * xi_s
        calls = [0]

        def c_fn(xi):
            calls[0] += 1
            return f.f(xi) + zeta * xi - A

        grid = ProfileGrid(c_fn, xi_s, etas[0], etas[-1])
        assert calls[0] <= 8, zeta
        # the linear-space sum against the log-sum-exp over the same nodes
        lse = _logsumexp(np.log(grid.w) - np.multiply.outer(etas, grid.c))
        assert np.max(np.abs(grid.log_G(etas) - lse)) <= 1e-13, zeta
        dense = Dense(c_fn, xi_s, etas[0], etas[-1])
        assert np.max(np.abs(grid.log_G(etas) - dense.log_G(etas))) <= tol, zeta
        # the stiffest frequency of a wide range stays finite
        wide = ProfileGrid(c_fn, xi_s, 1e-4, 1e8)
        assert np.isfinite(wide.log_G(np.array([1e8]))).all(), zeta


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


def test_cheb_table_tail_bounds_its_error_and_no_point_repeats():
    seen = []

    def fn(t):
        seen.append(t)
        return np.log(2.0 + np.sin(3.0 * t))

    samples, tail = _cheb_table(fn, -1.0, 2.0, 1e-12)
    pts = np.concatenate(seen)
    assert pts.size == samples.size == np.unique(pts).size and tail <= 1e-12
    t = np.random.default_rng(7).uniform(-1.0, 2.0, 200)
    err = np.abs(_cheb_read(samples, -1.0, 2.0, t) - fn(t))
    assert err.max() <= tail
    # the ends are samples; reading them divides by zero, without a warning
    ends = _cheb_read(samples, -1.0, 2.0, np.array([2.0, np.nan, -1.0]))
    assert ends[0] == samples[0] and np.isnan(ends[1]) and ends[2] == samples[-1]


@pytest.mark.parametrize("amp", [1e-14, 1e-12])
def test_cheb_table_stops_on_a_noise_plateau(amp):
    # exp(t) plus a ripple no table below 513 points resolves: the request
    # cannot be met, so the table stops on its plateau and claims it
    seen = []

    def fn(t):
        seen.append(t.size)
        return np.exp(t) + amp * np.sin(3e5 * t)

    samples, tail = _cheb_table(fn, -1.0, 2.0, 1e-16)
    assert sum(seen) == samples.size <= 129
    t = np.random.default_rng(5).uniform(-1.0, 2.0, 400)
    err = np.abs(_cheb_read(samples, -1.0, 2.0, t) - np.exp(t)).max()
    assert amp <= err <= tail <= 20.0 * amp


def test_cheb_table_rejects_a_kink_at_its_cap():
    t0 = time.perf_counter()
    with pytest.raises(QuadratureError, match=r"\[-1.0, 2.0\].* 513 points: tail"):
        _cheb_table(lambda t: np.abs(t - 0.3), -1.0, 2.0, 1e-12)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "x, y, t_lo, tol", [(0.0, 2.0**-10, 0.0, 1e-11), (0.03, 0.9, -12.0, 1e-10)]
)
def test_log_P_table_matches_direct_log_P(x, y, t_lo, tol):
    # the table bergman_normalized builds, at its own u-range
    f = mollify(model_domain(2), 0.1)
    m, m2, log_drop = 2, 4, QuadratureConfig().log_drop
    g0 = float(f.g(0.0))

    def ghat(xhat):
        return f.g(g0 ** (-1.0 / m2) * np.asarray(xhat, dtype=float)) / g0

    def log_P(t):
        u = math.exp(t)
        return _log_P(ghat, u, g0 ** (1.0 / m2) * x * u, m, log_drop)[0]

    t_hi = math.log(((log_drop + 13.0) / y) ** (1.0 / m2))
    samples, tail = _cheb_table(
        lambda ts: np.array([log_P(t) for t in ts]), t_lo, t_hi, tol
    )
    assert tail <= tol
    for t in np.random.default_rng(11).uniform(t_lo, t_hi, 12):
        got = _cheb_read(samples, t_lo, t_hi, np.array([t]))[0]
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
    # one Chebyshev table of log G per grid: 17, 33, 65 samples at most
    freqs = []

    class Counted(ProfileGrid):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            freqs.append([])

        def log_G(self, eta):
            freqs[-1].append(np.size(eta))
            return super().log_G(eta)

    monkeypatch.setattr(quadrature, "ProfileGrid", Counted)
    cfg = QuadratureConfig(rel_tol=1e-7)
    direct_pair(model_domain(2), BoundaryRelativePoint(0.0, 0.25), cfg)
    assert len(freqs) > 300
    assert max(len(fs) for fs in freqs) <= 3
    assert max(sum(fs) for fs in freqs) <= 65


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
