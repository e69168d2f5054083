"""Kernel quadrature: profile integrals, the D oracle, and both kernels."""

from __future__ import annotations

import math
import re
import time

import numpy as np
import pytest
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
from tubekernels.quadrature import ProfileGrid, _bracket_root, _logsumexp, log_adaptive_multi

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
    # 200 monotone cubics whose roots lie left or right of their brackets:
    # one array call must take, element by element, a scalar call's steps
    rng = np.random.default_rng(20)
    n = 200
    roots = np.concatenate(
        [rng.uniform(-60.0, -2.0, n // 2), rng.uniform(2.0, 60.0, n // 2)]
    )
    slopes = rng.uniform(0.1, 10.0, n)
    a = rng.uniform(-1.0, 0.0, n)
    b = a + rng.uniform(0.01, 1.0, n)

    def cubic(x, r, k):
        d = x - r
        return k * d + d * d * d

    got = _bracket_root(lambda x: cubic(x, roots, slopes), a, b)
    seen = set()

    def scalar_fn(x, r, k):
        seen.add(type(x))
        return cubic(x, r, k)

    for i in range(n):
        r, k = float(roots[i]), float(slopes[i])
        one = _bracket_root(lambda x: scalar_fn(x, r, k), float(a[i]), float(b[i]))
        assert type(one) is float
        assert one == got[i]
    assert seen == {float}
    assert np.max(np.abs(got - roots)) < 1e-12

    # one element without a sign change fails the whole call, by name
    const = np.array([0.0, 1.0, 0.0])
    with pytest.raises(QuadratureError, match=r"no sign change on \[.*\]: values 1.0, 1.0"):
        _bracket_root(lambda x: np.where(const > 0, 1.0, x - 0.5), -np.ones(3), np.ones(3))


@pytest.mark.parametrize(
    "make", [lambda: model_domain(1), lambda: model_domain(2), lambda: rational_domain(2)],
    ids=["model-m1", "model-m2", "rational-m2"],
)
def test_profile_grid_matches_a_dense_grid_in_few_calls(make):
    class Dense(ProfileGrid):
        RATIO = 1.1

    f = make()
    etas = np.geomspace(1e-4, 50.0, 40)
    for zeta in (0.0, 0.7, -2.0):
        xi_s = _bracket_root(lambda xi: f.fprime(xi) + zeta, -1.0, 1.0)
        A = f.f(xi_s) + zeta * xi_s
        calls = [0]

        def c_fn(xi):
            calls[0] += 1
            return f.f(xi) + zeta * xi - A

        grid = ProfileGrid(c_fn, xi_s, etas[0], etas[-1])
        assert calls[0] <= 10, zeta
        # the linear-space sum against the log-sum-exp over the same nodes
        lse = _logsumexp(np.log(grid.w) - np.multiply.outer(etas, grid.c))
        assert np.max(np.abs(grid.log_G(etas) - lse)) <= 1e-13, zeta
        dense = Dense(c_fn, xi_s, etas[0], etas[-1])
        assert np.max(np.abs(grid.log_G(etas) - dense.log_G(etas))) <= 1e-14, zeta
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
    trimmed = bergman_normalized(f, p, cfg)  # default floor at 1
    assert 0.0 < trimmed.value < full.value


def test_bergman_normalized_requires_mollified_domain():
    with pytest.raises(DomainError):
        bergman_normalized(model_domain(2), BoundaryRelativePoint(0.0, 1.0))
