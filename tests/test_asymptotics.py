"""Model-domain asymptotics: critical constants, measured growth, profiles."""

from __future__ import annotations

import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from tubekernels import asymptotics
from tubekernels import (
    DomainError,
    L_rate_probe,
    PhiSpline,
    alpha_critical,
    beta_critical,
    growth_constant_a,
    log_L,
    log_phi,
    model_domain,
    model_phi,
    model_profile_pair,
    phase_p,
    phase_q,
    phi_rate_probe,
    predict,
    rational_domain,
)
from tubekernels.quadrature import _TRUNCATION_DEPTH

# see test_quadrature.py; direct-quadrature value of K(0,1) for f = x^4
K4_AXIS = 0.02175172310013568
MODEL_PHI_TAU1 = 0.021751723100191148
PAIR_TAU07 = (0.028940662945575037, 0.017958243491657592)


def _richardson_slope(fn, t, h=1e-3):
    d = lambda hh: (fn(t + hh) - fn(t - hh)) / (2.0 * hh)
    return (4.0 * d(h / 2) - d(h)) / 3.0


def test_critical_points_are_stationary():
    for m in (1, 2, 3, 5):
        p = phase_p(m)
        q = phase_q(m)
        assert abs(_richardson_slope(p.phase, alpha_critical(m))) <= 1e-10
        assert abs(_richardson_slope(q.phase, beta_critical(m))) <= 1e-10


def test_growth_constant_is_minus_phase_minimum():
    for m in (1, 2, 3, 4):
        p = phase_p(m)
        assert math.isclose(
            growth_constant_a(m), -p.phase(alpha_critical(m)), rel_tol=1e-14
        )
        # the companion phase is normalized to equal -1 at its minimum
        q = phase_q(m)
        assert math.isclose(q.phase(beta_critical(m)), 1.0, rel_tol=1e-12)


def test_log_phi_axis_matches_gamma():
    # int exp(-w^(2m)) dw = 2 Gamma(1 + 1/(2m))
    assert math.isclose(log_phi(0.0, 2), math.log(2.0 * gamma(1.25)), abs_tol=1e-10)
    assert math.isclose(log_phi(0.0, 3), math.log(2.0 * gamma(7.0 / 6.0)), abs_tol=1e-10)


def test_log_phi_against_library_quadrature():
    for v in (1.0, 5.0):
        ref, _ = quad(
            lambda w, vv=v: math.exp(-(w**4) + vv * w), -12.0, 12.0,
            epsabs=1e-13, epsrel=1e-13,
        )
        assert math.isclose(log_phi(v, 2), math.log(ref), rel_tol=0, abs_tol=1e-9)


def test_phi_spline_tracks_the_function():
    sp = PhiSpline(2, 30.0)
    for v in (0.0, 0.37, 3.1, 12.0, 29.0):
        assert math.isclose(float(sp(v)), log_phi(v, 2), rel_tol=0, abs_tol=1e-6)


def test_log_phi_is_elementwise_and_even():
    vs = np.array([0.0, 5e-324, 1e-300, 3.0, -3.0, 1e6])
    for m in (1, 2, 3):
        got = log_phi(vs, m)
        assert isinstance(got, np.ndarray) and got.shape == vs.shape
        # a float call sizes its grid to its own lambda, so the two agree to
        # the grid's discretisation error rather than bit for bit
        for v, g in zip(vs.tolist(), got.tolist()):
            one = log_phi(v, m)
            assert type(one) is float
            assert math.isclose(one, g, rel_tol=0, abs_tol=1e-13 * max(1.0, abs(g))), (m, v)
        assert log_phi(-vs, m).tolist() == got.tolist()
        assert log_phi(vs.reshape(2, 3), m).tolist() == got.reshape(2, 3).tolist()


def test_log_phi_matches_the_m1_closed_form_on_spline_nodes():
    # phi(v) = sqrt(pi) exp(v^2/4) for m = 1
    v = PhiSpline(1, 2.0**14)._sp.x
    exact = 0.5 * math.log(math.pi) + 0.25 * v**2
    got = log_phi(v, 1)
    assert np.all(np.abs(got - exact) <= 1e-14 * np.maximum(1.0, np.abs(exact)))


def test_phi_spline_and_probe_build_one_grid(monkeypatch):
    grids = []

    class Counted(asymptotics.ProfileGrid):
        def __init__(self, *args):
            grids.append(args)
            super().__init__(*args)

    monkeypatch.setattr(asymptotics, "ProfileGrid", Counted)
    PhiSpline(2, 400.0)
    assert len(grids) == 1
    phi_rate_probe(3)
    assert len(grids) == 2


def test_log_phi_names_overflow():
    for m in (1, 2, 3):
        for v in (1e300, -1e300):
            with pytest.raises(DomainError, match=re.escape(f"overflows at v = {v!r}")):
                log_phi(v, m)
        with pytest.raises(DomainError, match=re.escape("overflows at v = 1e+300")):
            log_phi(np.array([0.0, 2.0, 1e300, -3.0]), m)


def test_rate_probes_return_floats():
    for probe in (phi_rate_probe, L_rate_probe):
        measured, expected = probe(2)
        assert type(measured) is float and type(expected) is float


@pytest.mark.parametrize(
    "probe, arg",
    [
        (phi_rate_probe, -40.0),
        (phi_rate_probe, 0.0),
        (phi_rate_probe, math.nan),
        (L_rate_probe, 0.0),
        (L_rate_probe, -3.2),
        (L_rate_probe, math.nan),
        (L_rate_probe, math.inf),
    ],
)
def test_rate_probes_reject_a_point_that_is_not_finite_and_positive(probe, arg):
    # each was a ComplexWarning, ZeroDivisionError, ValueError or
    # OverflowError before it was a named DomainError
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match=f"must be finite and positive, got {arg!r}$"):
        probe(2, arg)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize(
    "probe, arg, power", [(phi_rate_probe, 1e300, "v^1.33333"), (L_rate_probe, 1e100, "u^4")]
)
def test_rate_probes_name_a_point_whose_rate_variable_overflows(probe, arg, power):
    # each ended in a bare OverflowError from v**ex or u**m2
    with pytest.raises(DomainError, match=re.escape(f"= {arg!r} is too large: {power} overflows")):
        probe(2, arg)


@pytest.mark.parametrize("u", [1e10, 1e20, 1e50, 1e76, 1e77])
def test_L_rate_probe_names_a_u_whose_peak_is_out_of_reach(u):
    # from u = 1e10 the peak of L's integrand (v near 4 u^3 at m = 2) lay
    # past the 100 doublings of the peak search, which raised a bare
    # QuadratureError; from u = 1e50 the spline overflowed first
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match=re.escape(f"u = {u!r} is too large")):
        L_rate_probe(2, u)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("u", [1e8, 1e9])
def test_L_rate_probe_keeps_its_rate_below_the_reach(u):
    measured, expected = L_rate_probe(2, u)
    assert abs(measured - expected) <= 1e-12


def test_phi_spline_for_rejects_a_bad_u_max():
    # a u_max that is not finite and >= 0 is refused before any spline is built
    t0 = time.perf_counter()
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError, match=f"u_max must be finite and >= 0, got {bad!r}$"):
            asymptotics._phi_spline_for(2, bad)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("u_max", [1e40, 1e200])
def test_phi_spline_for_names_a_u_max_past_the_peak_reach(u_max):
    # a u_max whose range lies past the peak search's reach is refused by
    # name before any spline is built or any root is searched, also where
    # the range itself overflows (1e200)
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match=re.escape(f"u_max = {u_max!r} is too large")):
        asymptotics._phi_spline_for(2, u_max)
    assert time.perf_counter() - t0 < 0.1


def test_log_l_monotone_and_rate():
    sp = PhiSpline(2, 400.0)
    vals = [log_L(u, sp) for u in (1.5, 2.0, 2.5, 3.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    measured, expected = L_rate_probe(2)
    assert abs(measured / expected - 1.0) <= 0.01


def test_log_L_is_elementwise():
    sp = PhiSpline(2, 400.0)
    # the slope of log phi at v = 1 is below 3.2, so the search widens past [0, 1]
    assert float(sp.deriv(1.0)) < 3.2
    us = np.concatenate([[0.0, -0.4, -2.7, 3.2, 1e-9], np.linspace(-3.0, 3.0, 17)])
    got = log_L(us, sp)
    assert isinstance(got, np.ndarray) and got.shape == us.shape
    for u, g in zip(us.tolist(), got.tolist()):
        # an array call pads its grids to a common size, which moves the
        # summation order of log G, so it may differ from a float call in
        # the last bits
        one = log_L(u, sp)
        assert type(one) is float and abs(one - g) <= 1e-14 * abs(one), u
    assert log_L(us.reshape(2, -1), sp).tolist() == got.reshape(2, -1).tolist()


def test_log_L_memory_stays_bounded():
    # one ProfileGrid build per chunk of u: a call on 1,000 u peaks near
    # 2.4 MB traced, where one build of all of them would take 24 MB
    phis = asymptotics._phi_spline_for(3, 3.0)
    us = np.linspace(0.0, 3.0, 1000)
    tracemalloc.start()
    try:
        got = log_L(us, phis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6
    assert got.shape == us.shape and np.all(np.isfinite(got))


def test_model_profile_pair_reads_log_L_once_per_integrand_call(monkeypatch):
    events = []
    real_engine, real_log_L = asymptotics.log_adaptive_multi, asymptotics.log_L

    def engine(logf, *args, **kwargs):
        def logged(s):
            events.append(("logf", s.size))
            return logf(s)

        return real_engine(logged, *args, **kwargs)

    def counted(u, phis):
        assert isinstance(u, np.ndarray)
        events.append(("log_L", u.size))
        return real_log_L(u, phis)

    monkeypatch.setattr(asymptotics, "log_adaptive_multi", engine)
    monkeypatch.setattr(asymptotics, "log_L", counted)
    lk, _ = model_profile_pair(2, 1.0, 0.7)
    assert math.isclose(math.exp(lk), PAIR_TAU07[0], rel_tol=1e-9)
    assert events and all(kind == "logf" for kind, _ in events[::2])
    assert events[1::2] == [("log_L", n) for _, n in events[::2]]


def test_phi_rate_probe_hits_growth_constant():
    measured, expected = phi_rate_probe(2)
    assert math.isclose(expected, growth_constant_a(2), rel_tol=1e-14)
    assert abs(measured / expected - 1.0) <= 0.01


def test_model_phi_matches_direct_kernel_and_freeze():
    val = model_phi(2, 1.0, 1.0)
    assert math.isclose(val, MODEL_PHI_TAU1, rel_tol=1e-9)
    assert math.isclose(val, K4_AXIS, rel_tol=1e-8)


def test_model_profile_pair_frozen_and_positive():
    lk, ls = model_profile_pair(2, 1.0, 0.7)
    assert math.isclose(math.exp(lk), PAIR_TAU07[0], rel_tol=1e-9)
    assert math.isclose(math.exp(ls), PAIR_TAU07[1], rel_tol=1e-9)


def test_model_profile_scaled_sweep_stays_bounded():
    taus = np.linspace(0.05, 1.0, 8)
    scaled_k = []
    scaled_s = []
    for tau in taus:
        lk, ls = model_profile_pair(2, 1.0, float(tau))
        scaled_k.append(math.exp(lk) * tau**3)
        scaled_s.append(math.exp(ls) * tau**2)
    for series in (scaled_k, scaled_s):
        arr = np.array(series)
        assert np.all(np.isfinite(arr)) and np.all(arr > 0)
        assert arr.max() / arr.min() < 100.0


def test_model_profile_validation():
    with pytest.raises(DomainError):
        model_profile_pair(2, 1.0, 0.0)
    with pytest.raises(DomainError):
        model_profile_pair(2, 1.0, 1.2)
    with pytest.raises(DomainError):
        model_profile_pair(2, -1.0, 0.5)
    # the chart, the spline and the prefactor all need an integer order m
    for args in [(2.5, 1.0, 0.7), (2.5, 2.0, 0.7), (0, 1.0, 0.7)]:
        with pytest.raises(DomainError, match="m must be an integer"):
            model_profile_pair(*args)
    # an infinite or NaN g0 has no model profile
    for g0 in [math.inf, math.nan]:
        with pytest.raises(DomainError, match="g0 must be finite"):
            model_profile_pair(2, g0, 0.7)


def test_predict_reports_exponents_and_coefficient():
    f = model_domain(3)
    pb = predict(f, "bergman", 0.8)
    ps = predict(f, "szego", 0.8)
    assert pb.exponent == Fraction(7, 3)
    assert ps.exponent == Fraction(4, 3)
    assert pb.log_term_expected and ps.log_term_expected
    assert pb.c0_tau > 0 and ps.c0_tau > 0
    assert pb.tau == 0.8
    assert pb.chart_id
    with pytest.raises(DomainError):
        predict(f, "hardy", 0.8)
    # exponents depend only on m, not the profile shape
    pr = predict(rational_domain(3), "bergman", 0.8)
    assert pr.exponent == pb.exponent
    # a chart for another order is refused by name
    with pytest.raises(DomainError, match="chart is for m=2, not m=3"):
        predict(f, "bergman", 0.8, chart=asymptotics._default_chart(2))


def test_phi_inputs_are_validated():
    cases = [
        (PhiSpline, (2, 0.0), "0.0"),
        (PhiSpline, (2, -5.0), "-5.0"),
        (PhiSpline, (2, math.nan), "nan"),
        (PhiSpline, (2, math.inf), "inf"),
        (PhiSpline, (2.5, 30.0), "2.5"),
        (PhiSpline, (0, 30.0), "0"),
        (log_phi, (1.0, -1), "-1"),
        (log_phi, (1.0, 0), "0"),
        (log_phi, (1.0, 2.0), "2.0"),
        (log_phi, (math.nan, 2), "nan"),
        (log_phi, (-math.inf, 2), "-inf"),
    ]
    for fn, args, bad in cases:
        with pytest.raises(DomainError, match=f"got {bad}$"):
            fn(*args)
        if fn is log_phi:  # the same rejection from an array holding the v
            with pytest.raises(DomainError, match=f"got {bad}$"):
                fn(np.array([0.5, args[0], 2.0]), args[1])


@pytest.mark.parametrize("u", [2.6403, 3.0, 5.0, -3.0, math.nan])
def test_log_L_refuses_to_read_phi_past_v_max(u):
    # phi'(64) = 2.5146 at m = 2: from u = 2.6403 on the peak itself lies
    # on the spline's extrapolated end cubic; a NaN u is refused the same way
    phis = PhiSpline(2, 64.0)
    with pytest.raises(DomainError, match="peaks past v_max"):
        log_L(u, phis)
    with pytest.raises(DomainError, match="peaks past v_max"):
        log_L(np.array([0.5, u]), phis)
    assert math.isfinite(log_L(0.5, phis))


@pytest.mark.parametrize("u", [2.2631, 1.76])
def test_log_L_refuses_a_grid_that_truncates_past_v_max(u):
    # the peak lies inside v_max = 64, but the tilted phase there is less
    # than the truncation depth above it (margin 17.5 at u = 1.76), so the
    # grid would read the extrapolated cubic (off by 3.9e-6 at u = 2.2631)
    phis = PhiSpline(2, 64.0)
    assert u < float(phis.deriv(phis.v_max))
    with pytest.raises(DomainError, match="reads phi past v_max"):
        log_L(np.array([0.5, u]), phis)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_L_rate_probe_sizes_its_spline_for_every_u(m):
    # the spline estimate 2m u^(2m-1) 1.3 + 60 left a margin below the
    # truncation depth at u = 2.32 (m = 2) and on several ranges at m = 3
    for u in np.arange(0.3, 4.0, 0.05).tolist() + [2.32]:
        measured, expected = L_rate_probe(m, u)
        assert math.isfinite(measured) and expected == 1.0


def test_phi_spline_for_holds_every_model_profile_range_on_its_first_bucket():
    # _phi_spline_for takes one bucket and never climbs: every u_max that
    # model_profile_pair asks for, t s_hi at the end of its s-grid, must lie
    # inside the spline its estimate picks
    for m in range(1, 9):
        chart = asymptotics._default_chart(m)
        for tau in np.linspace(0.05, 1.0, 12).tolist():
            e = float(chart.core_fraction_from_tau(tau))
            s_hi = ((_TRUNCATION_DEPTH + 8.0) / max(1.0 - e, 1e-12)) ** (1.0 / (2 * m))
            phis = asymptotics._phi_spline_for(m, e ** (1.0 / (2 * m)) * s_hi)
            assert phis.m == m, (m, tau)
