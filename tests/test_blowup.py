"""Blow-up chart: the layer map chi and the polar boundary coordinates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubekernels import (
    BlowupChart,
    BoundaryRelativePoint,
    DomainError,
    PolarPoint,
    from_polar,
    model_domain,
    rational_domain,
    table_domain,
    to_polar,
)
from tubekernels import blowup

_CHARTS = {m: BlowupChart(m) for m in (1, 2, 3, 4)}


def test_chi_is_identity_on_lower_third():
    chart = _CHARTS[2]
    u = np.linspace(0.0, 1.0 / 3.0, 101)
    diffs = [abs(chart.chi(float(v)) - float(v)) for v in u]
    assert max(diffs) <= 1e-15


@pytest.mark.parametrize("m", [1, 2])
def test_chi_inverse_on_the_glue_layers_takes_few_reads(monkeypatch, m):
    # t_of_rise takes Newton steps on the layer's stored slope: 6-8 reads of
    # 0.5 t + area(t) a layer for all its 2,001 nodes, where bisection took 49
    chart, reads = _CHARTS[m], [0]
    search = blowup._bracket_root

    def counted(g, *args):
        def g_counted(t):
            reads[0] += 1
            return g(t)

        return search(g_counted, *args)

    monkeypatch.setattr(blowup, "_bracket_root", counted)
    u = np.concatenate([layer.start + layer.width * blowup._T for layer in chart._layers])
    v = chart.chi(u)
    back = chart.chi_inverse(v)
    assert reads[0] <= 20
    assert np.max(np.abs(chart.chi(back) - v)) <= 4e-15
    assert np.max(np.abs(back - u)) <= 2e-15


def test_chi_endpoints_and_anchor():
    chart = _CHARTS[2]
    assert chart.chi(0.0) == 0.0
    assert math.isclose(chart.chi(1.0), 1.0, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(chart.chi(1.0 - 3.0**-4), 2.0 / 3.0, abs_tol=1e-12)


def test_chi_prime_floor_and_monotonicity():
    for m in (1, 2, 3):
        chart = _CHARTS[m]
        u = np.linspace(1e-6, 1.0 - 1e-6, 2000)
        dv = np.array([chart.chi_prime(float(v)) for v in u])
        assert dv.min() >= 0.5 - 1e-12
        vals = np.array([chart.chi(float(v)) for v in u])
        assert np.all(np.diff(vals) > 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-6, 1.0 - 1e-6), st.sampled_from([1, 2, 4]))
def test_chi_roundtrip(u, m):
    chart = _CHARTS[m]
    assert abs(chart.chi_inverse(chart.chi(u)) - u) <= 1e-10


def test_tau_core_fraction_bridge():
    # the core fraction f(x)/y vanishes on the axis (tau = 1) and fills
    # toward 1 as the path flattens onto the boundary (tau -> 0)
    chart = _CHARTS[2]
    assert chart.core_fraction_from_tau(1.0) == 0.0
    assert math.isclose(chart.tau_from_core_fraction(0.0), 1.0, abs_tol=1e-12)
    last = -1.0
    for tau in (1.0, 0.777, 0.3, 0.05):
        e = chart.core_fraction_from_tau(tau)
        assert 0.0 <= e < 1.0
        assert e > last
        last = e
        assert math.isclose(chart.tau_from_core_fraction(e), tau, abs_tol=1e-12)
    assert math.isclose(chart.core_fraction_from_tau(0.05), 0.95, abs_tol=1e-12)


def test_to_polar_quartic_oracle():
    # x = 1, y = 1.25 above f = x^4: core fraction (y - f)/y = 0.2 and the
    # layer map is the identity there, so tau = 0.2 on the nose
    f = model_domain(2)
    chart = _CHARTS[2]
    q = to_polar(f, chart, BoundaryRelativePoint(1.0, 1.25))
    assert math.isclose(q.tau, 0.2, abs_tol=1e-12)
    assert math.isclose(q.rho, 1.25, rel_tol=1e-12)
    assert q.branch == 1
    q_neg = to_polar(f, chart, BoundaryRelativePoint(-1.0, 1.25))
    assert q_neg.branch == -1
    assert math.isclose(q_neg.tau, q.tau, rel_tol=1e-12)


def test_polar_roundtrip_both_ways():
    f = model_domain(2)
    chart = _CHARTS[2]
    rng = np.random.default_rng(7)
    for _ in range(60):
        tau = float(rng.uniform(0.02, 1.0))
        rho = float(rng.uniform(1e-4, 2.0))
        branch = int(rng.choice([-1, 1]))
        p = from_polar(f, chart, PolarPoint(tau, rho, branch))
        f.require_interior(p)
        q = to_polar(f, chart, p)
        assert abs(q.tau - tau) <= 1e-10
        assert abs(q.rho - rho) <= 1e-10 * max(1.0, rho)
        assert q.branch == branch or tau == 1.0


@pytest.mark.parametrize(
    "make",
    [lambda: model_domain(1), lambda: model_domain(2), lambda: rational_domain(2)],
    ids=["model-m1", "model-m2", "rational-m2"],
)
def test_from_polar_meets_its_level_to_rounding(make):
    # from_polar's Newton steps on f solve f(x) = rho (1 - chi^-1(tau)) to
    # the rounding of f, relative to the level, on both branches: a stop on
    # the width of a bracket in x would leave 1e-12 of it at x near 0.02
    f = make()
    chart = _CHARTS[f.m]
    for tau in (0.3, 0.5, 0.8):
        for k in range(9, 15):
            for branch in (-1, 1):
                q = PolarPoint(tau, 2.0**-k, branch)
                p = from_polar(f, chart, q)
                level = q.rho * chart.core_fraction_from_tau(tau)
                assert p.x * branch > 0.0 and p.y == q.rho
                assert abs(f.f(p.x) / level - 1.0) <= 1e-15, (tau, k, branch)


def test_from_polar_axis():
    f = model_domain(3)
    chart = _CHARTS[3]
    p = from_polar(f, chart, PolarPoint(1.0, 0.375))
    assert p.x == 0.0
    assert math.isclose(p.y, 0.375, rel_tol=1e-12)


def test_polar_roundtrip_other_domain_and_profile():
    f = rational_domain(2)
    chart = _CHARTS[2]
    p = from_polar(f, chart, PolarPoint(0.6, 0.01, -1))
    q = to_polar(f, chart, p)
    assert math.isclose(q.tau, 0.6, abs_tol=1e-10)
    assert math.isclose(q.rho, 0.01, rel_tol=1e-10)


def test_from_polar_keeps_the_branch_on_an_asymmetric_domain():
    # g = 1/(1 + c x^2), c = 2 for x < 0: f(-t) > f(t), so the negative
    # branch solves f(-t) = target, not f(t) = target
    xs = np.linspace(-3.0, 3.0, 241)
    c = np.where(xs < 0, 2.0, 1.0)
    f = table_domain(xs, 1.0 / (1.0 + c * xs**2), -2.0 * c * xs / (1.0 + c * xs**2) ** 2, 2)
    chart = _CHARTS[2]
    for branch in (-1, 1):
        p = from_polar(f, chart, PolarPoint(0.5, 0.05, branch))
        q = to_polar(f, chart, p)
        assert q.branch == branch
        assert abs(q.tau - 0.5) <= 1e-12
        assert q.rho == 0.05


def test_chart_validation_and_ids():
    with pytest.raises(DomainError):
        BlowupChart(0)
    assert _CHARTS[2].chart_id == f"chi[m=2,w={_CHARTS[2].w:.12e}]"


def test_to_polar_rejects_mismatched_chart_and_exterior():
    f = model_domain(3)
    with pytest.raises(DomainError):
        to_polar(f, BlowupChart(2), BoundaryRelativePoint(0.5, 1.0))
    with pytest.raises(DomainError):
        to_polar(f, BlowupChart(3), BoundaryRelativePoint(0.5, -1.0))


def test_chi_meets_the_outer_piece_at_q():
    # the up layer ends at t = 1 on chi(q) = 2/3; read just below q and
    # carried to q along the outer slope, so one ulp of u does not count
    for m, chart in _CHARTS.items():
        u = np.nextafter(chart.q, 0.0)
        end = chart.chi(u) + chart.chi_prime(chart.q) * (chart.q - u)
        # the width is solved in log(w / w_cap): at m = 4, w / w_cap ~ 3e-6
        assert abs(end - 2.0 / 3.0) <= 3e-14, m


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("delta", [1e-11, 1e-13])
def test_chi_inverse_just_below_two_thirds(m, delta):
    # the root lies in the up layer, not on the spline extrapolated past q
    chart = _CHARTS[m]
    v = 2.0 / 3.0 - delta
    u = chart.chi_inverse(v)
    assert chart.q - chart.w <= u <= chart.q
    assert abs(chart.chi(u) - v) <= 1e-14


@pytest.mark.parametrize("m", [18, 40])
def test_chart_rejects_an_order_whose_q_rounds_to_one(m):
    # from m = 18, q = 1 - 3^(-2m) is 1.0 and the outer slope divides by 0
    with pytest.raises(DomainError, match="m <= 17"):
        BlowupChart(m)


@pytest.mark.xfail(strict=True, reason="chi(q) reads the closed-form outer piece at the "
                   "rounded q, and 1 - q misses 3^(-2m) by 1.5e-8 relative at m = 9 (0.85 at "
                   "m = 17), so chi(q) - 2/3 = -2.7e-10 there; no glue layer in u can remove it")
def test_chi_meets_two_thirds_at_q_at_order_9():
    chart = BlowupChart(9)
    assert abs(chart.chi(chart.q) - 2.0 / 3.0) <= 1e-10


@pytest.mark.parametrize(
    "m, w", [(1, 8.0830015197413507e-02), (2, 1.8858300917915889e-03), (3, 3.4063626194363482e-05)]
)
def test_chart_width_is_the_root_searched_spline_width(m, w):
    # the widths the search found when every step built the up layer's spline
    assert _CHARTS[m].w == w


@pytest.mark.parametrize("m", [1, 2, 9])
def test_chart_builds_two_splines(m, monkeypatch):
    # the width is solved on the area functional: one spline per glue layer
    calls = []
    build = blowup._not_a_knot
    monkeypatch.setattr(blowup, "_not_a_knot", lambda x, y: calls.append(1) or build(x, y))
    BlowupChart(m)
    assert len(calls) == 2


@pytest.mark.parametrize("m", range(1, 18))
def test_tau_is_continuous_and_monotone_in_e_at_q(m):
    # the up layer and the corridor are read in e, not through u = 1 - e,
    # whose rounding holds none of the up layer from m = 9
    chart = BlowupChart(m)
    e0 = chart.e0
    assert abs(chart.tau_from_core_fraction(math.nextafter(e0, 1.0))
               - chart.tau_from_core_fraction(e0)) <= 1e-15
    tau = [chart.tau_from_core_fraction(float(e)) for e in np.geomspace(e0 / 4, 4 * e0, 801)]
    assert np.all(np.diff(tau) <= 0.0)
