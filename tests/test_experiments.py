"""Approach paths, exponent fits, distance limit, localization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tubekernels import (
    ApproachPath,
    BlowupChart,
    BoundaryRelativePoint,
    DomainError,
    KernelValue,
    QuadratureConfig,
    blowup_exponent,
    default_rho_grid,
    evaluate_path,
    fit_exponent,
    hormander_check,
    hormander_series,
    limit_c0,
    localization_experiment,
    model_domain,
    model_profile_pair,
    path_points,
    rational_domain,
    to_polar,
)
from tubekernels import experiments
from tubekernels.experiments import (
    _levi_determinant_fd,
    _nearest_boundary_distance,
)
from fractions import Fraction


def test_default_rho_grid():
    g = default_rho_grid()
    assert g.shape == (15,)
    assert g[0] == 1.0 and g[-1] == 2.0**-14
    assert np.all(np.diff(g) < 0)
    g2 = default_rho_grid(4, start=0.8, ratio=0.25)
    assert np.allclose(g2, [0.8, 0.2, 0.05, 0.0125])


def test_approach_path_validation():
    # fixed_tau is the one approach; other modes and stray keys are refused
    for mode, params in (("spiral", {}), ("fixed_x", {"x": 0.5}),
                         ("normal_cone", {"aperture": 0.5})):
        with pytest.raises(DomainError, match="mode"):
            ApproachPath(mode, params)
    for params, cause in (({}, "tau"), ({"tau": 0.5, "branch": -1}, "branch"),
                          ({"tau": "a"}, "number"), ({"tau": 0.0}, r"\(0, 1\]"),
                          ({"tau": 1.2}, r"\(0, 1\]"), ({"tau": math.nan}, r"\(0, 1\]")):
        with pytest.raises(DomainError, match=cause):
            ApproachPath("fixed_tau", params)
    for grid in ([1.0, math.nan], [math.inf, 1.0]):
        with pytest.raises(DomainError, match="finite"):
            ApproachPath("fixed_tau", {"tau": 0.5}, np.array(grid))
    with pytest.raises(DomainError):
        ApproachPath("fixed_tau", {"tau": 0.5}, np.array([0.25, 0.5]))  # increasing
    with pytest.raises(DomainError):
        ApproachPath("fixed_tau", {"tau": 0.5}, np.array([1.0, 0.0]))  # hits zero
    with pytest.raises(DomainError):
        ApproachPath("fixed_tau", {"tau": 0.5}, np.array([1.0]))  # single point


def test_path_points_three_modes():
    f = model_domain(2)
    grid = default_rho_grid(5)

    on_axis = path_points(f, ApproachPath("fixed_tau", {"tau": 1.0}, grid))
    for p, rho in zip(on_axis, grid):
        assert p.x == 0.0 and p.y == rho

    chart = BlowupChart(2)
    inside = path_points(f, ApproachPath("fixed_tau", {"tau": 0.5}, grid), chart)
    for p, rho in zip(inside, grid):
        assert p.x > 0.0 and p.y == rho
        assert math.isclose(to_polar(f, chart, p).tau, 0.5, rel_tol=1e-12)


def test_path_points_rejections():
    f = model_domain(1)
    # the path itself refuses a tau outside (0, 1] before any point is built
    with pytest.raises(DomainError):
        path_points(f, ApproachPath("fixed_tau", {"tau": 0.0}, default_rho_grid(5)))
    with pytest.raises(DomainError):
        path_points(f, ApproachPath("fixed_tau", {"tau": 1.2}, default_rho_grid(5)))
    with pytest.raises(DomainError, match="chart"):
        path_points(f, ApproachPath("fixed_tau", {"tau": 0.5}, default_rho_grid(5)),
                    BlowupChart(2))


def test_fit_exponent_exact_power_law():
    rho = default_rho_grid(10)
    values = 0.37 * rho**-2.5
    fit = fit_exponent(values, rho)
    assert math.isclose(fit.slope, -2.5, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(fit.intercept, math.log(0.37), rel_tol=0, abs_tol=1e-12)
    assert fit.max_residual < 1e-12
    assert fit.window == (4, 10)

    # same answer through KernelValue wrappers and other window policies
    kvs = [
        KernelValue(log_value=math.log(v), value=v, err_estimate=1e-9,
                    evaluations=1, kind="bergman")
        for v in values
    ]
    assert math.isclose(fit_exponent(kvs, rho, "all").slope, -2.5, abs_tol=1e-12)
    assert fit_exponent(values, rho, "trailing:8").window == (2, 10)
    d = fit.as_dict()
    assert d["window"] == [4, 10] and d["slope"] == fit.slope


def test_fit_exponent_guards():
    rho = default_rho_grid(10)
    values = rho**-3.0
    with pytest.raises(DomainError):
        fit_exponent(values[:5], rho[:5])  # too few points
    with pytest.raises(DomainError):
        fit_exponent(values[:-1], rho)  # length mismatch
    with pytest.raises(DomainError):
        fit_exponent(values, np.concatenate([rho[:-1], rho[-2:-1]]))  # duplicate
    with pytest.raises(DomainError):
        fit_exponent(np.concatenate([values[:-1], [0.0]]), rho, "all")  # log -inf
    for policy in ("middle:4", "trailing:x", 2.7, 8):
        with pytest.raises(DomainError, match="window policy"):
            fit_exponent(values, rho, policy)


@pytest.mark.parametrize(
    "grid, cause",
    [
        (np.array([1.0, 0.5, np.nan, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125]), "finite"),
        (np.array([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, np.inf]), "finite"),
        (0.5 ** np.arange(8)[::-1], "decreasing"),
        (np.array([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.015625]), "decreasing"),
        (np.array([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, -1.0]), "positive"),
    ],
)
def test_fit_and_limit_need_a_finite_decreasing_grid(grid, cause):
    # the trailing window and the steps theta < 1 both assume a grid that
    # runs down towards the boundary
    values = default_rho_grid(8) ** -2.5
    with pytest.raises(DomainError, match=f"rho_grid must be .*{cause}"):
        fit_exponent(values, grid, "all")
    with pytest.raises(DomainError, match=f"rho_grid must be .*{cause}"):
        limit_c0(values, grid, 2, "bergman")


def test_blowup_exponents():
    assert blowup_exponent(2, "bergman") == Fraction(5, 2)
    assert blowup_exponent(3, "bergman") == Fraction(7, 3)
    assert blowup_exponent(2, "szego") == Fraction(3, 2)
    assert blowup_exponent(1, "szego") == Fraction(2, 1)
    with pytest.raises(DomainError):
        blowup_exponent(2, "reproducing")


def test_limit_c0_cancels_first_correction():
    rho = default_rho_grid(8)
    # pure power law: extrapolation is exact up to roundoff
    c0, ind = limit_c0(0.81 * rho**-2.5, rho, 2, "bergman")
    assert math.isclose(c0, 0.81, rel_tol=1e-12)
    assert ind < 1e-12
    # the pairwise theta = (rho'/rho)^(1/m) kills an O(rho^(1/m)) term exactly
    vals = 0.81 * rho**-2.5 * (1.0 + 0.3 * rho**0.5)
    c0, ind = limit_c0(vals, rho, 2, "bergman")
    assert math.isclose(c0, 0.81, rel_tol=1e-12)
    # a genuine second-order tail survives at its own order
    vals = 0.81 * rho**-2.5 * (1.0 + 0.3 * rho**0.5 + 0.05 * rho)
    c0, ind = limit_c0(vals, rho, 2, "bergman")
    assert abs(c0 / 0.81 - 1.0) < 2e-3
    with pytest.raises(DomainError):
        limit_c0(rho[:2] ** -2.5, rho[:2], 2, "bergman")
    with pytest.raises(DomainError, match="m must be"):
        limit_c0(0.81 * rho**-2.5, rho, 0, "bergman")


def test_nearest_boundary_distance_parabola():
    f = model_domain(1)
    # from (0, y): foot at the vertex while y <= 1/2, else sqrt(y - 1/4)
    assert math.isclose(_nearest_boundary_distance(f, 0.0, 0.1), 0.1, rel_tol=1e-10)
    assert math.isclose(
        _nearest_boundary_distance(f, 0.0, 2.0), math.sqrt(2.0 - 0.25), rel_tol=1e-10
    )


def test_levi_determinant_fd_parabola():
    f = model_domain(1)
    x0 = 0.7
    exact = 2.0 / (4.0 * (1.0 + 4.0 * x0**2) ** 1.5)
    assert math.isclose(_levi_determinant_fd(f, x0), exact, rel_tol=1e-8)


def test_hormander_series_distance_and_guards():
    f = model_domain(1)
    with pytest.raises(DomainError):
        hormander_series(f, 0.0)
    rows = hormander_series(f, 1.0, QuadratureConfig(rel_tol=1e-6))
    assert len(rows) == 10
    for r in rows:
        # the foot of the inward normal is the base point itself, so the
        # curve distance equals the step (step << curvature radius here)
        assert math.isclose(r["distance"], r["eps"], rel_tol=0, abs_tol=1e-9)
        assert math.isfinite(r["scaled"]) and r["scaled"] > 0
    assert rows[0]["eps"] == 0.1 and rows[-1]["eps"] == 0.1 * 2.0**-9


def test_hormander_check_parabola():
    measured, predicted, ratio = hormander_check(
        model_domain(1), 1.0, QuadratureConfig(rel_tol=1e-7)
    )
    assert math.isclose(predicted, 1.0 / (4.0 * math.pi**2 * 5.0**1.5), rel_tol=1e-8)
    assert abs(ratio - 1.0) < 1e-3


def test_evaluate_path_parabola_closed_form():
    f = model_domain(1)
    grid = default_rho_grid(6)
    rows = evaluate_path(
        f, ApproachPath("fixed_tau", {"tau": 1.0}, grid), QuadratureConfig(rel_tol=1e-6)
    )
    assert [r["rho"] for r in rows] == list(grid)
    for r in rows:
        assert r["status"] == "ok"
        rho = r["rho"]
        assert math.isclose(r["bergman"].value, 1.0 / (4 * math.pi**2 * rho**3), rel_tol=1e-5)
        assert math.isclose(r["szego"].value, 1.0 / (8 * math.pi**2 * rho**2), rel_tol=1e-5)
        assert math.isfinite(r["err_estimate"])


def test_evaluate_path_keeps_the_place_of_a_failed_point(fail_at):
    grid = default_rho_grid(6)
    fail_at(grid[2])
    rows = evaluate_path(model_domain(1), ApproachPath("fixed_tau", {"tau": 1.0}, grid))
    assert [r["rho"] for r in rows] == list(grid)
    bad = rows[2]
    assert bad["status"] == f"QuadratureError: no convergence at y = {float(grid[2])!r}"
    assert bad["err_estimate"] == math.inf and bad["bergman"] is bad["szego"] is None
    assert all(r["status"] == "ok" for i, r in enumerate(rows) if i != 2)


def test_localization_reports_too_few_converged_points(fail_at):
    grid = default_rho_grid(8)
    fail_at(grid[1], grid[4], grid[7])
    f = model_domain(1)
    report = localization_experiment(f, f, ApproachPath("fixed_tau", {"tau": 1.0}, grid))
    assert report["passed"] is False
    assert report["reason"] == "too few converged points to fit"
    assert report["excluded"] == [grid[1], grid[4], grid[7]]
    assert [p["rho"] for p in report["points"]] == list(grid)
    assert "fit_k1" not in report


def test_localization_guards():
    grid = default_rho_grid(8)
    tau_path = ApproachPath("fixed_tau", {"tau": 1.0}, grid)
    with pytest.raises(DomainError):
        localization_experiment(model_domain(1), model_domain(2), tau_path)
    with pytest.raises(DomainError):
        localization_experiment(model_domain(2), model_domain(2, g0=1.1), tau_path)


def test_localization_resolves_its_window_before_integrating(monkeypatch):
    def no_integral(*args, **kwargs):
        raise AssertionError("integrated before the window was checked")

    monkeypatch.setattr(experiments, "evaluate_path", no_integral)
    f = model_domain(1)
    tau_path = ApproachPath("fixed_tau", {"tau": 1.0}, default_rho_grid(8))
    with pytest.raises(DomainError, match="window of 9 points"):
        localization_experiment(f, f, tau_path, window_policy="trailing:9")
    short = ApproachPath("fixed_tau", {"tau": 1.0}, default_rho_grid(5))
    with pytest.raises(DomainError, match="at least 6"):
        localization_experiment(f, f, short)


def test_localization_identical_domains():
    # same domain twice: the difference is exactly zero, the below-noise
    # branch fires, and both slopes sit at the full rate -(2 + 1/m)
    f = model_domain(1)
    report = localization_experiment(
        f,
        model_domain(1),
        ApproachPath("fixed_tau", {"tau": 1.0}, default_rho_grid(8)),
        QuadratureConfig(rel_tol=1e-6),
    )
    assert report["passed"] is True
    assert report["diff_below_noise"] is True
    assert report["fit_diff"] is None
    assert report["excluded"] == []
    assert abs(report["fit_k1"]["slope"] + 3.0) < 0.03
    assert abs(report["fit_k2"]["slope"] + 3.0) < 0.03
    assert len(report["points"]) == 8
    assert report["points"][0]["diff"] == 0.0


@pytest.mark.parametrize("m, tau, top", [(2, 1.0, 10), (2, 0.7, 8), (3, 0.7, 10)])
def test_first_correction_is_of_order_rho_to_the_one_over_m(m, tau, top):
    # rational:m scaled to rho = 1 is x^(2m) / (1 + eps x^2) with
    # eps = rho^(1/m), so d = K rho^e / Phi(tau) - 1 falls like rho^(1/m):
    # the first correction that limit_c0 cancels
    cfg = QuadratureConfig(rel_tol=1e-9)
    grid = default_rho_grid(7, start=2.0**-top)
    path = ApproachPath("fixed_tau", {"tau": tau}, grid)
    rows = evaluate_path(rational_domain(m), path, cfg)
    log_phis = model_profile_pair(m, 1.0, tau, cfg=cfg)
    for kind, log_phi in zip(("bergman", "szego"), log_phis):
        e = float(blowup_exponent(m, kind))
        d = np.array(
            [math.expm1(r[kind].log_value + e * math.log(r["rho"]) - log_phi) for r in rows]
        )
        slopes = np.diff(np.log(np.abs(d))) / np.diff(np.log(grid))
        assert np.all(np.abs(slopes[-2:] - 1.0 / m) <= 0.01), (kind, slopes)
