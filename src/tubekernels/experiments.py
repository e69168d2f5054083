"""Boundary-approach experiments: exponent fits, coefficient limits,
localization comparisons, and the strictly-pseudoconvex distance limit.

``evaluate_path`` and ``hormander_series`` return plain dict rows, one a
point, with the kernel values and their error estimates but neither the
chart id nor the configuration hash.  ``localization_experiment``'s
report embeds both beside its per-point errors, so that run is
reproducible from its report alone.  ``evaluate_path`` records a failing
point with its error text, and the localization report excludes it from
its fits, rather than aborting the sweep; ``hormander_series`` raises.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass, field
from fractions import Fraction

import numpy as np

from .blowup import BlowupChart, PolarPoint, _check_tau, from_polar
from .domain_model import BoundaryRelativePoint, DefiningFunction, DomainError, _check_order
from .quadrature import (
    KernelValue,
    QuadratureConfig,
    QuadratureError,
    _bracket_root,
    direct_pair,
)

__all__ = [
    "ApproachPath",
    "FitResult",
    "default_rho_grid",
    "path_points",
    "evaluate_path",
    "fit_exponent",
    "limit_c0",
    "blowup_exponent",
    "hormander_series",
    "hormander_check",
    "localization_experiment",
]


def default_rho_grid(n: int = 15, start: float = 1.0, ratio: float = 0.5) -> np.ndarray:
    """Geometric rho grid, default 1, 1/2, ..., 2^-14."""
    return start * ratio ** np.arange(n)


def _decreasing_grid(rho_grid) -> np.ndarray:
    """``rho_grid`` as a float array; DomainError unless it is finite,
    positive and strictly decreasing, the order the fit windows and the
    extrapolation steps assume."""
    rg = np.asarray(rho_grid, dtype=float)
    if not np.all(np.isfinite(rg)):
        raise DomainError("rho_grid must be finite")
    if np.any(rg <= 0) or np.any(np.diff(rg) >= 0):
        raise DomainError("rho_grid must be positive and strictly decreasing")
    return rg


@dataclass(frozen=True)
class ApproachPath:
    """Interior points approaching the origin at a constant blow-up angle.

    The one mode is "fixed_tau": parameters {"tau": tau} with tau in (0, 1],
    and rho = y runs down ``rho_grid``, which must be finite, positive and
    strictly decreasing.
    """

    mode: str
    parameters: dict
    rho_grid: np.ndarray = field(default_factory=default_rho_grid)

    def __post_init__(self):
        if self.mode != "fixed_tau":
            raise DomainError(f"unknown approach mode {self.mode!r}; only fixed_tau exists")
        if set(self.parameters) != {"tau"}:
            raise DomainError(
                f"fixed_tau takes exactly the parameter 'tau', got {sorted(self.parameters)}"
            )
        try:
            tau = float(self.parameters["tau"])
        except (TypeError, ValueError):
            raise DomainError(
                f"tau must be a number, got {self.parameters['tau']!r}"
            ) from None
        _check_tau(tau)
        rg = np.asarray(self.rho_grid, dtype=float)
        if rg.ndim != 1 or rg.size < 2:
            raise DomainError("rho_grid must be a 1-d grid of at least 2 points")
        object.__setattr__(self, "rho_grid", _decreasing_grid(rg))


def path_points(
    f: DefiningFunction, path: ApproachPath, chart: BlowupChart | None = None
) -> list[BoundaryRelativePoint]:
    """Interior points realizing the path on the given domain."""
    tau = float(path.parameters["tau"])
    if tau == 1.0:
        pts = [BoundaryRelativePoint(0.0, float(rho)) for rho in path.rho_grid]
    else:
        chart = chart or BlowupChart(f.m)
        pts = [from_polar(f, chart, PolarPoint(tau, float(rho))) for rho in path.rho_grid]
    for p in pts:
        f.require_interior(p)
    return pts


def _config_hash(cfg: QuadratureConfig) -> str:
    text = repr(astuple(cfg))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def evaluate_path(
    f: DefiningFunction,
    path: ApproachPath,
    cfg: QuadratureConfig | None = None,
    chart: BlowupChart | None = None,
) -> list[dict]:
    """Kernel pair along a path; one dict row per grid point.

    Rows carry x, y, rho, both kernels, error estimates, and a status field
    ("ok" or the failure text); failed points keep their place in the grid.
    """
    cfg = cfg or QuadratureConfig()
    pts = path_points(f, path, chart)
    rows = []
    for p, rho in zip(pts, path.rho_grid):
        row = {"x": p.x, "y": p.y, "rho": float(rho)}
        try:
            K, S = direct_pair(f, p, cfg)
            row.update(
                bergman=K, szego=S, err_estimate=max(K.err_estimate, S.err_estimate),
                status="ok",
            )
        except (QuadratureError, DomainError) as exc:
            row.update(bergman=None, szego=None, err_estimate=math.inf,
                       status=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# fitting and extrapolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    max_residual: float
    window: tuple[int, int]

    def as_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "max_residual": self.max_residual,
            "window": list(self.window),
        }


# the fewest grid points a fit accepts
_FIT_MIN_POINTS = 6


def _resolve_window(n: int, window_policy) -> tuple[int, int]:
    """(start, stop) of the trailing window that ``window_policy`` names,
    "all" or "trailing:<count>", on a grid of n points.  DomainError unless
    n is at least ``_FIT_MIN_POINTS`` and the window fits the grid."""
    if n < _FIT_MIN_POINTS:
        raise DomainError(f"need at least {_FIT_MIN_POINTS} grid points to fit, got {n}")
    if window_policy == "all":
        k = n
    else:
        head, _, count = str(window_policy).partition(":")
        if head != "trailing" or not count.isdecimal():
            raise DomainError(
                f"unknown window policy {window_policy!r}; use 'all' or 'trailing:<count>'"
            )
        k = int(count)
    if not (2 <= k <= n):
        raise DomainError(f"window of {k} points does not fit a grid of {n}")
    return n - k, n


def _log_values(values) -> np.ndarray:
    out = []
    for v in values:
        if isinstance(v, KernelValue):
            out.append(v.log_value)
        else:
            fv = float(v)
            out.append(math.log(fv) if fv > 0 else -math.inf)
    return np.array(out)


def fit_exponent(values, rho_grid, window_policy="trailing:6") -> FitResult:
    """Least-squares slope of log K against log rho on a trailing window.

    ``values`` are KernelValue objects (or positive reals); the slope
    estimates the blow-up exponent, e.g. -(2 + 1/m) on a fixed-tau Bergman
    path.  ``rho_grid`` must be finite, positive and strictly decreasing,
    so that the trailing window holds the smallest rho.
    """
    rho = _decreasing_grid(rho_grid)
    lv = _log_values(values)
    if rho.size != lv.size:
        raise DomainError("values and rho_grid lengths differ")
    i0, i1 = _resolve_window(rho.size, window_policy)
    lr = np.log(rho[i0:i1])
    lw = lv[i0:i1]
    if not np.all(np.isfinite(lw)):
        raise DomainError("non-finite values inside the fit window")
    slope, intercept = np.polyfit(lr, lw, 1)
    resid = lw - (slope * lr + intercept)
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        max_residual=float(np.max(np.abs(resid))),
        window=(i0, i1),
    )


def blowup_exponent(m: int, kind: str) -> Fraction:
    _check_order(m)
    if kind == "bergman":
        return Fraction(2 * m + 1, m)
    if kind == "szego":
        return Fraction(m + 1, m)
    raise DomainError(f"kind must be 'bergman' or 'szego', got {kind!r}")


def limit_c0(values, rho_grid, m: int, kind: str) -> tuple[float, float]:
    """Richardson-extrapolated limit of K * rho^(2+1/m) (or S * rho^(1+1/m)).

    The leading correction on a fixed-tau path is O(rho^(1/m)), so each
    adjacent pair is extrapolated with theta = (rho_next/rho)^(1/m); the
    returned indicator is the relative gap between the last two extrapolants
    (a Cauchy tail: small means converged, order of the quadrature noise for
    an exactly homogeneous model).  ``rho_grid`` must be finite, positive and
    strictly decreasing, so that each step theta lies in (0, 1).
    """
    rho = _decreasing_grid(rho_grid)
    lv = _log_values(values)
    expo = float(blowup_exponent(m, kind))
    if rho.size < 3:
        raise DomainError("need at least 3 points to extrapolate")
    c = np.exp(lv + expo * np.log(rho))
    if not np.all(np.isfinite(c)):
        raise DomainError("non-finite scaled values")
    ext = []
    for k in range(rho.size - 1):
        theta = (rho[k + 1] / rho[k]) ** (1.0 / m)
        ext.append((c[k + 1] - theta * c[k]) / (1.0 - theta))
    est, prev = ext[-1], ext[-2]
    indicator = abs(est - prev) / max(abs(est), 1e-300)
    return float(est), float(indicator)


# ---------------------------------------------------------------------------
# strictly pseudoconvex distance limit
# ---------------------------------------------------------------------------


def _nearest_boundary_distance(f: DefiningFunction, px: float, py: float) -> float:
    """Euclidean distance from an interior point to the curve y = f(x)."""
    psi = lambda t: (t - px) + (f.f(t) - py) * f.fprime(t)
    w = max(1e-3, 0.1 * (1.0 + abs(px)))
    t = _bracket_root(psi, 0.0, px - w, px + w)
    return math.hypot(t - px, float(f.f(t)) - py)


def _levi_determinant_fd(f: DefiningFunction, x0: float) -> float:
    """Levi determinant of Im z2 - f(Im z1) on the complex tangent space,
    from f-values only (independent of the stored derivative callables).

    For a graph boundary in C^2 the normalized determinant reduces to
    f''(x0) / (4 (1 + f'(x0)^2)^(3/2)); both derivatives are taken by
    Richardson-refined central differences.
    """
    h = 1e-3 * (1.0 + abs(x0))

    def d1(hh):
        return (float(f.f(x0 + hh)) - float(f.f(x0 - hh))) / (2 * hh)

    def d2(hh):
        return (
            float(f.f(x0 + hh)) - 2.0 * float(f.f(x0)) + float(f.f(x0 - hh))
        ) / hh**2

    fp = (4.0 * d1(h / 2) - d1(h)) / 3.0
    fpp = (4.0 * d2(h / 2) - d2(h)) / 3.0
    return fpp / (4.0 * (1.0 + fp * fp) ** 1.5)


def _normal_steps(f: DefiningFunction, x0: float) -> list[tuple[float, BoundaryRelativePoint]]:
    """(eps, point) at eps = 0.1 * 2^-k, k = 0..9, along the inward normal
    from the boundary point (x0, f(x0)); DomainError unless x0 != 0, the
    boundary is strictly pseudoconvex there and every point is interior."""
    x0 = float(x0)
    if x0 == 0.0:
        raise DomainError("x0 = 0 is the degenerate point; pick x0 != 0")
    fpp = float(f.fsecond(x0))
    if not (fpp > 0):
        raise DomainError(f"boundary not strictly pseudoconvex at x0={x0:g}")
    bx, by = x0, float(f.f(x0))
    fp = float(f.fprime(x0))
    nrm = math.hypot(fp, 1.0)
    nx, ny = -fp / nrm, 1.0 / nrm
    steps = []
    for e in 0.1 * 0.5 ** np.arange(10):
        p = BoundaryRelativePoint(float(bx + e * nx), float(by + e * ny))
        f.require_interior(p)
        steps.append((float(e), p))
    return steps


def hormander_series(
    f: DefiningFunction, x0: float, cfg: QuadratureConfig | None = None
) -> list[dict]:
    """Per-step data for the distance limit: K * d^3 along the inward normal.

    Steps eps = 0.1 * 2^-k, k = 0..9, from the boundary point (x0, f(x0));
    d is the exact nearest-point distance to the curve, not the vertical gap.
    """
    cfg = cfg or QuadratureConfig()
    rows = []
    for e, p in _normal_steps(f, x0):
        K, _ = direct_pair(f, p, cfg)
        d = _nearest_boundary_distance(f, p.x, p.y)
        rows.append(
            {"eps": e, "x": p.x, "y": p.y, "distance": d,
             "bergman": K, "scaled": K.value * d**3}
        )
    return rows


def _hormander_limit(
    f: DefiningFunction, x0: float, cfg: QuadratureConfig | None = None
) -> tuple[list[dict], float, float]:
    """(series, measured_limit, predicted_limit) for :func:`hormander_check`."""
    rows = hormander_series(f, x0, cfg)
    measured = 2.0 * rows[-1]["scaled"] - rows[-2]["scaled"]
    predicted = _levi_determinant_fd(f, float(x0)) / (2.0 * math.pi**2)
    return rows, float(measured), float(predicted)


def hormander_check(
    f: DefiningFunction, x0: float, cfg: QuadratureConfig | None = None
) -> tuple[float, float, float]:
    """Bergman distance limit at a strictly pseudoconvex boundary point.

    Richardson-extrapolates the last pair of the K * d^3 series against the
    prediction detLevi/(2 pi^2), where the Levi determinant comes from a
    finite-difference oracle that never touches the quadrature.  Returns
    (measured_limit, predicted_limit, ratio).
    """
    _, measured, predicted = _hormander_limit(f, x0, cfg)
    return measured, predicted, measured / predicted


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------


def _log_abs_diff(l1: float, l2: float) -> float:
    if l1 == l2:
        return -math.inf
    hi, lo = max(l1, l2), min(l1, l2)
    return hi + math.log1p(-math.exp(lo - hi))


def localization_experiment(
    f1: DefiningFunction,
    f2: DefiningFunction,
    path: ApproachPath,
    cfg: QuadratureConfig | None = None,
    *,
    chart: BlowupChart | None = None,
    agreement_radius: float = 0.5,
    slope_rel_tol: float = 0.01,
    bounded_slope_floor: float = -0.1,
    window_policy="trailing:6",
) -> dict:
    """Compare kernels of two domains that coincide on |x| < agreement_radius.

    Along a fixed-tau path both kernels blow up at the full rate while their
    difference stays bounded; the report asserts a trailing-window slope of
    log|K1 - K2| above ``bounded_slope_floor`` and each individual slope
    within ``slope_rel_tol`` of -(2 + 1/m).  A window that does not fit the
    path's grid is a DomainError raised before any kernel is evaluated.
    """
    cfg = cfg or QuadratureConfig()
    if f1.m != f2.m:
        raise DomainError("domains must share the degeneracy order m")
    probe = np.linspace(-agreement_radius, agreement_radius, 257)
    gap = float(np.max(np.abs(f1.f(probe) - f2.f(probe))))
    if gap != 0.0:
        raise DomainError(
            f"domains differ by {gap:.3e} inside |x| < {agreement_radius:g}"
        )
    w0, w1 = _resolve_window(len(path.rho_grid), window_policy)
    chart = chart or BlowupChart(f1.m)
    rows1 = evaluate_path(f1, path, cfg, chart)
    rows2 = evaluate_path(f2, path, cfg, chart)

    points = []
    ok = []
    for r1, r2 in zip(rows1, rows2):
        status = r1["status"] if r1["status"] != "ok" else r2["status"]
        rec = {
            "rho": r1["rho"], "x": r1["x"], "y": r1["y"], "status": status,
        }
        if status == "ok":
            k1, k2 = r1["bergman"], r2["bergman"]
            rec.update(
                log_k1=k1.log_value, log_k2=k2.log_value,
                k1=k1.value, k2=k2.value, diff=k1.value - k2.value,
                log_abs_diff=_log_abs_diff(k1.log_value, k2.log_value),
                err_estimate=max(k1.err_estimate, k2.err_estimate),
            )
            ok.append(rec)
        points.append(rec)

    report = {
        "experiment": "localization",
        "m": f1.m,
        "domains": [f1.label, f2.label],
        "agreement_radius": agreement_radius,
        "chart_id": chart.chart_id,
        "config_hash": _config_hash(cfg),
        "points": points,
        "excluded": [p["rho"] for p in points if p["status"] != "ok"],
    }
    if len(ok) < max(w1 - w0, _FIT_MIN_POINTS):
        report.update(passed=False, reason="too few converged points to fit")
        return report

    rho = np.array([p["rho"] for p in ok])
    expo = float(blowup_exponent(f1.m, "bergman"))
    fit1 = fit_exponent([p["k1"] for p in ok], rho, window_policy)
    fit2 = fit_exponent([p["k2"] for p in ok], rho, window_policy)
    report["fit_k1"] = fit1.as_dict()
    report["fit_k2"] = fit2.as_dict()

    # a difference at quadrature-noise level counts as identically zero
    i0, i1 = _resolve_window(rho.size, window_policy)
    noise = max(
        max(p["k1"], p["k2"]) * p["err_estimate"] * 10.0 for p in ok[i0:i1]
    )
    tail_diffs = [abs(p["diff"]) for p in ok[i0:i1]]
    if max(tail_diffs) <= noise:
        report.update(diff_below_noise=True, fit_diff=None, bounded=True)
    else:
        fitd = fit_exponent([abs(p["diff"]) for p in ok], rho, window_policy)
        report.update(
            diff_below_noise=False,
            fit_diff=fitd.as_dict(),
            bounded=fitd.slope >= bounded_slope_floor,
        )
    report["slopes_ok"] = (
        abs(fit1.slope + expo) <= slope_rel_tol * expo
        and abs(fit2.slope + expo) <= slope_rel_tol * expo
    )
    report["passed"] = bool(report["bounded"] and report["slopes_ok"])
    return report
