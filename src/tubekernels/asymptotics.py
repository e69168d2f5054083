"""Laplace-method estimates, growth laws, and the model boundary profile.

The chain runs: phi(v) = int exp(-w^(2m) + v w) dw grows like
v^((1-m)/(2m-1)) exp(a v^(2m/(2m-1))); its reciprocal feeds
L(u) = int exp(u v)/phi(v) dv which grows like u^(2m-2) exp(u^(2m)); and
the model kernel profile is an s-integral against L(t s).  Everything
measured here rides the log-scaled quadrature engine; everything closed
form is kept as exact rationals or explicit constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .blowup import BlowupChart
from .domain_model import DefiningFunction, DomainError
from .experiments import blowup_exponent
from .quadrature import (
    ProfileGrid,
    QuadratureConfig,
    QuadratureError,
    _bracket_root,
    log_adaptive_multi,
)

__all__ = [
    "LaplaceProblem",
    "ExpansionPrediction",
    "laplace_leading",
    "phi_l_growth",
    "L_growth",
    "alpha_critical",
    "growth_constant_a",
    "beta_critical",
    "phase_p",
    "phase_q",
    "log_phi",
    "PhiSpline",
    "log_L",
    "phi_rate_probe",
    "L_rate_probe",
    "model_phi",
    "model_profile_pair",
    "predict",
]


# ---------------------------------------------------------------------------
# closed-form constants and their generating phases
# ---------------------------------------------------------------------------


def alpha_critical(m: int) -> float:
    """Interior minimum of p(t) = t^(2m) - t."""
    return (2 * m) ** (-1.0 / (2 * m - 1))


def growth_constant_a(m: int) -> float:
    """a = (2m)^(-1/(2m-1)) - (2m)^(-2m/(2m-1)) = -min p > 0."""
    m2 = 2 * m
    return m2 ** (-1.0 / (m2 - 1)) - m2 ** (-m2 / (m2 - 1.0))


def beta_critical(m: int) -> float:
    """Interior maximum location of q(t) = a t^(2m) - t^(2m-1): (2m-1)/(2ma)."""
    return (2 * m - 1) / (2 * m * growth_constant_a(m))


def phase_p(m: int) -> "LaplaceProblem":
    """p(t) = t^(2m) - t with its critical point, as a LaplaceProblem."""
    m2 = 2 * m
    return LaplaceProblem(
        phase=lambda t: t**m2 - t,
        amplitude=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        critical_point=alpha_critical(m),
        domain=(0.0, math.inf),
    )


def phase_q(m: int) -> "LaplaceProblem":
    """q(t) = a t^(2m) - t^(2m-1); -q has an interior minimum at beta."""
    m2 = 2 * m
    a = growth_constant_a(m)
    return LaplaceProblem(
        phase=lambda t: -(a * t**m2 - t ** (m2 - 1)),
        amplitude=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        critical_point=beta_critical(m),
        domain=(0.0, math.inf),
    )


def phi_l_growth(m: int, l: int) -> tuple[Fraction, float]:
    """Growth law of the l-th v-derivative of phi:

        phi_l(v) ~ const * v^power * exp(a v^(2m/(2m-1))),
        power = (1 - m + l)/(2m - 1).

    Returns (power as an exact rational, a).
    """
    if not (isinstance(m, (int, np.integer)) and m >= 2):
        raise DomainError(f"m must be an integer >= 2, got {m!r}")
    if not (isinstance(l, (int, np.integer)) and l >= 0):
        raise DomainError(f"l must be an integer >= 0, got {l!r}")
    return Fraction(1 - int(m) + int(l), 2 * int(m) - 1), growth_constant_a(int(m))


def L_growth(m: int, n: int) -> tuple[Fraction, bool]:
    """Growth law of L_A(u) = int A(v) e^(uv) dv for amplitude profiles
    A(v) ~ v^(n/(2m-1)) exp(-a v^(2m/(2m-1))):

        L_A(u) ~ const * u^(m-1+n) * exp(u^(2m)).

    Returns (power as an exact rational, True) - the True records that the
    exponential rate is exactly u^(2m) with coefficient one.  The reciprocal
    1/phi has n = m - 1, so the kernel's L carries power 2m - 2.
    """
    if not (isinstance(m, (int, np.integer)) and m >= 2):
        raise DomainError(f"m must be an integer >= 2, got {m!r}")
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"n must be an integer, got {n!r}")
    return Fraction(int(m) - 1 + int(n)), True


# ---------------------------------------------------------------------------
# interior-minimum Laplace estimates
# ---------------------------------------------------------------------------


@dataclass
class LaplaceProblem:
    """int A(t) exp(-lambda p(t)) dt with an interior minimum of p.

    ``critical_point`` may be None, in which case :func:`laplace_leading`
    locates it by grid scan plus derivative bisection.
    """

    phase: Callable
    amplitude: Callable
    critical_point: float | None
    domain: tuple[float, float]


def _locate_minimum(p: Callable, lo: float, hi: float) -> float:
    s_lo = max(lo, -50.0)
    s_hi = min(hi, 50.0)
    grid = np.linspace(s_lo, s_hi, 2001)
    vals = np.array([p(t) for t in grid])
    i = int(np.argmin(vals))
    if i == 0 or i == grid.size - 1:
        raise DomainError("critical-point search failed: minimum sits on the scan edge")
    a, b = grid[i - 1], grid[i + 1]
    h = 1e-7 * (1.0 + abs(grid[i]))
    dp = lambda t: (p(t + h) - p(t - h)) / (2 * h)
    da, db = dp(a), dp(b)
    if not (da < 0 < db):
        return float(grid[i])
    return _bracket_root(dp, a, b)


def laplace_leading(prob: LaplaceProblem, lam: float) -> tuple[float, float]:
    """Leading interior-minimum Laplace estimate of
    int_domain A(t) e^(-lam p(t)) dt.

    Returns (log of A(t*) sqrt(2 pi/(lam p''(t*))) e^(-lam p(t*)),
    relative size of the first correction term), the latter from
    fourth-derivative and amplitude-curvature data by finite differences.
    """
    if not (lam > 0):
        raise DomainError(f"large parameter must be positive, got {lam!r}")
    p, A = prob.phase, prob.amplitude
    lo, hi = prob.domain
    t0 = prob.critical_point
    if t0 is None:
        t0 = _locate_minimum(p, lo, hi)
    t0 = float(t0)
    if not (lo < t0 < hi):
        raise DomainError(f"critical point {t0!r} is not interior to {prob.domain!r}")

    h0 = 0.05 * (1.0 + abs(t0))
    p2 = (p(t0 + h0) - 2.0 * p(t0) + p(t0 - h0)) / h0**2
    if not (p2 > 0):
        raise DomainError("phase is not convex at the critical point")
    margin = min(t0 - lo, hi - t0)

    # Newton on the centered difference refines any seed to the stencil's own
    # stationary point.  The locator step must shrink with the peak width
    # 1/sqrt(lam p''): its O(h^2 p''') offset from the true minimum enters the
    # result as lam p'' offset^2, which stays below the 1/lam correction only
    # for h of that scale.
    h_loc = min(0.5 / math.sqrt(max(lam, 1.0) * p2), 0.3 / math.sqrt(p2), margin / 2.2)
    h_loc = max(h_loc, 3e-6 * (1.0 + abs(t0)))
    t_c = t0
    for _ in range(40):
        d1 = (p(t_c + h_loc) - p(t_c - h_loc)) / (2 * h_loc)
        d2 = (p(t_c + h_loc) - 2.0 * p(t_c) + p(t_c - h_loc)) / h_loc**2
        if not (d2 > 0):
            raise DomainError("phase is not convex at the critical point")
        step = max(-margin / 3.0, min(margin / 3.0, -d1 / d2))
        if not (lo < t_c + step < hi):
            break
        t_c += step
        if abs(step) < 1e-13 * (1.0 + abs(t_c)):
            break
    margin = min(t_c - lo, hi - t_c)
    resid = (p(t_c + h_loc) - p(t_c - h_loc)) / (2 * h_loc)

    # smooth-derivative stencils do not need the lam scaling
    h = min(0.3 / math.sqrt(p2), margin / 2.2, 10.0 * h0)
    ts = t_c + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    pv = np.array([p(t) for t in ts])
    p2 = (-pv[0] + 16 * pv[1] - 30 * pv[2] + 16 * pv[3] - pv[4]) / (12 * h**2)
    p3 = (pv[4] - 2 * pv[3] + 2 * pv[1] - pv[0]) / (2 * h**3)
    p4 = (pv[4] - 4 * pv[3] + 6 * pv[2] - 4 * pv[1] + pv[0]) / h**4
    if not (p2 > 0):
        raise DomainError("phase is not convex at the critical point")
    if abs(resid) > 1e-5 * max(1.0, p2 * h_loc):
        raise DomainError(
            f"critical-point search failed: residual p'({t_c:g}) = {resid:.3e}"
        )
    if 5.0 / math.sqrt(lam * p2) > margin:
        raise DomainError(
            "critical point too close to the domain boundary for an interior estimate"
        )
    t0 = t_c

    A0 = float(A(t0))
    if not (A0 > 0):
        raise DomainError("amplitude must be positive at the critical point")
    A1 = (float(A(t0 + h)) - float(A(t0 - h))) / (2 * h)
    A2 = (float(A(t0 + h)) - 2 * A0 + float(A(t0 - h))) / h**2

    log_value = math.log(A0) - lam * float(p(t0)) + 0.5 * math.log(2 * math.pi / (lam * p2))
    c1 = (
        A2 / (2 * A0 * p2)
        - (A1 / A0) * p3 / (2 * p2**2)
        + 5 * p3**2 / (24 * p2**3)
        - p4 / (8 * p2**2)
    )
    return log_value, abs(c1) / lam


# ---------------------------------------------------------------------------
# measured growth: phi, its log-spline cache, and L
# ---------------------------------------------------------------------------


def _log_exp_integral(c_fn, xi_star: float, log_drop: float = 42.0) -> float:
    """log int exp(-c(xi)) dxi for convex c with minimum 0 at xi_star."""
    pg = ProfileGrid(c_fn, xi_star, 1.0, 1.0, log_drop=log_drop)
    return float(pg.log_G(np.array([1.0]))[0])


def log_phi(v: float, m: int) -> float:
    """log int exp(-w^(2m) + v w) dw by direct peak-centered quadrature."""
    m2 = 2 * m
    v = abs(float(v))
    w_s = (v / m2) ** (1.0 / (m2 - 1)) if v > 0 else 0.0
    A = w_s**m2 - v * w_s
    return -A + _log_exp_integral(lambda w: w**m2 - v * w - A, w_s)


class PhiSpline:
    """Cubic-spline cache of log phi on [0, v_max] with even extension.

    1600 nodes, quadratically clustered near 0 where log phi curves hardest;
    beyond v_max the spline extrapolates its end cubic, so callers size
    v_max to cover the v-range they will explore.
    """

    def __init__(self, m: int, v_max: float):
        self.m = m
        self.v_max = float(v_max)
        u = np.linspace(0.0, 1.0, 1600)
        vg = self.v_max * u**2
        lp = np.array([log_phi(v, m) for v in vg])
        self._sp = CubicSpline(vg, lp)
        self._dsp = self._sp.derivative()

    def __call__(self, v):
        return self._sp(np.abs(v))

    def deriv(self, v):
        v = np.asarray(v, dtype=float)
        return np.sign(v) * self._dsp(np.abs(v))


def log_L(u: float, phis: PhiSpline) -> float:
    """log int exp(u v)/phi(v) dv using a spline cache of log phi."""
    u = abs(float(u))
    v_s = _bracket_root(lambda v: float(phis.deriv(v)) - u, 0.0, 1.0)
    Aoff = float(phis(v_s)) - u * v_s
    return -Aoff + _log_exp_integral(lambda v: (phis(v) - u * v) - Aoff, v_s)


@lru_cache(maxsize=16)
def _phi_spline_cached(m: int, bucket: int) -> PhiSpline:
    return PhiSpline(m, float(2**bucket))


def _phi_spline_for(m: int, v_max: float) -> PhiSpline:
    bucket = max(6, int(math.ceil(math.log2(max(v_max, 1.0)))))
    return _phi_spline_cached(int(m), bucket)


def phi_rate_probe(m: int, v: float = 40.0, delta: float = 0.05) -> tuple[float, float]:
    """(measured, expected) growth rate of log phi in the variable v^(2m/(2m-1)).

    The measured value is a centered difference of log phi at relative
    offset ``delta`` in the rate variable; it converges to a as v grows.
    """
    m2 = 2 * m
    ex = m2 / (m2 - 1.0)
    z = v**ex
    dz = delta * z
    lo = log_phi((z - dz) ** (1.0 / ex), m)
    hi = log_phi((z + dz) ** (1.0 / ex), m)
    return (hi - lo) / (2 * dz), growth_constant_a(m)


def L_rate_probe(m: int, u: float = 3.2, delta: float = 0.05) -> tuple[float, float]:
    """(measured, expected=1) growth rate of log L in the variable u^(2m)."""
    m2 = 2 * m
    z = u**m2
    dz = delta * z
    u_hi = (z + dz) ** (1.0 / m2)
    phis = _phi_spline_for(m, m2 * u_hi ** (m2 - 1) * 1.3 + 60.0)
    lo = log_L((z - dz) ** (1.0 / m2), phis)
    hi = log_L(u_hi, phis)
    return (hi - lo) / (2 * dz), 1.0


# ---------------------------------------------------------------------------
# the model boundary profile
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _default_chart(m: int) -> BlowupChart:
    return BlowupChart(m)


def model_profile_pair(
    m: int,
    g0: float,
    tau: float,
    chart: BlowupChart | None = None,
    cfg: QuadratureConfig | None = None,
) -> tuple[float, float]:
    """(log Phi_bergman(tau), log Phi_szego(tau)) for the model x^(2m) g0.

    Phi(tau) = (2m g0^(1/m)/(4 pi)^2) int_0^inf e^(-s^(2m)) L(t s) s^(4m+1) ds
    with t^(2m) the core fraction the chart assigns to tau; the Szego row
    carries s^(2m+1) instead.  The s-integrand decays like
    exp(-(1 - t^(2m)) s^(2m)), so the grid extent scales with the
    degenerating rate as tau drops and the work stays bounded.
    """
    cfg = cfg or QuadratureConfig(rel_tol=1e-9)
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"tau must lie in (0, 1], got {tau!r}")
    if not (g0 > 0):
        raise DomainError(f"g0 must be positive, got {g0!r}")
    chart = chart or _default_chart(int(m))
    if chart.m != int(m):
        raise DomainError(f"chart is for m={chart.m}, not m={m}")
    m2 = 2 * int(m)
    e = float(chart.core_fraction_from_tau(tau))
    t = e ** (1.0 / m2)
    eps = max(1.0 - e, 1e-12)  # s-decay rate 1 - t^(2m)
    s_hi = ((cfg.log_drop + 8.0) / eps) ** (1.0 / m2)
    u_max = t * s_hi + 1.0
    phis = _phi_spline_for(m, m2 * u_max ** (m2 - 1) * 1.3 + 60.0)

    def rows(s):
        lL = np.array([log_L(t * ss, phis) for ss in s])
        base = -(s**m2) + lL
        with np.errstate(divide="ignore"):
            ls = np.log(s)
        return np.vstack([base + (2 * m2 + 1) * ls, base + (m2 + 1) * ls])

    lv, re, _ = log_adaptive_multi(
        rows,
        0.0,
        s_hi,
        rel_tol=cfg.rel_tol,
        max_panels=cfg.max_panels,
        init=max(16, int(4 * s_hi)),
    )
    worst = float(np.max(re))
    if not (worst <= 20.0 * cfg.rel_tol):
        raise QuadratureError(
            f"model profile did not converge at tau={tau:g}: achieved {worst:.3e}"
        )
    pref = math.log(m2) + math.log(g0) / m - 2.0 * math.log(4.0 * math.pi)
    return float(lv[0] + pref), float(lv[1] + pref)


def model_phi(
    m: int,
    g0: float,
    tau: float,
    chart: BlowupChart | None = None,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Leading Bergman profile Phi(tau) of the model domain (linear scale)."""
    return math.exp(model_profile_pair(m, g0, tau, chart, cfg)[0])


# ---------------------------------------------------------------------------
# predictions for a general domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionPrediction:
    kind: str
    exponent: Fraction
    c0_tau: float
    log_term_expected: bool
    tau: float
    chart_id: str


def predict(
    f: DefiningFunction,
    kind: str,
    tau: float,
    chart: BlowupChart | None = None,
) -> ExpansionPrediction:
    """Expected blow-up exponent and tangent-model leading coefficient.

    The exponent is exact: 2 + 1/m for Bergman, 1 + 1/m for Szego.  The
    coefficient c0_tau is that of the frozen-coefficient model x^(2m) g(0);
    for non-model domains it is the local prediction the experiments
    measure against, not an asserted equality.
    """
    exponent = blowup_exponent(f.m, kind)  # validates kind
    m = f.m
    chart = chart or _default_chart(m)
    if chart.m != m:
        raise DomainError(f"chart is for m={chart.m}, not m={m}")
    g0 = float(f.g(0.0))
    pair = model_profile_pair(m, g0, tau, chart)
    c0 = math.exp(pair[0] if kind == "bergman" else pair[1])
    return ExpansionPrediction(
        kind=kind,
        exponent=exponent,
        c0_tau=c0,
        log_term_expected=True,
        tau=float(tau),
        chart_id=chart.chart_id,
    )
