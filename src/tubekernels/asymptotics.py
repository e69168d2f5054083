"""Growth constants, measured growth, and the model boundary profile.

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

from .blowup import BlowupChart, _check_tau
from .domain_model import DefiningFunction, DomainError, _check_order
from .experiments import blowup_exponent
from .quadrature import (
    ProfileGrid,
    QuadratureConfig,
    QuadratureError,
    _PEAK_REACH,
    _TRUNCATION_DEPTH,
    _tilted,
    _tilted_peak,
    log_adaptive_multi,
)

__all__ = [
    "ExpansionPrediction",
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


@dataclass
class LaplaceProblem:
    """The phase p of a Laplace integral int exp(-lambda p(t)) dt."""

    phase: Callable


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


def phase_p(m: int) -> LaplaceProblem:
    """p(t) = t^(2m) - t, whose minimum sits at alpha_critical(m)."""
    m2 = 2 * m
    return LaplaceProblem(phase=lambda t: t**m2 - t)


def phase_q(m: int) -> LaplaceProblem:
    """-q(t) for q(t) = a t^(2m) - t^(2m-1); its minimum sits at beta_critical(m)."""
    m2 = 2 * m
    a = growth_constant_a(m)
    return LaplaceProblem(phase=lambda t: -(a * t**m2 - t ** (m2 - 1)))


# ---------------------------------------------------------------------------
# measured growth: phi, its log-spline cache, and L
# ---------------------------------------------------------------------------


def log_phi(v, m: int):
    """log phi(v) = log int exp(-w^(2m) + v w) dw, elementwise over v.

    phi is even in v.  With w_s^(2m-1) = |v|/(2m) and lambda = w_s^(2m),
    the substitution w = w_s x gives one Laplace family with a fixed phase,

        log phi(v) = log w_s + (2m-1) lambda + log int exp(-lambda c(x)) dx,
        c(x) = x^(2m) - 2m x + (2m-1),

    convex with minimum 0 at x = 1, so one ``ProfileGrid`` spanning the
    call's lambdas serves every v in one ``log_G`` call, which bounds its
    own memory.  For |v| <= 1e-8 the value is log phi(0) =
    log 2 Gamma(1 + 1/(2m)), within v^2/4 < 1e-16 of log phi(v).  A float
    gives a float.

    DomainError unless m is an integer >= 1 and every v is finite, and
    when lambda or log phi at some v is not finite.
    """
    _check_order(m)
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    bad = ~np.isfinite(flat)
    if bad.any():
        raise DomainError(f"v must be finite, got {float(flat[bad.argmax()])!r}")
    m2 = 2 * m
    out = np.full(flat.shape, math.log(2.0 * math.gamma(1.0 + 1.0 / m2)))
    far = np.abs(flat) > 1e-8
    if far.any():
        w_s = (np.abs(flat[far]) / m2) ** (1.0 / (m2 - 1))
        # an overflowing lambda (c - min c) is an exponent log_G floors anyway
        with np.errstate(over="ignore"):
            lam = w_s**m2
            lead = np.log(w_s) + (m2 - 1) * lam
            big = ~np.isfinite(lead)
            if big.any():
                raise DomainError(
                    f"log phi overflows at v = {float(flat[far][big.argmax()])!r}"
                )
            grid = ProfileGrid(
                lambda x, i: x**m2 - m2 * x + (m2 - 1), 1.0, lam.min(), lam.max()
            )
            out[far] = lead + grid.log_G(lam[None, :])[0]
    out = out.reshape(v.shape)
    return out if v.ndim else float(out)


class PhiSpline:
    """Cubic-spline cache of log phi on [0, v_max] with even extension.

    1600 nodes, quadratically clustered near 0 where log phi curves hardest;
    beyond v_max the spline extrapolates its end cubic, which ``log_L``
    refuses to read.  DomainError unless m is
    an integer >= 1 and v_max is finite and positive.
    """

    def __init__(self, m: int, v_max: float):
        _check_order(m)
        if not (math.isfinite(v_max) and v_max > 0):
            raise DomainError(f"v_max must be finite and positive, got {v_max!r}")
        self.m = m
        self.v_max = float(v_max)
        u = np.linspace(0.0, 1.0, 1600)
        vg = self.v_max * u**2
        self._sp = CubicSpline(vg, log_phi(vg, m))
        self._dsp = self._sp.derivative()

    def __call__(self, v):
        return self._sp(np.abs(v))

    def deriv(self, v):
        v = np.asarray(v, dtype=float)
        return np.sign(v) * self._dsp(np.abs(v))


# u per ProfileGrid build of log_L, sized by measured memory: a call on
# 1,000 u at m = 3 peaks at 2.4 MB traced with builds of 64 u, 4.6 MB with
# 128 and 24 MB with one build of all; builds past 64 u gain no speed
_L_CHUNK = 64


def log_L(u, phis: PhiSpline):
    """log int exp(u v)/phi(v) dv using a spline cache of log phi.

    The integrand is exp(-(L(v) - |u| v)) with L = log phi: array in, array
    out, one element per u, one elementwise ``_tilted_peak`` finds every
    peak v_s (where d log phi/dv = |u|) and its offset; then one
    ``ProfileGrid`` build per chunk of ``_L_CHUNK`` u integrates their
    ``_tilted`` phases, each on its own peak-centered grid.  A float gives
    a float.  DomainError naming v_max where the grid would read past it
    (``_peaks_inside``).
    """
    u = np.abs(np.asarray(u, dtype=float))
    flat = u.ravel()
    v_s, A = _peaks_inside(phis, flat)
    out = np.empty(flat.size)
    for j in range(0, flat.size, _L_CHUNK):
        c = slice(j, j + _L_CHUNK)
        grids = ProfileGrid(_tilted(phis, flat[c], A[c]), v_s[c], 1.0, 1.0)
        out[c] = grids.log_G(np.ones((v_s[c].size, 1)))[:, 0] - A[c]
    out = out.reshape(u.shape)
    return out if u.ndim else float(out)


def _peaks_inside(phis: PhiSpline, u: np.ndarray):
    """``_tilted_peak`` of the flat |u| on phis, or DomainError naming u and
    v_max for a peak past v_max or a phase there under the truncation depth."""
    ok = u <= phis.deriv(phis.v_max)  # False for a NaN u
    if not np.all(ok):
        raise DomainError(f"log_L: u = {float(u[~ok][0])!r} peaks past v_max = {phis.v_max!r}")
    v_s, A = _tilted_peak(phis, phis.deriv, u)
    margin = phis(phis.v_max) - u * phis.v_max - A
    if np.any(margin < _TRUNCATION_DEPTH):
        u_bad = float(u[margin.argmin()])
        raise DomainError(f"log_L: u = {u_bad!r} reads phi past v_max = {phis.v_max!r}")
    return v_s, A


@lru_cache(maxsize=16)
def _phi_spline_cached(m: int, bucket: int) -> PhiSpline:
    return PhiSpline(m, float(2**bucket))


def _spline_range(m: int, u: float, name: str, value: float) -> float:
    """The v_max a PhiSpline needs for log L up to |u|: the integrand's
    peak sits near v = 2m u^(2m-1), here taken at u + 1 with 30% and 60 to
    spare.  DomainError naming the point ``name`` = value where that lies
    past ``_PEAK_REACH``, beyond which the peak search finds no peak."""
    try:
        v_max = 2 * m * (u + 1.0) ** (2 * m - 1) * 1.3 + 60.0
    except OverflowError:
        v_max = math.inf
    if v_max > _PEAK_REACH:
        raise DomainError(
            f"{name} = {value!r} is too large: the peak search reaches |v| = 2^100, "
            f"and the spline would span v up to {v_max:.3e}"
        )
    return v_max


def _phi_spline_for(m: int, u_max: float) -> PhiSpline:
    """The cached PhiSpline whose v_max is the power of two (at least 2^6)
    at or above ``_spline_range`` at u_max.  ``_peaks_inside`` checks it
    once at u_max, and so at every smaller |u|: the truncation margin falls
    as u grows.  DomainError naming u_max unless it is finite and >= 0 and
    its range lies within ``_PEAK_REACH`` (from u_max near 6e9 at m = 2),
    or where that spline does not hold it."""
    if not (math.isfinite(u_max) and u_max >= 0):
        raise DomainError(f"u_max must be finite and >= 0, got {u_max!r}")
    bucket = max(6, math.ceil(math.log2(_spline_range(m, u_max, "u_max", u_max))))
    phis = _phi_spline_cached(int(m), bucket)
    _peaks_inside(phis, np.array([u_max]))
    return phis


_PROBE_STEP = 0.05  # the probes' relative half-step in the rate variable


def _rate_variable(name: str, value: float, ex: float) -> float:
    """value^ex, a probe's rate variable.  DomainError naming the point
    unless it is finite and positive and the variable's upper step is
    finite too."""
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be finite and positive, got {value!r}")
    try:
        z = value**ex
    except OverflowError:
        z = math.inf
    if not math.isfinite((1.0 + _PROBE_STEP) * z):
        raise DomainError(f"{name} = {value!r} is too large: {name}^{ex:g} overflows")
    return z


def phi_rate_probe(m: int, v: float = 40.0) -> tuple[float, float]:
    """(measured, expected) growth rate of log phi in the variable v^(2m/(2m-1)).

    The measured value is a centered difference of log phi at relative
    offset 5% in the rate variable; it converges to a as v grows.
    DomainError unless v is finite and positive and the rate variable,
    5% up, is finite.
    """
    m2 = 2 * m
    ex = m2 / (m2 - 1.0)
    z = _rate_variable("v", v, ex)
    dz = _PROBE_STEP * z
    lo, hi = log_phi(np.array([z - dz, z + dz]) ** (1.0 / ex), m)
    return float(hi - lo) / (2 * dz), growth_constant_a(m)


def L_rate_probe(m: int, u: float = 3.2) -> tuple[float, float]:
    """(measured, expected=1) growth rate of log L in the variable u^(2m),
    a centered difference at relative offset 5%.  DomainError unless u is
    finite and positive and the rate variable, 5% up, is finite, and naming
    u when the spline's range, ``_spline_range`` at the upper step, lies
    past ``_PEAK_REACH`` (from u near 6e9 at m = 2)."""
    m2 = 2 * m
    z = _rate_variable("u", u, m2)
    dz = _PROBE_STEP * z
    u_hi = (z + dz) ** (1.0 / m2)
    _spline_range(m, u_hi, "u", u)
    phis = _phi_spline_for(m, u_hi)
    us = np.array([(z - dz) ** (1.0 / m2), u_hi])
    # broadcast: the benchmark's set-up swaps log_L for a scalar constant
    lo, hi = np.broadcast_to(log_L(us, phis), us.shape)
    return float(hi - lo) / (2 * dz), 1.0


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
    degenerating rate as tau drops and the work stays bounded.  Each call
    of the integrand passes all its s nodes to one ``log_L`` call, so one
    root search serves them all, on the spline ``_phi_spline_for`` sizes
    for the largest u = t s_hi.  DomainError unless m is an integer >= 1,
    g0 is finite and positive and tau lies in (0, 1].
    """
    _check_order(m)
    cfg = cfg or QuadratureConfig(rel_tol=1e-9)
    _check_tau(tau)
    if not (math.isfinite(g0) and g0 > 0):
        raise DomainError(f"g0 must be finite and positive, got {g0!r}")
    chart = chart or _default_chart(m)
    if chart.m != m:
        raise DomainError(f"chart is for m={chart.m}, not m={m}")
    m2 = 2 * m
    e = float(chart.core_fraction_from_tau(tau))
    t = e ** (1.0 / m2)
    eps = max(1.0 - e, 1e-12)  # s-decay rate 1 - t^(2m)
    s_hi = ((_TRUNCATION_DEPTH + 8.0) / eps) ** (1.0 / m2)
    phis = _phi_spline_for(m, t * s_hi)

    def rows(s):
        base = -(s**m2) + log_L(t * s, phis)
        with np.errstate(divide="ignore"):
            ls = np.log(s)
        return np.vstack([base + (2 * m2 + 1) * ls, base + (m2 + 1) * ls])

    lv, re, _ = log_adaptive_multi(
        rows,
        0.0,
        s_hi,
        rel_tol=cfg.rel_tol,
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
    pair = model_profile_pair(m, f.g0, tau, chart)
    c0 = math.exp(pair[0] if kind == "bergman" else pair[1])
    return ExpansionPrediction(
        kind=kind,
        exponent=exponent,
        c0_tau=c0,
        log_term_expected=True,
        tau=float(tau),
        chart_id=chart.chart_id,
    )
