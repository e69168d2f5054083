"""Real blow-up of the weakly pseudoconvex boundary point.

The chart sends an interior point (x, y) to (tau, rho) with
tau = chi(1 - f(x)/y) and rho = y, separating the angular degeneration
(tau -> 0: strictly pseudoconvex part of the boundary) from the radial one
(rho -> 0 at tau = 1: the type-2m point).  chi is the identity on [0, 1/3],
equals 1 - (1-u)^(1/(2m)) on [1 - 3^(-2m), 1], and is glued in between by a
C-infinity corridor of slope exactly 1/2 whose transition-layer width is
solved so the pieces meet with the right area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain_model import (
    BoundaryRelativePoint,
    DefiningFunction,
    DomainError,
    _check_order,
    _Cubic,
    _not_a_knot,
    _not_a_knot_area,
    _smooth_step,
)
from .quadrature import _bracket_root

__all__ = [
    "PolarPoint",
    "BlowupChart",
    "to_polar",
    "from_polar",
]


def _check_tau(tau: float) -> None:
    """DomainError unless tau lies in (0, 1]."""
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"tau must lie in (0, 1], got {tau!r}")


@dataclass(frozen=True)
class PolarPoint:
    """Blow-up coordinates: tau in (0, 1], rho > 0, branch = sign of x."""

    tau: float
    rho: float
    branch: int = +1

    def __post_init__(self):
        _check_tau(self.tau)
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise DomainError(f"rho must be positive, got {self.rho!r}")
        if self.branch not in (+1, -1):
            raise DomainError(f"branch must be +1 or -1, got {self.branch!r}")


class _GlueLayer(NamedTuple):
    """A glue layer of chi on [start, start + width], read in the unit
    variable t = (u - start) / width: ``slope`` is the spline of chi' - 1/2
    in t, and ``area``, its antiderivative from t = 0, times the width is
    what the layer lifts chi above the slope-1/2 line."""

    start: float
    width: float
    slope: _Cubic
    area: _Cubic

    def t(self, u):
        return np.clip((u - self.start) / self.width, 0.0, 1.0)

    def t_of_rise(self, rise):
        """The t at which 0.5 t + area(t) = rise, elementwise (Newton steps)."""
        return _bracket_root(lambda t: 0.5 * t + self.area(t), rise, 0.0, 1.0,
                             lambda t: 0.5 + self.slope(t))


# a glue layer's unit nodes t, its smooth ramp in t, and the weights whose dot
# product with a layer's data is the area under its spline on [0, 1]
_T = np.linspace(0.0, 1.0, 2001)
_STEP = _smooth_step(_T)
_AREA = _not_a_knot_area(_T)


def _glue_layer(start: float, width: float, slope: np.ndarray) -> _GlueLayer:
    spline = _not_a_knot(_T, slope)
    return _GlueLayer(start, width, spline, spline.antiderivative())


class BlowupChart:
    """One concrete chi together with its inverse and derivative.

    Piece layout on [0, 1]:

    * [0, 1/3]              chi(u) = u
    * [1/3, 1/3 + w]        slope ramps from 1 down to 1/2
    * [1/3 + w, q - w]      slope exactly 1/2 (corridor)
    * [q - w, q]            slope ramps from 1/2 up to the outer piece's
    * [q, 1]                chi(u) = 1 - (1-u)^(1/(2m)),  q = 1 - 3^(-2m)

    On [1/3, q], chi is the line of slope 1/2 through (1/3, 1/3) plus the
    area that each glue layer's spline of chi' - 1/2 adds.  The single free
    width w is solved so that chi(q) = 2/3 (continuity of the closed-form
    outer piece) on the layers' area functional: the area under a spline
    on the layers' fixed nodes is one dot product with its data
    (``_not_a_knot_area``), so each step of the search evaluates the up
    layer's data once and builds no spline; the up layer's spline is built
    once, at the solved w.  chi' >= 1/2 everywhere by construction.  The
    glue layers ramp with the C-infinity step ``_smooth_step``.

    The up layer's data is taken at e = 1 - u = 3^(-2m) + w (1 - t), and
    ``tau_from_core_fraction`` and ``core_fraction_from_tau`` read that layer
    and the corridor in e, so they hold where w is below the spacing of
    doubles near u = 1 (from m = 9) and are continuous in e through m = 17.
    """

    def __init__(self, m: int):
        _check_order(m)
        self.m = int(m)
        n = 2 * self.m
        self._n = n
        self.p = 1.0 / 3.0
        self.e0 = 3.0**-n  # the core fraction 1 - q
        self.q = 1.0 - self.e0
        if not self.q < 1.0:  # from m = 18, 3^(-2m) < 2^-54 and q rounds to 1
            raise DomainError(f"BlowupChart needs m <= 17: at m = {m}, q = 1 - 3^(-2m) is 1")
        # the area both layers must add above the slope-1/2 line on [p, q]
        budget = 0.5 * self.e0
        # the down layer's spline in t does not depend on w
        down = _glue_layer(self.p, 1.0, 0.5 * (1.0 - _STEP))
        down_area = float(down.area(1.0))

        def up_slope(w: float) -> np.ndarray:
            return (self._outer_slope(self.e0 + w * (1.0 - _T)) - 0.5) * _STEP

        # the up-layer's endpoint slope must already exceed 1/2
        e_half = float(self.m) ** (-n / (n - 1.0))
        w_cap = min(0.9 * (e_half - self.e0), (self.q - self.p) / 3.0)

        def lift(s):
            w = np.exp(s) * w_cap
            return w * (down_area + _AREA @ up_slope(w))

        if lift(0.0) <= budget:
            raise RuntimeError("chi corridor construction failed (internal error)")
        # solved for s = log(w / w_cap), so the root's absolute stop in s is
        # a relative stop in w however small w is against the cap
        self.w = w = math.exp(_bracket_root(lift, budget, math.log(1e-12), 0.0)) * w_cap
        self._layers = (down._replace(width=w), _glue_layer(self.q - w, w, up_slope(w)))
        # piece anchors
        self.v_lo = self.p + w * (0.5 + down_area)  # chi(p + w)
        self.v_hi = self.v_lo + 0.5 * ((self.q - w) - (self.p + w))  # chi(q - w)
        self.chart_id = f"chi[m={self.m},w={self.w:.12e}]"

    def _outer_slope(self, e):
        """The outer piece's chi' at u = 1 - e."""
        return (1.0 / self._n) * e ** (1.0 / self._n - 1.0)

    # -- forward map ---------------------------------------------------------

    def chi(self, u):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        mid = np.clip(u_arr, self.p, self.q)
        out = self.p + 0.5 * (mid - self.p)
        for layer in self._layers:
            out += layer.width * layer.area(layer.t(mid))
        low, high = u_arr <= self.p, u_arr >= self.q
        out[low] = u_arr[low]
        out[high] = 1.0 - (1.0 - u_arr[high]) ** (1.0 / self._n)
        return out if np.ndim(u) else float(out[0])

    def chi_prime(self, u):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        mid = np.clip(u_arr, self.p, self.q)
        out = 0.5 + sum(layer.slope(layer.t(mid)) for layer in self._layers)
        low, high = u_arr <= self.p, u_arr >= self.q
        out[low] = 1.0
        with np.errstate(divide="ignore"):
            out[high] = self._outer_slope(1.0 - u_arr[high])
        return out if np.ndim(u) else float(out[0])

    # -- inverse map -----------------------------------------------------------

    def chi_inverse(self, v):
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = (self.p + self.w) + 2.0 * (v_arr - self.v_lo)  # corridor
        # each layer's range of chi runs from its anchor chi(start) to the next
        for layer, lo, hi in zip(self._layers, (self.p, self.v_hi), (self.v_lo, 2.0 / 3.0)):
            inside = (v_arr > lo) & (v_arr < hi)
            t = layer.t_of_rise((v_arr[inside] - lo) / layer.width)
            out[inside] = layer.start + layer.width * t
        low, high = v_arr <= self.p, v_arr >= 2.0 / 3.0
        out[low] = v_arr[low]
        out[high] = 1.0 - (1.0 - v_arr[high]) ** self._n
        return out if np.ndim(v) else float(out[0])

    # -- numerically stable bridges used by the coordinate maps ---------------

    def tau_from_core_fraction(self, e: float) -> float:
        """tau = chi(1 - e) from e = f(x)/y.  The outer piece, the up layer
        and the corridor are read in e itself, never through 1 - e."""
        if not (0.0 <= e < 1.0):
            raise DomainError(f"core fraction must lie in [0, 1), got {e!r}")
        if e <= self.e0:
            return 1.0 - e ** (1.0 / self._n)
        if 1.0 - e <= self.p + self.w:  # the down layer and below
            return float(self.chi(1.0 - e))
        # e - e0 = w (1 - t) in the up layer, and past w in the corridor (t = 0)
        d = e - self.e0
        t = max(1.0 - d / self.w, 0.0)
        return self.v_hi + 0.5 * (self.w - d) + self.w * float(self._layers[1].area(t))

    def core_fraction_from_tau(self, tau: float) -> float:
        """Inverse bridge: e = 1 - chi^(-1)(tau), read in e from the
        corridor up, so stable for tau near 1."""
        _check_tau(tau)
        if tau >= 2.0 / 3.0:
            return (1.0 - tau) ** self._n
        if tau <= self.v_lo:
            return 1.0 - float(self.chi_inverse(tau))
        if tau <= self.v_hi:  # the corridor
            return self.e0 + self.w + 2.0 * (self.v_hi - tau)
        t = self._layers[1].t_of_rise(np.array((tau - self.v_hi) / self.w))
        return self.e0 + self.w * (1.0 - float(t))


def to_polar(
    f: DefiningFunction, chart: BlowupChart, p: BoundaryRelativePoint
) -> PolarPoint:
    """(x, y) -> (tau, rho) = (chi(1 - f(x)/y), y)."""
    if chart.m != f.m:
        raise DomainError(f"chart is for m={chart.m}, domain has m={f.m}")
    fx = f.f(p.x)
    if not (p.y > fx):
        raise DomainError(f"point (x={p.x!r}, y={p.y!r}) outside the domain")
    e = fx / p.y
    tau = chart.tau_from_core_fraction(e)
    branch = +1 if p.x >= 0 else -1
    return PolarPoint(tau=tau, rho=p.y, branch=branch)


def from_polar(
    f: DefiningFunction, chart: BlowupChart, q: PolarPoint
) -> BoundaryRelativePoint:
    """Inverse chart: solve f(x) = rho * (1 - chi^(-1)(tau)) on the branch.

    f is convex with minimum 0 at the origin, so t -> f(branch t) is
    nondecreasing in t >= 0 on either branch, and Newton steps from the
    model's root (target / g0)^(1/2m) find x = branch t, also where f is not even.
    """
    if chart.m != f.m:
        raise DomainError(f"chart is for m={chart.m}, domain has m={f.m}")
    target = q.rho * chart.core_fraction_from_tau(q.tau)
    if target == 0.0:
        return BoundaryRelativePoint(x=0.0, y=q.rho)
    b, t0 = q.branch, (target / f.g0) ** (1.0 / (2 * f.m))
    t = _bracket_root(lambda t: f.f(b * t), target, t0, t0, lambda t: b * f.fprime(b * t))
    return BoundaryRelativePoint(x=b * t, y=q.rho)
