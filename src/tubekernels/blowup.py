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


def _glue_layer(start: float, width: float, t: np.ndarray, slope: np.ndarray) -> _GlueLayer:
    spline = _not_a_knot(t, slope)
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
    width w is solved on those same splines so that chi(q) = 2/3
    (continuity of the closed-form outer piece).  chi' >= 1/2 everywhere by
    construction.  The glue layers ramp with the C-infinity step
    ``_smooth_step``.
    """

    def __init__(self, m: int):
        _check_order(m)
        self.m = int(m)
        n = 2 * self.m
        self._n = n
        self.p = 1.0 / 3.0
        self.q = 1.0 - 3.0**-n
        if not self.q < 1.0:  # from m = 18, 3^(-2m) < 2^-54 and q rounds to 1
            raise DomainError(f"BlowupChart needs m <= 17: at m = {m}, q = 1 - 3^(-2m) is 1")
        # the area both layers must add above the slope-1/2 line on [p, q]
        budget = 0.5 * 3.0**-n
        t = np.linspace(0.0, 1.0, 2001)
        step = _smooth_step(t)
        # the down layer's spline in t does not depend on w
        down = _glue_layer(self.p, 1.0, t, 0.5 * (1.0 - step))
        down_area = float(down.area(1.0))

        def up_layer(w: float) -> _GlueLayer:
            u = (self.q - w) + w * t
            return _glue_layer(self.q - w, w, t, (self._outer_slope(u) - 0.5) * step)

        # the up-layer's endpoint slope must already exceed 1/2
        u_half = 1.0 - float(self.m) ** (-n / (n - 1.0))
        w_cap = min(0.9 * (self.q - u_half), (self.q - self.p) / 3.0)

        def excess(s: float) -> float:
            w = math.exp(s) * w_cap
            return w * (down_area + float(up_layer(w).area(1.0))) - budget

        if excess(0.0) <= 0.0:
            raise RuntimeError("chi corridor construction failed (internal error)")
        # solved for s = log(w / w_cap), so the root's absolute stop in s is
        # a relative stop in w however small w is against the cap
        self.w = w = math.exp(_bracket_root(excess, math.log(1e-12), 0.0)) * w_cap
        self._layers = (down._replace(width=w), up_layer(w))
        # piece anchors
        self.v_lo = self.p + w * (0.5 + down_area)  # chi(p + w)
        self.v_hi = self.v_lo + 0.5 * ((self.q - w) - (self.p + w))  # chi(q - w)
        self.chart_id = f"chi[m={self.m},w={self.w:.12e}]"

    def _outer_slope(self, u):
        return (1.0 / self._n) * (1.0 - u) ** (1.0 / self._n - 1.0)

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
            out[high] = self._outer_slope(u_arr[high])
        return out if np.ndim(u) else float(out[0])

    # -- inverse map -----------------------------------------------------------

    def chi_inverse(self, v):
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = (self.p + self.w) + 2.0 * (v_arr - self.v_lo)  # corridor
        # each layer's range of chi runs from its anchor chi(start) to the next
        for layer, lo, hi in zip(self._layers, (self.p, self.v_hi), (self.v_lo, 2.0 / 3.0)):
            inside = (v_arr > lo) & (v_arr < hi)
            rise = (v_arr[inside] - lo) / layer.width
            t = _bracket_root(
                lambda t: 0.5 * t + layer.area(t) - rise, np.zeros_like(rise), 1.0
            )
            out[inside] = layer.start + layer.width * t
        low, high = v_arr <= self.p, v_arr >= 2.0 / 3.0
        out[low] = v_arr[low]
        out[high] = 1.0 - (1.0 - v_arr[high]) ** self._n
        return out if np.ndim(v) else float(out[0])

    # -- numerically stable bridges used by the coordinate maps ---------------

    def tau_from_core_fraction(self, e: float) -> float:
        """tau from e = f(x)/y without ever forming 1 - e near e = 0."""
        if not (0.0 <= e < 1.0):
            raise DomainError(f"core fraction must lie in [0, 1), got {e!r}")
        if e <= 3.0**-self._n:
            return 1.0 - e ** (1.0 / self._n)
        return float(self.chi(1.0 - e))

    def core_fraction_from_tau(self, tau: float) -> float:
        """Inverse bridge: e = 1 - chi^(-1)(tau), stable for tau near 1."""
        _check_tau(tau)
        if tau >= 2.0 / 3.0:
            return (1.0 - tau) ** self._n
        return 1.0 - float(self.chi_inverse(tau))


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
    nondecreasing in t >= 0 on either branch, and a monotone bracket search
    on t >= 0 finds x = branch t, also where f is not even.
    """
    if chart.m != f.m:
        raise DomainError(f"chart is for m={chart.m}, domain has m={f.m}")
    target = q.rho * chart.core_fraction_from_tau(q.tau)
    if target == 0.0:
        return BoundaryRelativePoint(x=0.0, y=q.rho)
    t = _bracket_root(lambda t: float(f.f(q.branch * t)) - target, 0.0, 1.0)
    return BoundaryRelativePoint(x=q.branch * t, y=q.rho)
