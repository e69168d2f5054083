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

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .domain_model import BoundaryRelativePoint, DefiningFunction, DomainError, _smooth_step
from .quadrature import _bracket_root

__all__ = [
    "PolarPoint",
    "BlowupChart",
    "to_polar",
    "from_polar",
    "admissible_region_test",
]


@dataclass(frozen=True)
class PolarPoint:
    """Blow-up coordinates: tau in (0, 1], rho > 0, branch = sign of x."""

    tau: float
    rho: float
    branch: int = +1

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise DomainError(f"tau must lie in (0, 1], got {self.tau!r}")
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise DomainError(f"rho must be positive, got {self.rho!r}")
        if self.branch not in (+1, -1):
            raise DomainError(f"branch must be +1 or -1, got {self.branch!r}")


class BlowupChart:
    """One concrete chi together with its inverse and derivative.

    Piece layout on [0, 1]:

    * [0, 1/3]              chi(u) = u
    * [1/3, 1/3 + w]        slope ramps from 1 down to 1/2
    * [1/3 + w, q - w]      slope exactly 1/2 (corridor)
    * [q - w, q]            slope ramps from 1/2 up to the outer piece's
    * [q, 1]                chi(u) = 1 - (1-u)^(1/(2m)),  q = 1 - 3^(-2m)

    The single free width w is fixed by chi(q) = 2/3 (continuity of the
    closed-form outer piece).  chi' >= 1/2 everywhere by construction.
    The glue layers ramp with the C-infinity step ``_smooth_step``.
    """

    def __init__(self, m: int):
        if not (isinstance(m, (int, np.integer)) and int(m) >= 1):
            raise DomainError(f"m must be an integer >= 1, got {m!r}")
        self.m = int(m)
        n = 2 * self.m
        self._n = n
        self.p = 1.0 / 3.0
        self.q = 1.0 - 3.0**-n
        budget = 0.5 * 3.0**-n

        def outer_slope(u):
            return (1.0 / n) * (1.0 - u) ** (1.0 / n - 1.0)

        self._outer_slope = outer_slope
        # the up-layer's endpoint slope must already exceed 1/2
        u_half = 1.0 - float(self.m) ** (-n / (n - 1.0))
        w_cap = min(0.9 * (self.q - u_half), (self.q - self.p) / 3.0)

        def excess(w: float) -> float:
            down = quad(
                lambda u: 0.5 * (1.0 - float(_smooth_step(np.asarray([(u - self.p) / w]))[0])),
                self.p,
                self.p + w,
                limit=200,
            )[0]
            up = quad(
                lambda u: (outer_slope(u) - 0.5)
                * float(_smooth_step(np.asarray([(u - (self.q - w)) / w]))[0]),
                self.q - w,
                self.q,
                limit=200,
            )[0]
            return down + up - budget

        if excess(w_cap) <= 0.0:
            raise RuntimeError("chi corridor construction failed (internal error)")
        self.w = _bracket_root(excess, 1e-12 * w_cap, w_cap)

        w = self.w
        u1 = np.linspace(self.p, self.p + w, 2001)
        self._d1 = CubicSpline(u1, 1.0 - 0.5 * _smooth_step((u1 - self.p) / w))
        self._c1 = self._d1.antiderivative()
        u2 = np.linspace(self.q - w, self.q, 2001)
        self._d2 = CubicSpline(
            u2, 0.5 + (outer_slope(u2) - 0.5) * _smooth_step((u2 - (self.q - w)) / w)
        )
        self._c2 = self._d2.antiderivative()
        # piece anchors
        self.v_lo = self.p + float(self._c1(self.p + w))  # chi(p + w)
        self.v_hi = self.v_lo + 0.5 * ((self.q - w) - (self.p + w))  # chi(q - w)
        self._chi_q = self.v_hi + float(self._c2(self.q))
        self.chart_id = f"chi[m={self.m},w={self.w:.12e}]"

    # -- forward map ---------------------------------------------------------

    def chi(self, u):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.empty_like(u_arr)
        n = self._n
        a = u_arr <= self.p
        b = (u_arr > self.p) & (u_arr <= self.p + self.w)
        c = (u_arr > self.p + self.w) & (u_arr < self.q - self.w)
        dd = (u_arr >= self.q - self.w) & (u_arr < self.q)
        e = u_arr >= self.q
        out[a] = u_arr[a]
        out[b] = self.p + self._c1(u_arr[b])
        out[c] = self.v_lo + 0.5 * (u_arr[c] - (self.p + self.w))
        out[dd] = self.v_hi + self._c2(u_arr[dd])
        out[e] = 1.0 - (1.0 - u_arr[e]) ** (1.0 / n)
        return out if np.ndim(u) else float(out[0])

    def chi_prime(self, u):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.empty_like(u_arr)
        a = u_arr <= self.p
        b = (u_arr > self.p) & (u_arr <= self.p + self.w)
        c = (u_arr > self.p + self.w) & (u_arr < self.q - self.w)
        dd = (u_arr >= self.q - self.w) & (u_arr < self.q)
        e = u_arr >= self.q
        out[a] = 1.0
        out[b] = self._d1(u_arr[b])
        out[c] = 0.5
        out[dd] = self._d2(u_arr[dd])
        with np.errstate(divide="ignore"):
            out[e] = self._outer_slope(u_arr[e])
        return out if np.ndim(u) else float(out[0])

    # -- inverse map -----------------------------------------------------------

    def chi_inverse(self, v):
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.empty_like(v_arr)
        n = self._n
        a = v_arr <= self.p
        b = (v_arr > self.p) & (v_arr <= self.v_lo)
        c = (v_arr > self.v_lo) & (v_arr < self.v_hi)
        dd = (v_arr >= self.v_hi) & (v_arr < 2.0 / 3.0)
        e = v_arr >= 2.0 / 3.0
        out[a] = v_arr[a]
        vb, vd = v_arr[b], v_arr[dd]
        out[b] = _bracket_root(
            lambda u: self.p + self._c1(u) - vb, np.full_like(vb, self.p), self.p + self.w
        )
        out[c] = (self.p + self.w) + 2.0 * (v_arr[c] - self.v_lo)
        out[dd] = _bracket_root(
            lambda u: self.v_hi + self._c2(u) - vd, np.full_like(vd, self.q - self.w), self.q
        )
        out[e] = 1.0 - (1.0 - v_arr[e]) ** n
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
        if not (0.0 < tau <= 1.0):
            raise DomainError(f"tau must lie in (0, 1], got {tau!r}")
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

    f is nondecreasing in |x| (convex with minimum 0 at the origin), so a
    monotone bracket search on x >= 0 finds the solution.
    """
    if chart.m != f.m:
        raise DomainError(f"chart is for m={chart.m}, domain has m={f.m}")
    target = q.rho * chart.core_fraction_from_tau(q.tau)
    if target == 0.0:
        return BoundaryRelativePoint(x=0.0, y=q.rho)
    x = _bracket_root(lambda t: float(f.f(t)) - target, 0.0, 1.0)
    return BoundaryRelativePoint(x=q.branch * x, y=q.rho)


def admissible_region_test(q: PolarPoint, alpha: float) -> bool:
    """True iff the point lies in U_alpha = {tau > 1/alpha}."""
    if not (alpha > 1.0):
        raise DomainError(f"alpha must exceed 1, got {alpha!r}")
    return q.tau > 1.0 / alpha
