"""The three benchmark workloads.

Each workload draws its inputs from ``random.Random(seed)`` within narrow
ranges, so the cost of a pass barely depends on the seed, and hands the
library only the generated points.  A workload has four parts:

* ``setup_steps()``: callables that build the domains and charts and fill
  the module caches the timed operations use; timed one by one like the
  steps of a pass, and run several times, their median sum is ``setup_s``;
* ``pass_steps()``: one pass as ``(steps, outputs)``.  ``steps`` is a list
  of ``(ops, fn)``: ``fn()`` runs one timed call, stores what it returns in
  ``outputs`` and returns how many operations failed; ``ops`` are the
  indices of the operations whose time the step is, shared equally (empty
  for work that belongs to the pass but to no operation, such as fits);
* ``check(outputs)``: compare outputs against references the code under
  test did not produce (closed forms, the independent model-profile
  representation, properties the method must have), outside any timing;
* ``configs``: every ``QuadratureConfig`` the workload uses.

Checks return ``(problems, calibration)``: a list of failure texts and a
list of ``(claimed_error, actual_error)`` pairs, one per output that has an
independent reference.
"""

from __future__ import annotations

import functools
import math
import random

REL_TOL_PATHS = 1e-7
REL_TOL_ORACLE = 1e-10
REL_TOL_D = 1e-10
SLOPE_REL_TOL = 0.01
C0_REL_TOL = 1e-3


def _rel_err(log_value: float, log_ref: float) -> float:
    return abs(math.expm1(log_value - log_ref))


class FixedTauPaths:
    """Kernel pairs along fixed-tau paths, then exponent fits and limits.

    Three paths share one tau drawn from [0.78, 0.82]: the parabola
    ``model:m=1``, ``model:m=2`` and ``rational:m=2``.  Each path has six
    rho values 2^-(9 + k + d), k = 0..5, with its own offset d in
    [0, 0.25] (six is the fewest ``fit_exponent`` accepts).  An operation
    is one kernel point.  Each path is evaluated by ``evaluate_path`` in
    three segments of two rho values, so the run can sample the host's
    speed between segments; a point's time is half its segment's.
    """

    name = "fixed_tau_paths"

    def __init__(self, tk, seed: int):
        self.tk = tk
        rng = random.Random(seed)
        self.tau = 0.8 + rng.uniform(-0.02, 0.02)
        self.rho_grids = [
            [2.0 ** -(9 + k + off) for k in range(6)]
            for off in (rng.uniform(0.0, 0.25) for _ in range(3))
        ]
        self.cfg = tk.QuadratureConfig(rel_tol=REL_TOL_PATHS)
        self.ref_cfg = tk.QuadratureConfig(rel_tol=1e-10)
        self.configs = [self.cfg, self.ref_cfg]

    def setup_steps(self):
        return [self._setup]

    def _setup(self) -> None:
        tk = self.tk
        charts = {1: tk.BlowupChart(1), 2: tk.BlowupChart(2)}
        doms = {"m1": tk.model_domain(1), "m2": tk.model_domain(2),
                "rational": tk.rational_domain(2)}
        self.domains = list(doms.values())
        self.paths = [
            (role, dom, charts[dom.m],
             [tk.ApproachPath("fixed_tau", {"tau": self.tau}, grid[i:i + 2])
              for i in range(0, len(grid), 2)])
            for (role, dom), grid in zip(doms.items(), self.rho_grids)
        ]

    def pass_steps(self):
        steps, outputs, n = [], [], 0
        for role, dom, chart, segments in self.paths:
            rows, fits = [], {}
            outputs.append((role, dom, rows, fits))
            for seg in segments:
                k = len(seg.rho_grid)
                steps.append((range(n, n + k),
                              functools.partial(self._segment, dom, seg, chart, rows)))
                n += k
            steps.append(((), functools.partial(self._fit, dom, rows, fits)))
        return steps, outputs

    def _segment(self, dom, seg, chart, rows) -> int:
        new = self.tk.evaluate_path(dom, seg, self.cfg, chart)
        rows += new
        return sum(r["status"] != "ok" for r in new)

    def _fit(self, dom, rows, fits) -> int:
        if all(r["status"] == "ok" for r in rows):
            rhos = [r["rho"] for r in rows]
            for kind in ("bergman", "szego"):
                vals = [r[kind] for r in rows]
                fit = self.tk.fit_exponent(vals, rhos, "all")
                c0, _ = self.tk.limit_c0(vals, rhos, dom.m, kind)
                fits[kind] = (fit.slope, c0)
        return 0

    def fingerprint(self, outputs):
        return [
            (r["bergman"].log_value, r["szego"].log_value) if r["status"] == "ok" else r["status"]
            for _, _, rows, _ in outputs
            for r in rows
        ] + [fits for *_, fits in outputs]

    def check(self, outputs):
        tk = self.tk
        problems, calib = [], []
        # the tangent model of rational:m=2 is x^4 g(0) = x^4, the m = 2 model
        phi_b, phi_s = tk.model_profile_pair(2, 1.0, self.tau, cfg=self.ref_cfg)
        for role, dom, rows, fits in outputs:
            m = dom.m
            label = dom.label
            if not fits:  # failed points are counted as failed operations
                continue
            for kind, expo in (("bergman", 2.0 + 1.0 / m), ("szego", 1.0 + 1.0 / m)):
                slope = fits[kind][0]
                if abs(slope + expo) > SLOPE_REL_TOL * expo:
                    problems.append(f"{label} {kind}: slope {slope:.5f}, want {-expo:.5f}")
            for r in rows:
                K, S = r["bergman"], r["szego"]
                if role == "m1":
                    d = r["y"] - r["x"] ** 2  # K = 1/(4 pi^2 d^3), S = 1/(8 pi^2 d^2)
                    refs = ((K, -math.log(4 * math.pi**2 * d**3)),
                            (S, -math.log(8 * math.pi**2 * d**2)))
                elif role == "m2":
                    lr = math.log(r["rho"])  # exact homogeneity along the path
                    refs = ((K, phi_b - 2.5 * lr), (S, phi_s - 1.5 * lr))
                else:
                    continue
                for kv, ref in refs:
                    err = _rel_err(kv.log_value, ref)
                    calib.append((kv.err_estimate, err))
                    if not err <= REL_TOL_PATHS:
                        problems.append(
                            f"{label} rho={r['rho']:.4g} {kv.kind}: rel err {err:.3e} "
                            f"above the requested {REL_TOL_PATHS:g}")
            if role == "rational":
                last = rows[-1]
                for kind, expo, phi in (("bergman", 2.5, phi_b), ("szego", 1.5, phi_s)):
                    gap = abs(fits[kind][1] / math.exp(phi) - 1.0)
                    raw = _rel_err(last[kind].log_value + expo * math.log(last["rho"]), phi)
                    if not (gap <= C0_REL_TOL and gap < raw):
                        problems.append(
                            f"{label} {kind}: limit_c0 off the tangent model by {gap:.3e} "
                            f"(raw gap at the last rho {raw:.3e})")
        return problems, calib


class NormalizedOracle:
    """Normalized and direct Bergman kernels on the mollified m = 2 model.

    Two points on the axis at y = 2^-(2 + d) and 2^-(10 + d), with one
    offset d in [0, 0.25], so K grows by about 2^20 between them.  An
    operation is one ``bergman_normalized`` point plus the ``direct_pair``
    point beside it, both at rel_tol 1e-10, timed as two steps; a pass of
    the two takes 13-24 s on a 2-core VM, which is why there are not more.
    """

    name = "normalized_oracle"

    def __init__(self, tk, seed: int):
        self.tk = tk
        off = random.Random(seed).uniform(0.0, 0.25)
        self.ys = [2.0 ** -(2 + off), 2.0 ** -(10 + off)]
        self.cfg = tk.QuadratureConfig(rel_tol=REL_TOL_ORACLE)
        self.configs = [self.cfg]

    def setup_steps(self):
        return [self._setup]

    def _setup(self) -> None:
        self.dom = self.tk.mollify(self.tk.model_domain(2), 0.1)
        self.domains = [self.dom]

    def pass_steps(self):
        steps, outputs = [], []
        for i, y in enumerate(self.ys):
            out = [y, None, None]  # y, K, Kbar; K stays None if either call fails
            outputs.append(out)
            steps.append(((i,), functools.partial(self._normalized, out)))
            steps.append(((i,), functools.partial(self._direct, out)))
        return steps, outputs

    def _normalized(self, out) -> int:
        tk = self.tk
        try:
            out[2] = tk.bergman_normalized(self.dom, tk.BoundaryRelativePoint(0.0, out[0]),
                                           self.cfg)
        except (tk.QuadratureError, tk.DomainError):
            return 1
        return 0

    def _direct(self, out) -> int:
        tk = self.tk
        if out[2] is None:  # the operation failed already
            return 0
        try:
            out[1], _ = tk.direct_pair(self.dom, tk.BoundaryRelativePoint(0.0, out[0]),
                                       self.cfg)
        except (tk.QuadratureError, tk.DomainError):
            return 1
        return 0

    def fingerprint(self, outputs):
        return [(K.log_value, kb.log_value) if K else None for _, K, kb in outputs]

    def check(self, outputs):
        ok = [(y, K, kb) for y, K, kb in outputs if K is not None]
        if len(ok) < 2:  # failed points are counted as failed operations
            return [], []
        problems = []
        growth = ok[-1][1].value / ok[0][1].value
        if not growth >= 1e3:
            problems.append(f"K grew only by {growth:.3g} across the points")
        # K - Kbar is the piece u < 1, positive and increasing to a finite
        # limit as y -> 0: bounded by twice its value at the largest y
        bound = 2.0 * abs(ok[0][1].value - ok[0][2].value)
        for y, K, kb in ok:
            noise = 10.0 * max(K.value * K.err_estimate, kb.value * kb.err_estimate)
            diff = K.value - kb.value
            if not (-noise <= diff <= bound + noise):
                problems.append(
                    f"y={y:.4g}: K - Kbar = {diff:.4g} outside [0, {bound:.4g}] "
                    f"(noise {noise:.2g})")
        return problems, []


class Laplace1D:
    """The one-dimensional Laplace chain: Phi(tau), D and the growth probes.

    ``model_profile_pair`` for m = 1, 2, 3 at five tau values per m: 0.05
    and 1 pulled inwards by up to 0.02, the three between moved by up to
    +-0.01.  Then ``compute_D`` on criterion 1's closed-form grid (z1
    shifted by up to +-0.1 and z2 scaled by up to 1.1, one draw each), and
    ``phi_rate_probe(2, 40)`` and ``L_rate_probe(2, 3.2)``.  An operation
    is one ``model_profile_pair`` call; the ``compute_D`` grid and each
    probe are steps of the pass outside any operation.
    """

    name = "laplace_1d"

    def __init__(self, tk, seed: int):
        self.tk = tk
        rng = random.Random(seed)
        self.grid = []
        for m in (1, 2, 3):
            self.grid += [
                (m, 0.05 + rng.uniform(0.0, 0.02)),
                (m, 0.2875 + rng.uniform(-0.01, 0.01)),
                (m, 0.525 + rng.uniform(-0.01, 0.01)),
                (m, 0.7625 + rng.uniform(-0.01, 0.01)),
                (m, 1.0 - rng.uniform(0.0, 0.02)),
            ]
        shift, scale = rng.uniform(-0.1, 0.1), rng.uniform(1.0, 1.1)
        self.d_grid = [
            (1, z1 + shift, z2 * scale)
            for z1 in (-2.0, -1.0, 0.0, 1.0, 2.0)
            for z2 in (0.25, 0.5, 1.0, 2.0, 4.0)
        ] + [(2, 0.0, z2 * scale) for z2 in (0.25, 0.5, 1.0, 2.0, 4.0)]
        self.d_cfg = tk.QuadratureConfig(rel_tol=REL_TOL_D)
        self.profile_cfg = tk.QuadratureConfig(rel_tol=1e-9)  # model_profile_pair's default
        self.configs = [self.profile_cfg, self.d_cfg]

    def setup_steps(self):
        fills = [("model_profile_pair", (m, 1.0, tau)) for m, tau in self.grid]
        fills.append(("L_rate_probe", (2, 3.2)))
        return [self._domains] + [functools.partial(self._fill, name, *args)
                                  for name, args in fills]

    def _domains(self) -> None:
        self.doms = {1: self.tk.model_domain(1), 2: self.tk.model_domain(2)}
        self.domains = list(self.doms.values())

    def _fill(self, name, *args) -> None:
        """Fill the chart and phi-spline caches through a call the pass
        makes, with log_L swapped for a constant: the s-integrals become
        trivial, the tables they would read are built exactly as in a pass."""
        tk = self.tk
        a = tk.asymptotics
        real = a.log_L
        stub = lambda u, phis: 0.0  # noqa: E731
        for mod in (a, tk):
            if getattr(mod, "log_L", None) is real:
                setattr(mod, "log_L", stub)
        try:
            getattr(tk, name)(*args)
        finally:
            for mod in (a, tk):
                if getattr(mod, "log_L", None) is stub:
                    setattr(mod, "log_L", real)

    def pass_steps(self):
        profiles, ds, probes = [], [], []
        steps = [((i,), functools.partial(self._profile, m, tau, profiles))
                 for i, (m, tau) in enumerate(self.grid)]
        steps.append(((), functools.partial(self._d_grid, ds)))
        steps.append(((), lambda: probes.append(self.tk.phi_rate_probe(2, 40.0)) or 0))
        steps.append(((), lambda: probes.append(self.tk.L_rate_probe(2, 3.2)) or 0))
        return steps, (profiles, ds, probes)

    def _profile(self, m, tau, profiles) -> int:
        tk = self.tk
        try:
            pair = tk.model_profile_pair(m, 1.0, tau)
        except (tk.QuadratureError, tk.DomainError):
            profiles.append((m, tau, None))
            return 1
        profiles.append((m, tau, pair))
        return 0

    def _d_grid(self, ds) -> int:
        ds += [(m, z1, z2, self.tk.compute_D(self.doms[m], z1, z2, self.d_cfg))
               for m, z1, z2 in self.d_grid]
        return 0

    def fingerprint(self, outputs):
        return outputs

    def check(self, outputs):
        tk = self.tk
        profiles, ds, probes = outputs
        problems, calib = [], []
        chart = tk.BlowupChart(1)
        for m, tau, pair in profiles:
            if pair is None or m != 1:
                continue
            e = chart.core_fraction_from_tau(tau)  # Phi = 1/(4 pi^2 (1-e)^3), 1/(8 pi^2 (1-e)^2)
            for lv, ref in ((pair[0], -math.log(4 * math.pi**2 * (1 - e) ** 3)),
                            (pair[1], -math.log(8 * math.pi**2 * (1 - e) ** 2))):
                err = _rel_err(lv, ref)
                if not err <= 10 * self.profile_cfg.rel_tol:
                    problems.append(f"m=1 tau={tau:.4f}: Phi off its closed form by {err:.3e}")
        for m, z1, z2, (lv, claimed) in ds:
            if m == 1:
                ref = 0.5 * math.log(math.pi / z2) + z1**2 / (4 * z2)
            else:
                ref = math.log(2.0 * math.gamma(1.25)) - 0.25 * math.log(z2)
            err = _rel_err(lv, ref)
            calib.append((claimed, err))
            if not err <= 1e-8:
                problems.append(f"D(m={m}, {z1:.3f}, {z2:.3f}) off its closed form by {err:.3e}")
        a = 4.0 ** (-1.0 / 3.0) - 4.0 ** (-4.0 / 3.0)
        for (measured, _), want, label in ((probes[0], a, "phi"), (probes[1], 1.0, "L")):
            if not abs(measured / want - 1.0) <= 0.01:
                problems.append(f"{label} growth rate {measured:.5f}, want {want:.5f}")
        return problems, calib


WORKLOADS = {w.name: w for w in (FixedTauPaths, NormalizedOracle, Laplace1D)}
