"""Spans and counters for the traced benchmark run.

The tracer wraps public entry points of the ``tubekernels`` modules from
outside the package: module-level functions are rebound in every
``tubekernels`` module that imported them, methods are replaced on their
class, and the ``f``/``fprime``/``fsecond`` accessors are shadowed on the
domain instances the benchmark hands to the evaluators.  Nothing under
``src/`` is edited, and :meth:`Tracer.uninstall` puts every original back.

Spans are aggregated as they close instead of being stored: a pass of the
``fixed_tau_paths`` workload opens about 1.3 million of them.  For each
span name the tracer keeps

* ``calls``: spans closed;
* ``total``: wall time of the outermost span of that name on the stack, so
  a recursive entry point (``log_adaptive_multi`` inside itself) is not
  counted twice;
* ``self``: span time minus the time covered by its direct child spans.

Self times of all spans sum to the time covered by root spans, which is
the property the per-layer table relies on.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Span stack with per-name aggregation; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, child_time]
        self._active: dict[str, int] = defaultdict(int)
        self._restore: list = []
        self.spans: dict[str, list] = {}  # name -> [calls, total, self]
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s = 0.0

    def reset(self) -> dict:
        """Clear the aggregates and return what they held."""
        snap = {"spans": self.spans, "counts": self.counts, "root_s": self.root_s}
        self.spans, self.counts, self.root_s = {}, defaultdict(float), 0.0
        return snap

    # -- spans -----------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._active[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[2] += dur - child
        self._active[name] -= 1
        if self._active[name] == 0:
            rec[1] += dur
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur
        return dur

    def add(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(tracer, result, args, kwargs)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(self, out, args, kwargs)
            return out

        return traced

    # -- installation -------------------------------------------------------------

    def rebind(self, old, new) -> None:
        """Point every ``tubekernels`` module binding of ``old`` at ``new``."""
        n = 0
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "tubekernels" or name.startswith("tubekernels.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, key, new)
                    self._restore.append(("attr", mod, key, old))
                    n += 1
        if n == 0:
            raise RuntimeError(f"no tubekernels module binds {old!r}")

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        old = getattr(module, attr)
        self.rebind(old, self.wrap(name, old, after))

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        old = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, old, after))
        self._restore.append(("attr", cls, attr, old))

    def patch_instance(self, obj, attr: str, name: str, after=None) -> None:
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), after))
        self._restore.append(("instance", obj, attr, None))

    def uninstall(self) -> None:
        while self._restore:
            kind, target, attr, old = self._restore.pop()
            if kind == "attr":
                setattr(target, attr, old)
            else:
                delattr(target, attr)


# ---------------------------------------------------------------------------
# the layer map: which entry points become which spans and counters
# ---------------------------------------------------------------------------


def _count_kernel(key):
    def after(tr, out, args, kwargs):
        kv = out[0] if isinstance(out, tuple) else out
        tr.add(key, kv.evaluations)

    return after


def _count_profile_grid(tr, out, args, kwargs):
    grid = args[0]
    tr.add("quadrature.profile_grid.nodes", grid.c.size)


def _count_log_G(tr, out, args, kwargs):
    tr.add("quadrature.log_G.freqs", np.size(out))


def _adaptive_counter(fn):
    sig = inspect.signature(fn)

    def after(tr, out, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        edges = bound.arguments["init_edges"]
        init = len(edges) - 1 if edges is not None else bound.arguments["init"]
        rule_points = int(out[2])
        tr.add("quadrature.adaptive.rule_points", rule_points)
        tr.add("quadrature.adaptive.refinements", (rule_points - 15 * init) / 30)

    return after


def _count_points(tr, out, args, kwargs):
    tr.add("domain_model.points", np.size(args[0]))


def install(tr: Tracer, tk, domains) -> None:
    """Wrap the public entry points of every measured layer.

    ``tk`` is the imported ``tubekernels`` package; ``domains`` are the
    DefiningFunction instances the workload passes to the evaluators.
    """
    q, a, b, e = tk.quadrature, tk.asymptotics, tk.blowup, tk.experiments
    tr.patch_function(q, "direct_pair", "quadrature.direct_pair",
                      _count_kernel("quadrature.direct_pair.evals"))
    tr.patch_function(q, "bergman_normalized", "quadrature.bergman_normalized",
                      _count_kernel("quadrature.bergman_normalized.evals"))
    tr.patch_function(q, "compute_D", "quadrature.compute_D")
    tr.patch_function(q, "log_adaptive_multi", "quadrature.adaptive",
                      _adaptive_counter(q.log_adaptive_multi))
    tr.patch_method(q.ProfileGrid, "__init__", "quadrature.profile_grid",
                    _count_profile_grid)
    tr.patch_method(q.ProfileGrid, "log_G", "quadrature.log_G", _count_log_G)
    tr.patch_method(b.BlowupChart, "__init__", "blowup.chart")
    tr.patch_function(b, "from_polar", "blowup.from_polar")
    tr.patch_method(a.PhiSpline, "__init__", "asymptotics.phi_spline")
    tr.patch_function(a, "log_phi", "asymptotics.log_phi")
    tr.patch_function(a, "log_L", "asymptotics.log_L")
    tr.patch_function(a, "model_profile_pair", "asymptotics.model_profile_pair")
    tr.patch_function(a, "phi_rate_probe", "asymptotics.rate_probes")
    tr.patch_function(a, "L_rate_probe", "asymptotics.rate_probes")
    tr.patch_function(e, "evaluate_path", "experiments.evaluate_path")
    tr.patch_function(e, "fit_exponent", "experiments.fit")
    tr.patch_function(e, "limit_c0", "experiments.fit")
    for dom in domains:
        for attr in ("f", "fprime", "fsecond"):
            tr.patch_instance(dom, attr, "domain_model", _count_points)


# spans whose work belongs to set-up: their figures add the traced set-up
# to the average pass, so work moved between the two shows in one number
SETUP_SPANS = ("blowup.chart", "asymptotics.phi_spline", "asymptotics.log_phi")


def layer_metrics(setup: dict, passes: dict, n_passes: int) -> dict:
    """Per-layer figures for one average traced pass; the ``SETUP_SPANS``
    figures also include one traced set-up."""

    def span(field, name):
        i = {"calls": 0, "total": 1, "self": 2}[field]
        v = passes["spans"].get(name, [0, 0.0, 0.0])[i] / n_passes
        if name in SETUP_SPANS:
            v += setup["spans"].get(name, [0, 0.0, 0.0])[i]
        return v

    def count(key):
        return passes["counts"].get(key, 0.0) / n_passes

    dm_calls = span("calls", "domain_model")
    dm_points = count("domain_model.points")
    return {
        "quadrature.direct_pair.calls": span("calls", "quadrature.direct_pair"),
        "quadrature.direct_pair.s": span("total", "quadrature.direct_pair"),
        "quadrature.direct_pair.evals": count("quadrature.direct_pair.evals"),
        "quadrature.profile_grid.builds": span("calls", "quadrature.profile_grid"),
        "quadrature.profile_grid.nodes": count("quadrature.profile_grid.nodes"),
        "quadrature.profile_grid.build_s": span("total", "quadrature.profile_grid"),
        "quadrature.log_G.calls": span("calls", "quadrature.log_G"),
        "quadrature.log_G.freqs": count("quadrature.log_G.freqs"),
        "quadrature.log_G.s": span("total", "quadrature.log_G"),
        "quadrature.adaptive.calls": span("calls", "quadrature.adaptive"),
        "quadrature.adaptive.rule_points": count("quadrature.adaptive.rule_points"),
        "quadrature.adaptive.refinements": count("quadrature.adaptive.refinements"),
        "quadrature.adaptive.self_s": span("self", "quadrature.adaptive"),
        "quadrature.bergman_normalized.calls": span("calls", "quadrature.bergman_normalized"),
        "quadrature.bergman_normalized.s": span("total", "quadrature.bergman_normalized"),
        "quadrature.bergman_normalized.evals": count("quadrature.bergman_normalized.evals"),
        "quadrature.compute_D.calls": span("calls", "quadrature.compute_D"),
        "quadrature.compute_D.s": span("total", "quadrature.compute_D"),
        "domain_model.calls": dm_calls,
        "domain_model.points": dm_points,
        "domain_model.points_per_call": dm_points / dm_calls if dm_calls else 0.0,
        "domain_model.s": span("total", "domain_model"),
        "blowup.chart_build_s": span("total", "blowup.chart"),
        "blowup.from_polar.calls": span("calls", "blowup.from_polar"),
        "blowup.from_polar.s": span("total", "blowup.from_polar"),
        "asymptotics.phi_spline.builds": span("calls", "asymptotics.phi_spline"),
        "asymptotics.phi_spline.build_s": span("total", "asymptotics.phi_spline"),
        "asymptotics.log_phi.calls": span("calls", "asymptotics.log_phi"),
        "asymptotics.log_phi.s": span("total", "asymptotics.log_phi"),
        "asymptotics.log_L.calls": span("calls", "asymptotics.log_L"),
        "asymptotics.log_L.s": span("total", "asymptotics.log_L"),
        "asymptotics.model_profile_pair.calls": span("calls", "asymptotics.model_profile_pair"),
        "asymptotics.model_profile_pair.s": span("total", "asymptotics.model_profile_pair"),
        "experiments.evaluate_path.calls": span("calls", "experiments.evaluate_path"),
        "experiments.evaluate_path.s": span("total", "experiments.evaluate_path"),
        "experiments.fit.s": span("total", "experiments.fit"),
    }


def self_time_sum(snapshot: dict) -> float:
    """Sum of self times over every span name of a snapshot."""
    return sum(rec[2] for rec in snapshot["spans"].values())
