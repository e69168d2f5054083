"""Span arithmetic of the benchmark tracer.

Run from the repository root:  python3 -m pytest -q bench/test_tracing.py
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tubekernels as tk  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_of_one_name_are_not_double_counted():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    # outer adaptive [0, 10] holds inner adaptive [2, 5] (with a log_G
    # child [3, 4]) and inner adaptive [6, 8]
    tr.enter("quadrature.adaptive")
    clock.now = 2.0
    tr.enter("quadrature.adaptive")
    clock.now = 3.0
    tr.enter("quadrature.log_G")
    clock.now = 4.0
    tr.exit()
    clock.now = 5.0
    tr.exit()
    clock.now = 6.0
    tr.enter("quadrature.adaptive")
    clock.now = 8.0
    tr.exit()
    clock.now = 10.0
    tr.exit()

    calls, total, self_s = tr.spans["quadrature.adaptive"]
    assert calls == 3
    assert total == 10.0  # the outermost span only
    assert self_s == (10.0 - 3.0 - 2.0) + (3.0 - 1.0) + 2.0
    assert tr.spans["quadrature.log_G"] == [1, 1.0, 1.0]
    snap = tr.reset()
    assert tracing.self_time_sum(snap) == snap["root_s"] == 10.0


def test_self_times_of_a_traced_direct_pair_cover_its_wall_time():
    f = tk.model_domain(1)
    p = tk.BoundaryRelativePoint(0.0, 0.5)
    cfg = tk.QuadratureConfig(rel_tol=1e-4)
    original = tk.quadrature.log_adaptive_multi
    tr = tracing.Tracer()
    tracing.install(tr, tk, [f])
    try:
        t = time.perf_counter()
        K, _ = tk.direct_pair(f, p, cfg)
        wall = time.perf_counter() - t
    finally:
        tr.uninstall()
    snap = tr.reset()

    assert tk.quadrature.log_adaptive_multi is original
    assert "f" not in vars(f)
    calls, total, self_s = snap["spans"]["quadrature.adaptive"]
    assert calls > 1  # the outer zeta integral nests the inner eta ones
    assert self_s < total <= snap["spans"]["quadrature.direct_pair"][1]
    assert snap["counts"]["quadrature.direct_pair.evals"] == K.evaluations
    self_sum = tracing.self_time_sum(snap)
    assert abs(self_sum - snap["root_s"]) <= 1e-9 * max(1.0, self_sum)
    assert abs(self_sum / wall - 1.0) <= 0.05
