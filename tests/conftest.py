"""Shared fixtures."""

from __future__ import annotations

import math

import pytest

from tubekernels import KernelValue, QuadratureError, experiments


@pytest.fixture
def fail_at(monkeypatch):
    """``fail_at(*ys)`` swaps the paths' ``direct_pair`` for the closed forms
    of the parabola model:m=1, raising QuadratureError at the points whose
    y is one of ``ys``."""

    def install(*ys):
        def pair(f, p, cfg=None):
            if p.y in ys:
                raise QuadratureError(f"no convergence at y = {p.y!r}")
            d = p.y - p.x * p.x
            k, s = 1.0 / (4.0 * math.pi**2 * d**3), 1.0 / (8.0 * math.pi**2 * d**2)
            return (
                KernelValue(math.log(k), k, 1e-9, 1, "bergman"),
                KernelValue(math.log(s), s, 1e-9, 1, "szego"),
            )

        monkeypatch.setattr(experiments, "direct_pair", pair)

    return install
