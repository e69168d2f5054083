#!/usr/bin/env python3
"""
Distance limit at a strictly pseudoconvex point
===============================================

Goal
----
Away from the flat point the boundary is strictly pseudoconvex, and the
Bergman kernel obeys the classical distance law K d^3 -> det(Levi)/(2 pi^2).
This script walks the inward normal and watches the limit form:

1. Pick a base point (x0, f(x0)) with f''(x0) > 0 and step inward along the
   normal, halving the step each time.
2. At each point compute K by quadrature and the exact nearest-boundary
   distance d by a safeguarded projection onto the curve y = f(x).
3. Print the K d^3 column, Richardson-extrapolate its last pair, and compare
   with the Levi prediction computed from f-values alone.

The scaled column drifts linearly in the step, which is exactly what the
two-point Richardson step removes.
"""

from __future__ import annotations

import argparse

from tubekernels import QuadratureConfig, model_domain, rational_domain
from tubekernels.experiments import _hormander_limit


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--x0", type=float, default=1.0)
    ap.add_argument("--rel-tol", type=float, default=1e-8)
    ap.add_argument("--rational", action="store_true")
    args = ap.parse_args()

    f = rational_domain(args.m) if args.rational else model_domain(args.m)
    rows, measured, predicted = _hormander_limit(
        f, args.x0, QuadratureConfig(rel_tol=args.rel_tol)
    )

    print(f"domain: {f.label}   base point x0 = {args.x0}")
    print(f"{'eps':>12} {'distance':>12} {'K':>14} {'K d^3':>14} {'/predicted':>11}")
    for r in rows:
        print(
            f"{r['eps']:>12.5g} {r['distance']:>12.5g} "
            f"{r['bergman'].value:>14.6e} {r['scaled']:>14.8e} "
            f"{r['scaled'] / predicted:>11.6f}"
        )

    print(f"\nRichardson limit : {measured:.8e}")
    print(f"Levi prediction  : {predicted:.8e}")
    print(f"ratio            : {measured / predicted:.8f}")


if __name__ == "__main__":
    main()
