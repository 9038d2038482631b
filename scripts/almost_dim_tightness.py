#!/usr/bin/env python3
"""Tightness experiment for the almost-dimension bound.

Runs the seeded search over a grid of (n, eps) at d = 2 and tabulates the
gap between the closed-form bound and the best ensemble found.  The gap
vanishes, to rounding, for every n: restart 0 is the circulant almost-dim
witness of ``bounds.WITNESSES``, which attains the bound whether or not d
divides n.

Usage: python scripts/almost_dim_tightness.py [restarts] [seed]
"""

import sys

from infocap import AlmostDim, tightness_search

D = 2
N_VALUES = (2, 3, 4, 5, 6)
EPS_VALUES = (0.01, 0.05, 0.1, 0.2)


def main():
    restarts = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    print(f"d = {D}, restarts = {restarts}, seed = {seed}")
    print(f"{'n':>3} {'eps':>6} {'bound':>12} {'best':>12} {'gap':>10}")
    for n in N_VALUES:
        for eps in EPS_VALUES:
            report = tightness_search(
                AlmostDim(d=D, eps=eps), n=n, restarts=restarts, seed=seed
            )
            print(
                f"{n:>3} {eps:>6.2f} {report.bound.pg_bound:>12.8f} "
                f"{report.best_value:>12.8f} {report.gap:>10.2e}"
            )


if __name__ == "__main__":
    main()
