#!/usr/bin/env python3
"""Energy ladders: the closed-form critical levels with the Morse indices
of their components, beside the gradient-found clusters with their
exact-Hessian indices and basin populations, and how many predicted levels
the descent reached."""

import argparse

import numpy as np

from rspacelab import atlas, orbit as ob

ORBITS = [("grassmann_real", (1, 1)),
          ("grassmann_complex_hermitian", (1, 1)),
          ("sphere", (2,)),
          ("sphere", (3,)),
          ("grassmann_real", (1, 2))]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--restarts", type=int, default=50)
    args = ap.parse_args()

    for rid, params in ORBITS:
        s = atlas.instance(rid, *params)
        clusters = ob.find_critical_points(s, restarts=args.restarts,
                                           seed=args.seed)
        vals = [c.value for c in clusters]  # ascending
        max_gap, smin_gap = vals[-1] - vals[0], vals[1] - vals[0]
        predicted = ob.critical_ladder(s)
        print(f"{s.descriptor.label}  (rank {len(s.abar)})")
        print("  predicted ladder: " + ", ".join(
            f"{v / np.pi:+.3f}*pi (indices {{{', '.join(map(str, ix))}}})"
            for v, ix in predicted))
        for c in clusters:
            print(f"  value {c.value / np.pi:+.3f}*pi  index {c.hessian_index}"
                  f"  basin {c.population}/{args.restarts}")
        found = sum(any(abs(v - c.value) <= 1e-3 * 4 * np.pi for c in clusters)
                    for v, _ in predicted)
        print(f"  found {found} of {len(predicted)} predicted levels")
        print(f"  max gap {max_gap / np.pi:.3f}*pi"
              f"  ({max_gap / (4 * np.pi):.3f} of 4*pi),"
              f"  lowest step {smin_gap / np.pi:.3f}*pi")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
