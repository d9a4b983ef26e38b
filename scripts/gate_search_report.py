#!/usr/bin/env python3
"""Sweep the weight-1 quadratic-product corpus for sub-bound congruences.

Reproduces the desk-scale soundness run: over products of weight-1 Weil
quadratics at q (default 2; degrees 2 and 4), powers s <= 2 and all primes
up to 200, every congruent-but-unequal instance must sit at or below the
forcing bound 2*c_n*ell0^(n*s), for q a power of the prime ell0.  Prints the instances, each with the
bound its `gate-search` certificate carries, and the per-degree tallies.
"""

import argparse

from semistable_gate.gate import counterexample_search


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--s-max", type=int, default=2)
    ap.add_argument("--ell-max", type=int, default=200)
    args = ap.parse_args()

    for n in (2, 4):
        found = counterexample_search(args.q, n, args.s_max, args.ell_max)
        print(f"degree {n}: {len(found)} congruent-but-unequal instances, "
              "all at or below the bound")
        for inst in found:
            print(f"  poly={list(inst.datum.poly.coeffs)} s={inst.s} "
                  f"t={list(inst.t)} ell={inst.ell} bound={inst.bound}")


if __name__ == "__main__":
    main()
