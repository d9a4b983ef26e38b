#!/usr/bin/env python3
"""Print threshold tables for the abelian-variety, elliptic-curve and etale
families over a small (d, h+, g) grid."""

import argparse

from semistable_gate.bounds import (
    FieldInvariants,
    ec_irred_setting,
    etale_setting,
    rt_setting,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d-max", type=int, default=3)
    ap.add_argument("--h-max", type=int, default=2)
    ap.add_argument("--g-max", type=int, default=3)
    ap.add_argument("--ell0", type=int, default=2)
    args = ap.parse_args()

    print("abelian varieties, semistable tower (variant st):")
    print(f"{'d':>3} {'g':>3} {'(a)':>16} {'(b)':>20}")
    for d in range(1, args.d_max + 1):
        inv = FieldInvariants(d, 5, 1)
        for g in range(1, args.g_max + 1):
            a, b = rt_setting(inv, g, "st").thresholds
            print(f"{d:>3} {g:>3} {a:>16} {b:>20}")

    print(f"\nelliptic-curve torsion irreducibility (ell_E = {args.ell0}):")
    print(f"{'d':>3} {'h+':>3} {'(a)':>16} {'(b)':>20}")
    for d in range(1, args.d_max + 1):
        for h in range(1, args.h_max + 1):
            inv = FieldInvariants(d, 5, h)
            a, b = ec_irred_setting(inv, args.ell0).thresholds
            print(f"{d:>3} {h:>3} {a:>16} {b:>20}")

    print(f"\netale cohomology, b_w = 2, w = 1 (ell_X = {args.ell0}):")
    print(f"{'d':>3} {'h+':>3} {'(a)':>16} {'(b)':>20}")
    for d in range(1, args.d_max + 1):
        for h in range(1, args.h_max + 1):
            inv = FieldInvariants(d, 5, h)
            a, b = etale_setting(inv, 2, args.ell0, 1).thresholds
            print(f"{d:>3} {h:>3} {a:>16} {b:>20}")


if __name__ == "__main__":
    main()
