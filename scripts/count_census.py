#!/usr/bin/env python3
"""Census of configuration counts over random masses for a fixed exponent.

Draws mass triples uniformly, counts configurations per cell, and prints
the distribution of totals: at b = -1 (point vortices) and b = -2
(gravitation) every total is at most 3, with exactly 3 whenever all
masses are positive.
"""

import argparse
import collections
import random
import sys

from eulercc.euler import count_all, degenerate_family


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-b", type=float, default=-1.0, help="force-law exponent")
    ap.add_argument("-n", "--draws", type=int, default=2000)
    ap.add_argument("--lim", type=float, default=10.0, help="masses drawn from [-lim, lim]")
    ap.add_argument("--positive", action="store_true", help="draw positive masses only")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    histogram = collections.Counter()
    drawn = 0
    while drawn < args.draws:
        if args.positive:
            m = tuple(rng.uniform(0.0, args.lim) for _ in range(3))
        else:
            m = tuple(rng.uniform(-args.lim, args.lim) for _ in range(3))
        if degenerate_family(m, args.b) is not None:
            continue
        counts, _ = count_all(m, args.b, roots=False)
        histogram[counts.total] += 1
        drawn += 1

    print(f"b = {args.b}, {args.draws} draws"
          + (" (positive masses)" if args.positive else ""))
    for total in sorted(histogram):
        n = histogram[total]
        print(f"  total {total}: {n:6d}  ({100.0 * n / args.draws:5.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
