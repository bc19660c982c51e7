#!/usr/bin/env python3
"""Sweep both matrix-inequality oracles over the built-in speed catalog and
print the worst observed (tolerance-scaled) values per speed and dimension.
A negative control (power:-2) is included to show what failure looks like.

Example:
    python scripts/oracle_sweep.py --trials 2000 --dims 2 3
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from noncollapse.cli import non_negative_int, positive_int  # noqa: E402
from noncollapse.oracle import boundary_suite, interior_suite  # noqa: E402
from noncollapse.speeds import parse_speed  # noqa: E402

CATALOG = ["mean", "harmonic", "sigma-ratio:2", "sigma-root:2", "power:-1", "power:0.5"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=positive_int, default=2000)
    ap.add_argument("--dims", type=positive_int, nargs="+", default=[2, 3])
    ap.add_argument("--seed", type=non_negative_int, default=0)
    args = ap.parse_args(argv)

    print(f"{'speed':<14}{'n':>3}  {'interior min/tol':>18}  {'boundary min/tol':>18}")
    for spec in CATALOG:
        for n in args.dims:
            if spec.startswith("sigma") and int(spec.split(":")[1]) > n:
                continue
            f = parse_speed(spec, n)
            ri = interior_suite(f, trials=args.trials, seed=args.seed)
            rb = boundary_suite(f, trials=args.trials, seed=args.seed)
            print(f"{spec:<14}{n:>3}  {ri['min_scaled']:>18.4g}  {rb['min_scaled']:>18.4g}")

    rep = interior_suite(parse_speed("power:-2", 2), trials=args.trials * 10, seed=args.seed)
    if "witness" in rep:
        witness = rep["witness"]
        print(f"\nnegative control power:-2: gap {rep['min_value']:.4g} "
              f"at trial {witness['trial']} (k={witness['k']:.3f})")
    else:
        print("\nnegative control power:-2: no violation found (increase --trials)")


if __name__ == "__main__":
    main()
