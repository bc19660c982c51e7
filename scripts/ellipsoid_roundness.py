#!/usr/bin/env python3
"""Run the axisymmetric-ellipsoid rounding experiment end to end for one or
more speeds: evolve until max F grows by the requested factor, monitor the
ball-curvature ratios, and print the roundness gates.

Example:
    python scripts/ellipsoid_roundness.py --speeds sigma-ratio:2 mean \
        --grid 128 --growth 30 --out runs/
"""
import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from noncollapse.cli import refinement_deltas  # noqa: E402
from noncollapse.flow import FlowConfig, build_speed, run  # noqa: E402
from noncollapse.monitor import (monitor_rows, run_verdicts,  # noqa: E402
                                 write_monitor_csv)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--speeds", nargs="+", default=["sigma-ratio:2", "mean"])
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--c", type=float, default=1.5)
    ap.add_argument("--grid", type=int, default=128)
    ap.add_argument("--growth", type=float, default=30.0,
                    help="stop when max F has grown by this factor")
    ap.add_argument("--cfl", type=float, default=0.25)
    ap.add_argument("--snapshot-every", type=int, default=800)
    ap.add_argument("--out", default=None, help="write CSV/verdicts here")
    args = ap.parse_args()

    for speed in args.speeds:
        cfg = FlowConfig(speed=speed,
                         body={"mode": "axisymmetric", "N": args.grid,
                               "shape": {"kind": "ellipsoid", "a": args.a, "c": args.c}},
                         cfl=args.cfl, stop_max_f_factor=args.growth,
                         snapshot_every=args.snapshot_every, monitor="full")
        t0 = time.perf_counter()
        fr = run(cfg)
        sp = build_speed(speed, "axisymmetric")
        rows = monitor_rows(fr, sp)
        deltas = refinement_deltas(cfg, sp)
        verdicts = run_verdicts(fr, rows, deltas)
        wall = time.perf_counter() - t0
        g = verdicts["gates"]
        print(f"{speed}: steps {fr.steps}, samples {len(fr.times)}, "
              f"T_hat {g.get('t_hat', float('nan')):.6f}, "
              f"final r+/r- - 1 = {g['eps_radii_ratio_final']:.3e}, "
              f"rescaled Hausdorff = {g.get('hausdorff_rescaled_final', float('nan')):.3e}, "
              f"passed = {verdicts['passed']}  ({wall:.1f}s)")
        for v in verdicts["verdicts"]:
            print(f"    {v['series']:<22} {v['claim']:<15} "
                  f"pass={v['pass']} worst={v['worst_violation'][1]:.3e} "
                  f"slack={v['slack_used']:.3e}")
        if args.out:
            d = os.path.join(args.out, f"ellipsoid-{speed.replace(':', '')}-N{args.grid}")
            os.makedirs(d, exist_ok=True)
            write_monitor_csv(rows, os.path.join(d, "monitor.csv"))
            with open(os.path.join(d, "verdicts.json"), "w") as fh:
                json.dump(verdicts, fh, indent=2, sort_keys=True)
            print(f"    wrote {d}")


if __name__ == "__main__":
    main()
