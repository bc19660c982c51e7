#!/usr/bin/env python3
"""Run the axisymmetric-ellipsoid rounding experiment end to end for one or
more speeds: evolve until max F grows by the requested factor, monitor the
ball-curvature ratios, and print the roundness gates.

Each speed is one `noncollapse flow` run, with its config.json written into
its run directory; the printed lines are read back from that directory, so
`noncollapse report` summarises it like any other run.

Example:
    python scripts/ellipsoid_roundness.py --speeds sigma-ratio:2 mean \
        --grid 128 --growth 30 --out runs/
"""
import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from noncollapse.cli import main as cli_main  # noqa: E402


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
    ap.add_argument("--out", default=None, help="keep the run directories here")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        for speed in args.speeds:
            d = os.path.join(args.out or scratch,
                             f"ellipsoid-{speed.replace(':', '')}-N{args.grid}")
            os.makedirs(d, exist_ok=True)
            config = os.path.join(d, "config.json")
            with open(config, "w") as fh:
                json.dump({"speed": speed,
                           "body": {"mode": "axisymmetric", "N": args.grid,
                                    "shape": {"kind": "ellipsoid", "a": args.a, "c": args.c}},
                           "cfl": args.cfl, "stop_max_f_factor": args.growth,
                           "snapshot_every": args.snapshot_every, "monitor": "full"}, fh)
            t0 = time.perf_counter()
            code = cli_main(["flow", "--config", config, "--out", d])
            wall = time.perf_counter() - t0
            if code == 1:
                return code  # bad config: cli_main has said why, and wrote no verdicts
            summarise(speed, d, wall)
            if args.out:
                print(f"    wrote {d}")
    return 0


def summarise(speed: str, d: str, wall: float) -> None:
    """Print the summary and verdict lines of the run directory d."""
    with open(os.path.join(d, "verdicts.json")) as fh:
        verdicts = json.load(fh)
    g = verdicts["gates"]
    samples = len(os.listdir(os.path.join(d, "snapshots")))
    print(f"{speed}: steps {verdicts['counters']['steps']}, samples {samples}, "
          f"T_hat {g.get('t_hat', float('nan')):.6f}, "
          f"final r+/r- - 1 = {g['eps_radii_ratio_final']:.3e}, "
          f"rescaled Hausdorff = {g.get('hausdorff_rescaled_final', float('nan')):.3e}, "
          f"passed = {verdicts['passed']}  ({wall:.1f}s)")
    for v in verdicts["verdicts"]:
        print(f"    {v['series']:<22} {v['claim']:<15} "
              f"pass={v['pass']} worst={v['worst_violation'][1]:.3e} "
              f"slack={v['slack_used']:.3e}")


if __name__ == "__main__":
    sys.exit(main())
