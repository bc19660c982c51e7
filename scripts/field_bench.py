#!/usr/bin/env python3
"""Cost of the ball-curvature field and of the curve circumcircle, against
their test-only references.

- Milliseconds per geometry.ball_curvature_field (row blocks, closed-form
  first admissible azimuth) and per tests/oracles.py::
  ball_curvature_field_bisection (full (N, N) matrices, azimuth by
  bisection), on the benchmark's ellipsoid (c/a = 1.5) at N = 256 and 511
  and its ellipse (a/b = 1.5) at N = 256 and 512.  The script checks that
  both give the same field, bit for bit.
- The same fields at 16, 32, 64 and 128 x rows per block
  (geometry.FIELD_ROWS), the heights taking turns within each repeat.
- Microseconds per curve circumcircle: geometry._circumball_curve
  (farthest-point pivoting) and tests/oracles.py::circumball_welzl, on the
  ellipse's grid points at N = 256 and 512.

Each timing is the median of --repeats runs of --calls calls, after one
warm-up call.  Writes the machine, the grids, the counts and the medians as
JSON.

Example:
    OPENBLAS_NUM_THREADS=1 python scripts/field_bench.py --out BENCH_fields.json
"""
import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))

from noncollapse import geometry  # noqa: E402
from noncollapse.geometry import (AXISYMMETRIC, _circumball_curve, _points,  # noqa: E402
                                  ball_curvature_field, make_ellipse, make_ellipsoid)
from etd_convergence import cpu_model  # noqa: E402
from oracles import ball_curvature_field_bisection, circumball_welzl  # noqa: E402

FIELD_CASES = [(AXISYMMETRIC, 256), (AXISYMMETRIC, 511), ("curve", 256), ("curve", 512)]
BLOCK_ROWS = [16, 32, 64, 128]
CIRCLE_N = [256, 512]


def body_of(mode, N):
    return make_ellipsoid(N, 1.0, 1.5) if mode == AXISYMMETRIC else make_ellipse(N, 1.5, 1.0)


def per_call(fn, arg, calls, repeats, unit):
    """Median time per call of fn(arg) over `repeats` runs of `calls` calls."""
    fn(arg)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        times.append((time.perf_counter() - t0) / calls * unit)
    return round(statistics.median(times), 3)


def same_field(a, b):
    return all(np.array_equal(getattr(a, n), getattr(b, n))
               for n in ("k_lower", "k_upper", "witness_lower", "witness_upper", "kappa"))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--calls", type=int, default=5, help="fields per timing")
    ap.add_argument("--circle-calls", type=int, default=200, help="circumcircles per timing")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", default="BENCH_fields.json")
    args = ap.parse_args()

    fields = []
    for mode, N in FIELD_CASES:
        b = body_of(mode, N)
        if not same_field(ball_curvature_field(b), ball_curvature_field_bisection(b)):
            raise SystemExit(f"{mode} N={N}: the field differs from the bisection reference")
        row = {"mode": mode, "N": N,
               "bisection_ms": per_call(ball_curvature_field_bisection, b,
                                        args.calls, args.repeats, 1e3),
               "blocks_ms": per_call(ball_curvature_field, b, args.calls, args.repeats, 1e3)}
        fields.append(row)
        print(f"field {mode} N={N}: bisection {row['bisection_ms']} ms, "
              f"blocks {row['blocks_ms']} ms")

    # the block heights take turns within each repeat, so a drift of the
    # host's speed spreads over all of them
    times = {(rows, case): [] for rows in BLOCK_ROWS for case in FIELD_CASES}
    saved = geometry.FIELD_ROWS
    try:
        for _ in range(args.repeats):
            for rows in BLOCK_ROWS:
                geometry.FIELD_ROWS = rows
                for case in FIELD_CASES:
                    times[rows, case].append(per_call(ball_curvature_field, body_of(*case),
                                                      args.calls, 1, 1e3))
    finally:
        geometry.FIELD_ROWS = saved
    sweep = []
    for rows in BLOCK_ROWS:
        row = {"rows": rows}
        for mode, N in FIELD_CASES:
            row[f"{mode}_{N}_ms"] = round(statistics.median(times[rows, (mode, N)]), 3)
        sweep.append(row)
        print(f"rows {rows}: " + ", ".join(f"{k} {v}" for k, v in row.items() if k != "rows"))

    circles = []
    for N in CIRCLE_N:
        pts = _points(make_ellipse(N, 1.5, 1.0))
        row = {"N": N,
               "welzl_us": per_call(circumball_welzl, pts, args.circle_calls, args.repeats, 1e6),
               "pivot_us": per_call(_circumball_curve, pts, args.circle_calls, args.repeats, 1e6)}
        circles.append(row)
        print(f"circumcircle N={N}: Welzl {row['welzl_us']} us, pivot {row['pivot_us']} us")

    out = {
        "machine": {"platform": platform.platform(), "processor": cpu_model(),
                    "cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "fields": {"what": "ms per ball_curvature_field, median of the repeats; "
                           "ellipsoid c/a = 1.5, ellipse a/b = 1.5",
                   "block_rows": saved, "calls": args.calls, "repeats": args.repeats,
                   "cases": fields},
        "block_sweep": {"what": "ms per ball_curvature_field at each FIELD_ROWS, "
                                "the heights taking turns within each repeat",
                        "calls": args.calls, "repeats": args.repeats, "rows": sweep},
        "circumcircle": {"what": "us per curve circumcircle of the a/b = 1.5 ellipse's points",
                         "calls": args.circle_calls, "repeats": args.repeats,
                         "cases": circles},
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
