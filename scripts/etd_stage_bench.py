#!/usr/bin/env python3
"""Cost of one ETDRK4 stage, with the principal radii taken straight from
the eigen-coefficients (geometry._Eigenbasis.radii) and by the grid.

A stage of flow.run evaluates n(c) = forward(-F(R c)) - lin * c.  The grid
path forms R c as the grid values inverse(c) and then the grid's radii
kernel (geometry._Workspace.radii: one rfft of h less its mean and one
irfft of the stacked [h', h''] multipliers at every N); it is
tests/oracles.py::eigenbasis_radii_reference.
The coefficient path applies the closed-form radii of the eigenvectors.
This script times both, and the attempt of flow.run's step doubling:

- microseconds per stage on an ellipsoid (sigma-ratio:2) at N = 128, 256
  and 511 and an ellipse (mean) at N = 256;
- microseconds per attempt on the same bodies, coefficient radii: the
  step and its first half step as one stacked _rk4 call, then the second
  half step ("stacked", as flow.run takes it), against three single
  _rk4 calls ("single"); both include the half point's stage and the
  error norm's inverse transforms (one stacked call against two);
- the steps, counters and wall time of flow.run on the three committed
  configs and on the flows of the benchmark's ellipsoid-step and
  ellipsoid-monitor workloads (seed 1), with _Eigenbasis.radii as it is and
  swapped for the grid path.  The grid path here pays one inverse transform
  per accepted step more than a flow that kept its grid values.

Writes the machine, the grids, the counts and the medians over --repeats
runs as JSON.

Example:
    OPENBLAS_NUM_THREADS=1 python scripts/etd_stage_bench.py --out BENCH_etd_stages.json
"""
import argparse
import contextlib
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
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))

from noncollapse.flow import (FlowConfig, _dt_of, _etd_coefficients, _rk4,  # noqa: E402
                              _speed_coefficients, build_speed, run)
from noncollapse.geometry import (AXISYMMETRIC, CURVE, _Eigenbasis,  # noqa: E402
                                  _workspace, make_ellipse, make_ellipsoid)
from etd_convergence import cpu_model  # noqa: E402
from oracles import eigenbasis_radii_reference  # noqa: E402
from workloads import ellipsoid_monitor, ellipsoid_step  # noqa: E402

STAGE_CASES = [(AXISYMMETRIC, 128, "sigma-ratio:2"), (AXISYMMETRIC, 256, "sigma-ratio:2"),
               (AXISYMMETRIC, 511, "sigma-ratio:2"), (CURVE, 256, "mean")]


@contextlib.contextmanager
def radii_path(kind):
    """Run the flow with its eigen-coefficient radii as they are ("coefficients")
    or by the grid ("grid")."""
    saved = _Eigenbasis.radii
    if kind == "grid":
        _Eigenbasis.radii = eigenbasis_radii_reference
    try:
        yield
    finally:
        _Eigenbasis.radii = saved


def stage_case(mode, N, speed_name):
    """(eig, speed, c, lin, dt_unit) of the case's body at cfl 0.25."""
    body = make_ellipsoid(N, 1.0, 1.5) if mode == AXISYMMETRIC else make_ellipse(N, 1.5, 1.0)
    speed = build_speed(speed_name, mode)
    ws = _workspace(mode, N)
    eig = ws.eigenbasis()
    c = eig.forward(body.h)
    dt_unit = _dt_of(ws, eig.radii(c), speed, 0.25)
    return eig, speed, c, (0.25 * ws.dth * ws.dth / dt_unit) * eig.lam, dt_unit


def median_us(fns, calls, repeats):
    """Median microseconds of one call of each of fns over `repeats` runs of
    `calls`, the functions taking turns within each run so that a change of
    the host's speed falls on all of them alike."""
    times = [[] for _ in fns]
    for _ in range(repeats):
        for fn, ts in zip(fns, times):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            ts.append((time.perf_counter() - t0) / calls * 1e6)
    return [round(statistics.median(ts), 2) for ts in times]


def stage_us(mode, N, speed_name, kind, calls, repeats):
    """Median microseconds of one stage n(c) over `repeats` runs of `calls`."""
    eig, speed, c, lin, _ = stage_case(mode, N, speed_name)
    with radii_path(kind):
        return median_us([lambda: _speed_coefficients(eig, speed, c) - lin * c],
                         calls, repeats)[0]


def attempt_us(mode, N, speed_name, calls, repeats):
    """Median microseconds of one step-doubling attempt of a two-stable-step
    ETDRK4 step, (single, stacked): its first half step apart from it or
    stacked with it."""
    eig, speed, c, lin, dt_unit = stage_case(mode, N, speed_name)
    n0 = _speed_coefficients(eig, speed, c) - lin * c
    dt = 2.0 * dt_unit
    pair = _etd_coefficients(np.array([[dt], [0.5 * dt]]) * lin)
    half = tuple(w[1] for w in pair)
    full_w = tuple(w[0] for w in pair)

    def second_half(mid):
        return _rk4(eig, speed, 0.5 * dt, half, lin, mid,
                    _speed_coefficients(eig, speed, mid) - lin * mid)

    def stacked():
        full, mid = _rk4(eig, speed, np.array([[dt], [0.5 * dt]]), pair, lin, c, n0)
        return eig.inverse(np.stack([second_half(mid), full]))

    def single():
        full = _rk4(eig, speed, dt, full_w, lin, c, n0)
        mid = _rk4(eig, speed, 0.5 * dt, half, lin, c, n0)
        return eig.inverse(second_half(mid)), eig.inverse(full)

    return median_us([single, stacked], calls, repeats)


def flows():
    """(label, FlowConfig) of the committed configs and the benchmark flows."""
    root = os.path.join(HERE, "..", "configs")
    out = [(name, FlowConfig.from_json(os.path.join(root, name)))
           for name in sorted(os.listdir(root)) if name.endswith(".json")]
    for wl, invs in (("ellipsoid-step", ellipsoid_step(1)),
                     ("ellipsoid-monitor", ellipsoid_monitor(1))):
        out += [(f"{wl}/{inv.label}", FlowConfig(**inv.config)) for inv in invs]
    return out


def flow_stats(cfg, kind, repeats):
    """Counters of one run and the median wall of `repeats` runs."""
    walls = []
    with radii_path(kind):
        for _ in range(repeats):
            t0 = time.perf_counter()
            fr = run(cfg)
            walls.append(time.perf_counter() - t0)
    return {"steps": fr.steps, "counters": fr.counters, "snapshots": len(fr.times),
            "wall_s": round(statistics.median(walls), 4)}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--calls", type=int, default=400, help="stages per timing")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--flow-repeats", type=int, default=3)
    ap.add_argument("--out", default="BENCH_etd_stages.json")
    args = ap.parse_args()

    stages = []
    for mode, N, name in STAGE_CASES:
        row = {"mode": mode, "N": N, "speed": name}
        for kind in ("grid", "coefficients"):
            row[f"{kind}_us"] = stage_us(mode, N, name, kind, args.calls, args.repeats)
        row["attempt_single_us"], row["attempt_stacked_us"] = attempt_us(
            mode, N, name, max(1, args.calls // 10), 4 * args.repeats)
        stages.append(row)
        print(f"stage {mode} N={N}: grid {row['grid_us']} us, "
              f"coefficients {row['coefficients_us']} us; attempt: single "
              f"{row['attempt_single_us']} us, stacked {row['attempt_stacked_us']} us")

    runs = []
    for label, cfg in flows():
        row = {"flow": label, "mode": cfg.body["mode"], "N": cfg.body["N"], "speed": cfg.speed}
        for kind in ("grid", "coefficients"):
            row[kind] = flow_stats(cfg, kind, args.flow_repeats)
        runs.append(row)
        print(f"flow {label}: steps {row['grid']['steps']} / {row['coefficients']['steps']}, "
              f"wall {row['grid']['wall_s']} / {row['coefficients']['wall_s']} s")

    out = {
        "machine": {"platform": platform.platform(), "processor": cpu_model(),
                    "cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "stage": {"what": "one n(c) = forward(-F(R c)) - lin * c, median us per call; "
                          "one step-doubling attempt (three ETDRK4 steps, the half "
                          "point's stage, the error norm's inverse transforms) with "
                          "the step and the first half step single or stacked, "
                          "taking turns, median us per attempt over 4 * repeats "
                          "runs of calls/10 attempts",
                  "calls": args.calls, "repeats": args.repeats, "cases": stages},
        "flows": {"what": "flow.run, counters of one run, median wall of the repeats",
                  "repeats": args.flow_repeats, "runs": runs},
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
