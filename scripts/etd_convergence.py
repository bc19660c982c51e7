#!/usr/bin/env python3
"""Steps against error of the ETDRK4 stepper, measured against classical RK4.

Evolves the ellipsoid of the ellipsoid-step benchmark (sigma-ratio:2, c/a =
1.5) to a fixed time three ways: RK4 at the stable step (the reference,
tests/oracles.py::rk4_reference_run), ETDRK4 with uniform steps (10 to 320
over the run), and flow.run's adaptive ETDRK4.  Writes the machine, the grid,
the maximum relative support-function error of each uniform run against the
reference, and the steps and wall time of the adaptive run and of the
reference, as JSON.

Example:
    python scripts/etd_convergence.py --out BENCH_etdrk4.json
"""
import argparse
import json
import os
import platform
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))

from noncollapse.flow import (FlowConfig, _dt_of, _etd_coefficients, _rk4,  # noqa: E402
                              _speed_coefficients, build_body, build_speed, run)
from noncollapse.geometry import _workspace  # noqa: E402
from oracles import rk4_reference_run  # noqa: E402


def absolute_h(body):
    """Support values about the absolute origin: snapshots are recentered."""
    return body.h + body.directions() @ body.center_offset


def uniform_etd(body, speed, steps, t_end):
    """ETDRK4 in `steps` equal steps to t_end, the linear part refreshed
    before each step as in flow.run; returns the support values at t_end."""
    ws = _workspace(body.mode, body.N)
    eig = ws.eigenbasis()
    dt = t_end / steps
    c = eig.forward(body.h[eig.fold])
    for _ in range(steps):
        r = eig.radii(c)
        lin = (ws.dth * ws.dth / _dt_of(ws, r, speed, 1.0)) * eig.lam
        n0 = _speed_coefficients(eig, speed, c) - lin * c
        c = _rk4(eig, speed, dt, _etd_coefficients(dt * lin), lin, c, n0)
    return eig.inverse(c)


def cpu_model():
    """The CPU's model name on Linux, else platform.processor()."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--speed", default="sigma-ratio:2")
    ap.add_argument("--grid", type=int, default=256)
    ap.add_argument("--c", type=float, default=1.5, help="polar semi-axis (equatorial 1)")
    ap.add_argument("--t-end", type=float, default=0.25)
    ap.add_argument("--out", default="BENCH_etdrk4.json")
    args = ap.parse_args()

    cfg = FlowConfig(speed=args.speed,
                     body={"mode": "axisymmetric", "N": args.grid,
                           "shape": {"kind": "ellipsoid", "a": 1.0, "c": args.c}},
                     cfl=0.25, t_end=args.t_end, stop_max_f=1e9,
                     snapshot_every=10**9, monitor="radii")
    body = build_body(cfg.body)
    speed = build_speed(cfg.speed, body.mode)

    t0 = time.perf_counter()
    ref = rk4_reference_run(cfg)
    ref_wall = time.perf_counter() - t0
    h_ref = absolute_h(ref.snapshots[-1].body)

    def error(h):
        return float(np.abs(h - h_ref).max() / np.abs(h_ref).max())

    uniform = []
    for steps in (10, 20, 40, 80, 160, 320):
        t0 = time.perf_counter()
        h = uniform_etd(body, speed, steps, args.t_end)
        wall = time.perf_counter() - t0
        uniform.append({"steps": steps, "max_rel_error": error(h), "wall_s": round(wall, 4)})
        print(f"uniform {steps:4d} steps: error {uniform[-1]['max_rel_error']:.3e}")

    t0 = time.perf_counter()
    fr = run(cfg)
    wall = time.perf_counter() - t0
    adaptive = {"steps": fr.steps, "counters": fr.counters,
                "max_rel_error": error(absolute_h(fr.snapshots[-1].body)),
                "wall_s": round(wall, 4)}
    print(f"adaptive: {fr.steps} steps ({fr.counters['rk4_attempts']} ETDRK4 steps), "
          f"error {adaptive['max_rel_error']:.3e}, {wall:.2f} s; "
          f"RK4 reference {ref.steps} steps, {ref_wall:.2f} s")

    out = {
        "machine": {"platform": platform.platform(), "processor": cpu_model(),
                    "cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "problem": {"speed": args.speed, "mode": "axisymmetric", "N": args.grid,
                    "ellipsoid": {"a": 1.0, "c": args.c}, "t_end": args.t_end},
        "reference": {"method": "classical RK4 at 0.995 x the stable step, cfl 0.25",
                      "steps": ref.steps, "wall_s": round(ref_wall, 4)},
        "uniform": uniform,
        "adaptive": adaptive,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
