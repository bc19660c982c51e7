"""The benchmark's workloads: the `noncollapse` invocations of one round.

Inputs come from the seed alone.  Flow bodies are scaled by a seed-drawn
factor in [0.8, 1.25]: the flows are scale invariant (t scales with s^2,
the step with it), so the step count and the cost do not depend on the
seed while every output does.  Oracle and certify take the seed as their
--seed, which draws their trial matrices and cone points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

N = 256             # grid of every ellipsoid and ellipse run
SPHERE_N = 128      # grid of the short sphere run (acceptance criterion 5's grid)
STEP_GROWTH = 1.1   # max-F growth of the stepping run
CFL = 0.25


@dataclass
class Invocation:
    label: str
    command: str                     # "flow" | "oracle" | "certify"
    args: list = field(default_factory=list)
    expect_exit: int = 0
    config: Optional[dict] = None    # flow config, written by the child as config.json
    sphere_radius: Optional[float] = None
    ellipse: Optional[tuple] = None  # (a, b) of a curve-mode ellipse
    trials: Optional[int] = None
    negative_power: Optional[float] = None


def _scale(seed: int, salt: int) -> float:
    rng = np.random.default_rng((seed, salt))
    return float(np.exp(rng.uniform(np.log(0.8), np.log(1.25))))


def _flow(label, speed, body, growth, snapshot_every, monitor, **extra) -> Invocation:
    cfg = {"speed": speed, "body": body, "cfl": CFL, "stop_max_f_factor": growth,
           "snapshot_every": snapshot_every, "monitor": monitor}
    return Invocation(label=label, command="flow", config=cfg, **extra)


def ellipsoid_step(seed: int) -> list:
    s = _scale(seed, 0)
    r = _scale(seed, 1)
    return [
        _flow("ellipsoid", "sigma-ratio:2",
              {"mode": "axisymmetric", "N": N,
               "shape": {"kind": "ellipsoid", "a": s, "c": 1.5 * s}},
              STEP_GROWTH, 400, "radii"),
        _flow("sphere", "sigma-ratio:2",
              {"mode": "axisymmetric", "N": SPHERE_N,
               "shape": {"kind": "sphere", "radius": r}},
              2.0, 250, "radii", sphere_radius=r),
    ]


def ellipsoid_monitor(seed: int) -> list:
    s = _scale(seed, 0)
    e = _scale(seed, 2)
    return [
        _flow("ellipsoid", "mean",
              {"mode": "axisymmetric", "N": N,
               "shape": {"kind": "ellipsoid", "a": s, "c": 1.5 * s}},
              1.01, 500, "full"),
        _flow("ellipse", "mean",
              {"mode": "curve", "N": N,
               "shape": {"kind": "ellipse", "a": 1.5 * e, "b": e}},
              1.05, 200, "full", ellipse=(1.5 * e, e)),
    ]


def _oracle(label, prop, speed, trials, expect_exit=0, **extra) -> Invocation:
    return Invocation(label=label, command="oracle",
                      args=["--prop", prop, "--speed", speed, "--n", "3",
                            "--trials", str(trials)],
                      expect_exit=expect_exit, trials=trials, **extra)


def _certify(label, speed, trials, prop=None, expect_exit=0, **extra) -> Invocation:
    args = ["--speed", speed, "--n", "3", "--trials", str(trials)]
    if prop:
        args += ["--property", prop]
    return Invocation(label=label, command="certify", args=args,
                      expect_exit=expect_exit, trials=trials, **extra)


def oracle_suites(seed: int) -> list:
    return [
        _oracle("interior-harmonic", "2.2", "harmonic", 12000),
        _oracle("interior-sigma-ratio2", "2.2", "sigma-ratio:2", 12000),
        _oracle("boundary-harmonic", "2.5", "harmonic", 4000),
        _oracle("boundary-sigma-ratio2", "2.5", "sigma-ratio:2", 4000),
        _certify("certify-sigma-root2", "sigma-root:2", 1200),
        _certify("certify-power-2", "power:-2", 1200, prop="inverse-concave",
                 expect_exit=2, negative_power=-2.0),
        _oracle("interior-power-2", "2.2", "power:-2", 4000, expect_exit=2,
                negative_power=-2.0),
    ]


WORKLOADS = {
    "ellipsoid-step": ellipsoid_step,
    "ellipsoid-monitor": ellipsoid_monitor,
    "oracle-suites": oracle_suites,
}

# the reference loop (perfbench/reference.py) whose mix follows each workload's
REFERENCE = {
    "ellipsoid-step": "spectral",
    "ellipsoid-monitor": "field",
    "oracle-suites": "scalar",
}
