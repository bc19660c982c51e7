"""Evolve a convex body by an outward-normal speed via its support function.

The normal velocity -F(kappa) becomes dh/dt = -f(kappa(h)) on the support
samples; run() is the one stepping path: classical 4-stage explicit
Runge-Kutta with a CFL-limited step, a convexity check on every step (a
failed step is retried at half the step) and the final step bisected onto
the max-F stop.  Every snapshot moves the support origin to the in-center
and records the body, its radii, and the extinction-time interval
[t + r_minus^2/2, t + r_plus^2/2] read off the avoidance bounds.  The flow
draws no random numbers: a config alone fixes a run.

The stable step is per direction.  With r_i = 1/kappa_i and g = dF/dkappa,
a perturbation u of h obeys, linearised, du/dt = sum_i g_i kappa_i^2 L_i u,
where L_1 = d^2/dtheta^2 + 1 along the meridian (the whole operator of a
curve) and L_2 = cot(theta) d/dtheta + 1 is its azimuthal analogue: first
order off the poles and equal to L_1 at the poles, where g_1 = g_2.  Each
direction's coefficient scales a top grid mode of eigenvalue about
-(pi/dtheta)^2, so with a = max over points and directions of g_i kappa_i^2
the step dt = cfl * dtheta^2 / a keeps dt * |lambda| at about cfl * pi^2.
The top spatial mode saturates that bound on a sphere, where g_1 = g_2 = 1/2
at every point (the eigenvalues of the linearised dense radii operator give
dt * max|lambda| = cfl * pi^2 * N/(N-1) there, and 0.87 to 0.97 of cfl * pi^2
on prolate and oblate ellipsoids under the mean and the harmonic mean), so
RK4's interval [-2.785, 0] on the negative real axis requires
cfl * pi^2 <= 2.785: FlowConfig refuses a cfl above CFL_MAX = 2.785 / pi^2
(about 0.282), and the committed configs use 0.25.  Elsewhere a is at most
max g / min r^2, the scalar stiffness that pairs the smallest radius
anywhere with the largest speed derivative anywhere; the two agree on
spheres, on curves (g = 1) and for the mean (g = 1/2), and there runs take
the same steps under either.

The principal radii of each stage come from geometry's kernel, a cached
dense operator up to geometry.DENSE_MAX_N grid points and one stacked
Fourier transform pair above; the speed of an accepted step is reused as the
next step's first stage.

Curve-mode note: in one curvature variable, degree-one homogeneity plus the
normalisation force f(kappa) = kappa, so every curve run is curve shortening
regardless of the configured speed name.  Distinct speeds only act in
axisymmetric mode.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import ConvexityLost, DomainError
from .geometry import (AXISYMMETRIC, CURVE, ConvexBody, _Workspace, _workspace,
                       make_ellipse, make_ellipsoid, make_sphere, recenter)
from .speeds import SpeedFunction, parse_speed

REACHED_MAX_F = "ReachedMaxF"
REACHED_T_END = "ReachedTEnd"
CONVEXITY_LOST = "ConvexityLost"
STEP_UNDERFLOW = "StepUnderflow"

# RK4's stability interval on the negative real axis is [-2.785, 0] and the
# top mode of the support equation has eigenvalue -cfl * pi^2
CFL_MAX = 2.785 / np.pi**2


@dataclass
class FlowConfig:
    speed: str
    body: dict
    cfl: float = 0.1
    t_end: Optional[float] = None
    stop_max_f: Optional[float] = None         # absolute threshold on max F
    stop_max_f_factor: Optional[float] = None  # or a multiple of the initial max F
    snapshot_every: int = 100
    monitor: str = "full"                      # "full" | "radii"

    def __post_init__(self):
        if not 0.0 < self.cfl <= CFL_MAX:
            raise ValueError(f"cfl must lie in (0, 2.785/pi^2 = {CFL_MAX:.4f}]")
        if self.stop_max_f is not None and not self.stop_max_f > 0.0:
            raise ValueError("stop_max_f must be positive")
        if self.stop_max_f_factor is not None and not self.stop_max_f_factor > 1.0:
            raise ValueError("stop_max_f_factor must exceed 1")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if self.monitor not in ("full", "radii"):
            raise ValueError("monitor must be 'full' or 'radii'")

    @staticmethod
    def from_json(path: str) -> "FlowConfig":
        """Load a config; a key that is not a field raises TypeError naming it."""
        with open(path) as fh:
            return FlowConfig(**json.load(fh))


def build_body(spec: dict) -> ConvexBody:
    mode = spec["mode"]
    N = int(spec["N"])
    shape = spec.get("shape", {"kind": "sphere", "radius": 1.0})
    kind = shape["kind"]
    if kind == "sphere":
        return make_sphere(mode, N, shape.get("radius", 1.0))
    if kind == "ellipse":
        if mode != CURVE:
            raise ValueError("ellipse shape is curve-mode only")
        return make_ellipse(N, shape["a"], shape["b"])
    if kind == "ellipsoid":
        if mode != AXISYMMETRIC:
            raise ValueError("ellipsoid shape is axisymmetric only")
        return make_ellipsoid(N, shape["a"], shape["c"])
    if kind == "support":
        return ConvexBody(mode=mode, h=np.array(shape["h"], dtype=float))
    raise ValueError(f"unknown shape kind {kind!r}")


def build_speed(name: str, mode: str) -> SpeedFunction:
    return parse_speed(name, 1 if mode == CURVE else 2)


def _speed_of_radii(r: np.ndarray, speed: SpeedFunction) -> np.ndarray:
    if r.min() <= 0.0:
        raise DomainError(
            f"curvatures left the positive cone mid-stage (min radius {r.min():.3e})")
    return speed._v(1.0 / r)


def _rk4(ws: _Workspace, h: np.ndarray, speed: SpeedFunction, dt: float,
         r0: Optional[np.ndarray] = None, F0: Optional[np.ndarray] = None) -> np.ndarray:
    """One RK4 step from h; r0 and F0, when given, are the radii and the
    speed at h."""
    if F0 is None:
        F0 = _speed_of_radii(ws.radii(h) if r0 is None else r0, speed)
    k1 = -F0
    k2 = -_speed_of_radii(ws.radii(h + (0.5 * dt) * k1), speed)
    k3 = -_speed_of_radii(ws.radii(h + (0.5 * dt) * k2), speed)
    k4 = -_speed_of_radii(ws.radii(h + dt * k3), speed)
    return h + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _dt_of(ws: _Workspace, r: np.ndarray, speed: SpeedFunction, cfl: float) -> float:
    """cfl * dtheta^2 / max over points and directions of g_i kappa_i^2, the
    per-direction parabolic bound (see the module docstring).  It is taken as
    the smallest cfl * dtheta^2 * r_i^2 / g_i, which for the mean (g = 1/2
    everywhere) rounds exactly as the scalar cfl * dtheta^2 * min r^2 / g."""
    g = speed._g(1.0 / r)
    return float((cfl * ws.dth * ws.dth * (r * r) / g).min())


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

@dataclass
class FlowRun:
    config: FlowConfig
    times: list = dc_field(default_factory=list)
    snapshots: list = dc_field(default_factory=list)
    max_f: list = dc_field(default_factory=list)
    min_f: list = dc_field(default_factory=list)
    r_plus: list = dc_field(default_factory=list)
    r_minus: list = dc_field(default_factory=list)
    in_centers: list = dc_field(default_factory=list)   # absolute coordinates
    t_hat_lo: list = dc_field(default_factory=list)
    t_hat_hi: list = dc_field(default_factory=list)
    termination: str = ""
    steps: int = 0
    rk4_attempts: int = 0          # RK4 steps tried, rolled back or bisected included
    rollbacks: int = 0             # dt halvings after a step lost convexity or domain
    dt_refreshes: int = 0          # evaluations of the stable step
    bisection_iterations: int = 0  # RK4 steps of the final bisection onto max F
    dt_min: Optional[float] = None  # smallest and largest step taken, the final
    dt_max: Optional[float] = None  # step bisected onto max F left out

    @property
    def counters(self) -> dict:
        return {"steps": self.steps, "rk4_attempts": self.rk4_attempts,
                "rollbacks": self.rollbacks, "dt_refreshes": self.dt_refreshes,
                "bisection_iterations": self.bisection_iterations,
                "dt_min": self.dt_min, "dt_max": self.dt_max}

    @property
    def t_hat(self) -> float:
        """Extinction-time estimate: midpoint of the final avoidance interval."""
        return 0.5 * (self.t_hat_lo[-1] + self.t_hat_hi[-1])

    @property
    def t_hat_width(self) -> float:
        return self.t_hat_hi[-1] - self.t_hat_lo[-1]


def stop_threshold(config: FlowConfig, body: ConvexBody, speed: SpeedFunction) -> float:
    """The max-F stop of a run from body: stop_max_f, else stop_max_f_factor
    (default 1000) times the initial max F.  Raises ConvexityLost for a
    nonconvex body and ValueError for a stop at or below the initial max F."""
    r = _workspace(body.mode, body.N).radii(body.h)
    if r.min() <= 0.0:
        raise ConvexityLost(f"initial body is not convex (min radius {r.min():.3e})")
    f_max0 = float(_speed_of_radii(r, speed).max())
    if config.stop_max_f is not None:
        stop_f = float(config.stop_max_f)
    elif config.stop_max_f_factor is not None:
        stop_f = float(config.stop_max_f_factor) * f_max0
    else:
        stop_f = 1e3 * f_max0
    if stop_f <= f_max0:
        raise ValueError(f"stop threshold {stop_f:g} must exceed the initial max F {f_max0:g}")
    return stop_f


def run(config: FlowConfig, speed: Optional[SpeedFunction] = None,
        body: Optional[ConvexBody] = None) -> FlowRun:
    """Step until a termination condition, sampling every snapshot_every steps.

    The final step is bisected so a ReachedMaxF run lands on the threshold
    (relative 1e-9) instead of overshooting by one step.
    """
    body = build_body(config.body) if body is None else body
    speed = build_speed(config.speed, body.mode) if speed is None else speed
    ws = _workspace(body.mode, body.N)
    stop_f = stop_threshold(config, body, speed)
    run_ = FlowRun(config=config)

    def sample(b: ConvexBody) -> ConvexBody:
        F = _speed_of_radii(ws.radii(b.h), speed)
        b, rep = recenter(b)
        run_.times.append(b.t)
        run_.snapshots.append(b)
        run_.max_f.append(float(F.max()))
        run_.min_f.append(float(F.min()))
        run_.r_plus.append(rep.r_plus)
        run_.r_minus.append(rep.r_minus)
        run_.in_centers.append(np.array(b.center_offset))
        run_.t_hat_lo.append(b.t + 0.5 * rep.r_minus**2)
        run_.t_hat_hi.append(b.t + 0.5 * rep.r_plus**2)
        return b

    body = sample(body)
    steps_since_sample = 0
    config_mode = body.mode
    h = body.h
    t = body.t
    offset = body.center_offset
    r = ws.radii(h)
    F = None  # speed at h, known once a step has been accepted

    def as_body(hh, tt):
        return ConvexBody(mode=config_mode, h=hh, t=tt, center_offset=offset)

    # the stable step drifts by ~1e-5 relative per step, so refresh it every
    # few steps with a small margin instead of every step
    dt_cached = None
    dt_age = 0
    while True:
        if dt_cached is None or dt_age >= 8:
            dt_cached = 0.995 * _dt_of(ws, r, speed, config.cfl)
            dt_age = 0
            run_.dt_refreshes += 1
        dt = dt_cached
        dt_age += 1
        if config.t_end is not None:
            dt = min(dt, config.t_end - t)
            if dt <= 0.0:
                run_.termination = REACHED_T_END
                break
        floor = 1e-14 * max(1.0, t)
        if dt < floor:
            run_.termination = STEP_UNDERFLOW
            break

        h_new = None
        while dt >= floor:
            run_.rk4_attempts += 1
            try:
                h_try = _rk4(ws, h, speed, dt, r0=r, F0=F)
                r_try = ws.radii(h_try)
                if r_try.min() <= 0.0:
                    raise ConvexityLost("lost convexity")
                h_new, r_new = h_try, r_try
                break
            except (ConvexityLost, DomainError):
                dt *= 0.5
                dt_cached = None
                run_.rollbacks += 1
        if h_new is None:
            run_.termination = CONVEXITY_LOST
            break

        F_new = _speed_of_radii(r_new, speed)
        if float(F_new.max()) >= stop_f:
            # bisect the final step onto the threshold
            h_best, dt_best = h_new, dt
            lo_dt, hi_dt = 0.0, dt
            for _ in range(80):
                mid = 0.5 * (lo_dt + hi_dt)
                if mid <= 0.0 or mid == lo_dt or mid == hi_dt:
                    break
                run_.rk4_attempts += 1
                run_.bisection_iterations += 1
                try:
                    h_try = _rk4(ws, h, speed, mid, r0=r, F0=F)
                    r_try = ws.radii(h_try)
                    if r_try.min() <= 0.0:
                        raise ConvexityLost("lost convexity")
                except (ConvexityLost, DomainError):
                    hi_dt = mid
                    continue
                f_trial = float(_speed_of_radii(r_try, speed).max())
                if f_trial < stop_f:
                    lo_dt = mid
                else:
                    h_best, dt_best = h_try, mid
                    hi_dt = mid
                    if f_trial < stop_f * (1.0 + 1e-9):
                        break
            run_.steps += 1
            sample(as_body(h_best, t + dt_best))
            run_.termination = REACHED_MAX_F
            break

        h, r, F = h_new, r_new, F_new
        t += dt
        run_.steps += 1
        run_.dt_min = dt if run_.dt_min is None else min(run_.dt_min, dt)
        run_.dt_max = dt if run_.dt_max is None else max(run_.dt_max, dt)
        steps_since_sample += 1
        if config.t_end is not None and t >= config.t_end:
            sample(as_body(h, t))
            run_.termination = REACHED_T_END
            break
        if steps_since_sample >= config.snapshot_every:
            b = sample(as_body(h, t))
            h, t, offset = b.h, b.t, b.center_offset
            r = ws.radii(h)
            F = None
            steps_since_sample = 0

    if run_.termination in (CONVEXITY_LOST, STEP_UNDERFLOW):
        if not run_.times or run_.times[-1] < t:
            try:
                sample(as_body(h, t))
            except (ConvexityLost, DomainError):
                pass
    return run_
