"""Evolve a convex body by an outward-normal speed via its support function.

The normal velocity -F(kappa) becomes dh/dt = -f(kappa(h)) on the support
samples; run() is the one stepping path: the exponential integrator ETDRK4
(Cox & Matthews 2002) under step-doubling error control, a convexity check
on every step (a failed step is retried at half the step) and the final
step bisected onto the max-F stop.  Every snapshot moves the support origin
to the in-center and appends a Snapshot to FlowRun.snapshots: the body, max
and min F and the radii, which give the extinction-time interval
[t + r_minus^2/2, t + r_plus^2/2] by the avoidance bounds.  The flow draws
no random numbers: a config alone fixes a run.

The stiffness is per direction.  With r_i = 1/kappa_i and g = dF/dkappa, a
perturbation u of h obeys, linearised, du/dt = sum_i g_i kappa_i^2 L_i u,
where L_1 = 1 + O_1 = d^2/dtheta^2 + 1 along the meridian (the whole
operator of a curve) and L_2 = 1 + O_2 = cot(theta) d/dtheta + 1 is its
azimuthal analogue: first order off the poles and equal to L_1 at the
poles, where g_1 = g_2.  Each direction's coefficient scales a top grid mode
of eigenvalue about -(pi/dtheta)^2, so with a = max over points and
directions of g_i kappa_i^2 the stable step dt = cfl * dtheta^2 / a keeps
dt * |lambda| at about cfl * pi^2 (_dt_of).  The top spatial mode saturates
that bound on a sphere, where g_1 = g_2 = 1/2 at every point (the
eigenvalues of the linearised radii operator give dt * max|lambda| =
cfl * pi^2 * N/(N-1) there, and 0.87 to 0.97 of cfl * pi^2 on prolate and
oblate ellipsoids under the mean and the harmonic mean).  FlowConfig
refuses a cfl above CFL_MAX = 2.785 / pi^2 (about 0.282), the end of
classical RK4's interval [-2.785, 0] on the negative real axis, and the
committed configs use 0.25.  RK4 runs only as the test suite's reference
integrator, tests/oracles.py::rk4_reference_run, at 0.995 of the stable
step: on a sphere at CFL_MAX that is z = -2.815 at N = 64, where RK4
amplifies the top mode by 1.046 per step, so it is stable there only from
about N = 200 on.

ETDRK4 takes the linear part L = a * sum_i (1 + O_i) exactly and the rest,
-F(kappa(h)) - L h, in four explicit stages.  L is diagonal in a closed-form
basis of the grid (geometry._Eigenbasis): eigenvalues 1 - k^2 on the Fourier
modes of a curve, 2 - k(k+1) on the Legendre polynomials P_k(cos theta) of
an axisymmetric grid.  a is refreshed before every step.  An attempt takes
one step and two half steps and keeps the half steps' result when the two
differ by at most ETD_TOL relative to max |h|.  The step and the first half
step start from the same coefficients, so they run as one stack of two
rows: each of their three stages is one stacked call (one rfft/irfft pair
over both rows on a curve, matrix-matrix products on an axisymmetric grid),
and the second half step follows alone.  An attempt thus makes seven stage
calls, three of them stacked, where three single steps would make ten.
Steps come from a ladder of 2^(j/RUNGS) stable steps, so their weights
depend on j alone and a rescaled body takes the same steps.  The stable
step sets the snapshot clock: snapshot_every counts stable steps (their
trapezoid sum, steps clipped to land on each snapshot), so a config samples
where RK4 at the stable step would, whatever steps the error control takes.
Where g_i kappa_i^2 varies strongly over the body the high modes of the
explicit rest are barely damped and the error control keeps steps near the
stable step: on an oblate c/a = 0.3 ellipsoid under power:-2, where it
spans a factor 123, a run to max F x3 takes 2,484 accepted steps against
RK4's 3,998.

The stages never leave coefficient space: a stage is
-forward(F(R c)) - lin * c, where R c, the principal radii of the body with
eigen-coefficients c, is the closed-form radii of the eigenvectors applied to
c (geometry._Eigenbasis.radii), on the folded grid that forward() reads.
Grid values are formed only for the error norm, the accepted step and the
snapshots; the speed of an accepted step is reused as the next step's first
stage.

Curve-mode note: in one curvature variable, degree-one homogeneity plus the
normalisation force f(kappa) = kappa, so every curve run is curve shortening
regardless of the configured speed name.  Distinct speeds only act in
axisymmetric mode.  A curve's stages and stable steps therefore take
F = kappa and g = 1 without calling the speed (_speed_of_radii, _dt_of):
the mean's bits, and other speed names' values up to rounding.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field as dc_field, fields
from typing import Optional

import numpy as np

from .geometry import (AXISYMMETRIC, CURVE, ConvexBody, ConvexityLost, _Eigenbasis,
                       _Workspace, _workspace, check_convex, make_ellipse, make_ellipsoid,
                       make_sphere, recenter)
from .speeds import DomainError, SpeedFunction, parse_speed

REACHED_MAX_F = "ReachedMaxF"
REACHED_T_END = "ReachedTEnd"
CONVEXITY_LOST = "ConvexityLost"
STEP_UNDERFLOW = "StepUnderflow"

# RK4's stability interval on the negative real axis is [-2.785, 0] and the
# top mode of the support equation has eigenvalue -cfl * pi^2 at the stable
# step, the unit of the snapshot clock.  run() steps by ETDRK4; RK4 runs
# only as the tests' reference integrator, tests/oracles.py::rk4_reference_run
CFL_MAX = 2.785 / np.pi**2

# step-doubling tolerance: one ETDRK4 step and two half steps may differ by
# at most this, relative to max |h|
ETD_TOL = 1e-12

# the step-size ladder: a step takes 2^(j/RUNGS) stable-step units for an
# integer j, so a rescaled body takes the same steps
RUNGS = 4

# a step below STEP_FLOOR * max(1, t) no longer moves t, and run() ends there
STEP_FLOOR = 1e-14


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
        if not (_number(self.cfl) and 0.0 < self.cfl <= CFL_MAX):
            raise ValueError(f"cfl must lie in (0, 2.785/pi^2 = {CFL_MAX:.4f}], got {self.cfl!r}")
        for name, low in (("t_end", 0.0), ("stop_max_f", 0.0), ("stop_max_f_factor", 1.0)):
            v = getattr(self, name)
            if v is not None and not (_number(v) and low < v < math.inf):
                raise ValueError(f"{name} must exceed {low:g} and be finite, got {v!r}")
        if not isinstance(self.speed, str):
            raise ValueError(f"speed must be a speed name, got {self.speed!r}")
        if not _whole(self.snapshot_every):
            raise ValueError(f"snapshot_every must be a whole number >= 1 and at most the "
                             f"largest float, got {self.snapshot_every!r}")
        if self.monitor not in ("full", "radii"):
            raise ValueError("monitor must be 'full' or 'radii'")
        # the full monitor's refinement deltas rebuild the body on the nested
        # 2N grid, and an explicit support sample has no such grid
        shape = self.body.get("shape") if isinstance(self.body, dict) else None
        if self.monitor == "full" and isinstance(shape, dict) and shape.get("kind") == "support":
            raise ValueError("monitor 'full' needs a shape that can be refined; "
                             "a support shape takes monitor 'radii'")

    @staticmethod
    def from_json(path: str) -> "FlowConfig":
        """Load a config; a key that is not a field raises TypeError naming it."""
        with open(path) as fh:
            return FlowConfig(**json.load(fh))


def _number(x) -> bool:
    """True for an int or a float; a JSON true, false or string is not one."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _whole(x) -> bool:
    """True for a whole number >= 1 (an int or an integral float) no larger
    than the largest float: a larger int overflows float() and isfinite()."""
    return _number(x) and 1 <= x <= sys.float_info.max and x == int(x)


def build_body(spec: dict) -> ConvexBody:
    mode = spec["mode"]
    if not _whole(spec["N"]):
        raise ValueError(f"body N must be a whole number >= 1 and at most the largest float, "
                         f"got {spec['N']!r}")
    N = int(spec["N"])
    shape = spec.get("shape", {"kind": "sphere", "radius": 1.0})
    kind = shape["kind"]
    for key in ("radius", "a", "b", "c"):
        v = shape.get(key)
        # bounded by the largest float, not inf: a larger int overflows float()
        if key in shape and not (_number(v) and 0.0 < v <= sys.float_info.max):
            raise ValueError(f"shape {key} must be a number, finite and > 0, got {v!r}")
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
        if not isinstance(shape["h"], list):
            raise ValueError(f"support shape h must be a list of numbers, got {shape['h']!r}")
        if not all(_number(x) for x in shape["h"]):
            raise ValueError("support shape h must hold only numbers")
        h = np.array(shape["h"], dtype=float)
        if h.shape != (N,):
            raise ValueError(f"support shape has {h.size} values for N = {N}")
        return ConvexBody(mode=mode, h=h)
    raise ValueError(f"unknown shape kind {kind!r}")


def build_speed(name: str, mode: str) -> SpeedFunction:
    return parse_speed(name, 1 if mode == CURVE else 2)


def _speed_of_radii(r: np.ndarray, speed: SpeedFunction) -> np.ndarray:
    """F at principal radii r (N, n), or (B, N) at a stack r (B, N, n).  One
    radius (a curve) gives F = kappa whatever the speed (see the module's
    curve note), the bits of the mean's sum over one column divided by 1."""
    if not r.min() > 0.0:
        raise DomainError(
            f"curvatures left the positive cone mid-stage (min radius {r.min():.3e})")
    if r.shape[-1] == 1:
        return 1.0 / r[..., 0]
    return speed._v(1.0 / r.reshape(-1, r.shape[-1])).reshape(r.shape[:-1])


# Taylor coefficients, by power of z, of the four weights of
# _etd_coefficients that are series in z: phi_1(z/2)/2 = sum z^n/(2^(n+1) (n+1)!),
# f1 = sum (n+1)^2 z^n/(n+3)!, f2 = sum (n+1) z^n/(n+3)! and
# f3 = sum (1-n) z^n/(n+3)!; below |z| = 1, 18 terms leave less than 1/20!
_TAYLOR = np.array([[0.5 ** (n + 1) / math.factorial(n + 1), (n + 1) ** 2 / math.factorial(n + 3),
                     (n + 1) / math.factorial(n + 3), (1 - n) / math.factorial(n + 3)]
                    for n in range(18)])


def _etd_coefficients(z: np.ndarray) -> tuple:
    """The diagonal weights of one ETDRK4 step, for z = dt times the linear
    part's eigenvalues: (e^z, e^(z/2), phi_1(z/2)/2, f1, f2, f3), the last
    four divided by dt (Cox & Matthews 2002).  Their closed forms, which
    reuse e^z, run only where |z| >= 1: below that they lose digits to
    cancellation (Kassam & Trefethen 2005), and the Taylor series, one
    in-place Horner pass over those entries, gives them there."""
    e = np.exp(z)
    small = np.abs(z) < 1.0
    big = ~small
    zb, eb = z[big], e[big]
    z3 = zb**3
    w = np.empty((4,) + z.shape)
    w[:, big] = (np.expm1(0.5 * zb) / zb,
                 (-4.0 - zb + eb * (4.0 - 3.0 * zb + zb * zb)) / z3,
                 (2.0 + zb + eb * (zb - 2.0)) / z3,
                 (-4.0 - 3.0 * zb - zb * zb + eb * (4.0 - zb)) / z3)
    zz = z[small]
    acc = np.zeros((4, zz.size))
    for coef in _TAYLOR[::-1, :, None]:
        acc *= zz
        acc += coef
    w[:, small] = acc
    return (e, np.exp(0.5 * z), *w)


def _speed_coefficients(eig: _Eigenbasis, speed: SpeedFunction, c: np.ndarray) -> np.ndarray:
    """Eigen-coefficients of -F of the body with eigen-coefficients c (or of
    each row of a stack c), its radii taken straight from c
    (_Eigenbasis.radii) on the folded grid that forward() reads.  Negation
    commutes with the transform's rounding, so -forward(F) is forward(-F)
    bit for bit, up to the sign of exact zeros."""
    return -eig.forward(_speed_of_radii(eig.radii(c), speed))


def _rk4(eig: _Eigenbasis, speed: SpeedFunction, dt, w: tuple,
         lin: np.ndarray, c0: np.ndarray, n0: np.ndarray) -> np.ndarray:
    """One exponential RK4 step (ETDRK4, Cox & Matthews 2002) of
    dc/dt = lin * c + n(c) on eigen-coefficients c, n(c) the coefficients of
    -F less lin * c; w = _etd_coefficients(dt * lin) and n0 = n(c0).
    Returns the coefficients after dt.  With dt a column (B, 1) of steps and
    w their weights (B, m), it takes B steps from the one c0 at once, each
    stage one stacked call, and returns them as rows (B, m)."""
    e, e2, q, f1, f2, f3 = w
    q = dt * q

    def n(c):
        return _speed_coefficients(eig, speed, c) - lin * c

    e2c = e2 * c0
    a = e2c + q * n0
    na = n(a)
    b = e2c + q * na
    nb = n(b)
    c = e2 * a + q * (2.0 * nb - n0)
    nc = n(c)
    return e * c0 + dt * (f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc)


def _dt_of(ws: _Workspace, r: np.ndarray, speed: SpeedFunction, cfl: float) -> float:
    """cfl * dtheta^2 / max over points and directions of g_i kappa_i^2, the
    per-direction parabolic bound (see the module docstring).  It is taken as
    the smallest cfl * dtheta^2 * r_i^2 / g_i, which for the mean (g = 1/2
    everywhere) rounds exactly as the scalar cfl * dtheta^2 * min r^2 / g.
    One radius (a curve) has g = 1 whatever the speed, as F = kappa there."""
    if r.shape[-1] == 1:
        return float((cfl * ws.dth * ws.dth * (r * r)).min())
    g = speed._g(1.0 / r)
    return float((cfl * ws.dth * ws.dth * (r * r) / g).min())


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Snapshot:
    """One sample of a run: the body moved to its in-center, max and min F, and
    its radii, whose avoidance bounds put extinction in [t_hat_lo, t_hat_hi]."""
    body: ConvexBody
    max_f: float
    min_f: float
    r_plus: float
    r_minus: float

    t = property(lambda self: self.body.t)
    t_hat_lo = property(lambda self: self.t + 0.5 * self.r_minus**2)
    t_hat_hi = property(lambda self: self.t + 0.5 * self.r_plus**2)
    t_hat = property(lambda self: 0.5 * (self.t_hat_lo + self.t_hat_hi))
    t_hat_width = property(lambda self: self.t_hat_hi - self.t_hat_lo)


@dataclass
class FlowRun:
    config: FlowConfig
    snapshots: list = dc_field(default_factory=list)  # Snapshot records, in time order
    termination: str = ""
    steps: int = 0
    rk4_attempts: int = 0          # ETDRK4 steps, a stacked pair counting two: three
                                   # per attempt, and one per trial of the bisection
    rejected: int = 0              # attempts rejected by the step-doubling error control
    rollbacks: int = 0             # step halvings after a stage lost convexity or domain
    dt_refreshes: int = 0          # evaluations of the stable step, one before each step
    bisection_iterations: int = 0  # ETDRK4 steps of the final bisection onto max F
    dt_min: Optional[float] = None  # smallest and largest step taken, the final
    dt_max: Optional[float] = None  # step bisected onto max F left out

    @property
    def counters(self) -> dict:
        """The fields after termination, by name."""
        names = [f.name for f in fields(self)]
        return {n: getattr(self, n) for n in names[names.index("termination") + 1:]}

    # the extinction-time estimate of the final snapshot
    t_hat = property(lambda self: self.snapshots[-1].t_hat)
    t_hat_width = property(lambda self: self.snapshots[-1].t_hat_width)


def stop_threshold(config: FlowConfig, body: ConvexBody, speed: SpeedFunction) -> float:
    """The max-F stop of a run from body: stop_max_f, else stop_max_f_factor
    (default 1000) times the initial max F.  Raises ConvexityLost for a
    nonconvex body and ValueError for a stop at or below the initial max F."""
    f_max0 = float(_speed_of_radii(check_convex(body), speed).max())
    if config.stop_max_f is not None:
        stop_f = float(config.stop_max_f)
    elif config.stop_max_f_factor is not None:
        stop_f = float(config.stop_max_f_factor) * f_max0
    else:
        stop_f = 1e3 * f_max0
    if stop_f <= f_max0:
        raise ValueError(f"stop threshold {stop_f:g} must exceed the initial max F {f_max0:g}")
    return stop_f


def check_first_step(config: FlowConfig, body: ConvexBody, speed: SpeedFunction) -> None:
    """Raise ValueError when run() could not step body: its stable step
    (_dt_of) is not finite, or is below the step floor, as for a sphere of
    radius 1e200 (r^2 overflows) or 1e-6 (on a 48-point curve).  NaN radii,
    as of a sphere of radius 1e308 (the sum of h overflows), give no step
    either; other radii that are not positive raise ConvexityLost."""
    ws = _workspace(body.mode, body.N)
    try:
        dt = _dt_of(ws, check_convex(body), speed, config.cfl)
    except ConvexityLost:
        if not np.isnan(ws.radii(body.h)).any():
            raise
        dt = math.nan
    if not STEP_FLOOR <= dt < math.inf:
        raise ValueError(f"the initial stable step {dt:.3g} is not a finite step of at least "
                         f"{STEP_FLOOR:g}, so the integrator cannot step this body")


def _sample(run_: FlowRun, ws: _Workspace, speed: SpeedFunction, b: ConvexBody) -> ConvexBody:
    """Record body b as a snapshot of run_ and return it moved to its in-center."""
    F = _speed_of_radii(ws.radii(b.h), speed)
    b, rep = recenter(b)
    run_.snapshots.append(Snapshot(body=b, max_f=float(F.max()), min_f=float(F.min()),
                                   r_plus=rep.r_plus, r_minus=rep.r_minus))
    return b


def _rungs(err: float) -> int:
    """Ladder rungs by which the step may change after a step-doubling error
    err: an ETDRK4 step's error scales as dt^5, and the next step aims at
    0.9^5 ETD_TOL.  Negative after a rejection; at most one octave up."""
    if err == 0.0:
        return RUNGS
    return min(RUNGS, math.floor(RUNGS * math.log2(0.9 * (ETD_TOL / err) ** 0.2)))


def run(config: FlowConfig, speed: Optional[SpeedFunction] = None,
        body: Optional[ConvexBody] = None) -> FlowRun:
    """Step until a termination condition, sampling every snapshot_every
    stable-step units.

    The final step is bisected so a ReachedMaxF run lands on the threshold
    (relative 1e-9) instead of overshooting by one step.
    """
    body = build_body(config.body) if body is None else body
    speed = build_speed(config.speed, body.mode) if speed is None else speed
    ws = _workspace(body.mode, body.N)
    stop_f = stop_threshold(config, body, speed)
    eig = ws.eigenbasis()
    run_ = FlowRun(config=config)
    # dt * L over one stable step dt_unit, for L = a * sum_i (1 + O_i) and
    # a = cfl * dtheta^2 / dt_unit
    unit_z = config.cfl * ws.dth * ws.dth * eig.lam
    recent = {}  # weights of the last few ladder steps, by stable-step units

    def weights(units: float, keep: bool) -> tuple:
        """The ETD weights of a step of `units` stable-step units and of its
        half step, stacked (2, m), and the half step's alone."""
        w = recent.get(units)
        if w is None:
            pair = _etd_coefficients(np.array([[units], [0.5 * units]]) * unit_z)
            w = pair, tuple(x[1] for x in pair)
            if keep:
                recent[units] = w
                if len(recent) > 8:
                    del recent[next(iter(recent))]
        return w

    def step(dt, w, lin, c0, n0):
        run_.rk4_attempts += np.size(dt)  # a stack of steps counts each
        return _rk4(eig, speed, dt, w, lin, c0, n0)

    def restart(b: ConvexBody) -> tuple:
        """Record b as a snapshot and return the recentred h, t, origin, c, r, -F's c."""
        b = _sample(run_, ws, speed, b)
        c = eig.forward(b.h[eig.fold])
        r = eig.radii(c)
        return b.h, b.t, b.center_offset, c, r, -eig.forward(_speed_of_radii(r, speed))

    h, t, offset, c, r, neg_f = restart(body)
    dt_unit = _dt_of(ws, r, speed, config.cfl)
    run_.dt_refreshes += 1
    clock = 0.0  # stable-step units since the last snapshot
    j = 0        # the next step tries 2^(j/RUNGS) stable-step units
    failure = STEP_UNDERFLOW

    def as_body(hh, tt):
        return ConvexBody(mode=body.mode, h=hh, t=tt, center_offset=offset)

    while True:
        lin = unit_z / dt_unit
        n0 = neg_f - lin * c
        floor = STEP_FLOOR * max(1.0, t)
        while True:
            units = 2.0 ** (j / RUNGS)
            lands = units >= config.snapshot_every - clock
            if lands:
                units = config.snapshot_every - clock
            dt = units * dt_unit
            ends = config.t_end is not None and t + dt >= config.t_end
            if ends:
                dt = config.t_end - t
                units = dt / dt_unit
            if dt < floor:
                break
            on_ladder = not (lands or ends)
            try:
                # the step and the first half step, from the same c, as one stack
                pair, half = weights(units, on_ladder)
                full, mid = step(np.array([[dt], [0.5 * dt]]), pair, lin, c, n0)
                n_mid = _speed_coefficients(eig, speed, mid) - lin * mid
                c_new = step(0.5 * dt, half, lin, mid, n_mid)
                r_new = eig.radii(c_new)
                F_new = _speed_of_radii(r_new, speed)
            except DomainError:
                j = min(j, math.floor(RUNGS * math.log2(units))) - RUNGS
                run_.rollbacks += 1
                failure = CONVEXITY_LOST
                continue
            h_new, h_full = eig.inverse(np.stack([c_new, full]))
            err = float(np.abs(h_new - h_full).max() / np.abs(h_new).max())
            if err > ETD_TOL:
                j = min(j, math.floor(RUNGS * math.log2(units))) + _rungs(err)
                run_.rejected += 1
                failure = STEP_UNDERFLOW
                continue
            if on_ladder:
                j += max(0, _rungs(err))
            break
        if dt < floor:
            # a step clipped to t_end that falls below the floor has arrived
            run_.termination = REACHED_T_END if ends else failure
            break

        if float(F_new.max()) >= stop_f:
            # bisect the final step onto the threshold, one ETD step per trial
            h_best, dt_best = h_new, dt
            lo_dt, hi_dt = 0.0, dt
            for _ in range(80):
                mid_dt = 0.5 * (lo_dt + hi_dt)
                if mid_dt <= 0.0 or mid_dt == lo_dt or mid_dt == hi_dt:
                    break
                run_.bisection_iterations += 1
                try:
                    c_try = step(mid_dt, _etd_coefficients(mid_dt / dt_unit * unit_z),
                                 lin, c, n0)
                    f_trial = float(_speed_of_radii(eig.radii(c_try), speed).max())
                except DomainError:
                    hi_dt = mid_dt
                    continue
                if f_trial < stop_f:
                    lo_dt = mid_dt
                else:
                    h_best, dt_best = eig.inverse(c_try), mid_dt
                    hi_dt = mid_dt
                    if f_trial < stop_f * (1.0 + 1e-9):
                        break
            run_.steps += 1
            _sample(run_, ws, speed, as_body(h_best, t + dt_best))
            run_.termination = REACHED_MAX_F
            break

        h, c, r = h_new, c_new, r_new
        neg_f = -eig.forward(F_new)
        t = config.t_end if ends else t + dt
        run_.steps += 1
        run_.dt_min = dt if run_.dt_min is None else min(run_.dt_min, dt)
        run_.dt_max = dt if run_.dt_max is None else max(run_.dt_max, dt)
        if ends:
            _sample(run_, ws, speed, as_body(h, t))
            run_.termination = REACHED_T_END
            break
        # the clock takes the trapezoid of 1/dt_unit over the step, while a
        # landing step was sized by the rate at its start: the difference
        # carries over to the next snapshot, by at most half an interval
        dt_next = _dt_of(ws, r, speed, config.cfl)
        run_.dt_refreshes += 1
        clock += 0.5 * dt * (1.0 / dt_unit + 1.0 / dt_next)
        dt_unit = dt_next
        if lands or clock >= config.snapshot_every:
            h, t, offset, c, r, neg_f = restart(as_body(h, t))
            half = 0.5 * config.snapshot_every
            clock = min(max(clock - config.snapshot_every, -half), half)

    # a run that stopped between snapshots records its last accepted state
    if run_.snapshots[-1].t < t:
        try:
            _sample(run_, ws, speed, as_body(h, t))
        except (ConvexityLost, DomainError):
            pass
    return run_
