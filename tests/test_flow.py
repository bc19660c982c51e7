import numpy as np
import pytest

from noncollapse.errors import ConvexityLost
from noncollapse.flow import (CFL_MAX, CONVEXITY_LOST, REACHED_MAX_F, REACHED_T_END,
                              FlowConfig, build_body, build_speed, run,
                              stable_dt, step)
from noncollapse.geometry import (AXISYMMETRIC, CURVE, ConvexBody, area,
                                  make_ellipse, make_sphere)


def sphere_cfg(mode, N, stop_factor=100.0, **kw):
    return FlowConfig(speed="mean",
                      body={"mode": mode, "N": N,
                            "shape": {"kind": "sphere", "radius": 1.0}},
                      cfl=kw.pop("cfl", 0.25),
                      stop_max_f_factor=stop_factor,
                      snapshot_every=kw.pop("snapshot_every", 200),
                      monitor="radii", **kw)


# ---------------------------------------------------------------------------
# step / stable_dt
# ---------------------------------------------------------------------------

def test_sphere_step_exact():
    b = make_sphere(CURVE, 128)
    sp = build_speed("mean", CURVE)
    nb = step(b, sp, 1e-3)
    assert np.abs(nb.h - np.sqrt(1 - 2e-3)).max() < 1e-12


def test_sphere_step_any_normalised_speed():
    b = make_sphere(AXISYMMETRIC, 65)
    for name in ("mean", "harmonic", "sigma-ratio:2", "power:0.5"):
        nb = step(b, build_speed(name, AXISYMMETRIC), 1e-3)
        assert np.abs(nb.h - np.sqrt(1 - 2e-3)).max() < 1e-12


def test_mode_consistency_on_sphere():
    dt = 1e-3
    c = step(make_sphere(CURVE, 128), build_speed("mean", CURVE), dt)
    a = step(make_sphere(AXISYMMETRIC, 128), build_speed("mean", AXISYMMETRIC), dt)
    assert np.abs(c.h - a.h[0]).max() < 1e-12
    assert np.abs(c.h - c.h[0]).max() < 1e-12


def test_step_rejects_nonconvex():
    N = 128
    th = 2 * np.pi * np.arange(N) / N
    bad = ConvexBody(mode=CURVE, h=1.0 + 0.5 * np.cos(2 * th))
    with pytest.raises((ConvexityLost, Exception)):
        step(bad, build_speed("mean", CURVE), 1e-4)


def test_stable_dt_example_value():
    b = make_sphere(CURVE, 256)
    dt = stable_dt(b, build_speed("mean", CURVE), 0.1)
    assert dt == pytest.approx(0.1 * (2 * np.pi / 256) ** 2, rel=1e-12)


def test_stable_dt_quadruples_when_n_halves():
    sp = build_speed("mean", CURVE)
    d1 = stable_dt(make_sphere(CURVE, 256), sp, 0.1)
    d2 = stable_dt(make_sphere(CURVE, 128), sp, 0.1)
    assert d2 == pytest.approx(4 * d1, rel=1e-12)


def test_area_loss_rate_curve_shortening():
    # enclosed area drops by 2 pi per unit time under curve shortening
    b = make_ellipse(256, 1.0, 1.3)
    sp = build_speed("mean", CURVE)
    a0 = area(b)
    t_target = 0.02
    while b.t < t_target:
        dt = min(stable_dt(b, sp, 0.25), t_target - b.t)
        b = step(b, sp, dt)
    assert area(b) - a0 == pytest.approx(-2 * np.pi * t_target, rel=1e-8)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_sphere_run_exactness_and_extinction():
    for mode in (CURVE, AXISYMMETRIC):
        fr = run(sphere_cfg(mode, 64))
        assert fr.termination == REACHED_MAX_F
        for t, b in zip(fr.times, fr.snapshots):
            assert np.abs(b.h - np.sqrt(1 - 2 * t)).max() < 1e-8
        assert fr.t_hat == pytest.approx(0.5, abs=1e-8)
        assert fr.t_hat_width < 1e-6
        assert fr.max_f[-1] == pytest.approx(100.0, rel=1e-6)


def test_run_reaches_t_end():
    cfg = sphere_cfg(CURVE, 64)
    cfg.t_end = 0.05
    cfg.stop_max_f_factor = None
    cfg.stop_max_f = 1e9
    fr = run(cfg)
    assert fr.termination == REACHED_T_END
    assert fr.times[-1] == pytest.approx(0.05, abs=1e-12)


def test_run_rejects_nonconvex_initial():
    N = 64
    th = 2 * np.pi * np.arange(N) / N
    cfg = FlowConfig(speed="mean",
                     body={"mode": "curve", "N": N,
                           "shape": {"kind": "support",
                                     "h": (1.0 + 0.5 * np.cos(2 * th)).tolist()}},
                     monitor="radii")
    with pytest.raises(ConvexityLost):
        run(cfg)


def test_run_counters_sphere():
    # a shrinking sphere never loses convexity: every RK4 attempt is a step
    # or a step of the final bisection onto the max-F threshold
    fr = run(sphere_cfg(AXISYMMETRIC, 48, stop_factor=20.0))
    c = fr.counters
    assert fr.termination == REACHED_MAX_F
    assert c["steps"] == fr.steps > 0
    assert c["rollbacks"] == 0
    assert c["bisection_iterations"] > 0
    assert c["rk4_attempts"] == c["steps"] + c["bisection_iterations"]
    assert 0.0 < c["dt_min"] <= c["dt_max"]
    # the stable step is refreshed every 8 steps
    assert c["dt_refreshes"] == (c["steps"] + 7) // 8


def test_parabolic_rescaling_invariance():
    # run from s*h0 matches the unscaled run under (t, h) -> (s^2 t, s h)
    s = 1.7
    cfg1 = sphere_cfg(CURVE, 64, stop_factor=20.0, snapshot_every=100)
    cfg2 = FlowConfig(speed="mean",
                      body={"mode": "curve", "N": 64,
                            "shape": {"kind": "sphere", "radius": s}},
                      cfl=0.25, stop_max_f_factor=20.0, snapshot_every=100,
                      monitor="radii")
    r1, r2 = run(cfg1), run(cfg2)
    assert len(r1.times) == len(r2.times)
    for t1, b1, t2, b2 in zip(r1.times, r1.snapshots, r2.times, r2.snapshots):
        assert t2 == pytest.approx(s**2 * t1, rel=1e-10, abs=1e-14)
        assert np.abs(b2.h - s * b1.h).max() < 1e-8


def test_avoidance_interval_nesting():
    cfg = FlowConfig(speed="harmonic",
                     body={"mode": "axisymmetric", "N": 64,
                           "shape": {"kind": "ellipsoid", "a": 1.0, "c": 1.3}},
                     cfl=0.25, stop_max_f_factor=30.0, snapshot_every=400,
                     monitor="radii")
    fr = run(cfg)
    assert fr.termination == REACHED_MAX_F
    lo = np.array(fr.t_hat_lo)
    hi = np.array(fr.t_hat_hi)
    width = hi - lo
    assert np.all(lo <= hi + 1e-12)
    # successive intervals intersect and are nested up to monitor tolerance
    assert np.all(lo[1:] >= lo[:-1] - (1e-6 + 0.02 * width[:-1]))
    assert np.all(hi[1:] <= hi[:-1] + (1e-6 + 0.02 * width[:-1]))
    assert np.all(np.diff(width) <= 1e-6 + 0.02 * width[:-1])
    # enclosing spheres shrink strictly
    assert np.all(np.diff(np.array(fr.r_plus)) < 0)
    assert fr.steps > 0


def test_refinement_convergence_order():
    # ellipse under curve shortening at a fixed time: spectral geometry and
    # dt ~ N^-2 with an order-4 stepper give an observed order >= 4
    t_star = 0.02

    def h_at(N):
        b = make_ellipse(N, 1.0, 1.3)
        sp = build_speed("mean", CURVE)
        while b.t < t_star:
            dt = min(stable_dt(b, sp, 0.25), t_star - b.t)
            b = step(b, sp, dt)
        return b.h

    h32, h64, h128 = h_at(32), h_at(64), h_at(128)
    d1 = np.abs(h32 - h64[::2]).max()
    d2 = np.abs(h64 - h128[::2]).max()
    order = np.log2(d1 / d2)
    assert order >= 4.0


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(speed="mean", body={}, cfl=0.0)
    with pytest.raises(ValueError):
        FlowConfig(speed="mean", body={}, cfl=0.6)
    with pytest.raises(ValueError):
        FlowConfig(speed="mean", body={}, cfl=0.3)
    assert FlowConfig(speed="mean", body={}, cfl=CFL_MAX).cfl * np.pi**2 == pytest.approx(2.785)
    with pytest.raises(ValueError):
        FlowConfig(speed="mean", body={}, monitor="everything")
    with pytest.raises(ValueError):
        run(sphere_cfg(CURVE, 32, stop_factor=0.5))


def test_build_body_shapes():
    b = build_body({"mode": "curve", "N": 32, "shape": {"kind": "ellipse", "a": 1.0, "b": 2.0}})
    assert b.mode == CURVE and b.N == 32
    with pytest.raises(ValueError):
        build_body({"mode": "axisymmetric", "N": 32,
                    "shape": {"kind": "ellipse", "a": 1.0, "b": 2.0}})
    with pytest.raises(ValueError):
        build_body({"mode": "curve", "N": 32, "shape": {"kind": "blob"}})


def test_curve_speeds_all_reduce_to_curvature():
    # one curvature variable: homogeneity + normalisation force f(k) = k
    for name in ("mean", "harmonic", "power:0.5", "power:-2"):
        sp = build_speed(name, CURVE)
        z = np.array([[0.3], [1.0], [7.0]])
        assert np.abs(sp.value_many(z) - z[:, 0]).max() < 1e-12
