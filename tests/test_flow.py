import numpy as np
import pytest

from noncollapse.flow import (CFL_MAX, REACHED_MAX_F, REACHED_T_END, FlowConfig,
                              _dt_of, _etd_coefficients, _rk4, _speed_coefficients,
                              build_body, build_speed, run)
from noncollapse.geometry import (AXISYMMETRIC, CURVE, ConvexBody, ConvexityLost, _Eigenbasis,
                                  _workspace, make_ellipse, make_ellipsoid, make_sphere)

from oracles import (area, dt_reference, random_convex_axisym, random_convex_curve,
                     eigenbasis_radii_reference, rk4_reference_run)


def sphere_cfg(mode, N, stop_factor=100.0, **kw):
    return FlowConfig(speed="mean",
                      body={"mode": mode, "N": N,
                            "shape": {"kind": "sphere", "radius": 1.0}},
                      cfl=kw.pop("cfl", 0.25),
                      stop_max_f_factor=stop_factor,
                      snapshot_every=kw.pop("snapshot_every", 200),
                      monitor="radii", **kw)


def t_end_cfg(body, t_end, speed="mean", cfl=0.25):
    """Run to t_end with no max-F stop in reach and no snapshot on the way."""
    return FlowConfig(speed=speed, body=body, cfl=cfl, t_end=t_end,
                      stop_max_f=1e9, snapshot_every=10**9, monitor="radii")


def sphere_body(mode, N):
    return {"mode": mode, "N": N, "shape": {"kind": "sphere", "radius": 1.0}}


def absolute_h(b):
    """Support values about the absolute origin: snapshots are recentered."""
    return b.h + b.directions() @ b.center_offset


# ---------------------------------------------------------------------------
# stepping, through run
# ---------------------------------------------------------------------------

def test_sphere_step_exact():
    fr = run(t_end_cfg(sphere_body(CURVE, 128), 1e-3))
    assert fr.termination == REACHED_T_END and fr.snapshots[-1].t == 1e-3
    assert np.abs(absolute_h(fr.snapshots[-1].body) - np.sqrt(1 - 2e-3)).max() < 1e-12


def test_sphere_step_any_normalised_speed():
    for name in ("mean", "harmonic", "sigma-ratio:2", "power:0.5"):
        fr = run(t_end_cfg(sphere_body(AXISYMMETRIC, 65), 1e-3, speed=name))
        assert fr.snapshots[-1].t == 1e-3
        assert np.abs(absolute_h(fr.snapshots[-1].body) - np.sqrt(1 - 2e-3)).max() < 1e-12


def test_mode_consistency_on_sphere():
    c = absolute_h(run(t_end_cfg(sphere_body(CURVE, 128), 1e-3)).snapshots[-1].body)
    a = absolute_h(run(t_end_cfg(sphere_body(AXISYMMETRIC, 128), 1e-3)).snapshots[-1].body)
    assert np.abs(c - a[0]).max() < 1e-12
    assert np.abs(c - c[0]).max() < 1e-12


def _unit_circle_dt(N, cfl):
    ws = _workspace(CURVE, N)
    h = make_sphere(CURVE, N).h
    return _dt_of(ws, ws.radii(h), build_speed("mean", CURVE), cfl)


def test_stable_dt_example_value():
    # unit circle, curve shortening: r = 1 and f' = 1, so the stable step is
    # cfl * dtheta^2
    assert _unit_circle_dt(256, 0.1) == pytest.approx(0.1 * (2 * np.pi / 256) ** 2, rel=1e-12)


def test_stable_dt_quadruples_when_n_halves():
    assert _unit_circle_dt(128, 0.1) == pytest.approx(4 * _unit_circle_dt(256, 0.1), rel=1e-12)


# ---------------------------------------------------------------------------
# the per-direction stable step against the scalar-stiffness reference
# ---------------------------------------------------------------------------

DT_SPEEDS = ("mean", "harmonic", "sigma-ratio:2", "sigma-root:2", "power:-2", "power:-8",
             "power:0.5")


def _steps(body, name, cfl=0.25):
    """(per-direction step, reference step) of body under the named speed."""
    ws = _workspace(body.mode, body.N)
    r = ws.radii(body.h)
    assert r.min() > 0.0
    sp = build_speed(name, body.mode)
    return _dt_of(ws, r, sp, cfl), dt_reference(ws, r, sp, cfl)


def test_dt_never_below_reference_on_random_bodies():
    # max_{x,i} g_i kappa_i^2 <= max g * max kappa^2, and both steps round
    # monotonically in r and g, so the inequality holds without a tolerance;
    # for the mean (g = 1/2 everywhere) the two round identically
    rng = np.random.default_rng(8)
    for _ in range(40):
        N = int(rng.choice([33, 64, 65, 128, 257]))
        if rng.uniform() < 0.5:
            body = make_ellipsoid(N, 1.0, float(np.exp(rng.uniform(np.log(0.3), np.log(3.0)))))
        else:
            body = ConvexBody(mode=AXISYMMETRIC,
                              h=random_convex_axisym(rng, N, strength=rng.uniform(0.1, 0.9)))
        for name in DT_SPEEDS:
            new, ref = _steps(body, name)
            assert new >= ref, name
            if name == "mean":
                assert new == ref


def test_dt_equals_reference_on_spheres_and_curves():
    rng = np.random.default_rng(9)
    bodies = [make_sphere(CURVE, 128, 0.7), make_sphere(AXISYMMETRIC, 65, 1.3),
              make_sphere(AXISYMMETRIC, 257, 0.9), make_ellipse(256, 1.5, 1.0),
              ConvexBody(mode=CURVE, h=random_convex_curve(rng, 128))]
    for body in bodies:
        for name in DT_SPEEDS:
            if body.mode == CURVE and name.startswith("sigma"):
                continue  # sigma_2 needs two curvatures
            new, ref = _steps(body, name)
            assert new == pytest.approx(ref, rel=1e-14), (body.mode, body.N, name)


def test_dt_bounds_linearised_spectrum():
    # frozen at h, a perturbation u obeys du/dt = J u with
    # J = sum_i g_i kappa_i^2 dr_i/dh; the step keeps dt * |lambda| within
    # cfl * pi^2 * N/(N-1), which a sphere's top mode attains
    rng = np.random.default_rng(10)
    bodies = [make_sphere(AXISYMMETRIC, N) for N in (33, 64)]
    bodies += [make_ellipsoid(N, 1.0, c) for N in (64, 128) for c in (0.3, 1.5, 3.0)]
    bodies += [ConvexBody(mode=AXISYMMETRIC, h=random_convex_axisym(rng, N, strength=0.9))
               for N in (33, 65, 128)]
    for body in bodies:
        N = body.N
        ws = _workspace(AXISYMMETRIC, N)
        r = ws.radii(body.h)
        dr = np.stack([ws.radii(e) for e in np.eye(N)], axis=2)  # radii are linear in h
        for name in DT_SPEEDS:
            sp = build_speed(name, AXISYMMETRIC)
            a = sp._g(1.0 / r) / (r * r)
            lam = np.linalg.eigvals(np.einsum("xi,xik->xk", a, dr))
            q = np.abs(lam).max() * _dt_of(ws, r, sp, 1.0) / (np.pi**2 * N / (N - 1))
            assert q <= 1.0, (N, name)
            if np.ptp(body.h) == 0.0:
                assert q > 0.99


def test_dt_gain_on_ellipsoids():
    # the ratios of the two steps at t = 0 that size the step counts
    for N, c, name, gain in ((256, 1.5, "sigma-ratio:2", 1.92), (128, 1.5, "power:-2", 2.16),
                             (128, 1.5, "mean", 1.0), (96, 0.3, "harmonic", 123.4)):
        new, ref = _steps(make_ellipsoid(N, 1.0, c), name)
        assert new / ref == pytest.approx(gain, rel=2e-3), (N, c, name)


STABILITY_CASES = [(c, N, name) for c in (1.5, 0.3) for N in (64, 128)
                   for name in ("harmonic", "power:-2", "mean")]


@pytest.mark.parametrize("c,N,name", STABILITY_CASES)
def test_per_direction_step_stable_at_cfl_max(c, N, name):
    # RK4 at the stable step: prolate and oblate ellipsoids to max F x3 at
    # the largest cfl with no rollback, and where the scalar-bound run is
    # cheap the same result to 1e-8 relative (the oblate scalar-bound runs
    # take up to 123 times the steps)
    cfg = FlowConfig(speed=name,
                     body={"mode": AXISYMMETRIC, "N": N,
                           "shape": {"kind": "ellipsoid", "a": 1.0, "c": c}},
                     cfl=CFL_MAX, stop_max_f_factor=3.0, snapshot_every=10**9,
                     monitor="radii")
    fr = rk4_reference_run(cfg)
    assert fr.termination == REACHED_MAX_F
    assert fr.counters["rollbacks"] == 0
    if c == 0.3 and (N, name) != (64, "harmonic"):
        return
    ref = rk4_reference_run(cfg, dt_of=dt_reference)
    assert ref.termination == REACHED_MAX_F
    if name == "mean":
        assert fr.steps == ref.steps
        assert np.array_equal(fr.snapshots[-1].body.h, ref.snapshots[-1].body.h)
    else:
        assert fr.steps < ref.steps
    last, last_ref = fr.snapshots[-1], ref.snapshots[-1]
    for a, b in ((last.t, last_ref.t), (fr.t_hat, ref.t_hat),
                 (last.r_plus, last_ref.r_plus), (last.r_minus, last_ref.r_minus)):
        assert a == pytest.approx(b, rel=1e-8, abs=0.0)
    h, h_ref = last.body.h, last_ref.body.h
    assert np.abs(h - h_ref).max() <= 1e-8 * np.abs(h_ref).max()


# ---------------------------------------------------------------------------
# the exponential integrator against the RK4 reference
# ---------------------------------------------------------------------------

def _ellipsoid_cfg(name, N, c, growth):
    return FlowConfig(speed=name,
                      body={"mode": AXISYMMETRIC, "N": N,
                            "shape": {"kind": "ellipsoid", "a": 1.0, "c": c}},
                      cfl=0.25, stop_max_f_factor=growth, snapshot_every=400,
                      monitor="radii")


EQUIVALENCE_CASES = {
    "sphere-curve": sphere_cfg(CURVE, 64),
    "sphere-axisymmetric": sphere_cfg(AXISYMMETRIC, 64),
    # the ellipsoid-step benchmark's ellipsoid and ellipsoid-monitor's ellipse
    "ellipsoid-sigma2": _ellipsoid_cfg("sigma-ratio:2", 256, 1.5, 1.1),
    "ellipse": FlowConfig(speed="mean",
                          body={"mode": CURVE, "N": 256,
                                "shape": {"kind": "ellipse", "a": 1.5, "b": 1.0}},
                          cfl=0.25, stop_max_f_factor=1.05, snapshot_every=200,
                          monitor="radii"),
    # g_i kappa_i^2 spans a factor 123 on this body at t = 0
    "oblate-power-2": _ellipsoid_cfg("power:-2", 96, 0.3, 3.0),
}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_etd_matches_rk4_reference(case):
    # same snapshots, and the final t, T_hat, radii and h within 1e-9
    # relative (measured: at most 7.3e-10, the ellipse's t)
    cfg = EQUIVALENCE_CASES[case]
    fr, ref = run(cfg), rk4_reference_run(cfg)
    assert fr.termination == ref.termination == REACHED_MAX_F
    assert fr.counters["rollbacks"] == 0
    assert len(fr.snapshots) == len(ref.snapshots)
    last, last_ref = fr.snapshots[-1], ref.snapshots[-1]
    for a, b in ((last.t, last_ref.t), (fr.t_hat, ref.t_hat),
                 (last.r_plus, last_ref.r_plus), (last.r_minus, last_ref.r_minus)):
        assert a == pytest.approx(b, rel=1e-9, abs=0.0)
    h, h_ref = last.body.h, last_ref.body.h
    assert np.abs(h - h_ref).max() <= 1e-9 * np.abs(h_ref).max()
    assert fr.steps < ref.steps


def test_coefficient_radii_run_matches_grid_radii_run(monkeypatch):
    # the flow's radii straight from eigen-coefficients against the grid
    # path (inverse transform, then the radii kernel) on the ellipsoid-step
    # benchmark's ellipsoid: the same steps, rejections and snapshots, and
    # every snapshot's t, h, radii and max F within 1e-10 relative
    # (measured: at most 1.9e-11, in h)
    cfg = EQUIVALENCE_CASES["ellipsoid-sigma2"]
    fr = run(cfg)
    monkeypatch.setattr(_Eigenbasis, "radii", eigenbasis_radii_reference)
    ref = run(cfg)
    counts = ("steps", "rk4_attempts", "rejected", "rollbacks", "dt_refreshes",
              "bisection_iterations")
    assert [fr.counters[k] for k in counts] == [ref.counters[k] for k in counts]
    assert fr.termination == ref.termination == REACHED_MAX_F
    assert len(fr.snapshots) == len(ref.snapshots)
    for a, b in zip(fr.snapshots, ref.snapshots):
        assert a.t == pytest.approx(b.t, rel=1e-10, abs=0.0)
        assert np.abs(a.body.h - b.body.h).max() <= 1e-10 * np.abs(b.body.h).max()
    for key in ("r_plus", "r_minus", "max_f"):
        a = [getattr(s, key) for s in fr.snapshots]
        b = [getattr(s, key) for s in ref.snapshots]
        assert np.abs(np.subtract(a, b)).max() <= 1e-10 * np.abs(b).max()


@pytest.mark.parametrize("mode,N,speed", [(CURVE, 256, "mean"), (CURVE, 255, "mean"),
                                          (AXISYMMETRIC, 256, "sigma-ratio:2"),
                                          (AXISYMMETRIC, 129, "power:-2"),
                                          (AXISYMMETRIC, 511, "mean")])
def test_stacked_rk4_matches_rows(mode, N, speed):
    # the step and its half step as one stacked _rk4 call, as run takes
    # them, against the two steps one at a time: identical on curves, and
    # within 8 eps max|c| on axisymmetric grids, whose stacked transforms
    # sum in another order (measured: at most 1.1e-3); the stacked weights
    # are the single steps' weights exactly
    eps = np.finfo(float).eps
    rng = np.random.default_rng(N)
    if mode == CURVE:
        h = make_ellipse(N, 1.5, 1.0).h if N % 2 == 0 else random_convex_curve(rng, N=N)
    else:
        h = make_ellipsoid(N, 1.0, 1.5).h if N % 2 == 0 else random_convex_axisym(rng, N=N)
    sp = build_speed(speed, mode)
    ws = _workspace(mode, N)
    eig = ws.eigenbasis()
    c = eig.forward(h)
    r = eig.radii(c)
    unit_z = 0.25 * ws.dth * ws.dth * eig.lam
    dt_unit = _dt_of(ws, r, sp, 0.25)
    lin = unit_z / dt_unit
    n0 = _speed_coefficients(eig, sp, c) - lin * c
    units = 2.0 ** (3 / 4)
    pair = _etd_coefficients(np.array([[units], [0.5 * units]]) * unit_z)
    for i, u in enumerate((units, 0.5 * units)):
        assert all(np.array_equal(a[i], b) for a, b in zip(pair, _etd_coefficients(u * unit_z)))
    dts = np.array([[units * dt_unit], [0.5 * units * dt_unit]])
    stacked = _rk4(eig, sp, dts, pair, lin, c, n0)
    rows = np.stack([_rk4(eig, sp, dts[i, 0], tuple(w[i] for w in pair), lin, c, n0)
                     for i in range(2)])
    if mode == CURVE:
        assert np.array_equal(stacked, rows)
    else:
        assert np.abs(stacked - rows).max() <= 8 * eps * np.abs(c).max()


def test_etd_weights_against_extended_precision():
    # Cox & Matthews' closed forms in long double, where their cancellation
    # costs at most |z|^-3 * 1e-19; the series side of |z| = 1 meets them.
    # Positive z comes from the slowly growing modes k <= 1 only (f3 has a
    # root near z = 3)
    z = np.concatenate([-np.geomspace(0.1, 300.0, 40), np.geomspace(0.1, 2.0, 20)])
    zl = z.astype(np.longdouble)
    e = np.exp(zl)
    want = (e, np.exp(zl / 2), np.expm1(zl / 2) / zl,
            (-4 - zl + e * (4 - 3 * zl + zl * zl)) / zl**3,
            (2 + zl + e * (zl - 2)) / zl**3,
            (-4 - 3 * zl - zl * zl + e * (4 - zl)) / zl**3)
    for got, ref in zip(_etd_coefficients(z), want):
        assert np.abs((got - ref) / ref).max() <= 1e-14
    # z = 0: classical RK4's weights 1/6, 2/6, 2/6, 1/6 as f1, 2 f2, 2 f2, f3
    w0 = _etd_coefficients(np.zeros(1))
    assert [float(w[0]) for w in w0] == pytest.approx([1, 1, 0.5, 1 / 6, 1 / 6, 1 / 6],
                                                      rel=1e-15)


def test_area_loss_rate_curve_shortening():
    # enclosed area drops by 2 pi per unit time under curve shortening
    t_target = 0.02
    fr = run(t_end_cfg({"mode": "curve", "N": 256,
                        "shape": {"kind": "ellipse", "a": 1.0, "b": 1.3}}, t_target))
    assert fr.snapshots[-1].t == t_target
    a0, a1 = area(fr.snapshots[0].body), area(fr.snapshots[-1].body)
    assert a1 - a0 == pytest.approx(-2 * np.pi * t_target, rel=1e-8)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_sphere_run_exactness_and_extinction():
    for mode in (CURVE, AXISYMMETRIC):
        fr = run(sphere_cfg(mode, 64))
        assert fr.termination == REACHED_MAX_F
        for s in fr.snapshots:
            assert np.abs(s.body.h - np.sqrt(1 - 2 * s.t)).max() < 1e-8
        assert fr.t_hat == pytest.approx(0.5, abs=1e-8)
        assert fr.t_hat_width < 1e-6
        assert fr.snapshots[-1].max_f == pytest.approx(100.0, rel=1e-6)


def test_run_reaches_t_end():
    cfg = sphere_cfg(CURVE, 64)
    cfg.t_end = 0.05
    cfg.stop_max_f_factor = None
    cfg.stop_max_f = 1e9
    fr = run(cfg)
    assert fr.termination == REACHED_T_END
    assert fr.snapshots[-1].t == pytest.approx(0.05, abs=1e-12)


@pytest.mark.parametrize("t0, t_end", [(0.0, 1e-15), (1.0 - 1e-15, 1.0), (2.0, 1.0)],
                         ids=["t_end-below-floor", "within-floor-of-t_end", "past-t_end"])
def test_run_at_t_end_ends_reached_t_end_without_a_step(t0, t_end):
    # with t_end - t below the step floor 1e-14 max(1, t), the step clipped
    # to t_end underflowed and the run ended StepUnderflow
    body = ConvexBody(mode=CURVE, h=np.ones(32), t=t0)
    fr = run(t_end_cfg(sphere_body(CURVE, 32), t_end), body=body)
    assert fr.termination == REACHED_T_END
    assert fr.steps == 0 and fr.rk4_attempts == 0
    assert [s.t for s in fr.snapshots] == [t0]


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
    # a shrinking sphere never loses convexity: every attempt, accepted or
    # rejected by the error control, takes one ETDRK4 step and two half
    # steps, and the final bisection one per iteration
    fr = run(sphere_cfg(AXISYMMETRIC, 48, stop_factor=20.0))
    c = fr.counters
    assert fr.termination == REACHED_MAX_F
    assert c["steps"] == fr.steps > 0
    assert c["rollbacks"] == 0
    assert c["bisection_iterations"] > 0
    assert c["rk4_attempts"] == 3 * (c["steps"] + c["rejected"]) + c["bisection_iterations"]
    assert 0.0 < c["dt_min"] <= c["dt_max"]
    # the stable step is evaluated once before each accepted step
    assert c["dt_refreshes"] == c["steps"]


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
    assert len(r1.snapshots) == len(r2.snapshots)
    for s1, s2 in zip(r1.snapshots, r2.snapshots):
        assert s2.t == pytest.approx(s**2 * s1.t, rel=1e-10, abs=1e-14)
        assert np.abs(s2.body.h - s * s1.body.h).max() < 1e-8


def test_avoidance_interval_nesting():
    cfg = FlowConfig(speed="harmonic",
                     body={"mode": "axisymmetric", "N": 64,
                           "shape": {"kind": "ellipsoid", "a": 1.0, "c": 1.3}},
                     cfl=0.25, stop_max_f_factor=30.0, snapshot_every=400,
                     monitor="radii")
    fr = run(cfg)
    assert fr.termination == REACHED_MAX_F
    lo = np.array([s.t_hat_lo for s in fr.snapshots])
    hi = np.array([s.t_hat_hi for s in fr.snapshots])
    width = hi - lo
    assert np.all(lo <= hi + 1e-12)
    # successive intervals intersect and are nested up to monitor tolerance
    assert np.all(lo[1:] >= lo[:-1] - (1e-6 + 0.02 * width[:-1]))
    assert np.all(hi[1:] <= hi[:-1] + (1e-6 + 0.02 * width[:-1]))
    assert np.all(np.diff(width) <= 1e-6 + 0.02 * width[:-1])
    # enclosing spheres shrink strictly
    assert np.all(np.diff([s.r_plus for s in fr.snapshots]) < 0)
    assert fr.steps > 0


def test_refinement_convergence_order():
    # ellipse under curve shortening at a fixed time: spectral geometry and
    # dt ~ N^-2 with an order-4 stepper give an observed order >= 4.  The
    # ellipse's in-center is not unique, so each grid may put the support
    # origin elsewhere: compare support values about the absolute origin
    t_star = 0.02

    def h_at(N):
        fr = run(t_end_cfg({"mode": "curve", "N": N,
                            "shape": {"kind": "ellipse", "a": 1.0, "b": 1.3}}, t_star))
        assert fr.snapshots[-1].t == t_star
        return absolute_h(fr.snapshots[-1].body)

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
        FlowConfig(speed="mean", body={"mode": CURVE, "N": 4,
                                       "shape": {"kind": "support", "h": [1.0] * 4}})
    with pytest.raises(ValueError):
        run(sphere_cfg(CURVE, 32, stop_factor=0.5))
    # the end time and the max-F stops are finite and positive, a factor above 1
    for key in ("t_end", "stop_max_f", "stop_max_f_factor"):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=key):
                FlowConfig(speed="mean", body={}, **{key: bad})
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="t_end"):
            FlowConfig(speed="mean", body={}, t_end=bad)


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
