"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with -s to watch progress; the ellipsoid suite
(criteria 6-7) is the long pole at a few minutes."""
import filecmp
import json
import os
import time

import numpy as np
import pytest

from noncollapse.cli import main as cli_main, refinement_deltas
from noncollapse.flow import FlowConfig, build_speed, run
from noncollapse.geometry import CURVE, ConvexBody, ball_curvature_field, make_ellipse
from noncollapse.monitor import SLACK_FLOOR, assert_trend, monitor_rows, run_verdicts
from noncollapse.oracle import _boundary_terms, boundary_suite, interior_suite
from noncollapse.speeds import certify, parse_speed

from oracles import (InteriorSample, brute_force_boundary, fd_gradient, fd_hessian,
                     interior_gap, q_second_derivative_check, random_convex_axisym,
                     random_convex_curve, sample_boundary, scale, translate)

SPEEDS = ["mean", "harmonic", "sigma-ratio:2", "sigma-root:2", "power:-1", "power:0.5"]


def gate(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:>2} [{name}]: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Ellipsoid runs shared by criteria 6 and 7
# ---------------------------------------------------------------------------

# Two distinct two-sided speeds (concave and inverse-concave).  In two
# variables sigma-ratio:2 is the harmonic mean, so pairing it with harmonic
# would run one flow twice; the arithmetic mean differs off the umbilics.
FIXTURE_SPEEDS = ("sigma-ratio:2", "mean")


def _ellipsoid_cfg(speed, N, monitor, snapshot_every):
    return FlowConfig(speed=speed,
                      body={"mode": "axisymmetric", "N": N,
                            "shape": {"kind": "ellipsoid", "a": 1.0, "c": 1.5}},
                      cfl=0.25, stop_max_f_factor=100.0,
                      snapshot_every=snapshot_every, monitor=monitor)


@pytest.fixture(scope="module")
def ellipsoid_suite():
    """Two speeds at N=256 (full monitor) plus nested-grid N=511 refinements
    (radii monitor), with the t=0 discretisation deltas for the slack model."""
    out = {"wall": {}}
    for speed in FIXTURE_SPEEDS:
        t0 = time.perf_counter()
        fr = run(_ellipsoid_cfg(speed, 256, "full", 3000))
        sp = build_speed(speed, "axisymmetric")
        rows = monitor_rows(fr, sp)
        fr2 = run(_ellipsoid_cfg(speed, 511, "radii", 12000))
        rows2 = monitor_rows(fr2, sp, fields=False)

        deltas = refinement_deltas(_ellipsoid_cfg(speed, 256, "full", 1), sp)
        out[speed] = {
            "run": fr, "rows": rows, "run2": fr2, "rows2": rows2,
            "delta_lower": deltas["ratio_lower"],
            "delta_rr": deltas["radii_ratio"],
        }
        out["wall"][speed] = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# 1. Interior estimate suite
# ---------------------------------------------------------------------------

def test_criterion_1_interior_suite():
    t0 = time.perf_counter()
    worst = (0.0, "")
    for spec in SPEEDS:
        for n in (2, 3, 5):
            rep = interior_suite(parse_speed(spec, n), trials=10_000, seed=101)
            if rep["min_scaled"] < worst[0]:
                worst = (rep["min_scaled"], f"{spec} n={n}")
            assert rep["min_scaled"] >= -1.0, (spec, n, rep)
    wall = time.perf_counter() - t0
    gate(1, "interior positivity", wall < 60.0,
         f"worst scaled gap {worst[0]:.3g} ({worst[1] or 'all nonnegative'}), {wall:.1f}s")


# ---------------------------------------------------------------------------
# 2. Boundary estimate suite
# ---------------------------------------------------------------------------

def test_criterion_2_boundary_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in SPEEDS:
        for n in (2, 3):
            rep = boundary_suite(parse_speed(spec, n), trials=10_000, seed=202)
            worst = min(worst, rep["min_scaled"])
            assert rep["min_scaled"] >= -1.0, (spec, n, rep)
    # closed-form vs brute-force optimiser on >= 100 subsamples
    checked = 0
    for spec in SPEEDS:
        for n in (2, 3):
            f = parse_speed(spec, n)
            done, t = 0, 0
            while done < 9:
                s = sample_boundary(f, np.random.default_rng((303, t)))
                t += 1
                if (s.lam[1:] - s.lam[0]).min() < 1e-4 * (1 + s.lam[0]):
                    continue
                cf = _boundary_terms(s)[2]
                bf = brute_force_boundary(s)
                assert abs(bf - cf) <= 1e-6 * (1 + abs(cf)), (spec, n, cf, bf)
                done += 1
                checked += 1
    wall = time.perf_counter() - t0
    gate(2, "boundary positivity + optimiser", wall < 60.0 and checked >= 100,
         f"worst scaled {worst:.3g}, {checked} optimiser checks, {wall:.1f}s")


# ---------------------------------------------------------------------------
# 3. Negative control
# ---------------------------------------------------------------------------

def test_criterion_3_negative_control():
    # the suite's worst trial, confirmed by the formed-matrix gap of its witness
    f = parse_speed("power:-2", 2)
    t0 = time.perf_counter()
    rep = interior_suite(f, trials=100_000, seed=404)
    wall = time.perf_counter() - t0
    w = rep.get("witness")
    ref = None if w is None else interior_gap(
        InteriorSample(A=np.array(w["A"]), B=np.diag(w["B_diag"]), k=w["k"], f=f))
    gate(3, "power:-2 counterexample",
         rep["min_value"] < -1e-4 and ref is not None and ref < -1e-4 and wall < 60.0,
         f"gap {rep['min_value']:.4g} at trial {w['trial']} (formed {ref:.4g}), {wall:.1f}s"
         if w else f"no witness, min gap {rep['min_value']:.4g}")


# ---------------------------------------------------------------------------
# 4. Shifted-Hessian identity
# ---------------------------------------------------------------------------

def test_criterion_4_identity():
    worst = 0.0
    for spec in SPEEDS:
        f = parse_speed(spec, 3)
        for t in range(1000):
            rng = np.random.default_rng((505, t))
            a = 10.0 ** rng.uniform(-1, 1, 3)
            z = 10.0 ** rng.uniform(-1, 1, 3)
            k = rng.uniform(-1.0, 0.5 * min(a.min(), z.min()))
            lhs, rhs = q_second_derivative_check(f, a, z, k)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    gate(4, "shifted-Hessian identity", worst <= 1e-8,
         f"worst max-norm discrepancy {worst:.3g}")


# ---------------------------------------------------------------------------
# 5. Shrinking-sphere exactness
# ---------------------------------------------------------------------------

def test_criterion_5_sphere_exactness():
    t0 = time.perf_counter()
    details = []
    for mode in ("curve", "axisymmetric"):
        cfg = FlowConfig(speed="mean",
                         body={"mode": mode, "N": 128,
                               "shape": {"kind": "sphere", "radius": 1.0}},
                         cfl=0.25, stop_max_f=1e3, snapshot_every=500,
                         monitor="radii")
        fr = run(cfg)
        err = max(np.abs(s.body.h - np.sqrt(1 - 2 * s.t)).max() for s in fr.snapshots)
        lo, hi = fr.snapshots[-1].t_hat_lo, fr.snapshots[-1].t_hat_hi
        width = hi - lo
        contains = lo - 1e-8 <= 0.5 <= hi + 1e-8
        details.append((mode, err, width, contains))
        assert fr.termination == "ReachedMaxF"
        assert err <= 1e-8, (mode, err)
        assert width < 1e-4 and contains, (mode, lo, hi)
    wall = time.perf_counter() - t0
    gate(5, "shrinking-sphere exactness", wall < 30.0,
         "; ".join(f"{m}: err {e:.2g}, width {w:.2g}" for m, e, w, _ in details)
         + f", {wall:.1f}s")


# ---------------------------------------------------------------------------
# 6. Exterior ratio monotone along ellipsoid runs
# ---------------------------------------------------------------------------

def test_fixture_speeds_distinct():
    # at the non-umbilic kappa = (1, 2): 2 * 1 * 2 / 3 against (1 + 2) / 2
    a, b = (parse_speed(name, 2).value([1.0, 2.0]) for name in FIXTURE_SPEEDS)
    assert a == pytest.approx(4 / 3, rel=1e-14)
    assert b == pytest.approx(3 / 2, rel=1e-14)


def test_criterion_6_ratio_monotone(ellipsoid_suite):
    details = []
    for speed in FIXTURE_SPEEDS:
        data = ellipsoid_suite[speed]
        fr, rows = data["run"], data["rows"]
        growth = fr.snapshots[-1].max_f / fr.snapshots[0].max_f
        assert growth >= 100.0 * (1 - 1e-9), growth
        slack = 1e-4 + data["delta_lower"]
        series = [r.min_ratio_lower for r in rows]
        v = assert_trend(series, "non-decreasing", slack,
                         name="min_ratio_lower", times=[s.t for s in fr.snapshots])
        details.append(f"{speed}: worst dip {v.worst_violation[1]:.2g} "
                       f"vs slack {slack:.2g}, growth {growth:.0f}x, "
                       f"{ellipsoid_suite['wall'][speed]:.0f}s")
        assert v.passed, (speed, v)
    wall_total = sum(ellipsoid_suite["wall"].values())
    gate(6, "exterior ratio monotone", wall_total < 600.0,
         "; ".join(details))


# ---------------------------------------------------------------------------
# 7. Roundness diagnostics and refinement
# ---------------------------------------------------------------------------

def test_criterion_7_roundness(ellipsoid_suite):
    details = []
    for speed in FIXTURE_SPEEDS:
        data = ellipsoid_suite[speed]
        for key, rkey in (("run", "rows"), ("run2", "rows2")):
            fr, rows = data[key], data[rkey]
            rr = np.array([s.r_plus / s.r_minus for s in fr.snapshots])
            v = assert_trend(rr, "non-increasing", 1e-4 + data["delta_rr"],
                             name="radii_ratio", times=[s.t for s in fr.snapshots])
            assert v.passed, (speed, key, v)
            (sw,) = [v for v in run_verdicts(fr, rows)["verdicts"]
                     if v["series"] == "extinction_sandwich"]
            assert sw["pass"], (speed, key, sw["worst_violation"], sw["slack_used"])
        eps_n = ellipsoid_suite[speed]["run"]
        eps_2n = ellipsoid_suite[speed]["run2"]
        ratio_n = eps_n.snapshots[-1].r_plus / eps_n.snapshots[-1].r_minus - 1.0
        ratio_2n = eps_2n.snapshots[-1].r_plus / eps_2n.snapshots[-1].r_minus - 1.0
        hd_n = data["rows"][-1].hausdorff_rescaled
        hd_2n = data["rows2"][-1].hausdorff_rescaled
        assert ratio_n <= 0.05, (speed, ratio_n)
        assert hd_n is not None and hd_n <= 0.05, (speed, hd_n)
        # gates tighten under refinement up to the monitor noise floor
        assert ratio_2n <= ratio_n + SLACK_FLOOR, (speed, ratio_n, ratio_2n)
        assert hd_2n <= hd_n + SLACK_FLOOR, (speed, hd_n, hd_2n)
        details.append(f"{speed}: ratio-1 {ratio_n:.2e}->{ratio_2n:.2e}, "
                       f"hausdorff {hd_n:.2e}->{hd_2n:.2e}")
    gate(7, "roundness diagnostics", True, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. Geometry kernel
# ---------------------------------------------------------------------------

def test_criterion_8_geometry_kernel():
    rng = np.random.default_rng(808)
    for i in range(100):
        if i % 3 == 2:
            b = ConvexBody(mode="axisymmetric", h=random_convex_axisym(rng, N=49))
        else:
            b = ConvexBody(mode=CURVE, h=random_convex_curve(rng, N=96))
        fld = ball_curvature_field(b)
        kmin = fld.kappa.min(axis=1)
        kmax = fld.kappa.max(axis=1)
        assert np.all(fld.k_lower <= kmin + 1e-10)
        assert np.all(kmin <= kmax + 1e-15)
        assert np.all(kmax <= fld.k_upper + 1e-10)

    b = make_ellipse(128, 1.0, 2.0)
    fld = ball_curvature_field(b)
    for s in (0.25, 4.0):
        flds = ball_curvature_field(scale(b, s))
        assert np.abs(flds.k_lower * s - fld.k_lower).max() <= 1e-10
        assert np.abs(flds.k_upper * s - fld.k_upper).max() <= 1e-10
    fldt = ball_curvature_field(translate(b, [0.21, -0.13]))
    assert np.abs(fldt.k_lower - fld.k_lower).max() <= 1e-10
    assert np.abs(fldt.k_upper - fld.k_upper).max() <= 1e-10

    tip = ball_curvature_field(make_ellipse(512, 1.0, 2.0)).k_lower[128]
    assert tip == pytest.approx(0.5, abs=1e-3)
    gate(8, "geometry kernel", True,
         f"100 sandwiches, invariances at 1e-10, tip exterior curvature {tip:.6f}")


# ---------------------------------------------------------------------------
# 9. Speed-algebra derivative checks and certification catalog
# ---------------------------------------------------------------------------

def test_criterion_9_speed_algebra():
    for spec in SPEEDS:
        f = parse_speed(spec, 3)
        for t in range(1000):
            rng = np.random.default_rng((909, t))
            z = 10.0 ** rng.uniform(-1, 1, 3)
            g = f.grad_many([z])[0]
            g_fd = fd_gradient(f.value, z, rel=1e-5)
            assert np.abs(g - g_fd).max() <= 1e-5 * (1 + np.abs(g).max()), (spec, z)
            if t % 10 == 0:  # full Hessian stencil is 4n^2 evaluations
                H = f.hess_many([z])[0]
                H_fd = fd_hessian(f.value, z, rel=1e-4)
                assert np.abs(H - H_fd).max() <= 1e-4 * (1 + np.abs(H).max()), (spec, z)
        rng = np.random.default_rng(910)
        for _ in range(200):
            z = 10.0 ** rng.uniform(-2, 2, 3)
            assert f.grad_many([z])[0].sum() >= 1.0 - 1e-9

    catalog_ok = True
    for spec in SPEEDS + ["power:0", "power:1", "sigma-root:3", "sigma-ratio:3"]:
        f = parse_speed(spec, 3)
        for prop in ("concave", "inverse-concave"):
            catalog_ok &= certify(f, prop, trials=600, seed=911).certified
    refuted_ic = certify(parse_speed("power:-2", 2), "inverse-concave",
                         trials=600, seed=912).verdict == "refuted"
    refuted_cc = certify(parse_speed("power:2", 2), "concave",
                         trials=600, seed=913).verdict == "refuted"
    gate(9, "speed-algebra derivatives + catalog",
         catalog_ok and refuted_ic and refuted_cc,
         "finite differences at 1e-5/1e-4, tr(grad)>=1, catalog verdicts as expected")


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    cfg = {
        "speed": "harmonic",
        "body": {"mode": "axisymmetric", "N": 48,
                 "shape": {"kind": "ellipsoid", "a": 1.0, "c": 1.3}},
        "cfl": 0.25, "stop_max_f_factor": 15.0, "snapshot_every": 300,
        "monitor": "full",
    }
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    trees = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["flow", "--config", str(cpath), "--out", str(out)]) == 0
        assert cli_main(["oracle", "--prop", "2.5", "--speed", "harmonic",
                         "--n", "2", "--trials", "500", "--seed", "9",
                         "--out", str(out)]) == 0
        assert cli_main(["certify", "--speed", "sigma-ratio:2", "--n", "2",
                         "--trials", "200", "--out", str(out)]) == 0
        trees.append(out)
    mismatches = []
    for dirpath, _, files in os.walk(trees[0]):
        for fname in files:
            p1 = os.path.join(dirpath, fname)
            rel = os.path.relpath(p1, trees[0])
            if rel == "manifest.json":
                continue  # records wall time by design
            p2 = os.path.join(trees[1], rel)
            if not filecmp.cmp(p1, p2, shallow=False):
                mismatches.append(rel)
    gate(10, "byte-identical reruns", not mismatches,
         f"{'; '.join(mismatches) or 'all result artifacts identical'}")
