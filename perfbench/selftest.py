"""Each output check accepts a right value and rejects a deliberately wrong one.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

The inputs are built from closed forms, not from program output.
"""
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def sphere_run(radius=1.1, growth=2.0, m=12):
    """Monitor columns and snapshots of an exact shrinking sphere."""
    t_end = 0.5 * radius**2 * (1.0 - 1.0 / growth**2)
    t = np.linspace(0.0, t_end, m)
    r = np.sqrt(radius**2 - 2.0 * t)
    cols = {"t": t, "maxF": 1.0 / r, "r_plus": r.copy(), "r_minus": r.copy(),
            "T_hat_lo": t + 0.5 * r**2, "T_hat_hi": t + 0.5 * r**2 + 1e-9}
    snaps = [{"t": float(ti), "h": np.full(16, ri).tolist()} for ti, ri in zip(t, r)]
    return cols, snaps


def test_growth():
    cols, _ = sphere_run()
    checks.check_growth(cols["maxF"], 2.0)
    assert rejects(checks.check_growth, cols["maxF"], 2.0 * (1 + 1e-8))


def test_radii_series():
    cols, _ = sphere_run()
    checks.check_radii_series(cols)
    bad = dict(cols, r_plus=cols["r_plus"].copy())
    bad["r_plus"][5] = bad["r_plus"][4] + 1e-5          # r_plus rises
    assert rejects(checks.check_radii_series, bad)
    bad = dict(cols, r_minus=cols["r_minus"] * np.linspace(1.0, 0.99, cols["t"].size))
    assert rejects(checks.check_non_increasing,         # r_plus/r_minus rises
                   bad["r_plus"] / bad["r_minus"], checks.RADII_RATIO_SLACK, "ratio")
    bad = dict(cols, r_minus=cols["r_minus"] * 1.01)    # r_minus^2 > 2(T_hat - t)
    assert rejects(checks.check_radii_series, bad)


def test_sphere():
    cols, snaps = sphere_run()
    checks.check_sphere(snaps, 1.1, cols["T_hat_lo"][-1], cols["T_hat_hi"][-1])
    bad = [dict(s) for s in snaps]
    bad[3] = dict(bad[3], h=(np.asarray(bad[3]["h"]) + 1e-7).tolist())
    assert rejects(checks.check_sphere, bad, 1.1, cols["T_hat_lo"][-1], cols["T_hat_hi"][-1])
    assert rejects(checks.check_sphere, snaps, 1.1, cols["T_hat_lo"][-1], cols["T_hat_lo"][-1] + 2e-4)
    assert rejects(checks.check_sphere, snaps, 1.1, 0.7, 0.70001)


def test_ratio_bounds():
    checks.check_ratio_bounds([0.5, 0.7, 1.0], [2.0, 1.5, 1.0])
    assert rejects(checks.check_ratio_bounds, [0.5, 1.001], [2.0, 1.5])
    assert rejects(checks.check_ratio_bounds, [0.5, 0.7], [2.0, 0.999])
    assert rejects(checks.check_ratio_bounds, [0.5, float("nan")], [2.0, 1.5])


def test_ellipse():
    a, b = 1.5, 1.0
    lo, hi = checks.ellipse_ball_ratio_extrema(a, b)
    assert math.isclose(lo, b * b / (a * a), rel_tol=1e-12)
    assert math.isclose(hi, a * a / (b * b), rel_tol=1e-12)
    checks.check_ellipse_row(lo * (1 + 1e-12), hi, (lo, hi), 256)
    assert rejects(checks.check_ellipse_row, lo * (1 + 1e-8), hi, (lo, hi), 256)
    assert rejects(checks.check_ellipse_row, lo, hi * (1 - 1e-8), (lo, hi), 256)


def test_exit_and_trials():
    checks.check_exit(2, 2, "x")
    assert rejects(checks.check_exit, 0, 2, "x")
    checks.check_trials(4000, 4000, "x")
    assert rejects(checks.check_trials, 3999, 4000, "x")


def test_power_mean_derivatives():
    rng = np.random.default_rng(0)
    z = 10.0 ** rng.uniform(-1, 1, 3)
    eps = 1e-6
    for p in (-2.0, 2.0):
        g = np.array([(checks.power_mean(z + eps * e, p) - checks.power_mean(z - eps * e, p))
                      / (2 * eps) for e in np.eye(3)])
        H = np.array([(checks.power_mean_grad(z + eps * e, p)
                       - checks.power_mean_grad(z - eps * e, p)) / (2 * eps) for e in np.eye(3)])
        assert np.allclose(g, checks.power_mean_grad(z, p), rtol=1e-7)
        assert np.allclose(H, checks.power_mean_hess(z, p), rtol=1e-5, atol=1e-8)


def power_minus_two_witness():
    """A violating interior sample of the power:-2 mean, found by search."""
    rng = np.random.default_rng(1)
    while True:
        a = 10.0 ** rng.uniform(-2, 2, 3)
        b = 10.0 ** rng.uniform(-2, 2, 3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A = (Q * a) @ Q.T
        A = 0.5 * (A + A.T)
        k = rng.uniform(0.0, 0.9 * min(a.min(), b.min()))
        gap = checks.interior_gap_power(A, b, k, -2.0)
        if gap < -1e-3:
            return A, b, k, gap


def test_interior_witness():
    A, b, k, gap = power_minus_two_witness()
    report = {"witness": {"A": A.tolist(), "B_diag": b.tolist(), "k": k},
              "min_value": gap, "tol": 1e-7}
    checks.check_interior_witness(report, -2.0)
    assert rejects(checks.check_interior_witness, dict(report, tol=2 * abs(gap)), -2.0)
    assert rejects(checks.check_interior_witness, dict(report, min_value=0.5 * gap), -2.0)
    assert rejects(checks.check_interior_witness, report, 1.0)   # the mean: no violation
    assert rejects(checks.check_interior_witness, {"min_value": gap, "tol": 1e-7}, -2.0)


def test_certify_witness():
    z = np.array([0.01, 1.0, 30.0])
    margin = checks.inverse_concavity_margin(z, -2.0)
    assert margin < 0.0
    report = {"verdict": "refuted", "witness": z.tolist(), "witness_eigenvalue": margin}
    checks.check_certify_witness(report, -2.0)
    assert rejects(checks.check_certify_witness, dict(report, witness_eigenvalue=2 * margin), -2.0)
    assert rejects(checks.check_certify_witness, dict(report, verdict="certified-on-samples"), -2.0)
    assert checks.inverse_concavity_margin(z, 1.0) >= -1e-12   # the mean is inverse-concave
    assert rejects(checks.check_certify_witness, dict(report, witness_eigenvalue=-1.0), 1.0)


def test_wall_rel_cancels_host_speed_but_not_program_speed():
    from run import Outcome, wall_rel

    def round_at(host_slowdown, work=(6.0, 1.5)):
        outs = []
        for w in work:
            o = Outcome(None)
            o.work_s = w * host_slowdown
            o.ref_s, o.ref_passes = 0.25 * w * host_slowdown, int(0.25 * w / 0.03)
            outs.append(o)
        return outs

    base = wall_rel([round_at(1.0), round_at(1.0)])
    assert math.isclose(wall_rel([round_at(2.3), round_at(2.3)]), base, rel_tol=1e-12)
    assert math.isclose(wall_rel([round_at(1.0, work=(5.4, 1.35))]), 0.9 * base, rel_tol=0.05)


def test_benchmark_json_names_the_reported_metrics():
    import json

    from run import PER_LAYER_UNITS

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        ("wall_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
    print(f"{len(tests)} self-tests passed")
