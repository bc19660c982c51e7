import csv
from dataclasses import replace

import numpy as np
import pytest

from noncollapse.flow import REACHED_MAX_F, FlowConfig, build_speed, run
from noncollapse.geometry import (AXISYMMETRIC, CURVE, ball_curvature_field,
                                  make_ellipse, make_sphere)
from noncollapse.monitor import (CSV_COLUMNS, RATIO_SLACK_FLOOR, SLACK_FLOOR,
                                 assert_trend, monitor_rows, ratios, run_verdicts,
                                 write_monitor_csv)

from oracles import principal_radii, scale


@pytest.fixture(scope="module")
def sphere_run():
    cfg = FlowConfig(speed="mean",
                     body={"mode": "curve", "N": 64,
                           "shape": {"kind": "sphere", "radius": 1.0}},
                     cfl=0.25, stop_max_f_factor=50.0, snapshot_every=120,
                     monitor="full")
    return run(cfg)


# ---------------------------------------------------------------------------
# ratios
# ---------------------------------------------------------------------------

def test_ratios_sphere_exactly_one():
    b = make_sphere(CURVE, 96, 2.0)
    ext = ratios(ball_curvature_field(b), build_speed("mean", CURVE))
    assert ext.min_ratio_lower == pytest.approx(1.0, abs=1e-12)
    assert ext.max_ratio_upper == pytest.approx(1.0, abs=1e-12)


def test_ratios_two_computations_agree():
    b = make_ellipse(256, 1.0, 2.0)
    sp = build_speed("mean", CURVE)
    fld = ball_curvature_field(b)
    ext = ratios(fld, sp)
    # independent recomputation through the recorded witnesses
    F = sp.value_many(1.0 / principal_radii(b))
    direct = (fld.k_lower / F).min()
    assert ext.min_ratio_lower == pytest.approx(direct, abs=1e-10)
    i = ext.argmin_index
    assert fld.k_lower[i] / F[i] == pytest.approx(ext.min_ratio_lower, abs=1e-12)


def test_ratios_scale_invariant():
    b = make_ellipse(128, 1.0, 2.0)
    sp = build_speed("mean", CURVE)
    e1 = ratios(ball_curvature_field(b), sp)
    b2 = scale(b, 3.7)
    e2 = ratios(ball_curvature_field(b2), sp)
    assert e2.min_ratio_lower == pytest.approx(e1.min_ratio_lower, rel=1e-10)
    assert e2.max_ratio_upper == pytest.approx(e1.max_ratio_upper, rel=1e-10)


def test_ratios_bracket_one_on_convex_bodies():
    b = make_ellipse(128, 1.0, 1.6)
    ext = ratios(ball_curvature_field(b), build_speed("mean", CURVE))
    assert ext.min_ratio_lower <= 1.0 + 1e-12 <= ext.max_ratio_upper + 2e-12


# ---------------------------------------------------------------------------
# assert_trend
# ---------------------------------------------------------------------------

def test_trend_non_decreasing_pass():
    v = assert_trend([1.0, 1.0, 1.1, 1.2], "non-decreasing", 1e-9)
    assert v.passed
    assert v.worst_violation[1] <= 0.0


def test_trend_dip_detected():
    series = [1.0, 1.001, 1.0, 1.002]  # dip of 1e-3 against slack 1e-4
    v = assert_trend(series, "non-decreasing", 1e-4, times=[0, 1, 2, 3])
    assert not v.passed
    assert v.worst_violation == (2.0, pytest.approx(1e-3, rel=1e-9))


def test_trend_needs_three_samples():
    with pytest.raises(ValueError):
        assert_trend([1.0, 2.0], "non-decreasing", 0.0)


# ---------------------------------------------------------------------------
# monitor rows / CSV
# ---------------------------------------------------------------------------

def test_monitor_rows_sphere(sphere_run):
    sp = build_speed("mean", CURVE)
    rows = monitor_rows(sphere_run, sp)
    assert len(rows) == len(sphere_run.snapshots)
    for r in rows:
        assert r.min_ratio_lower == pytest.approx(1.0, abs=1e-10)
        assert r.max_ratio_upper == pytest.approx(1.0, abs=1e-10)
        assert r.hausdorff_rescaled is not None
        assert r.hausdorff_rescaled < 1e-6
        assert r.snapshot.t_hat_lo <= r.snapshot.t_hat_hi + 1e-15


def test_diagonal_ties_survive_perturbation():
    # on an oblate body the exterior minimum of many rows ties the azimuthal
    # curvature (y on x's own parallel circle); a 1e-13 relative change of h
    # must not move a diag_residual cell, or any row's witness, between the
    # diagonal and off it
    cfg = FlowConfig(speed="harmonic",
                     body={"mode": AXISYMMETRIC, "N": 96,
                           "shape": {"kind": "ellipsoid", "a": 1.0, "c": 0.5}},
                     cfl=0.25, stop_max_f_factor=3.0, snapshot_every=300, monitor="full")
    fr = run(cfg)
    sp = build_speed("harmonic", AXISYMMETRIC)

    def diagonal_rows(body):
        fld = ball_curvature_field(body)
        return np.concatenate([fld.witness_lower[:, 0] < 0, fld.witness_upper[:, 0] < 0])

    cells = [r.diag_residual is None for r in monitor_rows(fr, sp)]
    rows = [diagonal_rows(s.body) for s in fr.snapshots]
    assert len(cells) > 10
    rng = np.random.default_rng(96)
    for _ in range(3):
        snaps = [replace(s, body=replace(s.body, h=s.body.h * (1.0 + 1e-13 *
                                                              rng.standard_normal(s.body.N))))
                 for s in fr.snapshots]
        assert [r.diag_residual is None
                for r in monitor_rows(replace(fr, snapshots=snaps), sp)] == cells
        for s, d in zip(snaps, rows):
            assert np.array_equal(diagonal_rows(s.body), d)


def test_monitor_csv_schema(tmp_path, sphere_run):
    sp = build_speed("mean", CURVE)
    rows = monitor_rows(sphere_run, sp, fields=False)
    path = tmp_path / "monitor.csv"
    write_monitor_csv(rows, str(path))
    with open(path) as fh:
        got = list(csv.reader(fh))
    assert got[0] == CSV_COLUMNS
    assert len(got) == len(rows) + 1
    # radii-only rows leave the field columns empty
    assert got[1][5] == "" and got[1][10] == ""
    assert float(got[1][0]) == rows[0].snapshot.t


# ---------------------------------------------------------------------------
# roundness: the extinction sandwich and the rescaled Hausdorff gate
# ---------------------------------------------------------------------------

def _sandwich(out):
    return [v for v in out["verdicts"] if v["series"] == "extinction_sandwich"]


def test_roundness_sphere(sphere_run):
    # the unit circle under curve shortening: r^2 = 1 - 2t, extinct at 1/2
    out = run_verdicts(sphere_run, monitor_rows(sphere_run, build_speed("mean", CURVE),
                                                fields=False))
    (sw,) = _sandwich(out)
    assert sw["pass"] and sw["claim"] == "sandwich"
    assert sw["slack_used"] == sphere_run.t_hat_width + SLACK_FLOOR
    assert out["gates"]["hausdorff_rescaled_final"] < 1e-6
    assert out["gates"]["t_hat"] == pytest.approx(0.5, abs=1e-9)
    assert out["gates"]["t_hat_width"] == sphere_run.t_hat_width


def test_roundness_reads_rows_hausdorff_column(sphere_run):
    rows = monitor_rows(sphere_run, build_speed("mean", CURVE), fields=False)
    assert rows[-1].hausdorff_rescaled is not None
    gates = run_verdicts(sphere_run, rows)["gates"]
    assert gates["hausdorff_rescaled_final"] == rows[-1].hausdorff_rescaled
    # an empty or non-finite last cell hands the gate to the cell before it
    for blank in (None, float("nan")):
        cut = [replace(r) for r in rows]
        cut[-1].hausdorff_rescaled = blank
        gates = run_verdicts(sphere_run, cut)["gates"]
        assert gates["hausdorff_rescaled_final"] == rows[-2].hausdorff_rescaled
    # no filled cell, no gate
    empty = [replace(r, hausdorff_rescaled=None) for r in rows]
    assert "hausdorff_rescaled_final" not in run_verdicts(sphere_run, empty)["gates"]


def test_roundness_requires_maxf_termination(sphere_run):
    short = replace(sphere_run, termination="ReachedTEnd")
    out = run_verdicts(short, monitor_rows(short, build_speed("mean", CURVE), fields=False))
    assert not _sandwich(out)
    assert "t_hat" not in out["gates"] and "t_hat_width" not in out["gates"]
    assert "hausdorff_rescaled_final" not in out["gates"]


def test_roundness_requires_ten_snapshots():
    # a max-F stop after fewer than 10 snapshots gives too short a series
    fr = run(FlowConfig(speed="mean",
                        body={"mode": "curve", "N": 64,
                              "shape": {"kind": "sphere", "radius": 1.0}},
                        cfl=0.25, stop_max_f_factor=2.0, snapshot_every=120,
                        monitor="radii"))
    assert fr.termination == REACHED_MAX_F and 3 <= len(fr.snapshots) < 10
    out = run_verdicts(fr, monitor_rows(fr, build_speed("mean", CURVE), fields=False))
    assert not _sandwich(out)
    assert "t_hat" not in out["gates"]
    assert {v["series"] for v in out["verdicts"]} == {"r_plus", "radii_ratio"}


def test_roundness_flags_synthetic_sandwich_violation(sphere_run):
    snaps = list(sphere_run.snapshots)
    snaps[3] = replace(snaps[3], r_minus=snaps[3].r_plus * 1.5)  # impossible inradius
    bad = replace(sphere_run, snapshots=snaps)
    out = run_verdicts(bad, monitor_rows(bad, build_speed("mean", CURVE), fields=False))
    (sw,) = _sandwich(out)
    assert not sw["pass"] and not out["passed"]
    assert sw["worst_violation"][1] > 0


# ---------------------------------------------------------------------------
# run-level verdicts
# ---------------------------------------------------------------------------

def test_ellipsoid_trends_both_sided():
    # certified concave + inverse-concave speed on a convex run: the exterior
    # ratio minimum climbs, the interior ratio maximum falls, and both
    # improve toward 1 as max F grows
    cfg = FlowConfig(speed="sigma-ratio:2",
                     body={"mode": "axisymmetric", "N": 96,
                           "shape": {"kind": "ellipsoid", "a": 1.0, "c": 1.5}},
                     cfl=0.25, stop_max_f_factor=30.0, snapshot_every=700,
                     monitor="full")
    fr = run(cfg)
    sp = build_speed(cfg.speed, "axisymmetric")
    rows = monitor_rows(fr, sp)
    lower = [r.min_ratio_lower for r in rows]
    upper = [r.max_ratio_upper for r in rows]
    slack = 1e-4 + 5e-4  # floor + coarse-grid discretisation allowance at N=96
    t = [s.t for s in fr.snapshots]
    assert assert_trend(lower, "non-decreasing", slack, times=t).passed
    assert assert_trend(upper, "non-increasing", slack, times=t).passed
    assert lower[-1] > lower[0] + 0.3
    assert upper[-1] < upper[0] - 0.3
    assert 1.0 - lower[-1] < 0.15 and upper[-1] - 1.0 < 0.15
    # tangent-plane first-order condition at the recorded witnesses
    residuals = [r.diag_residual for r in rows if r.diag_residual is not None]
    assert residuals and max(residuals) < 0.05


def test_run_verdicts_sphere(sphere_run):
    sp = build_speed("mean", CURVE)
    rows = monitor_rows(sphere_run, sp)
    out = run_verdicts(sphere_run, rows)
    assert out["passed"]
    names = {v["series"] for v in out["verdicts"]}
    assert {"min_ratio_lower", "max_ratio_upper", "r_plus", "radii_ratio",
            "extinction_sandwich"} <= names
    assert out["gates"]["eps_radii_ratio_final"] == pytest.approx(0.0, abs=1e-8)
    assert out["gates"]["maxF_growth"] == pytest.approx(50.0, rel=1e-6)
    for v in out["verdicts"]:
        assert set(v) == {"series", "claim", "slack_used", "pass", "worst_violation"}


def test_run_verdicts_slack_per_series(sphere_run):
    # each ratio trend gets the refinement delta of its own series
    rows = monitor_rows(sphere_run, build_speed("mean", CURVE))
    out = run_verdicts(sphere_run, rows, {"ratio_lower": 1e-3, "ratio_upper": 2e-2,
                                          "radii_ratio": 3e-1, "grids": [64, 128]})
    slack = {v["series"]: v["slack_used"] for v in out["verdicts"]}
    assert slack["min_ratio_lower"] == RATIO_SLACK_FLOOR + 1e-3
    assert slack["max_ratio_upper"] == RATIO_SLACK_FLOOR + 2e-2
    assert slack["radii_ratio"] == RATIO_SLACK_FLOOR + 3e-1
    # a series the mapping leaves out gets the floor alone
    out = run_verdicts(sphere_run, rows, {"ratio_upper": 2e-2})
    slack = {v["series"]: v["slack_used"] for v in out["verdicts"]}
    assert slack["min_ratio_lower"] == slack["radii_ratio"] == RATIO_SLACK_FLOOR
    assert slack["max_ratio_upper"] == RATIO_SLACK_FLOOR + 2e-2
