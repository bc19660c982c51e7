"""Monotone quantities and convergence diagnostics along a flow run.

The headline series is min over the body of (exterior ball curvature)/F,
which is non-decreasing along convex runs with inverse-concave speeds; its
interior counterpart max (interior ball curvature)/F is non-increasing for
concave speeds.  A MonitorRow adds to a run's Snapshot only the columns the
monitor computes.  Roundness is judged by run_verdicts on a run that reached
its max-F stop: the extinction sandwich r_minus^2 <= 2(T_hat - t) <= r_plus^2
against the shrinking-sphere law, and the rescaled Hausdorff gate: monitor_rows
scales each snapshot by 1/sqrt(2(T_hat - t)) about the final in-center and
measures its distance to the unit sphere, and the gate reads the last one.

Trend assertions carry explicit slack: an absolute floor plus, where the
caller provides one, a measured grid-refinement delta.  The continuum
statements are exact; the honest discrete statement is monotone up to
discretisation.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .flow import REACHED_MAX_F, FlowRun, Snapshot
from .geometry import (BallCurvatureField, ConvexBody, ball_curvature_field,
                       hausdorff_to_unit_sphere, tangent_plane_diagnostic)
from .speeds import DomainError, SpeedFunction

SLACK_FLOOR = 1e-6  # absolute measurement-noise floor for interval/refinement checks
RATIO_SLACK_FLOOR = 1e-4  # absolute floor of the ball-ratio and radii-ratio trend slacks


@dataclass
class RatioExtremes:
    min_ratio_lower: float   # min over the grid of k_lower / F
    max_ratio_upper: float   # max over the grid of k_upper / F
    argmin_index: int


def ratios(fld: BallCurvatureField, speed: SpeedFunction) -> RatioExtremes:
    F = speed.value_many(fld.kappa)
    if F.min() <= 0.0:
        raise DomainError("speed must be positive on the body")
    lower = fld.k_lower / F
    upper = fld.k_upper / F
    i_lo = int(np.argmin(lower))
    return RatioExtremes(
        min_ratio_lower=float(lower[i_lo]),
        max_ratio_upper=float(upper.max()),
        argmin_index=i_lo,
    )


@dataclass
class TrendVerdict:
    series: str
    claim: str                       # "non-decreasing" | "non-increasing" | "sandwich"
    slack_used: float
    passed: bool
    worst_violation: tuple           # (t or index, amount)

    def to_dict(self) -> dict:
        return {
            "series": self.series,
            "claim": self.claim,
            "slack_used": self.slack_used,
            "pass": self.passed,
            "worst_violation": list(self.worst_violation),
        }


def assert_trend(series: Sequence[float], claim: str, slack: float,
                 name: str = "series", times: Optional[Sequence[float]] = None) -> TrendVerdict:
    """Check a monotonicity claim against successive samples."""
    if claim not in ("non-decreasing", "non-increasing"):
        raise ValueError(f"unknown claim {claim!r}")
    s = np.asarray(series, dtype=float)
    if s.size < 3:
        raise ValueError("need at least 3 samples")
    t = np.arange(s.size, dtype=float) if times is None else np.asarray(times, dtype=float)
    diffs = np.diff(s)
    viol = -diffs if claim == "non-decreasing" else diffs
    i = int(np.argmax(viol))
    worst = float(viol[i])
    return TrendVerdict(series=name, claim=claim, slack_used=slack,
                        passed=bool(worst <= slack),
                        worst_violation=(float(t[i + 1]), worst))


# ---------------------------------------------------------------------------
# Monitor rows
# ---------------------------------------------------------------------------

@dataclass
class MonitorRow:
    snapshot: Snapshot
    min_ratio_lower: Optional[float] = None
    max_ratio_upper: Optional[float] = None
    hausdorff_rescaled: Optional[float] = None
    diag_residual: Optional[float] = None


CSV_COLUMNS = ["t", "maxF", "minF", "r_plus", "r_minus", "min_ratio_lower",
               "max_ratio_upper", "hausdorff_rescaled", "T_hat_lo", "T_hat_hi",
               "diag_residual"]


def monitor_rows(run: FlowRun, speed: SpeedFunction,
                 fields: bool = True) -> list[MonitorRow]:
    """One row per snapshot.  fields=False skips the ball-curvature fields
    (the ratio and tangent-residual columns stay empty)."""
    rows = []
    for snap in run.snapshots:
        body = snap.body
        row = MonitorRow(snapshot=snap)
        if fields:
            fld = ball_curvature_field(body)
            ext = ratios(fld, speed)
            row.min_ratio_lower = ext.min_ratio_lower
            row.max_ratio_upper = ext.max_ratio_upper
            if not fld.diagonal_lower(ext.argmin_index):
                row.diag_residual = tangent_plane_diagnostic(body, fld, ext.argmin_index)
        s = np.sqrt(max(2.0 * (run.t_hat - body.t), 0.0))
        if run.termination == REACHED_MAX_F and s > 0.0:
            center_local = run.snapshots[-1].body.center_offset - body.center_offset
            rescaled = ConvexBody(mode=body.mode, h=body.h / s, t=body.t)
            row.hausdorff_rescaled = hausdorff_to_unit_sphere(rescaled, center_local / s)
        rows.append(row)
    return rows


def write_monitor_csv(rows: Sequence[MonitorRow], path: str) -> None:
    def fmt(x):
        return "" if x is None else repr(float(x))

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in rows:
            s = r.snapshot
            w.writerow([fmt(x) for x in (s.t, s.max_f, s.min_f, s.r_plus, s.r_minus,
                                         r.min_ratio_lower, r.max_ratio_upper,
                                         r.hausdorff_rescaled, s.t_hat_lo, s.t_hat_hi,
                                         r.diag_residual)])


# ---------------------------------------------------------------------------
# Run-level verdicts
# ---------------------------------------------------------------------------

def run_verdicts(run: FlowRun, rows: Sequence[MonitorRow],
                 refinement_deltas: Optional[Mapping] = None) -> dict:
    """Trend verdicts and improvement gates for one run.

    Every series comes from the rows and their Snapshot records, T_hat
    from the last record; of the run only its termination is read.

    Slacks follow the monitor model: absolute floor plus the measured N->2N
    discretisation delta of the same series, refinement_deltas[series] for
    the series "ratio_lower", "ratio_upper" and "radii_ratio", as
    cli.refinement_deltas returns them (0 for a series not measured).
    """
    delta = refinement_deltas or {}
    snaps = [r.snapshot for r in rows]
    t = np.asarray([s.t for s in snaps])
    rp = np.asarray([s.r_plus for s in snaps])
    rm = np.asarray([s.r_minus for s in snaps])
    verdicts = []
    gates: dict = {"maxF_growth": snaps[-1].max_f / snaps[0].max_f}

    have_fields = all(r.min_ratio_lower is not None for r in rows)
    if have_fields and len(rows) >= 3:
        lower = [r.min_ratio_lower for r in rows]
        upper = [r.max_ratio_upper for r in rows]
        verdicts.append(assert_trend(
            lower, "non-decreasing", RATIO_SLACK_FLOOR + delta.get("ratio_lower", 0.0),
            name="min_ratio_lower", times=t))
        verdicts.append(assert_trend(
            upper, "non-increasing", RATIO_SLACK_FLOOR + delta.get("ratio_upper", 0.0),
            name="max_ratio_upper", times=t))
        gates["delta_lower_final"] = 1.0 - lower[-1]
        gates["eps_upper_final"] = upper[-1] - 1.0

    if len(rows) >= 3:
        verdicts.append(assert_trend(
            rp, "non-increasing", SLACK_FLOOR, name="r_plus", times=t))
        rr = rp / rm
        verdicts.append(assert_trend(
            rr, "non-increasing", RATIO_SLACK_FLOOR + delta.get("radii_ratio", 0.0),
            name="radii_ratio", times=t))
        gates["eps_radii_ratio_final"] = float(rr[-1] - 1.0)

    if run.termination == REACHED_MAX_F and len(rows) >= 10:
        # the sandwich r_minus^2 <= 2(T_hat - t) <= r_plus^2, its slack the
        # final interval width (T_hat is only known to half that width)
        last = snaps[-1]
        rem = 2.0 * (last.t_hat - t)
        worst = float(max((rm**2 - rem).max(), (rem - rp**2).max()))
        slack = last.t_hat_width + SLACK_FLOOR
        verdicts.append(TrendVerdict(
            series="extinction_sandwich", claim="sandwich", slack_used=slack,
            passed=bool(worst <= slack), worst_violation=(float(last.t), worst)))
        hd = [r.hausdorff_rescaled for r in rows
              if r.hausdorff_rescaled is not None and np.isfinite(r.hausdorff_rescaled)]
        if hd:
            gates["hausdorff_rescaled_final"] = float(hd[-1])
        gates["t_hat"] = last.t_hat
        gates["t_hat_width"] = last.t_hat_width

    return {"verdicts": [v.to_dict() for v in verdicts],
            "passed": all(v.passed for v in verdicts),
            "gates": gates,
            "termination": run.termination}
