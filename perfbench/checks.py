"""Correctness checks on the outputs of `noncollapse` invocations.

Every check is computed apart from the program: closed forms (the shrinking
sphere, the ellipse's exterior ratio, the power mean and its derivatives) or
properties the method must have (monotone radii, the extinction sandwich,
threshold-exact stops, k_lower <= F <= k_upper).  Nothing here imports
`noncollapse` or compares against a stored copy of earlier output.

Each check raises CheckFailed with a message naming the value it rejected.
"""
from __future__ import annotations

import csv
import math

import numpy as np

# Slacks the program states for its own verdicts (noncollapse.monitor):
# SLACK_FLOOR for r_plus and the sandwich, slack_floor for the radii ratio.
R_PLUS_SLACK = 1e-6
RADII_RATIO_SLACK = 1e-4
SANDWICH_FLOOR = 1e-6

SPHERE_TOL = 1e-8          # |h - sqrt(R^2 - 2t)|, as in acceptance criterion 5
SPHERE_WIDTH = 1e-4        # final avoidance interval must be narrower than this
GROWTH_RTOL = 1e-9         # the final step is bisected onto the max-F threshold
RATIO_RTOL = 1e-12         # k_lower <= kappa_min <= F holds to rounding


class CheckFailed(AssertionError):
    pass


def require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Flow runs
# ---------------------------------------------------------------------------

def read_monitor_csv(path: str) -> dict:
    """Columns of monitor.csv as float arrays; empty cells become NaN."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) >= 3, f"{path}: {len(rows)} monitor rows, need >= 3")
    return {k: np.array([float(r[k]) if r[k] != "" else np.nan for r in rows])
            for k in rows[0]}


def check_growth(max_f: np.ndarray, growth: float) -> None:
    got = max_f[-1] / max_f[0]
    require(abs(got - growth) <= GROWTH_RTOL * growth,
            f"final/initial max F {got!r} is not the configured growth {growth!r}")


def check_non_increasing(series: np.ndarray, slack: float, name: str) -> None:
    rise = float(np.max(np.diff(series)))
    require(rise <= slack, f"{name} rises by {rise:.3e} > slack {slack:.3e}")


def check_sandwich(t, r_plus, r_minus, t_hat_lo, t_hat_hi) -> None:
    """r_minus^2 <= 2 (T_hat - t) <= r_plus^2, T_hat the midpoint of the final
    avoidance interval, slack its width plus the floor (T_hat is only known to
    half the width, and the comparison is in the squared domain)."""
    t_hat = 0.5 * (t_hat_lo[-1] + t_hat_hi[-1])
    slack = (t_hat_hi[-1] - t_hat_lo[-1]) + SANDWICH_FLOOR
    rem = 2.0 * (t_hat - t)
    worst = float(max((r_minus**2 - rem).max(), (rem - r_plus**2).max()))
    require(worst <= slack, f"extinction sandwich violated by {worst:.3e} > {slack:.3e}")


def check_radii_series(cols: dict, radii_ratio_delta: float = 0.0) -> None:
    """The three monitor checks every flow run must pass."""
    check_non_increasing(cols["r_plus"], R_PLUS_SLACK, "r_plus")
    check_non_increasing(cols["r_plus"] / cols["r_minus"],
                         RADII_RATIO_SLACK + radii_ratio_delta, "r_plus/r_minus")
    check_sandwich(cols["t"], cols["r_plus"], cols["r_minus"],
                   cols["T_hat_lo"], cols["T_hat_hi"])


def check_sphere(snapshots: list, radius: float, t_hat_lo: float,
                 t_hat_hi: float) -> None:
    """Shrinking sphere: h(t) = sqrt(R^2 - 2t) for any normalised speed, and
    the extinction time R^2/2 inside a narrow final avoidance interval."""
    for snap in snapshots:
        t = snap["t"]
        err = float(np.abs(np.asarray(snap["h"]) - math.sqrt(radius**2 - 2.0 * t)).max())
        require(err <= SPHERE_TOL, f"sphere h off sqrt(R^2-2t) by {err:.3e} at t={t}")
    width = t_hat_hi - t_hat_lo
    require(width < SPHERE_WIDTH, f"final avoidance interval width {width:.3e}")
    require(t_hat_lo - SPHERE_TOL <= 0.5 * radius**2 <= t_hat_hi + SPHERE_TOL,
            f"R^2/2 = {0.5 * radius**2!r} outside [{t_hat_lo!r}, {t_hat_hi!r}]")


def check_ratio_bounds(min_ratio_lower, max_ratio_upper) -> None:
    """min k_lower/F <= 1 <= max k_upper/F on every row: k_lower <= kappa_min
    <= F <= kappa_max <= k_upper for a monotone normalised speed."""
    lo = np.asarray(min_ratio_lower)
    hi = np.asarray(max_ratio_upper)
    require(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)),
            "full-monitor ratio columns have empty cells")
    require(float(lo.max()) <= 1.0 + RATIO_RTOL, f"min k_lower/F reaches {lo.max()!r} > 1")
    require(float(hi.min()) >= 1.0 - RATIO_RTOL, f"max k_upper/F drops to {hi.min()!r} < 1")


def ellipse_ball_ratio_extrema(a: float, b: float, m: int = 1024):
    """(min k_lower/kappa, max k_upper/kappa) of the ellipse (a cos s, b sin s),
    brute force over all pairs of m parameter points (m divisible by 4, so
    both axes' vertices are sampled).  Curves move by F = kappa.

    k(x, y) = 2 <X_x - X_y, nu_x> / |X_x - X_y|^2, extended to the diagonal
    by kappa(x).  For a > b the extrema sit at vertex pairs, where they equal
    b^2/a^2 and a^2/b^2; the brute force does not assume that."""
    s = 2.0 * np.pi * np.arange(m) / m
    X = np.stack([a * np.cos(s), b * np.sin(s)], axis=1)
    nu = np.stack([b * np.cos(s), a * np.sin(s)], axis=1)
    nu /= np.linalg.norm(nu, axis=1)[:, None]
    kappa = a * b / (a * a * np.sin(s) ** 2 + b * b * np.cos(s) ** 2) ** 1.5
    lo, hi = np.inf, -np.inf
    for i0 in range(0, m, 256):
        D = X[i0:i0 + 256, None, :] - X[None, :, :]
        d2 = np.einsum("xyk,xyk->xy", D, D)
        num = 2.0 * np.einsum("xyk,xk->xy", D, nu[i0:i0 + 256])
        with np.errstate(divide="ignore", invalid="ignore"):
            k = num / d2
        kx = kappa[i0:i0 + 256]
        k_lower = np.minimum(np.where(d2 > 0, k, np.inf).min(axis=1), kx)
        k_upper = np.maximum(np.where(d2 > 0, k, -np.inf).max(axis=1), kx)
        lo = min(lo, float((k_lower / kx).min()))
        hi = max(hi, float((k_upper / kx).max()))
    return lo, hi


def ellipse_ratio_tolerance(n: int) -> float:
    """Relative tolerance between the program's grid extremum and the brute
    force.  Both grids contain the vertex pair where the extremum sits, so
    only the program's spectral derivatives differ.  The support function
    sqrt(a^2 cos^2 + b^2 sin^2) is analytic with Fourier coefficients falling
    like exp(-m arccosh((a^2+b^2)/(a^2-b^2))/2), below 1e-40 at m = 128 for
    a/b = 1.5, so the error is rounding in the second derivative, about
    n^2 eps = 1.5e-11 at n = 256.  The tolerance is 64 n^2 eps, 9.3e-10."""
    return 64.0 * n * n * np.finfo(float).eps


def check_ellipse_row(min_ratio_lower: float, max_ratio_upper: float,
                      expected: tuple, n: int) -> None:
    tol = ellipse_ratio_tolerance(n)
    for got, want, name in ((min_ratio_lower, expected[0], "min k_lower/F"),
                            (max_ratio_upper, expected[1], "max k_upper/F")):
        require(abs(got - want) <= tol * abs(want),
                f"ellipse t=0 {name} {got!r} differs from brute force {want!r} "
                f"by more than {tol:.2e} relative")


# ---------------------------------------------------------------------------
# Oracle and certify reports
# ---------------------------------------------------------------------------

def check_exit(code: int, expected: int, label: str) -> None:
    require(code == expected, f"{label}: exit code {code}, expected {expected}")


def check_trials(reported: int, requested: int, label: str) -> None:
    require(reported == requested, f"{label}: report has {reported} trials, requested {requested}")


def power_mean(z, p: float) -> float:
    z = np.asarray(z, dtype=float)
    return float(np.mean(z**p) ** (1.0 / p))


def power_mean_grad(z, p: float) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return z ** (p - 1.0) * power_mean(z, p) ** (1.0 - p) / z.size


def power_mean_hess(z, p: float) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    n = z.size
    f = power_mean(z, p)
    u = z ** (p - 1.0)
    H = (1.0 - p) * np.outer(u, u) * f ** (1.0 - 2.0 * p) / n**2
    H[np.diag_indices(n)] += (p - 1.0) * z ** (p - 2.0) * f ** (1.0 - p) / n
    return H


def interior_gap_power(A, b, k: float, p: float) -> float:
    """F(B) - F(A) - tr[G((A-kI) - (A-kI)(B-kI)^-1(A-kI))] for the p-power mean
    lifted to symmetric matrices, G = U diag(grad f(lam)) U^T."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lam, U = np.linalg.eigh(A)
    G = (U * power_mean_grad(lam, p)) @ U.T
    M = A - k * np.eye(b.size)
    inner = M - M @ np.diag(1.0 / (b - k)) @ M
    return power_mean(b, p) - power_mean(lam, p) - float(np.sum(G * inner))


def check_interior_witness(report: dict, p: float) -> None:
    """The negative control's witness, re-evaluated: its gap must be negative
    beyond the report's tolerance."""
    w = report.get("witness")
    require(w is not None, "negative control report has no witness")
    gap = interior_gap_power(w["A"], w["B_diag"], w["k"], p)
    require(gap < -report["tol"], f"witness gap {gap!r} is not below -tol {-report['tol']!r}")
    require(abs(gap - report["min_value"]) <= 1e-6 * (abs(gap) + report["tol"]),
            f"witness gap {gap!r} disagrees with reported min_value {report['min_value']!r}")


def inverse_concavity_margin(z, p: float) -> float:
    """min(lambda_min(hess f + 2 diag(grad f / z)), -lambda_max(hess f*)) for
    the p-power mean, whose dual f*(y) = 1/f(1/y) is the (-p)-power mean."""
    z = np.asarray(z, dtype=float)
    M = power_mean_hess(z, p) + 2.0 * np.diag(power_mean_grad(z, p) / z)
    m1 = float(np.linalg.eigvalsh(M)[0])
    m2 = float(-np.linalg.eigvalsh(power_mean_hess(1.0 / z, -p))[-1])
    return min(m1, m2)


def check_certify_witness(report: dict, p: float) -> None:
    require(report["verdict"] == "refuted", f"verdict {report['verdict']!r}, expected refuted")
    require(report["witness"] is not None, "refuted certify report has no witness")
    margin = inverse_concavity_margin(report["witness"], p)
    want = report["witness_eigenvalue"]
    require(margin < 0.0, f"witness margin {margin!r} is not negative")
    require(abs(margin - want) <= 1e-6 * abs(want),
            f"witness margin {margin!r} disagrees with reported {want!r}")
