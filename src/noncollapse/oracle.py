"""Randomized oracles for the two matrix inequalities behind exterior
non-collapsing: the interior estimate (shifted-inverse comparison with the
closed-form optimal mixing matrix) and the boundary estimate (quadratic form
with smallest-eigenvalue resolvent weights).

Samplers are deterministic per (seed, trial index), so a witness can be
replayed from its trial alone.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSpectrum, SingularShift
from .speeds import GAP_TOL, SpeedFunction, hess_form_terms, matrix_eval

_SHIFT_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Interior estimate
# ---------------------------------------------------------------------------

@dataclass
class InteriorSample:
    """A symmetric PD matrix, a diagonal PD matrix, and a shift k below both spectra."""

    A: np.ndarray
    B: np.ndarray
    k: float
    f: SpeedFunction

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        n = self.f.n
        if self.A.shape != (n, n) or self.B.shape != (n, n):
            raise ValueError("A, B must be n x n")
        if np.abs(self.B - np.diag(np.diag(self.B))).max() > 0.0:
            raise ValueError("B must be diagonal")
        lam_a = np.linalg.eigvalsh(self.A)
        b = np.diag(self.B)
        if lam_a[0] <= 0.0 or b.min() <= 0.0:
            raise ValueError("A and B must be positive definite")
        if not (self.k < lam_a[0] and self.k < b.min()):
            raise ValueError("need k < min eig(A) and k < min eig(B)")


def _check_shift(A: np.ndarray, B: np.ndarray, k: float) -> None:
    la = np.linalg.eigvalsh(A)[0]
    lb = np.diag(B).min()
    if la - k <= _SHIFT_FLOOR or lb - k <= _SHIFT_FLOOR:
        raise SingularShift(f"shift margin {min(la - k, lb - k):.3e} below {_SHIFT_FLOOR:g}")


def optimal_lambda(A, B, k: float) -> np.ndarray:
    """The maximiser (A - kI)(B - kI)^-1 of the bracketed quadratic."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    _check_shift(A, B, k)
    n = A.shape[0]
    return (A - k * np.eye(n)) / (np.diag(B) - k)[None, :]


def interior_bracket(f: SpeedFunction, A, B, k: float, L) -> float:
    """Bracket value tr[G(kI-A)] - 2 tr[G L (kI-A)] + tr[G L (kI-B) L^T],
    G the matrix derivative of the lift at A."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    L = np.asarray(L, dtype=float)
    n = A.shape[0]
    _, G = matrix_eval(f, A)
    kA = k * np.eye(n) - A
    kB = k * np.eye(n) - B
    return float(np.trace(G @ kA) - 2.0 * np.trace(G @ L @ kA) + np.trace(G @ L @ kB @ L.T))


def interior_gap(s: InteriorSample) -> float:
    """F(B) - F(A) - tr[G((A-kI) - (A-kI)(B-kI)^-1 (A-kI))], G = dF at A.

    Equals the gap of the diagonalised comparison when A is diagonal; for an
    inverse-concave speed and 0 <= k < min eig the value is nonnegative.
    """
    _check_shift(s.A, s.B, s.k)
    n = s.f.n
    FA, G = matrix_eval(s.f, s.A)
    FB = s.f.value(np.diag(s.B))
    M = s.A - s.k * np.eye(n)
    inner = M - M @ (M / (np.diag(s.B) - s.k)[:, None])
    return float(FB - FA - np.sum(G * inner))


def interior_scale(s: InteriorSample) -> float:
    """Tolerance scale for the interior gap: 1 + |F(A)|."""
    return 1.0 + abs(s.f.value(np.linalg.eigvalsh(s.A)))


def q_second_derivative_check(f: SpeedFunction, a, z, k: float):
    """Both sides of the shifted-Hessian identity, assembled independently.

    lhs comes from derivatives of the comparison function
    q_a(z) = f(z) - f(a) - sum_i grad_i(a) [(a_i-k) - (a_i-k)^2/(z_i-k)],
    rhs from derivatives of f alone; the two agree identically.
    """
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=float)
    if min(a.min(), z.min()) - k <= _SHIFT_FLOOR:
        raise SingularShift("k too close to min(a) or min(z)")
    ga = f.grad(a)
    gz = f.grad(z)
    Hz = f.hess(z)
    sa = a - k
    sz = z - k
    q_dot = gz - ga * sa**2 / sz**2
    q_ddot = Hz + 2.0 * np.diag(ga * sa**2 / sz**3)
    lhs = q_ddot + 2.0 * np.diag(q_dot / sz)
    rhs = Hz + 2.0 * np.diag(gz / sz)
    return lhs, rhs


def _interior_draw(f: SpeedFunction, rng: np.random.Generator):
    """Raw (A, b, k), b the diagonal of B: log-uniform spectra in [1e-2, 1e2];
    A conjugated by a random rotation; k uniform in [0, 0.9 min eig).
    Nonnegative shifts only: the estimate is provably false for k < 0 (see
    the harmonic-mean counterexample test)."""
    n = f.n
    a = 10.0 ** rng.uniform(-2.0, 2.0, n)
    b = 10.0 ** rng.uniform(-2.0, 2.0, n)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    A = (Q * a) @ Q.T
    A = 0.5 * (A + A.T)
    k = rng.uniform(0.0, 0.9 * min(a.min(), b.min()))
    return A, b, k


def sample_interior(f: SpeedFunction, rng: np.random.Generator) -> InteriorSample:
    """The draw of _interior_draw, validated as an InteriorSample."""
    A, b, k = _interior_draw(f, rng)
    return InteriorSample(A=A, B=np.diag(b), k=k, f=f)


def interior_gaps_batched(f: SpeedFunction, A: np.ndarray, b: np.ndarray,
                          k: np.ndarray):
    """Vectorised interior gaps and tolerance scales for stacked samples.

    A: (m, n, n) symmetric PD, b: (m, n) diagonal entries, k: (m,).
    Matches interior_gap sample by sample (cross-checked in tests)."""
    m, n = b.shape
    lam, U = np.linalg.eigh(A)
    FA = f.value_many(lam)
    g = f.grad_many(lam)
    G = np.einsum("mik,mk,mjk->mij", U, g, U)
    FB = f.value_many(b)
    M = A - k[:, None, None] * np.eye(n)[None, :, :]
    inner = M - np.einsum("mij,mj,mjl->mil", M, 1.0 / (b - k[:, None]), M)
    gaps = FB - FA - np.einsum("mij,mij->m", G, inner)
    return gaps, 1.0 + np.abs(FA)


# ---------------------------------------------------------------------------
# Boundary estimate
# ---------------------------------------------------------------------------

@dataclass
class BoundarySample:
    """Ascending eigenvalues with lam[0] smallest, and a symmetric B with B[0,0] = 0
    standing for the 3-tensor slice contracted with the bottom eigenvector."""

    lam: np.ndarray
    B: np.ndarray
    f: SpeedFunction

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        n = self.f.n
        if self.lam.shape != (n,) or self.B.shape != (n, n):
            raise ValueError("lam must be length n, B must be n x n")
        if self.lam.min() <= 0.0:
            raise ValueError("lam must lie in the positive cone")
        if np.any(np.diff(self.lam) < 0.0) or self.lam[0] > self.lam.min():
            raise ValueError("lam must be ascending with lam[0] the smallest")
        if self.B[0, 0] != 0.0:
            raise ValueError("B[0,0] must be exactly 0")
        if np.abs(self.B - self.B.T).max() > 0.0:
            raise ValueError("B must be symmetric")


def _boundary_terms(s: BoundarySample, on_degenerate: str = "perturb"):
    """(value, tolerance scale, closed-form sup part) of one sample, from one
    assembly of its terms: the hess-form terms of the matrix lift, then the
    resolvent sum.  The scale is 1 + the largest term magnitude."""
    lam = s.lam
    n = s.f.n
    gaps = lam[1:] - lam[0]
    tol = GAP_TOL * (1.0 + abs(lam[0]))
    if np.any(gaps < tol):
        bad = np.where(gaps < tol)[0] + 1
        if on_degenerate == "raise" and np.any(s.B[:, bad] != 0.0):
            raise DegenerateSpectrum(f"lam[q] - lam[0] below gap tolerance at q={bad.tolist()}")
        # continuity in the spectrum: nudge the eigenvalues apart and report
        # the perturbed value
        lam = lam + np.arange(n) * 10.0 * tol

    g = s.f.grad(lam)
    terms = hess_form_terms(lam, s.B, g, s.f.hess(lam))
    sup_part = 0.0
    for p in range(n):
        for q in range(1, n):
            if s.B[p, q] != 0.0:
                sup_part += 2.0 * g[p] / (lam[q] - lam[0]) * s.B[p, q] ** 2
    terms.append(sup_part)
    return float(sum(terms)), 1.0 + max(abs(t) for t in terms), float(sup_part)


def boundary_form(s: BoundarySample, on_degenerate: str = "perturb") -> float:
    """hess-form + divided differences + resolvent terms; >= 0 for
    inverse-concave speeds, with near-zero only when the first row of B is
    near zero."""
    return _boundary_terms(s, on_degenerate)[0]


def boundary_scale(s: BoundarySample) -> float:
    """Tolerance scale: 1 + magnitude of the largest assembled term."""
    return _boundary_terms(s)[1]


def boundary_closed_sup(s: BoundarySample) -> float:
    """Closed-form supremum contribution 2 sum g_p B_pq^2 / (lam_q - lam_0)."""
    return _boundary_terms(s)[2]


def boundary_bracket(s: BoundarySample, L) -> float:
    """The bracketed quadratic in the mixing matrix, evaluated from its
    definition (black box used by the brute-force maximiser)."""
    L = np.asarray(L, dtype=float)
    n = s.f.n
    g = s.f.grad(s.lam)
    total = 0.0
    for k in range(n):
        lin = 0.0
        quad = 0.0
        for p in range(n):
            c_lin = s.B[k, p] - (s.B[k, 0] if p == 0 else 0.0)
            lin += L[k, p] * c_lin
            quad += L[k, p] ** 2 * (s.lam[p] - s.lam[0])
        total += 2.0 * g[k] * (2.0 * lin - quad)
    return float(total)


def brute_force_boundary(s: BoundarySample, restarts: int = 8, seed: int = 0) -> float:
    """Maximise the bracketed quadratic numerically: exact stationary-point
    solve on the probed quadratic plus random restarts; independent of the
    closed-form optimiser."""
    n = s.f.n
    m = n * n

    def Q(vec):
        return boundary_bracket(s, vec.reshape(n, n))

    q0 = Q(np.zeros(m))
    Hq = np.empty((m, m))
    eye = np.eye(m)
    # quadratic => exact gradient/Hessian from unit-step probes
    plus = np.array([Q(eye[i]) for i in range(m)])
    minus = np.array([Q(-eye[i]) for i in range(m)])
    grad = 0.5 * (plus - minus)
    for i in range(m):
        for j in range(i, m):
            if i == j:
                Hq[i, i] = plus[i] + minus[i] - 2.0 * q0
            else:
                qpp = Q(eye[i] + eye[j])
                Hq[i, j] = Hq[j, i] = qpp - plus[i] - plus[j] + q0
    x0, *_ = np.linalg.lstsq(Hq, -grad, rcond=1e-10)
    best = Q(x0)
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        x = rng.standard_normal(m)
        # one exact Newton step from a random start lands on the stationary set
        step, *_ = np.linalg.lstsq(Hq, -(grad + Hq @ x), rcond=1e-10)
        best = max(best, Q(x + step))
    return float(best)


def sample_boundary(f: SpeedFunction, rng: np.random.Generator) -> BoundarySample:
    n = f.n
    lam = np.sort(10.0 ** rng.uniform(-2.0, 2.0, n))
    B = rng.standard_normal((n, n))
    B = 0.5 * (B + B.T)
    B[0, 0] = 0.0
    return BoundarySample(lam=lam, B=B, f=f)


# ---------------------------------------------------------------------------
# Per-sample verdicts
# ---------------------------------------------------------------------------

@dataclass
class OracleVerdict:
    """One evaluated sample: the inequality value, the bound it was checked
    against, the closed-form optimiser, and (boundary only, on request) the
    brute-force cross-value, which the closed form must dominate."""

    value: float
    lower_bound_checked: float
    optimizer: np.ndarray
    brute_force_value: Optional[float] = None

    def __post_init__(self):
        if self.brute_force_value is not None:
            tol = 1e-9 * (1.0 + abs(self.value))
            if self.value < self.brute_force_value - tol - abs(self.lower_bound_checked):
                raise AssertionError(
                    f"closed form {self.value} below brute force {self.brute_force_value}")

    @property
    def passed(self) -> bool:
        return self.value >= self.lower_bound_checked


def evaluate_interior(s: InteriorSample) -> OracleVerdict:
    return OracleVerdict(value=interior_gap(s),
                         lower_bound_checked=-1e-7 * interior_scale(s),
                         optimizer=optimal_lambda(s.A, s.B, s.k))


def evaluate_boundary(s: BoundarySample, brute_force: bool = False) -> OracleVerdict:
    n = s.f.n
    lam = s.lam
    L = np.zeros((n, n))
    denom = lam[1:] - lam[0]
    L[:, 1:] = s.B[:, 1:] / denom[None, :]
    value, scale, sup_cf = _boundary_terms(s)
    bf = brute_force_boundary(s) + (value - sup_cf) if brute_force else None
    return OracleVerdict(value=value, lower_bound_checked=-1e-7 * scale,
                         optimizer=L, brute_force_value=bf)


# ---------------------------------------------------------------------------
# Trial batches (the CLI `oracle` command is a thin wrapper over these)
# ---------------------------------------------------------------------------

def interior_suite(f: SpeedFunction, trials: int, seed: int = 0) -> dict:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    draws = [_interior_draw(f, np.random.default_rng((seed, t))) for t in range(trials)]
    A = np.stack([d[0] for d in draws])
    b = np.stack([d[1] for d in draws])
    k = np.array([d[2] for d in draws])
    gaps, scales = interior_gaps_batched(f, A, b, k)
    scaled = gaps / (1e-7 * scales)
    worst = int(np.argmin(scaled))
    report = {
        "proposition": "2.2",
        "speed": f.name,
        "n": f.n,
        "trials": trials,
        "min_value": float(gaps[worst]),
        "min_scaled": float(scaled[worst]),
        "tol": float(1e-7 * scales[worst]),
        "runtime_ms": round(1000.0 * (time.perf_counter() - t0), 3),
    }
    if scaled[worst] < -1.0:
        report["witness"] = {
            "A": A[worst].tolist(),
            "B_diag": b[worst].tolist(),
            "k": float(k[worst]),
        }
    return report


def boundary_suite(f: SpeedFunction, trials: int, seed: int = 0) -> dict:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    samples = [sample_boundary(f, np.random.default_rng((seed, t))) for t in range(trials)]
    values, scales = np.array([_boundary_terms(s)[:2] for s in samples]).T
    scaled = values / (1e-7 * scales)
    worst = int(np.argmin(scaled))
    s = samples[worst]
    report = {
        "proposition": "2.5",
        "speed": f.name,
        "n": f.n,
        "trials": trials,
        "min_value": float(values[worst]),
        "min_scaled": float(scaled[worst]),
        "tol": float(1e-7 * scales[worst]),
        "runtime_ms": round(1000.0 * (time.perf_counter() - t0), 3),
    }
    if scaled[worst] < -1.0:
        report["witness"] = {"lam": s.lam.tolist(), "B": s.B.tolist()}
    return report


def counterexample_search(f: SpeedFunction, trials: int, seed: int = 0,
                          threshold: float = -1e-4) -> Optional[dict]:
    """First interior sample with gap below threshold, or None."""
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        s = sample_interior(f, rng)
        gap = interior_gap(s)
        if gap < threshold:
            return {
                "trial": t,
                "gap": float(gap),
                "A": s.A.tolist(),
                "B_diag": np.diag(s.B).tolist(),
                "k": s.k,
            }
    return None
