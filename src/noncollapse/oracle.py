"""Randomized oracles for the two matrix inequalities behind exterior
non-collapsing: the interior estimate (shifted-inverse comparison with the
closed-form optimal mixing matrix) and the boundary estimate (quadratic form
with smallest-eigenvalue resolvent weights).

Trial t of a suite is drawn from its row of speeds.trial_uniforms(seed,
trials, width), so a witness, which records its t as "trial", replays from
(seed, t) alone.  An interior trial is drawn as the eigendecomposition
A = Q diag(a) Q^T and its gap evaluated in that basis; the matrix A is
formed only where a sample is recorded or replayed.  Boundary trials go
unchecked to _boundary_terms_many, the one Prop. 2.5 evaluator (see
_boundary_draws).  The draws compute on trials-last stacks, one contiguous
vector per entry across the trials, and return row-major (m, ...) arrays,
each trial's entries adjacent: the evaluators reduce along a trial's
entries, and the order in which NumPy adds there depends on the layout.
"""
from __future__ import annotations

import time

import numpy as np

from .speeds import (GAP_TOL, SpeedFunction, hess_form_terms, refuse_non_finite, sum_terms,
                     trial_uniforms)


# ---------------------------------------------------------------------------
# Interior estimate
# ---------------------------------------------------------------------------

def _normals(U: np.ndarray, count: int) -> np.ndarray:
    """(m, count) standard normals from the (m, 2 ceil(count/2)) uniforms U
    by Box-Muller: the first half of the columns gives the radii
    sqrt(-2 log(1 - u)), finite at u = 0, and the second half the angles.
    The result is laid out trials-last, like trial_uniforms: each column is
    computed as, and returned as, one contiguous vector over the trials."""
    p = U.shape[1] // 2
    r = np.sqrt(-2.0 * np.log1p(-U[:, :p].T))
    theta = 2.0 * np.pi * U[:, p:].T
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:count].T


def _normal_width(n: int) -> int:
    """Uniforms per trial that _normals turns into an n x n Gaussian matrix."""
    return 2 * ((n * n + 1) // 2)


def _matrices(N: np.ndarray, n: int) -> np.ndarray:
    """The (m, n, n) stack whose matrix t is row t of the (m, n n) normals N
    filled row by row, as a view that keeps N's trials-last layout."""
    return np.moveaxis(N.T.reshape(n, n, -1), 2, 0)


def _rotations(G: np.ndarray) -> np.ndarray:
    """The orthonormal Q of G = QR with diag(R) > 0, for a stack G (m, n, n),
    returned C-contiguous: modified Gram-Schmidt on the columns, run twice
    so that Q^T Q = I to rounding however ill-conditioned G is.  V[j, i] is
    entry (i, j) of every matrix, one contiguous vector over the trials, and
    a dot product adds its n terms in turn: the order of NumPy's sum along a
    length-n axis for n < 8 (from n = 8 that sum uses eight partial sums)."""
    V = G.transpose(2, 1, 0).copy()  # V[j] is column j of every matrix, (n, m)
    for _ in range(2):
        for j in range(len(V)):
            for i in range(j):
                V[j] -= (V[i] * V[j]).sum(axis=0) * V[i]
            V[j] /= np.sqrt((V[j] * V[j]).sum(axis=0))
    return np.ascontiguousarray(V.transpose(2, 1, 0))


def _interior_draws(n: int, seed: int, trials):
    """Stacked raw (a, Q, b, k) of the interior trials with indices trials:
    A = Q diag(a) Q^T (formed by _interior_matrices) with a log-uniform
    spectrum in [1e-2, 1e2] and Q a random rotation; B = diag(b), b
    log-uniform in the same range; k uniform in [0, 0.9 min eig).  A trial's
    2n + 1 + _normal_width(n) uniforms give a, then b, then k, then the
    Gaussian matrix whose Gram-Schmidt Q is the rotation.  Nonnegative
    shifts only: the estimate is provably false for k < 0 (see the
    harmonic-mean counterexample test)."""
    U = trial_uniforms(seed, trials, 2 * n + 1 + _normal_width(n))
    ab = 10.0 ** (-2.0 + 4.0 * U[:, :2 * n])
    k = 0.9 * ab.min(axis=1) * U[:, 2 * n]
    ab = np.ascontiguousarray(ab)
    a, b = ab[:, :n], ab[:, n:]
    Q = _rotations(_matrices(_normals(U[:, 2 * n + 1:], n * n), n))
    return a, Q, b, k


def _interior_matrices(a: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """A = Q diag(a) Q^T, symmetrised, of one drawn trial (a (n,), Q (n, n))
    or of a stack of them; the same bits either way."""
    A = (Q * a[..., None, :]) @ np.swapaxes(Q, -1, -2)
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def _interior_draw(f: SpeedFunction, seed: int, t: int):
    """The (A, b, k) of interior trial t alone, bit for bit as in any
    stack that holds it; see _interior_draws."""
    a, Q, b, k = _interior_draws(f.n, seed, [t])
    return _interior_matrices(a[0], Q[0]), b[0], float(k[0])


def interior_gaps_batched(f: SpeedFunction, a: np.ndarray, Q: np.ndarray,
                          b: np.ndarray, k: np.ndarray):
    """Interior gaps and tolerance scales of stacked drawn trials, evaluated
    in the basis each trial was drawn in: a, b (m, n), Q (m, n, n), k (m,).

    The gap is F(B) - F(A) - tr[G((A-kI) - (A-kI)(B-kI)^-1 (A-kI))], G = dF
    at A, which is nonnegative for an inverse-concave speed and 0 <= k <
    min eig.  With s = a - k and g = grad f(a), A - kI = Q diag(s) Q^T and
    G = Q diag(g) Q^T, so it is
        f(b) - f(a) - sum_i g_i s_i (1 - s_i w_i),  w_i = sum_j Q_ji^2 / (b_j - k),
    and its scale 1 + |f(a)|.  Cross-checked in tests against the formed
    matrix path, tests/oracles.py::interior_gap."""
    s = a - k[:, None]
    w = np.einsum("mji,mj->mi", Q * Q, 1.0 / (b - k[:, None]))
    FA = f.value_many(a)
    gaps = f.value_many(b) - FA - (f.grad_many(a) * s * (1.0 - s * w)).sum(axis=1)
    return gaps, 1.0 + np.abs(FA)


# ---------------------------------------------------------------------------
# Boundary estimate
# ---------------------------------------------------------------------------

def _boundary_terms_many(f: SpeedFunction, lam: np.ndarray, B: np.ndarray):
    """(values, tolerance scales, closed-form sup parts) of stacked samples
    lam (m, n), B (m, n, n), from one assembly of their terms: the hess-form
    terms of the matrix lift, then the resolvent sum
    2 sum_{p, q >= 1} g_p B_pq^2 / (lam_q - lam_0).  The scale is 1 + the
    largest term magnitude.  A value is >= 0 for inverse-concave speeds, and
    near zero only when the first row of B is.  A sample whose lam[q] - lam[0]
    is below GAP_TOL relative is nudged apart (continuity in the spectrum)
    and its perturbed value reported."""
    m, n = lam.shape
    tol = GAP_TOL * (1.0 + np.abs(lam[:, 0]))
    bad = lam[:, 1:] - lam[:, :1] < tol[:, None]
    lam = np.where(bad.any(axis=1)[:, None], lam + np.arange(n) * 10.0 * tol[:, None], lam)

    g = f.grad_many(lam)
    T = hess_form_terms(lam, B, g, f.hess_many(lam))
    R = 2.0 * g[:, :, None] / (lam[:, None, 1:] - lam[:, :1, None]) * B[:, :, 1:] ** 2
    # a leading 0 column keeps n = 1 (no resolvent terms) well defined
    sup = sum_terms(np.concatenate([np.zeros((m, 1)), R.reshape(m, -1)], axis=1))
    scale = 1.0 + np.maximum(np.abs(T).max(axis=1), np.abs(sup))
    return sum_terms(T) + sup, scale, sup


def _boundary_terms(s):
    """(value, tolerance scale, closed-form sup part) of one sample with
    fields f, lam and B.  No program path calls it: it stays only as the
    hook that perfbench/tracing.py wraps, until ROADMAP 4(c)."""
    return tuple(float(x[0]) for x in _boundary_terms_many(s.f, s.lam[None], s.B[None]))


def _boundary_draws(n: int, seed: int, trials):
    """Stacked (lam, B) of the boundary trials with indices trials: ascending
    log-uniform eigenvalues in [1e-2, 1e2] from a trial's first n uniforms,
    and from the next _normal_width(n) a symmetrised standard normal B with
    B[0,0] = 0: a valid sample by construction, as floating-point addition
    commutes and so makes 0.5 (G + G^T) exactly symmetric."""
    U = trial_uniforms(seed, trials, n + _normal_width(n))
    G = _matrices(_normals(U[:, n:], n * n), n)
    B = np.ascontiguousarray(0.5 * (G + G.transpose(0, 2, 1)))
    B[:, 0, 0] = 0.0
    lam = np.sort(np.ascontiguousarray(10.0 ** (-2.0 + 4.0 * U[:, :n])), axis=1)
    return lam, B


# ---------------------------------------------------------------------------
# Trial batches (the CLI `oracle` command is a thin wrapper over these)
# ---------------------------------------------------------------------------

def _suite(proposition: str, f: SpeedFunction, trials: int, seed: int,
           draws, evaluate, witness) -> dict:
    """The report of one suite: draws(n, seed, trials) stacks one sample per
    trial, evaluate(f, *stack) gives their values and tolerance scales as its
    first two results, and witness(*sample) records the worst trial's
    sample, with its index as "trial", when its value is below -1e-7 times
    its scale.  A trial whose value or scale is not finite raises ValueError."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    stack = draws(f.n, seed, np.arange(trials))
    values, scales = evaluate(f, *stack)[:2]
    refuse_non_finite(f, seed, "value or scale", values, scales)
    scaled = values / (1e-7 * scales)
    worst = int(np.argmin(scaled))
    report = {
        "proposition": proposition,
        "speed": f.name,
        "n": f.n,
        "trials": trials,
        "min_value": float(values[worst]),
        "min_scaled": float(scaled[worst]),
        "tol": float(1e-7 * scales[worst]),
        "runtime_ms": round(1000.0 * (time.perf_counter() - t0), 3),
    }
    if scaled[worst] < -1.0:
        report["witness"] = dict(witness(*(x[worst] for x in stack)), trial=worst)
    return report


def interior_suite(f: SpeedFunction, trials: int, seed: int = 0) -> dict:
    return _suite("2.2", f, trials, seed, _interior_draws, interior_gaps_batched,
                  lambda a, Q, b, k: {"A": _interior_matrices(a, Q).tolist(),
                                      "B_diag": b.tolist(), "k": float(k)})


def boundary_suite(f: SpeedFunction, trials: int, seed: int = 0) -> dict:
    return _suite("2.5", f, trials, seed, _boundary_draws, _boundary_terms_many,
                  lambda lam, B: {"lam": lam.tolist(), "B": B.tolist()})
