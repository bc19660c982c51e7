"""Symmetric, degree-one homogeneous speed functions on the positive cone.

Every speed is normalised so that its value at (1, ..., 1) is exactly 1.
Each built-in exposes exact closed-form first and second derivatives; the
second-derivative terms of the matrix lifts (eigenvalue functions of
symmetric matrices) and the sampling-based concavity / inverse-concavity
certifier live here as module functions.

Batch entry points ``value_many`` / ``grad_many`` / ``hess_many`` take an
(m, n) array of cone points: the flow engine calls the first two per grid
sweep, the oracles and the certifier the third on stacked samples.  The
scalar ``value`` is the one-row case of the first.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np


class DomainError(ValueError):
    """Argument outside the open positive cone (some entry <= 0)."""


# Relative eigenvalue gap below which divided differences switch to their
# analytic limit (correct continuous extension for symmetric functions).
GAP_TOL = 1e-7


def _cone_batch(Z, n: int) -> np.ndarray:
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != n:
        raise DomainError(f"expected shape (m, {n}), got {Z.shape}")
    if np.any(Z <= 0.0) or not np.all(np.isfinite(Z)):
        raise DomainError("batch contains points outside the positive cone")
    return Z


def _elem_batch(Z: np.ndarray) -> np.ndarray:
    """Elementary symmetric polynomials e_0..e_n of each row of Z, shape (m, n+1).

    The table is built with the m rows last, so every step of the
    recurrence is a contiguous vector operation, and returned transposed."""
    m, n = Z.shape
    Zt = Z.T
    E = np.zeros((n + 1, m))
    E[0] = 1.0
    for j in range(n):
        E[1:] = E[1:] + Zt[j] * E[:-1]
    return E.T


def _elem_without(Z: np.ndarray, *skip: int) -> np.ndarray:
    cols = [j for j in range(Z.shape[1]) if j not in skip]
    return _elem_batch(Z[:, cols])


def _e_col(E: np.ndarray, k: int) -> np.ndarray:
    """Column e_k of an _elem_batch table; 0 outside 0 <= k <= its degree."""
    return E[:, k] if 0 <= k < E.shape[1] else np.zeros(E.shape[0])


def _without_one(Z: np.ndarray, *ks: int) -> list:
    """For each k of ks, the (m, n) array of e_k of each row of Z with entry i
    left out, in column i (0 unless 0 <= k < n).

    With P[r, i] = e_r(z_1..z_{i-1}) and S[r, i] = e_r(z_{i+1}..z_n), built
    once by the recurrence from each end (the m rows last, so every step is
    a contiguous vector operation), e_k without z_i is
    sum_r P[r, i] S[k - r, i]: a sum of nonnegative terms on the cone, where
    e_k - z_i e_{k-1} (the recurrence run backwards) would cancel."""
    m, n = Z.shape
    Zt = Z.T
    P = np.empty((n, n, m))
    S = np.empty((n, n, m))
    P[:, 0] = S[:, -1] = 0.0
    P[0] = S[0] = 1.0
    for i in range(1, n):
        P[1:, i] = P[1:, i - 1] + Zt[i - 1] * P[:-1, i - 1]
        S[1:, -1 - i] = S[1:, -i] + Zt[-i] * S[:-1, -i]
    out = []
    for k in ks:
        e = np.zeros((n, m))
        if 0 <= k < n:
            for r in range(k + 1):
                e += P[r] * S[k - r]
        out.append(np.ascontiguousarray(e.T))
    return out


def _without_two(Z: np.ndarray, k: int) -> np.ndarray:
    """(m, n, n): e_k of each row of Z with entries i != j left out; 0 for i = j."""
    m, n = Z.shape
    out = np.zeros((m, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[:, i, j] = out[:, j, i] = _e_col(_elem_without(Z, i, j), k)
    return out


class SpeedFunction:
    """Base class: a normalised symmetric degree-one homogeneous speed."""

    name: str
    n: int

    def _check_normalisation(self) -> None:
        v = self.value(np.ones(self.n))
        if not abs(v - 1.0) <= 1e-12:  # NaN fails too
            raise AssertionError(f"{self.name}: value at ones is {v!r}, not 1")

    # -- batch interface --------------------------------------------------------
    # _v/_g/_h assume a validated (m, n) positive array; the *_many entry
    # points validate first.  Hot loops that have already established positivity
    # (the flow engine) may call _v/_g directly.
    def _v(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _g(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _h(self, Z: np.ndarray) -> np.ndarray:
        """(m, n, n) Hessians of the rows of Z."""
        raise NotImplementedError

    def value_many(self, Z) -> np.ndarray:
        return self._v(_cone_batch(Z, self.n))

    def grad_many(self, Z) -> np.ndarray:
        return self._g(_cone_batch(Z, self.n))

    def hess_many(self, Z) -> np.ndarray:
        return self._h(_cone_batch(Z, self.n))

    # -- scalar interface -----------------------------------------------------
    def value(self, z) -> float:
        return float(self.value_many(np.atleast_1d(z)[None])[0])

    def dual(self) -> "SpeedFunction":
        return DualSpeed(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name} n={self.n}>"


class ArithmeticMean(SpeedFunction):
    def __init__(self, n: int):
        self.n = int(n)
        self.name = "mean"
        self._check_normalisation()

    def _v(self, Z):
        return Z.sum(axis=1) / self.n  # as Z.mean(axis=1), without its Python wrapper

    def _g(self, Z):
        return np.full_like(Z, 1.0 / self.n)

    def _h(self, Z):
        return np.zeros((Z.shape[0], self.n, self.n))


class PowerMean(SpeedFunction):
    """((1/n) sum z_i^p)^(1/p); the geometric mean for p = 0."""

    def __init__(self, n: int, p: float):
        if not np.isfinite(p):
            raise ValueError(f"power mean needs a finite p, got {p!r}")
        self.n = int(n)
        self.p = float(p)
        self.name = f"power:{p:g}"
        self._check_normalisation()

    def _v(self, Z):
        if self.p == -1.0:
            return self.n / (1.0 / Z).sum(axis=1)
        if self.p == 0.0:
            return np.exp(np.log(Z).mean(axis=1))
        return (np.power(Z, self.p).mean(axis=1)) ** (1.0 / self.p)

    def _g(self, Z):
        f = self._v(Z)
        if self.p == -1.0:
            return (f[:, None] / Z) ** 2 / self.n
        if self.p == 0.0:
            return f[:, None] / (self.n * Z)
        return (np.power(Z, self.p - 1.0) / self.n) * np.power(f, 1.0 - self.p)[:, None]

    def _h(self, Z):
        f = self._v(Z)[:, None]
        p, n = self.p, self.n
        diag = np.arange(n)
        if p == 0.0:
            H = f[:, :, None] / (n * n * (Z[:, :, None] * Z[:, None, :]))
            H[:, diag, diag] -= f / (n * Z**2)
            return H
        gpow = np.power(Z, p - 1.0)
        H = -(gpow[:, :, None] * gpow[:, None, :]) * (f ** (1.0 - 2.0 * p))[:, :, None] / (n * n)
        H[:, diag, diag] += np.power(Z, p - 2.0) * (f ** (1.0 - p)) / n
        return (p - 1.0) * H


class HarmonicMean(PowerMean):
    def __init__(self, n: int):
        super().__init__(n, -1.0)
        self.name = "harmonic"


class SigmaRatio(SpeedFunction):
    """Normalised ratio sigma_k / sigma_{k-1} of elementary symmetric polynomials."""

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ValueError(f"sigma-ratio needs 1 <= k <= n, got k={k}, n={n}")
        self.n = int(n)
        self.k = int(k)
        self.c = comb(n, k - 1) / comb(n, k)
        self.name = f"sigma-ratio:{k}"
        self._check_normalisation()

    def _v(self, Z):
        if self.n == 2 and self.k == 2:
            return self.c * (Z[:, 0] * Z[:, 1]) / (Z[:, 0] + Z[:, 1])
        E = _elem_batch(Z)
        return self.c * E[:, self.k] / E[:, self.k - 1]

    def _g(self, Z):
        if self.n == 2 and self.k == 2:
            return self.c * (Z[:, ::-1] / (Z[:, 0] + Z[:, 1])[:, None]) ** 2
        k = self.k
        E = _elem_batch(Z)
        u, v = E[:, k, None], E[:, k - 1, None]
        ui, vi = _without_one(Z, k - 1, k - 2)
        return self.c * (ui * v - u * vi) / v**2

    def _h(self, Z):
        # with u = e_k, v = e_{k-1}, and subscripts for entries left out:
        # H_ij = c [(u_ij v + u_i v_j - u_j v_i - u v_ij)/v^2
        #           - 2 v_j (u_i v - u v_i)/v^3], u_ii = v_ii = 0
        k, c = self.k, self.c
        E = _elem_batch(Z)
        u, v = E[:, k, None, None], E[:, k - 1, None, None]
        ui, vi = _without_one(Z, k - 1, k - 2)
        uij, vij = _without_two(Z, k - 2), _without_two(Z, k - 3)
        return c * (
            (uij * v + ui[:, :, None] * vi[:, None, :] - ui[:, None, :] * vi[:, :, None]
             - u * vij) / v**2
            - 2.0 * vi[:, None, :] * (ui[:, :, None] * v - u * vi[:, :, None]) / v**3
        )


class SigmaRoot(SpeedFunction):
    """Normalised k-th root sigma_k^(1/k)."""

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ValueError(f"sigma-root needs 1 <= k <= n, got k={k}, n={n}")
        self.n = int(n)
        self.k = int(k)
        self.c = comb(n, k) ** (-1.0 / k)
        self.name = f"sigma-root:{k}"
        self._check_normalisation()

    def _v(self, Z):
        return self.c * _elem_batch(Z)[:, self.k] ** (1.0 / self.k)

    def _g(self, Z):
        k = self.k
        u = _elem_batch(Z)[:, k]
        return (self.c / k) * u[:, None] ** (1.0 / k - 1.0) * _without_one(Z, k - 1)[0]

    def _h(self, Z):
        k, c = self.k, self.c
        u = _elem_batch(Z)[:, k, None, None]
        ui = _without_one(Z, k - 1)[0]
        return (c / k) * (
            (1.0 / k - 1.0) * u ** (1.0 / k - 2.0) * ui[:, :, None] * ui[:, None, :]
            + u ** (1.0 / k - 1.0) * _without_two(Z, k - 2)
        )


class DualSpeed(SpeedFunction):
    """The dual f*(y) := 1 / f(1/y_1, ..., 1/y_n); derivatives by chain rule."""

    def __init__(self, base: SpeedFunction):
        self.base = base
        self.n = base.n
        self.name = f"dual({base.name})"
        self._check_normalisation()

    def _v(self, Y):
        return 1.0 / self.base._v(1.0 / Y)

    def _g(self, Y):
        Z = 1.0 / Y
        f = self.base._v(Z)
        g = self.base._g(Z)
        return g * Z**2 / f[:, None] ** 2

    def _h(self, Y):
        Z = 1.0 / Y
        f = self.base._v(Z)[:, None]
        g = self.base._g(Z)
        H = self.base._h(Z)
        gz2 = g * Z**2
        z2 = Z**2
        F = f[:, :, None]
        out = (2.0 * (gz2[:, :, None] * gz2[:, None, :]) / F**3
               - H * (z2[:, :, None] * z2[:, None, :]) / F**2)
        diag = np.arange(self.n)
        out[:, diag, diag] -= 2.0 * g * Z**3 / f**2
        return out


def parse_speed(spec: str, n: int) -> SpeedFunction:
    """Build a speed from its config/CLI name ("mean", "power:<p>", ...)."""
    spec = spec.strip()
    if spec == "mean":
        return ArithmeticMean(n)
    if spec == "harmonic":
        return HarmonicMean(n)
    if spec.startswith("power:"):
        return PowerMean(n, float(spec.split(":", 1)[1]))
    if spec.startswith("sigma-ratio:"):
        return SigmaRatio(n, int(spec.split(":", 1)[1]))
    if spec.startswith("sigma-root:"):
        return SigmaRoot(n, int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown speed spec {spec!r}")


# ---------------------------------------------------------------------------
# Matrix lifts
# ---------------------------------------------------------------------------

def hess_form_terms(lam: np.ndarray, B: np.ndarray, g: np.ndarray,
                    H: np.ndarray) -> np.ndarray:
    """Terms of the second-derivative quadratic forms of a matrix lift, one
    row per sample: lam (m, n) eigenvalues, B (m, n, n) in the eigenbasis,
    g (m, n) and H (m, n, n) the speed's gradient and Hessian at lam.

    Column 0 is d^T H d for the diagonal d of B; then coef_pq B_pq^2 for
    p != q in row order (0 where B_pq = 0).  The divided difference
    coef_pq = (g_p - g_q)/(lam_p - lam_q) switches to its analytic limit
    H_pp - H_pq when the gap is below GAP_TOL relative."""
    n = lam.shape[1]
    d = np.diagonal(B, axis1=1, axis2=2)
    gap = lam[:, :, None] - lam[:, None, :]
    near = np.abs(gap) < GAP_TOL * (1.0 + np.abs(lam))[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(near, np.diagonal(H, axis1=1, axis2=2)[:, :, None] - H,
                        (g[:, :, None] - g[:, None, :]) / gap)
    off = ~np.eye(n, dtype=bool)
    return np.concatenate([np.einsum("mi,mij,mj->m", d, H, d)[:, None],
                           (coef * B**2)[:, off]], axis=1)


def sum_terms(T: np.ndarray) -> np.ndarray:
    """Row sums of a term table, added left to right (the order the scalar
    form used, so a sum of sums is reproducible to the bit)."""
    total = T[:, 0].copy()
    for j in range(1, T.shape[1]):
        total += T[:, j]
    return total


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass
class CertReport:
    """Outcome of a sampling-based property check."""

    property: str
    samples_tested: int
    min_eigen_seen: float
    verdict: str  # "certified-on-samples" | "refuted"
    witness: Optional[list] = None
    witness_eigenvalue: Optional[float] = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified-on-samples"


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the state advances by
# _GAMMA and each output is _mix64 of the new state, so position p of the
# stream started at state s is _mix64(s + (p + 1) _GAMMA), reachable
# without the p outputs before it.
_GAMMA = 0x9E3779B97F4A7C15
_MIX_1, _MIX_2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_WORD = 1 << 64


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, in place on a uint64 array (the
    products wrap modulo 2**64)."""
    z ^= z >> 30
    z *= _MIX_1
    z ^= z >> 27
    z *= _MIX_2
    z ^= z >> 31
    return z


def _seed_state(seed: int) -> np.ndarray:
    """The starting state of seed's stream, shape (1,): _mix64 absorbs the
    number of 64-bit words of seed, then each little-endian word, so every
    non-negative integer is a valid seed and one word maps one to one."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [seed % _WORD]
    while seed >= _WORD:
        seed //= _WORD
        words.append(seed % _WORD)
    h = np.zeros(1, np.uint64)
    for w in (len(words), *words):
        h ^= np.uint64(w)
        _mix64(h)
    return h


def trial_uniforms(seed: int, trials, k: int) -> np.ndarray:
    """(m, k) uniforms in [0, 1) for the m trial indices in trials (an
    integer array or range): row i holds positions t k, ..., t k + k - 1 of
    seed's SplitMix64 stream, t = trials[i], each the top 53 bits of its
    output times 2**-53.  A trial's row does not depend on which other
    trials are drawn with it, so any trial replays from (seed, t) alone.
    The array is laid out trials-last (the transpose of a C-contiguous
    (k, m) array), so each column, one position across all trials, is one
    contiguous vector.  Pure NumPy: numpy.random is never imported.  A
    negative seed raises ValueError."""
    z = np.asarray(trials).astype(np.uint64) * np.uint64(k) \
        + np.arange(1, k + 1, dtype=np.uint64)[:, None]
    z *= _GAMMA
    z += _seed_state(seed)
    _mix64(z)
    z >>= 11
    u = z.astype(float)
    u *= 2.0 ** -53
    return u.T


def _cone_points(n: int, seed: int, trials):
    """certify's points Z (m, n) and scales s (m,) for the trial indices in
    trials, from n + 5 uniforms a trial: z log-uniform over [1e-3, 1e3]^n
    (columns 0..n-1); then, for n >= 2 and with probability 1/4 (column n),
    a near-degenerate ray z_j = z_i (1 + 1e-6 v) with i != j drawn from
    columns n + 1 and n + 2 and v uniform in [-1, 1) from column n + 3;
    s log-uniform over [1e-2, 1e2] (column n + 4)."""
    U = trial_uniforms(seed, trials, n + 5)
    Z = np.ascontiguousarray(10.0 ** (-3.0 + 6.0 * U[:, :n]))
    if n >= 2:
        near = np.flatnonzero(U[:, n] < 0.25)
        i = (n * U[near, n + 1]).astype(int)
        j = (i + 1 + ((n - 1) * U[near, n + 2]).astype(int)) % n
        Z[near, j] = Z[near, i] * (1.0 + (-1.0 + 2.0 * U[near, n + 3]) * 1e-6)
    return Z, 10.0 ** (-2.0 + 4.0 * U[:, n + 4])


def _psd_tol(M: np.ndarray) -> np.ndarray:
    return 1e-8 * (1.0 + np.abs(M).max(axis=(1, 2)))


PROPERTIES = ("concave", "inverse-concave", "monotone", "homogeneous")


def refuse_non_finite(f: SpeedFunction, seed: int, what: str, *stacks: np.ndarray) -> None:
    """Raise ValueError naming the first trial (row) where a stack is not finite."""
    rows = np.hstack([x.reshape(len(x), -1) for x in stacks])
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"{f.name} at n = {f.n} gives a non-finite {what} "
                         f"at trial {bad[0]} of seed {seed}")


def certify(f: SpeedFunction, properties, trials: int = 2000, seed: int = 0) -> list:
    """Sample-based certification of concavity / inverse-concavity (and the
    monotonicity / homogeneity sanity properties): one CertReport per name
    in properties, all checked on one draw of the points, each equal to the
    report of its name alone.

    Inverse-concavity checks both the shifted-Hessian criterion
    hess + 2 diag(grad/z) >= 0 and concavity of the dual at dual points;
    either failing refutes with a witness.  Points are drawn per (seed,
    trial) by _cone_points and checked as one stack; the witness is the
    last sample that lowers the running minimum margin below its own -tol.
    A trial whose Hessians or margin are not finite raises ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for name in properties:
        if name not in PROPERTIES:
            raise ValueError(f"unknown property {name!r}")

    Z, s = _cone_points(f.n, seed, np.arange(trials))
    return [_certify_on(f, name, Z, s, seed) for name in properties]


def _certify_on(f: SpeedFunction, property: str, Z: np.ndarray, s: np.ndarray,
                seed: int) -> CertReport:
    """certify's report of one property on the drawn points Z (and, for
    homogeneity, the drawn scales s) of seed."""
    if property == "concave":
        H = f.hess_many(Z)
        refuse_non_finite(f, seed, "Hessian", H)
        margin = -np.linalg.eigvalsh(H)[:, -1]
        tol = _psd_tol(H)
    elif property == "inverse-concave":
        M = f.hess_many(Z)
        diag = np.arange(f.n)
        M[:, diag, diag] += 2.0 * (f.grad_many(Z) / Z)
        Hd = f.dual().hess_many(1.0 / Z)
        refuse_non_finite(f, seed, "shifted or dual Hessian", M, Hd)
        margin = np.minimum(np.linalg.eigvalsh(M)[:, 0], -np.linalg.eigvalsh(Hd)[:, -1])
        tol = np.maximum(_psd_tol(M), _psd_tol(Hd))
    elif property == "monotone":
        margin = f.grad_many(Z).min(axis=1)
        tol = 0.0
    else:  # homogeneous
        fz = f.value_many(Z)
        margin = -np.abs(f.value_many(s[:, None] * Z) - s * fz) / (s * fz)
        tol = 1e-9
    refuse_non_finite(f, seed, "margin", margin)

    # running[t] is the minimum margin before sample t
    running = np.minimum.accumulate(np.concatenate(([np.inf], margin)))
    hits = np.flatnonzero((margin < running[:-1]) & (margin < -tol))
    w = int(hits[-1]) if hits.size else None
    return CertReport(
        property=property,
        samples_tested=Z.shape[0],
        min_eigen_seen=float(running[-1]),
        verdict="certified-on-samples" if w is None else "refuted",
        witness=None if w is None else Z[w].tolist(),
        witness_eigenvalue=None if w is None else float(margin[w]),
    )
