"""Symmetric, degree-one homogeneous speed functions on the positive cone.

Every speed is normalised so that its value at (1, ..., 1) is exactly 1.
Each built-in exposes exact closed-form first and second derivatives; the
matrix lifts (eigenvalue functions of symmetric matrices) and the
sampling-based concavity / inverse-concavity certifier live here as module
functions.

Batch entry points ``value_many`` / ``grad_many`` / ``hess_many`` take an
(m, n) array of cone points: the flow engine calls the first two per grid
sweep, the oracles and the certifier the third on stacked samples.  The
scalar ``value`` / ``grad`` / ``hess`` are their one-row cases.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

import numpy as np

from .errors import DomainError, NotPositiveDefinite

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
    """Elementary symmetric polynomials e_0..e_n of each row of Z, shape (m, n+1)."""
    m, n = Z.shape
    E = np.zeros((m, n + 1))
    E[:, 0] = 1.0
    for j in range(n):
        E[:, 1:] = E[:, 1:] + Z[:, j : j + 1] * E[:, :-1]
    return E


def _elem_without(Z: np.ndarray, *skip: int) -> np.ndarray:
    cols = [j for j in range(Z.shape[1]) if j not in skip]
    return _elem_batch(Z[:, cols])


def _e_col(E: np.ndarray, k: int) -> np.ndarray:
    """Column e_k of an _elem_batch table; 0 outside 0 <= k <= its degree."""
    return E[:, k] if 0 <= k < E.shape[1] else np.zeros(E.shape[0])


def _without_one(Z: np.ndarray, k: int) -> np.ndarray:
    """(m, n): e_k of each row of Z with entry i left out, in column i."""
    return np.stack([_e_col(_elem_without(Z, i), k) for i in range(Z.shape[1])], axis=1)


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

    def grad(self, z) -> np.ndarray:
        return self.grad_many(np.atleast_1d(z)[None])[0]

    def hess(self, z) -> np.ndarray:
        return self.hess_many(np.atleast_1d(z)[None])[0]

    def trace_grad(self, z) -> float:
        """Sum of the gradient entries, i.e. tr of the matrix derivative."""
        return float(self.grad(z).sum())

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
        ui, vi = _without_one(Z, k - 1), _without_one(Z, k - 2)
        return self.c * (ui * v - u * vi) / v**2

    def _h(self, Z):
        # with u = e_k, v = e_{k-1}, and subscripts for entries left out:
        # H_ij = c [(u_ij v + u_i v_j - u_j v_i - u v_ij)/v^2
        #           - 2 v_j (u_i v - u v_i)/v^3], u_ii = v_ii = 0
        k, c = self.k, self.c
        E = _elem_batch(Z)
        u, v = E[:, k, None, None], E[:, k - 1, None, None]
        ui, vi = _without_one(Z, k - 1), _without_one(Z, k - 2)
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
        return (self.c / k) * u[:, None] ** (1.0 / k - 1.0) * _without_one(Z, k - 1)

    def _h(self, Z):
        k, c = self.k, self.c
        u = _elem_batch(Z)[:, k, None, None]
        ui = _without_one(Z, k - 1)
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

    def dual(self) -> SpeedFunction:
        return self.base


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

def matrix_eval(f: SpeedFunction, A) -> tuple[float, np.ndarray]:
    """F(A) = f(eigenvalues of A) and its matrix derivative U diag(grad) U^T."""
    A = np.asarray(A, dtype=float)
    if A.shape != (f.n, f.n) or not np.allclose(A, A.T, atol=1e-10 * (1 + np.abs(A).max())):
        raise ValueError("A must be a symmetric n x n matrix")
    lam, U = np.linalg.eigh(A)
    if lam[0] <= 0.0:
        raise NotPositiveDefinite(f"min eigenvalue {lam[0]:.3e} <= 0")
    value = f.value(lam)
    grad = (U * f.grad(lam)) @ U.T
    return value, grad


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


def matrix_hess_form(f: SpeedFunction, lam, B) -> float:
    """Second-derivative quadratic form of the matrix lift at eigenvalues lam
    (B expressed in the eigenbasis of A); see hess_form_terms."""
    lam = _cone_batch(np.atleast_1d(lam)[None], f.n)
    B = np.asarray(B, dtype=float)[None, :, :]
    return float(sum_terms(hess_form_terms(lam, B, f._g(lam), f._h(lam)))[0])


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


_WORD = 1 << 32
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n: int) -> list:
    """The little-endian 32-bit words numpy's SeedSequence makes of an int."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n % _WORD]
    while n >= _WORD:
        n //= _WORD
        words.append(n % _WORD)
    return words


def _hash_constants(init: int, mult: int):
    """(xor, multiplier) of successive hashmix calls: the hash constant
    evolves the same way whatever the data, so it stays a Python int."""
    c = init
    while True:
        nxt = c * mult % _WORD
        yield np.uint32(c), np.uint32(nxt)
        c = nxt


def _hashmix(x: np.ndarray, consts) -> np.ndarray:
    a, b = next(consts)
    x = (x ^ a) * b
    return x ^ (x >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def _seed_states(seed_words: list, trials: np.ndarray) -> np.ndarray:
    """SeedSequence(seed_words + [t]).generate_state(4, np.uint64) for every
    uint32 t in trials, shape (m, 4): numpy's mix_entropy and generate_state
    with each pool word a whole column, in wrapping uint32 arithmetic."""
    entropy = [np.full(trials.shape, w, np.uint32) for w in seed_words] + [trials]
    a = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros_like(trials)
    pool = [_hashmix(entropy[i] if i < len(entropy) else zero, a) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], a))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, a))
    b = _hash_constants(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(pool[i % 4], b) for i in range(8)], axis=1)
    # two little-endian words make each uint64, as in generate_state
    return state.astype("<u4").view("<u8").astype(np.uint64)


def trial_rngs(seed: int, trials) -> Iterator[np.random.Generator]:
    """One Generator per index t of trials (a range or list), each exactly
    numpy's default_rng((seed, t)): any trial replays from its index alone.

    The SeedSequence hash runs once, on the whole array of indices, and each
    PCG64 is seeded from its row through a stand-in seed sequence: such a
    Generator takes 2-3 us to build, default_rng about 20 us.  An
    index outside [0, 2**32) hashes more than one word and goes to
    default_rng itself.  numpy.random loads here, not on import: flows draw
    no random numbers, and loading it costs some 15 ms.  A negative seed
    raises ValueError at the call."""
    from numpy.random import PCG64, Generator, default_rng
    from numpy.random.bit_generator import ISeedSequence

    class Row(ISeedSequence):
        """The precomputed generate_state(4, np.uint64) of one trial."""

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    seed_words = _uint32_words(seed)
    exact = np.fromiter((t for t in trials if 0 <= t < _WORD), dtype=np.uint32)
    states = iter(_seed_states(seed_words, exact))
    return (Generator(PCG64(Row(next(states)))) if 0 <= t < _WORD
            else default_rng((seed, t)) for t in trials)


def sample_cone_point(rng: np.random.Generator, n: int) -> np.ndarray:
    """Log-uniform over [1e-3, 1e3]^n, with occasional near-degenerate rays."""
    z = 10.0 ** rng.uniform(-3.0, 3.0, n)
    if n >= 2 and rng.uniform() < 0.25:
        i, j = rng.choice(n, size=2, replace=False)
        z[j] = z[i] * (1.0 + rng.uniform(-1.0, 1.0) * 1e-6)
    return z


def _psd_tol(M: np.ndarray) -> np.ndarray:
    return 1e-8 * (1.0 + np.abs(M).max(axis=(1, 2)))


PROPERTIES = ("concave", "inverse-concave", "monotone", "homogeneous")


def certify(f: SpeedFunction, property, trials: int = 2000, seed: int = 0):
    """Sample-based certification of concavity / inverse-concavity (and the
    monotonicity / homogeneity sanity properties).

    property is one name, which returns one CertReport, or a sequence of
    names, which returns one report per name, all checked on one draw of
    the points: each report equals that of its name alone.

    Inverse-concavity checks both the shifted-Hessian criterion
    hess + 2 diag(grad/z) >= 0 and concavity of the dual at dual points;
    either failing refutes with a witness.  Points are drawn per (seed,
    trial) and checked as one stack; the witness is the last sample that
    lowers the running minimum margin below its own -tol.
    """
    names = [property] if isinstance(property, str) else list(property)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for name in names:
        if name not in PROPERTIES:
            raise ValueError(f"unknown property {name!r}")

    Z = np.empty((trials, f.n))
    s = np.empty(trials)
    scales = "homogeneous" in names
    for t, rng in enumerate(trial_rngs(seed, range(trials))):
        Z[t] = sample_cone_point(rng, f.n)
        if scales:
            s[t] = 10.0 ** rng.uniform(-2.0, 2.0)

    reports = [_certify_on(f, name, Z, s) for name in names]
    return reports[0] if isinstance(property, str) else reports


def _certify_on(f: SpeedFunction, property: str, Z: np.ndarray, s: np.ndarray) -> CertReport:
    """certify's report of one property on the drawn points Z (and, for
    homogeneity, the drawn scales s)."""
    if property == "concave":
        H = f.hess_many(Z)
        margin = -np.linalg.eigvalsh(H)[:, -1]
        tol = _psd_tol(H)
    elif property == "inverse-concave":
        M = f.hess_many(Z)
        diag = np.arange(f.n)
        M[:, diag, diag] += 2.0 * (f.grad_many(Z) / Z)
        Hd = f.dual().hess_many(1.0 / Z)
        margin = np.minimum(np.linalg.eigvalsh(M)[:, 0], -np.linalg.eigvalsh(Hd)[:, -1])
        tol = np.maximum(_psd_tol(M), _psd_tol(Hd))
    elif property == "monotone":
        margin = f.grad_many(Z).min(axis=1)
        tol = 0.0
    else:  # homogeneous
        fz = f.value_many(Z)
        margin = -np.abs(f.value_many(s[:, None] * Z) - s * fz) / (s * fz)
        tol = 1e-9

    # running[t] is the minimum margin before sample t (NaN margins skipped)
    running = np.fmin.accumulate(np.concatenate(([np.inf], margin)))
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
