"""Fixed reference loops that measure how fast the host runs right now.

Every invocation's process runs a loop after its work, for a fixed share of
the work time, and the benchmark reports a round's work time in units of the
loop's mean pass time over the round.  The loops do no `noncollapse` work
and their inputs are fixed, so a change to the program moves the ratio by
exactly its effect on the work time, while a slower or faster host moves
both sides alike.

A host slows different kinds of work by different amounts (allocation and
memory traffic more than arithmetic on small arrays), so each workload gets
the loop whose mix follows its own:

- "spectral": real FFTs at the spectral length 2(N-1) = 510 and elementwise
  work on N = 256 vectors, as in RK4 stepping and the radii kernel;
- "field": per-point sweeps over N x N x 3 point clouds with fresh
  temporaries, at N = 256 and at the refinement grid 2N - 1 = 511, as in
  the axisymmetric ball-curvature field;
- "scalar": per-trial Python loops over 3 x 3 matrices (QR, eigh, products),
  as in the oracle suites and certify.
"""
from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20131003)
_SIGNAL = _RNG.standard_normal(256)
_MULT = np.exp(-np.arange(256) / 64.0)
_THETA = np.linspace(0.0, np.pi, 256)
_PTS = _RNG.standard_normal((16, 3))
_NUS = _PTS / np.linalg.norm(_PTS, axis=1)[:, None]
_CLOUDS = (_RNG.standard_normal((256, 256, 3)), _RNG.standard_normal((511, 511, 3)))
_SQUARES = _RNG.standard_normal((64, 3, 3))
MIN_PASSES = 3


def _spectral() -> float:
    acc = 0.0
    h = _SIGNAL
    for k in range(60):
        for _ in range(4):
            H = np.fft.rfft(np.concatenate([h, h[-2:0:-1]]))
            h1 = np.fft.irfft(_MULT * H, 510)[:256]
            h2 = np.fft.irfft(_THETA * H, 510)[:256]
            r = np.stack([h2 + h, np.cos(_THETA) * h1 + h], axis=1)
            acc += float(r[k, 0])
        c, s = np.cos(_THETA), np.sin(_THETA)
        acc += float(np.minimum(c * c + 0.5 * s, 1.0).max())
    return acc


def _field() -> float:
    acc = 0.0
    for x in range(10):
        D = _PTS[x][None, None, :] - _CLOUDS[x < 2]     # 2 sweeps at 511, 8 at 256
        d2 = np.einsum("ijk,ijk->ij", D, D)
        num = 2.0 * (D @ _NUS[x])
        with np.errstate(divide="ignore", invalid="ignore"):
            kmat = np.where(d2 > 0.01, num / d2, np.nan)
        acc += float(kmat.flat[int(np.nanargmin(kmat))] + kmat.flat[int(np.nanargmax(kmat))])
    return acc


def _scalar() -> float:
    acc = 0.0
    for m in _SQUARES:
        Q, R = np.linalg.qr(m)
        Q = Q * np.sign(np.diag(R))
        A = (Q * np.array([1.0, 2.0, 3.0])) @ Q.T
        lam, U = np.linalg.eigh(0.5 * (A + A.T))
        acc += float(np.einsum("ik,k,jk->ij", U, lam, U)[0, 0])
        s = 0.0
        for j in range(60):
            s += (j * 0.5 + lam[j % 3]) ** 0.5
        acc += s * 1e-6
    return acc


KERNELS = {"spectral": _spectral, "field": _field, "scalar": _scalar}


def measure(kind: str, seconds: float) -> tuple:
    """Run whole passes of a loop for about `seconds` (at least MIN_PASSES).

    Returns (seconds, passes).  The host's speed drifts over seconds, so the
    window is long and its mean, not a median of a few passes, is what a
    long invocation also averages.
    """
    one_pass = KERNELS[kind]
    one_pass()      # untimed: first-call costs (FFT plans, LAPACK set-up) are not speed
    passes = 0
    t0 = time.perf_counter()
    while True:
        one_pass()
        passes += 1
        elapsed = time.perf_counter() - t0
        if passes >= MIN_PASSES and elapsed >= seconds:
            return elapsed, passes
