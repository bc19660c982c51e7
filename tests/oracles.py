"""Independent oracles for the test suite: finite differences, brute-force
parametric geometry, and reference implementations kept separate from the
library code paths they check."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from noncollapse.geometry import (AXISYMMETRIC, CURVE, SEP_FACTOR, ConvexBody, _points,
                                  _workspace, check_convex, curve_derivs)
from noncollapse.oracle import _normal_width
from noncollapse.speeds import (SpeedFunction, _cone_batch, _mix64, _seed_state,
                                hess_form_terms, sum_terms)


# ---------------------------------------------------------------------------
# Finite differences for speed functions
# ---------------------------------------------------------------------------

def fd_gradient(fun, z, rel=1e-5):
    z = np.asarray(z, dtype=float)
    g = np.empty_like(z)
    for i in range(z.size):
        h = rel * z[i]
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (fun(zp) - fun(zm)) / (2.0 * h)
    return g


def fd_hessian(fun, z, rel=1e-4):
    z = np.asarray(z, dtype=float)
    n = z.size
    H = np.empty((n, n))
    hs = rel * z
    for i in range(n):
        for j in range(i, n):
            if i == j:
                zp, zm = z.copy(), z.copy()
                zp[i] += hs[i]
                zm[i] -= hs[i]
                H[i, i] = (fun(zp) - 2.0 * fun(z) + fun(zm)) / hs[i] ** 2
            else:
                zpp, zpm, zmp, zmm = z.copy(), z.copy(), z.copy(), z.copy()
                zpp[i] += hs[i]; zpp[j] += hs[j]
                zpm[i] += hs[i]; zpm[j] -= hs[j]
                zmp[i] -= hs[i]; zmp[j] += hs[j]
                zmm[i] -= hs[i]; zmm[j] -= hs[j]
                H[i, j] = H[j, i] = (fun(zpp) - fun(zpm) - fun(zmp) + fun(zmm)) / (
                    4.0 * hs[i] * hs[j])
    return H


def fd_second_along(fun_of_matrix, A, B, rel=1e-4):
    """Second derivative of t -> fun(A + tB) at 0 by central differences."""
    s = rel * (1.0 + np.abs(np.diag(A)).max()) / (1.0 + np.abs(B).max())
    return (fun_of_matrix(A + s * B) - 2.0 * fun_of_matrix(A)
            + fun_of_matrix(A - s * B)) / s**2


# ---------------------------------------------------------------------------
# The interior estimate on a formed matrix: the matrix lift by eigh and the
# gap from its definition, which oracle.interior_gaps_batched is checked
# against
# ---------------------------------------------------------------------------

def matrix_eval(f: SpeedFunction, A) -> tuple[float, np.ndarray]:
    """F(A) = f(eigenvalues of A) and its matrix derivative U diag(grad) U^T."""
    A = np.asarray(A, dtype=float)
    if A.shape != (f.n, f.n) or not np.allclose(A, A.T, atol=1e-10 * (1 + np.abs(A).max())):
        raise ValueError("A must be a symmetric n x n matrix")
    lam, U = np.linalg.eigh(A)
    if lam[0] <= 0.0:
        raise ValueError(f"min eigenvalue {lam[0]:.3e} <= 0")
    value = f.value(lam)
    grad = (U * f.grad_many([lam])[0]) @ U.T
    return value, grad


_SHIFT_FLOOR = 1e-12


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
        raise ValueError(f"shift margin {min(la - k, lb - k):.3e} below {_SHIFT_FLOOR:g}")


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


# ---------------------------------------------------------------------------
# Reference comparison function for the interior estimate
# ---------------------------------------------------------------------------

def q_reference(f, a, b, k):
    """f(b) - f(a) - sum_i grad_i(a) [(a_i - k) - (a_i - k)^2 / (b_i - k)],
    assembled with fsum in a different order than the library."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ga = f.grad_many([a])[0]
    terms = [float(f.value(b)), -float(f.value(a))]
    for i in range(a.size):
        terms.append(-ga[i] * (a[i] - k))
        terms.append(ga[i] * (a[i] - k) ** 2 / (b[i] - k))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# The matrix inequalities from their definitions: the optimal mixing matrix,
# the bracketed quadratics, the q identity and the brute-force boundary
# maximiser, which the closed forms of noncollapse.oracle are checked against
# ---------------------------------------------------------------------------

def matrix_hess_form(f: SpeedFunction, lam, B) -> float:
    """Second-derivative quadratic form of the matrix lift at eigenvalues lam
    (B expressed in the eigenbasis of A); see hess_form_terms."""
    lam = _cone_batch(np.atleast_1d(lam)[None], f.n)
    B = np.asarray(B, dtype=float)[None, :, :]
    return float(sum_terms(hess_form_terms(lam, B, f._g(lam), f._h(lam)))[0])


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
        raise ValueError("k too close to min(a) or min(z)")
    ga = f.grad_many([a])[0]
    gz = f.grad_many([z])[0]
    Hz = f.hess_many([z])[0]
    sa = a - k
    sz = z - k
    q_dot = gz - ga * sa**2 / sz**2
    q_ddot = Hz + 2.0 * np.diag(ga * sa**2 / sz**3)
    lhs = q_ddot + 2.0 * np.diag(q_dot / sz)
    rhs = Hz + 2.0 * np.diag(gz / sz)
    return lhs, rhs


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
        _check_boundary(self.f.n, self.lam[None], self.B[None])


def _check_boundary(n: int, lam: np.ndarray, B: np.ndarray) -> None:
    """The BoundarySample conditions on stacked lam (m, n) and B (m, n, n)."""
    if lam.shape[1:] != (n,) or B.shape[1:] != (n, n) or len(lam) != len(B):
        raise ValueError("lam must be length n, B must be n x n")
    if np.any(lam <= 0.0):
        raise ValueError("lam must lie in the positive cone")
    if np.any(np.diff(lam, axis=1) < 0.0):
        raise ValueError("lam must be ascending with lam[0] the smallest")
    if np.any(B[:, 0, 0] != 0.0):
        raise ValueError("B[0,0] must be exactly 0")
    if np.any(np.abs(B - B.transpose(0, 2, 1)) > 0.0):
        raise ValueError("B must be symmetric")


def boundary_bracket(s: BoundarySample, L) -> float:
    """The bracketed quadratic in the mixing matrix, evaluated from its
    definition (black box used by the brute-force maximiser)."""
    L = np.asarray(L, dtype=float)
    n = s.f.n
    g = s.f.grad_many([s.lam])[0]
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


# ---------------------------------------------------------------------------
# High-order finite-difference derivatives on the support grids
# ---------------------------------------------------------------------------

def fd_derivs_periodic(h, dth):
    """4th-order central first/second differences on a periodic grid."""
    hp1, hm1 = np.roll(h, -1), np.roll(h, 1)
    hp2, hm2 = np.roll(h, -2), np.roll(h, 2)
    d1 = (-hp2 + 8 * hp1 - 8 * hm1 + hm2) / (12 * dth)
    d2 = (-hp2 + 16 * hp1 - 30 * h + 16 * hm1 - hm2) / (12 * dth**2)
    return d1, d2


def fd_derivs_even(h, dth):
    """Same stencils after even reflection about both endpoints."""
    ext = np.concatenate([h[2:0:-1], h, h[-2:-4:-1]])
    hp1, hm1 = ext[3:3 + h.size], ext[1:1 + h.size]
    hp2, hm2 = ext[4:4 + h.size], ext[0:h.size]
    d1 = (-hp2 + 8 * hp1 - 8 * hm1 + hm2) / (12 * dth)
    d2 = (-hp2 + 16 * hp1 - 30 * h + 16 * hm1 - hm2) / (12 * dth**2)
    return d1, d2


# ---------------------------------------------------------------------------
# Parametric ellipsoid-of-revolution curvatures (independent of the
# support-function route): profile (a sin u, c cos u) revolved about z.
# ---------------------------------------------------------------------------

def ellipsoid_curvatures_parametric(a, c, thetas):
    """Principal curvatures at the points whose outward normal has polar
    angle theta; meridian curvature from the plane-curve formula, azimuthal
    from the normal-ray intercept."""
    thetas = np.asarray(thetas, dtype=float)
    u = np.arctan2(a * np.sin(thetas), c * np.cos(thetas))
    su, cu = np.sin(u), np.cos(u)
    w2 = (a * cu) ** 2 + (c * su) ** 2          # |profile tangent|^2
    kap_meridian = a * c / w2**1.5
    # normal ray meets the axis at distance a^2 |(x/a^2, z/c^2)| along itself,
    # so kap_azimuthal = 1/(a^2 nrm); the pole limit coincides with the meridian
    nrm = np.hypot(su / a, cu / c)
    kap_azimuthal = 1.0 / (a * a * nrm)
    return kap_meridian, kap_azimuthal


def ellipse_curvature_parametric(a, b, thetas):
    """Plane-ellipse curvature at the point whose outward normal angle is theta.

    For (a cos t, b sin t) the normal is (cos t / a, sin t / b), so
    tan t = (b/a) tan theta and kappa = ab / |tangent|^3."""
    thetas = np.asarray(thetas, dtype=float)
    t = np.arctan2(b * np.sin(thetas), a * np.cos(thetas))
    return a * b / ((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2) ** 1.5


# ---------------------------------------------------------------------------
# Random convex bodies
# ---------------------------------------------------------------------------

def random_convex_curve(rng, N=128, modes=6, strength=0.35):
    """h = 1 + trig polynomial with sum m^2 |a_m| <= strength < 1."""
    h = np.ones(N)
    th = 2.0 * np.pi * np.arange(N) / N
    budget = strength
    for m in range(2, modes + 2):
        amp = rng.uniform(-1.0, 1.0) * budget / (modes * m * m)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        h += amp * np.cos(m * th + ph)
    return h


def random_convex_axisym(rng, N=65, modes=5, strength=0.3):
    h = np.ones(N)
    th = np.pi * np.arange(N) / (N - 1)
    for m in range(2, modes + 2):
        amp = rng.uniform(-1.0, 1.0) * strength / (modes * m * m)
        h += amp * np.cos(m * th)
    return h


# ---------------------------------------------------------------------------
# Geometry that only the tests use: unchecked radii, curve area, one
# ball-curvature pair, rigid motions and dilations
# ---------------------------------------------------------------------------

class PairTooClose(ValueError):
    """Chord shorter than the separation tolerance; use the diagonal extension."""


def principal_radii(body: ConvexBody) -> np.ndarray:
    """(N, n) principal radii of curvature; poles take the meridian value."""
    return _workspace(body.mode, body.N).radii(body.h)


def area(body: ConvexBody) -> float:
    """Enclosed area of a curve-mode body, (1/2) oint (h^2 - h'^2) dtheta."""
    if body.mode != CURVE:
        raise ValueError("area is defined for curve mode")
    h1, _ = curve_derivs(body.h)
    return float(0.5 * body.grid_spacing * np.sum(body.h**2 - h1**2))


def ball_curvature_pair(body: ConvexBody, x_index: int, y_index: int,
                        y_azimuth: float = 0.0) -> float:
    """k(x, y) = 2 <X_x - X_y, nu_x> / |X_x - X_y|^2 for distinct grid points."""
    r = check_convex(body)
    pts, nus = _points(body), body.directions()
    if body.mode == CURVE:
        if y_azimuth != 0.0:
            raise ValueError("curve mode has no azimuth")
        Xy = pts[y_index]
    else:
        rho = pts[y_index, 0]
        Xy = np.array([rho * np.cos(y_azimuth), rho * np.sin(y_azimuth), pts[y_index, 2]])
    D = pts[x_index] - Xy
    d2 = float(D @ D)
    sep = SEP_FACTOR * body.grid_spacing * r[x_index].min()
    if d2 <= sep * sep:
        raise PairTooClose(f"chord {np.sqrt(d2):.3e} below separation {sep:.3e}")
    return float(2.0 * (D @ nus[x_index]) / d2)


def translate(body: ConvexBody, v) -> ConvexBody:
    """Move the body by v (support origin stays put).  Axisymmetric bodies
    only admit axial translations; anything else leaves the representable
    class."""
    v = np.asarray(v, dtype=float)
    if body.mode == AXISYMMETRIC and np.abs(v[:2]).max() > 0.0:
        raise ValueError("axisymmetric bodies can only be translated along the axis")
    return ConvexBody(mode=body.mode, h=body.h + body.directions() @ v, t=body.t,
                      center_offset=body.center_offset)


def scale(body: ConvexBody, s: float) -> ConvexBody:
    return ConvexBody(mode=body.mode, h=body.h * s, t=body.t,
                      center_offset=body.center_offset * s)


# ---------------------------------------------------------------------------
# Reference spectral derivatives: a direct DFT in extended precision
# (np.longdouble), independent of the library's rfft kernel and far more
# accurate than any float64 transform
# ---------------------------------------------------------------------------

_PI_LD = 4 * np.arctan(np.longdouble(1))


def _derivs_extended(mode, h):
    """(h', h'') in np.longdouble of the samples h: the curve's periodic
    samples, or the closed [0, pi] grid through its even extension.  Direct
    DFT of length L, derivative multipliers i*m and -m^2, the unmatched
    Nyquist mode of an even L kept in h'' only (as the rfft kernel does)."""
    h = np.asarray(h, dtype=np.longdouble)
    N = h.size
    x = h if mode == "curve" else np.concatenate([h, h[-2:0:-1]])
    L = x.size
    K = (L - 1) // 2
    m = np.arange(1, K + 1)
    # angles reduced in integers first: 2 pi (m l mod L) / L
    fwd = 2 * _PI_LD * (np.outer(m, np.arange(L)) % L) / L
    a, b = np.cos(fwd) @ x, np.sin(fwd) @ x
    inv = 2 * _PI_LD * (np.outer(np.arange(N), m) % L) / L
    c, s = np.cos(inv), np.sin(inv)
    h1 = -(2 / np.longdouble(L)) * (s @ (m * a) - c @ (m * b))
    h2 = -(2 / np.longdouble(L)) * (c @ (m * m * a) + s @ (m * m * b))
    if L % 2 == 0:
        nyq = x @ np.where(np.arange(L) % 2 == 0, 1, -1).astype(np.longdouble)
        h2 -= (L // 2) ** 2 * nyq * np.where(np.arange(N) % 2 == 0, 1, -1) / L
    return h1, h2


def spectral_derivs_extended(mode, h):
    """(h', h'') of the extended-precision reference, rounded to float64."""
    return tuple(d.astype(float) for d in _derivs_extended(mode, h))


def principal_radii_reference(mode, h):
    """(N, n) principal radii from the extended-precision derivatives,
    rounded to float64 once at the end."""
    h1, h2 = _derivs_extended(mode, h)
    hl = np.asarray(h, dtype=np.longdouble)
    r1 = h2 + hl
    if mode == "curve":
        return r1.astype(float)[:, None]
    th = _PI_LD * np.arange(h.size) / (h.size - 1)
    r2 = r1.copy()
    r2[1:-1] = h1[1:-1] * np.cos(th[1:-1]) / np.sin(th[1:-1]) + hl[1:-1]
    return np.stack([r1, r2], axis=1).astype(float)


def eigenbasis_extended(mode, N, c):
    """(h, r): grid values (N,) and principal radii (N, n) in np.longdouble
    of the body with eigen-coefficients c, ordered as geometry._Eigenbasis
    orders them.  A curve's are the real inverse DFT of its rfft
    coefficients c and of (1 - k^2) c.  An axisymmetric body's are
    sum_k c_k v_k(x_j) at the nodes x_j = cos(pi j / (N - 1)), the even k
    first, for v_k = P_k and for the closed-form radii of P_k(cos theta),
    r_1 = (1 - k(k+1)) P_k + x P_k' and r_2 = P_k - x P_k' (Legendre's
    equation), with P_k and P_k' from Bonnet's recurrence and
    P'_{k+1} = P'_{k-1} + (2k+1) P_k."""
    ld = np.longdouble
    k = np.arange(N // 2 + 1 if mode == "curve" else N)
    if mode == "curve":
        w = np.full(k.size, ld(2))
        w[0] = 1
        if N % 2 == 0:
            w[-1] = 1
        ang = 2 * _PI_LD * (np.outer(np.arange(N), k) % N) / N
        cos, sin = np.cos(ang), np.sin(ang)

        def synth(a):
            return (cos @ (w * a.real.astype(ld)) - sin @ (w * a.imag.astype(ld))) / N

        return synth(c), synth((1 - k * k) * c)[:, None]
    x = np.cos(_PI_LD * np.arange(N) / (N - 1))
    P, D = np.empty((N, N), dtype=ld), np.empty((N, N), dtype=ld)
    p_prev, p = np.zeros(N, dtype=ld), np.ones(N, dtype=ld)
    dp_prev, dp = np.zeros(N, dtype=ld), np.zeros(N, dtype=ld)
    for m in range(N):
        P[:, m], D[:, m] = p, dp
        dp_prev, dp = dp, dp_prev + (2 * m + 1) * p
        p_prev, p = p, ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
    order = np.concatenate([k[0::2], k[1::2]])
    P, xD, kk = P[:, order], x[:, None] * D[:, order], order.astype(ld)
    cl = c.astype(ld)
    return P @ cl, np.stack([((1 - kk * (kk + 1)) * P + xD) @ cl, (P - xD) @ cl], axis=1)


def _grid_multipliers(mode, N):
    """(nfft, d1, d2): the rfft length of a grid (of its even extension,
    axisymmetric) and the multipliers of h' (the unmatched Nyquist mode of
    an even length zeroed) and of h''."""
    nfft = N if mode == "curve" else 2 * (N - 1)
    m = np.arange(nfft // 2 + 1, dtype=float)
    d1 = 1j * m
    if nfft % 2 == 0:
        d1[-1] = 0.0
    return nfft, d1, -(m * m)


def _grid_rfft(mode, h):
    """rfft along the last axis of h, of its even extension if axisymmetric."""
    if mode == "curve":
        return np.fft.rfft(h)
    return np.fft.rfft(np.concatenate([h, h[..., -2:0:-1]], axis=-1))


def principal_radii_three_transform(mode, h):
    """(N, n) principal radii by one rfft of the (even-extended) samples and
    one irfft per derivative, with the mean of h left in: the reference for
    geometry._Workspace.radii, which transforms h less its mean and takes
    both derivatives from one stacked irfft."""
    N = h.size
    nfft, d1, d2 = _grid_multipliers(mode, N)
    H = _grid_rfft(mode, h)
    r1 = np.fft.irfft(d2 * H, nfft)[:N] + h
    if mode == "curve":
        return r1[:, None]
    th = np.pi * np.arange(N) / (N - 1)
    h1 = np.fft.irfft(d1 * H, nfft)
    r2 = np.empty_like(r1)
    r2[1:-1] = np.cos(th[1:-1]) / np.sin(th[1:-1]) * h1[1 : N - 1] + h[1:-1]
    r2[0] = r1[0]
    r2[-1] = r1[-1]
    return np.stack([r1, r2], axis=1)


_DENSE_RADII: dict = {}


def _dense_radii_operator(mode, N):
    """The (n N, N) matrix whose column k holds the offsets r - h of the
    principal radii of the k-th unit vector, its rows the (point, radius)
    pairs in the order of geometry._Workspace.radii's result.  One rfft of
    the (even-extended) rows of the identity and one irfft of the stacked
    [h'', h'] multipliers build every column."""
    nfft, d1, d2 = _grid_multipliers(mode, N)
    mult = np.array([d2] if mode == "curve" else [d2, d1])
    d = np.fft.irfft(mult[:, None] * _grid_rfft(mode, np.eye(N)), nfft)
    dense = np.empty((mult.shape[0] * N, N))
    out = dense.reshape(N, -1, N).transpose(2, 0, 1)  # (unit, point, radius)
    out[..., 0] = d[0, :, :N]
    if mode != "curve":
        th = np.pi * np.arange(N) / (N - 1)
        out[:, 1:-1, 1] = (np.cos(th[1:-1]) / np.sin(th[1:-1])) * d[1, :, 1 : N - 1]
        out[:, 0, 1] = out[:, 0, 0]
        out[:, -1, 1] = out[:, -1, 0]
    return dense


def radii_dense(mode, h):
    """(N, n) principal radii by a cached dense operator applied to h less
    its mean, plus h: the grid-radii kernel of grids up to 256 points
    before geometry._Workspace.radii took every grid through the
    derivatives' transform, and the kernel of the RK4 reference below.  The
    operator annihilates constants, so its rounding scales with the
    variation of h."""
    N = h.size
    dense = _DENSE_RADII.get((mode, N))
    if dense is None:
        dense = _DENSE_RADII[(mode, N)] = _dense_radii_operator(mode, N)
    return (dense @ (h - h.sum() / N)).reshape(N, -1) + h[:, None]


# ---------------------------------------------------------------------------
# Reference stable step: the scalar stiffness max g / min r^2
# ---------------------------------------------------------------------------

def dt_reference(ws, r, speed, cfl):
    """cfl * dtheta^2 * min r^2 / max g: the scalar-stiffness step, which
    pairs the smallest radius anywhere with the largest speed derivative
    anywhere and which flow._dt_of (same signature) never undercuts."""
    g = speed._g(1.0 / r)
    return float(cfl * ws.dth * ws.dth * (r.min(axis=1) ** 2).min() / g.max())


# ---------------------------------------------------------------------------
# Reference run: classical RK4 at the stable step, the library's stepper
# before the exponential integrator
# ---------------------------------------------------------------------------

def rk4_step(mode, h, speed, dt, r0=None, F0=None):
    """One classical RK4 step from h, its radii by radii_dense; r0 and F0,
    when given, are the radii and the speed at h."""
    from noncollapse.flow import _speed_of_radii

    if F0 is None:
        F0 = _speed_of_radii(radii_dense(mode, h) if r0 is None else r0, speed)
    k1 = -F0
    k2 = -_speed_of_radii(radii_dense(mode, h + (0.5 * dt) * k1), speed)
    k3 = -_speed_of_radii(radii_dense(mode, h + (0.5 * dt) * k2), speed)
    k4 = -_speed_of_radii(radii_dense(mode, h + dt * k3), speed)
    return h + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def eigenbasis_radii_reference(eig, c):
    """geometry._Eigenbasis.radii (same signature, a stack of rows c
    included) by the grid: the coefficients to grid values by eig.inverse,
    then the grid's radii kernel geometry._Workspace.radii row by row.  The
    flow's path to the radii of its ETDRK4 stages before they came straight
    from the coefficients."""
    from noncollapse.geometry import _workspace

    ws = _workspace(eig.mode, eig.N)
    h = eig.inverse(c)
    if h.ndim == 1:
        return ws.radii(h)
    return np.stack([ws.radii(row) for row in h])


def rk4_reference_run(config, speed=None, body=None, dt_of=None):
    """flow.run with classical RK4: steps of 0.995 times dt_of (default
    flow._dt_of, looked up at call time) refreshed every 8 steps, a step
    halved when it loses convexity or domain, a snapshot every
    snapshot_every steps and the final step bisected onto max F.  The steps
    take their radii from radii_dense; the stop threshold and the snapshots
    are flow's own.  Its stability needs cfl <= flow.CFL_MAX."""
    from noncollapse import flow
    from noncollapse.geometry import ConvexBody, ConvexityLost, _workspace
    from noncollapse.speeds import DomainError

    dt_of = flow._dt_of if dt_of is None else dt_of
    body = flow.build_body(config.body) if body is None else body
    speed = flow.build_speed(config.speed, body.mode) if speed is None else speed
    ws = _workspace(body.mode, body.N)
    mode = body.mode
    stop_f = flow.stop_threshold(config, body, speed)
    run_ = flow.FlowRun(config=config)

    def sample(b):
        return flow._sample(run_, ws, speed, b)

    body = sample(body)
    steps_since_sample = 0
    h, t, offset = body.h, body.t, body.center_offset
    r = radii_dense(mode, h)
    F = None

    def as_body(hh, tt):
        return ConvexBody(mode=mode, h=hh, t=tt, center_offset=offset)

    dt_cached = None
    dt_age = 0
    while True:
        if dt_cached is None or dt_age >= 8:
            dt_cached = 0.995 * dt_of(ws, r, speed, config.cfl)
            dt_age = 0
            run_.dt_refreshes += 1
        dt = dt_cached
        dt_age += 1
        if config.t_end is not None:
            dt = min(dt, config.t_end - t)
            if dt <= 0.0:
                run_.termination = flow.REACHED_T_END
                break
        floor = 1e-14 * max(1.0, t)
        if dt < floor:
            run_.termination = flow.STEP_UNDERFLOW
            break

        h_new = None
        while dt >= floor:
            run_.rk4_attempts += 1
            try:
                h_try = rk4_step(mode, h, speed, dt, r0=r, F0=F)
                r_try = radii_dense(mode, h_try)
                if r_try.min() <= 0.0:
                    raise ConvexityLost("lost convexity")
                h_new, r_new = h_try, r_try
                break
            except (ConvexityLost, DomainError):
                dt *= 0.5
                dt_cached = None
                run_.rollbacks += 1
        if h_new is None:
            run_.termination = flow.CONVEXITY_LOST
            break

        F_new = flow._speed_of_radii(r_new, speed)
        if float(F_new.max()) >= stop_f:
            h_best, dt_best = h_new, dt
            lo_dt, hi_dt = 0.0, dt
            for _ in range(80):
                mid = 0.5 * (lo_dt + hi_dt)
                if mid <= 0.0 or mid == lo_dt or mid == hi_dt:
                    break
                run_.rk4_attempts += 1
                run_.bisection_iterations += 1
                try:
                    h_try = rk4_step(mode, h, speed, mid, r0=r, F0=F)
                    r_try = radii_dense(mode, h_try)
                    if r_try.min() <= 0.0:
                        raise ConvexityLost("lost convexity")
                except (ConvexityLost, DomainError):
                    hi_dt = mid
                    continue
                f_trial = float(flow._speed_of_radii(r_try, speed).max())
                if f_trial < stop_f:
                    lo_dt = mid
                else:
                    h_best, dt_best = h_try, mid
                    hi_dt = mid
                    if f_trial < stop_f * (1.0 + 1e-9):
                        break
            run_.steps += 1
            sample(as_body(h_best, t + dt_best))
            run_.termination = flow.REACHED_MAX_F
            break

        h, r, F = h_new, r_new, F_new
        t += dt
        run_.steps += 1
        run_.dt_min = dt if run_.dt_min is None else min(run_.dt_min, dt)
        run_.dt_max = dt if run_.dt_max is None else max(run_.dt_max, dt)
        steps_since_sample += 1
        if config.t_end is not None and t >= config.t_end:
            sample(as_body(h, t))
            run_.termination = flow.REACHED_T_END
            break
        if steps_since_sample >= config.snapshot_every:
            b = sample(as_body(h, t))
            h, t, offset = b.h, b.t, b.center_offset
            r = radii_dense(mode, h)
            F = None
            steps_since_sample = 0

    if run_.termination in (flow.CONVEXITY_LOST, flow.STEP_UNDERFLOW):
        if run_.snapshots[-1].t < t:
            try:
                sample(as_body(h, t))
            except (ConvexityLost, DomainError):
                pass
    return run_


# ---------------------------------------------------------------------------
# Reference ball-curvature fields: the direct sweep over every grid pair, with
# the axisymmetric y running over the full (theta, phi) torus (O(N^3)), and
# the full-matrix field with the first admissible azimuth by bisection
# ---------------------------------------------------------------------------

def ball_curvature_field_sweep(body):
    """Exterior/interior ball curvatures by brute force.  Witnesses are the
    first extremum in (y, phi) order, so either mirror azimuth may appear.
    An extremum within DIAG_TIE_RTOL of the principal curvature is a tie,
    which the diagonal wins, as in the library's field."""
    from noncollapse.geometry import (CURVE, DIAG_TIE_RTOL, SEP_FACTOR,
                                      BallCurvatureField, _points, check_convex)

    r = check_convex(body)
    kappa = 1.0 / r
    N = body.N
    pts, nus = _points(body), body.directions()

    k_lower = np.empty(N)
    k_upper = np.empty(N)
    w_lower = np.full((N, 2), -1, dtype=int)
    w_upper = np.full((N, 2), -1, dtype=int)

    if body.mode == CURVE:
        D = pts[:, None, :] - pts[None, :, :]       # X_x - X_y
        d2 = np.einsum("xyk,xyk->xy", D, D)
        num = 2.0 * np.einsum("xyk,xk->xy", D, nus)
        sep = SEP_FACTOR * body.grid_spacing * r[:, 0]
        admissible = d2 > (sep**2)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            kmat = np.where(admissible, num / d2, np.nan)
        for x in range(N):
            row = kmat[x]
            ok = np.isfinite(row)
            kmin_diag = kappa[x].min()
            kmax_diag = kappa[x].max()
            if ok.any():
                j_lo = int(np.nanargmin(row))
                j_hi = int(np.nanargmax(row))
                lo, hi = row[j_lo], row[j_hi]
            else:
                lo, hi = np.inf, -np.inf
                j_lo = j_hi = -1
            if lo < kmin_diag * (1.0 - DIAG_TIE_RTOL):
                k_lower[x] = lo
                w_lower[x] = (j_lo, 0)
            else:
                k_lower[x] = kmin_diag
            if hi > kmax_diag * (1.0 + DIAG_TIE_RTOL):
                k_upper[x] = hi
                w_upper[x] = (j_hi, 0)
            else:
                k_upper[x] = kmax_diag
        return BallCurvatureField(k_lower, k_upper, w_lower, w_upper, kappa, pts)

    n_phi = N
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    Y = np.empty((N, n_phi, 3))
    Y[:, :, 0] = pts[:, 0][:, None] * np.cos(phi)[None, :]
    Y[:, :, 1] = pts[:, 0][:, None] * np.sin(phi)[None, :]
    Y[:, :, 2] = pts[:, 2][:, None]
    sep = SEP_FACTOR * body.grid_spacing * r[:, 0]
    for x in range(N):
        D = pts[x][None, None, :] - Y
        d2 = np.einsum("ijk,ijk->ij", D, D)
        num = 2.0 * (D @ nus[x])
        admissible = d2 > sep[x] ** 2
        kmin_diag = kappa[x].min()
        kmax_diag = kappa[x].max()
        if admissible.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                kmat = np.where(admissible, num / d2, np.nan)
            flat_lo = int(np.nanargmin(kmat))
            flat_hi = int(np.nanargmax(kmat))
            lo = kmat.flat[flat_lo]
            hi = kmat.flat[flat_hi]
        else:
            lo, hi = np.inf, -np.inf
            flat_lo = flat_hi = 0
        if lo < kmin_diag * (1.0 - DIAG_TIE_RTOL):
            k_lower[x] = lo
            w_lower[x] = divmod(flat_lo, n_phi)
        else:
            k_lower[x] = kmin_diag
        if hi > kmax_diag * (1.0 + DIAG_TIE_RTOL):
            k_upper[x] = hi
            w_upper[x] = divmod(flat_hi, n_phi)
        else:
            k_upper[x] = kmax_diag
    return BallCurvatureField(k_lower, k_upper, w_lower, w_upper, kappa, pts)


def ball_curvature_field_bisection(body):
    """The library's field before its row blocks and the closed-form first
    admissible azimuth: full (N, N) candidate matrices, and the first
    admissible azimuth of every axisymmetric pair found by bisection
    (admissibility being monotone in m).  Same formulas in the same order,
    so the library's field must equal it bit for bit."""
    from noncollapse.geometry import (CURVE, SEP_FACTOR, _points,
                                      check_convex)

    r = check_convex(body)
    kappa = 1.0 / r
    N = body.N
    pts = _points(body)
    nus = body.directions()
    sep2 = ((SEP_FACTOR * body.grid_spacing * r[:, 0]) ** 2)[:, None]

    if body.mode == CURVE:
        D = pts[:, None, :] - pts[None, :, :]       # X_x - X_y
        d2 = np.einsum("xyk,xyk->xy", D, D)
        num = 2.0 * np.einsum("xyk,xk->xy", D, nus)
        ok = d2 > sep2
        with np.errstate(divide="ignore", invalid="ignore"):
            k = num / d2
        return _extremes(kappa, pts, ok, k, k, 0, 0)

    rho = pts[:, 0]
    dz = pts[:, 2][:, None] - pts[:, 2][None, :]
    phi = 2.0 * np.pi * np.arange(N) / N
    cphi, sphi = np.cos(phi), np.sin(phi)

    def chord(m):
        """Radial component of X_x - Y and |X_x - Y|^2 at azimuth indices m."""
        d0 = rho[:, None] - rho[None, :] * cphi[m]
        d1 = rho[None, :] * sphi[m]
        return d0, d0 * d0 + d1 * d1 + dz * dz

    def ball(m):
        d0, d2 = chord(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            return 2.0 * (d0 * nus[:, 0:1] + dz * nus[:, 2:3]) / d2, d2 > sep2

    far = N // 2
    k_far, ok = ball(far)
    # first admissible azimuth in [0, far]: lo is inadmissible (or -1), hi is
    # admissible wherever the far azimuth is
    lo = np.full((N, N), -1)
    hi = np.full((N, N), far)
    while True:
        wide = hi - lo > 1
        if not wide.any():
            break
        mid = (lo + hi) // 2
        adm = chord(mid)[1] > sep2
        hi = np.where(wide & adm, mid, hi)
        lo = np.where(wide & ~adm, mid, lo)
    k_near, _ = ball(hi)
    near_lo = k_near <= k_far
    near_hi = k_near >= k_far
    return _extremes(kappa, pts, ok,
                     np.where(near_lo, k_near, k_far), np.where(near_hi, k_near, k_far),
                     np.where(near_lo, hi, far), np.where(near_hi, hi, far))


def _extremes(kappa, pts, ok, k_lo, k_hi, m_lo, m_hi):
    """Row extrema over admissible y of the (x, y) candidate values k_lo
    (minimum) and k_hi (maximum), with their azimuth indices m_lo and m_hi,
    compared against the principal curvatures at x: an extremum within
    DIAG_TIE_RTOL of kappa_min (kappa_max) relative is the diagonal's."""
    from noncollapse.geometry import DIAG_TIE_RTOL, BallCurvatureField

    rows = np.arange(kappa.shape[0])
    m_lo = np.broadcast_to(m_lo, ok.shape)
    m_hi = np.broadcast_to(m_hi, ok.shape)
    lo = np.where(ok, k_lo, np.inf)
    hi = np.where(ok, k_hi, -np.inf)
    y_lo = lo.argmin(axis=1)
    y_hi = hi.argmax(axis=1)
    lo = lo[rows, y_lo]
    hi = hi[rows, y_hi]
    kmin, kmax = kappa.min(axis=1), kappa.max(axis=1)
    off_lo = lo < kmin * (1.0 - DIAG_TIE_RTOL)
    off_hi = hi > kmax * (1.0 + DIAG_TIE_RTOL)
    w_lower = np.where(off_lo[:, None], np.stack([y_lo, m_lo[rows, y_lo]], axis=1), -1)
    w_upper = np.where(off_hi[:, None], np.stack([y_hi, m_hi[rows, y_hi]], axis=1), -1)
    return BallCurvatureField(np.where(off_lo, lo, kmin), np.where(off_hi, hi, kmax),
                              w_lower, w_upper, kappa, pts)


# ---------------------------------------------------------------------------
# Reference in- and circumradius: every vertex of the dual problems, enumerated,
# and the curve circumcircle by Welzl's algorithm
# ---------------------------------------------------------------------------

def circumball_welzl(pts):
    """Minimum enclosing circle of the rows of pts (N, 2) by incremental
    Welzl with a deterministic shuffle: (center, radius), the library's
    curve circumcircle before farthest-point pivoting."""
    import random

    P = [tuple(p) for p in pts]
    random.Random(0).shuffle(P)

    def circle_two(p, q):
        cx, cy = (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0
        r = max(np.hypot(p[0] - cx, p[1] - cy), np.hypot(q[0] - cx, q[1] - cy))
        return (cx, cy, r)

    def circle_three(p, q, r_):
        ax, ay = p
        bx, by = q
        cx, cy = r_
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if d == 0.0:
            return None
        ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
              + (cx**2 + cy**2) * (ay - by)) / d
        uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
              + (cx**2 + cy**2) * (bx - ax)) / d
        rad = max(np.hypot(ax - ux, ay - uy), np.hypot(bx - ux, by - uy),
                  np.hypot(cx - ux, cy - uy))
        return (ux, uy, rad)

    def contains(c, p, eps=1e-12):
        return c is not None and np.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * (1 + eps) + eps

    c = None
    for i, p in enumerate(P):
        if contains(c, p):
            continue
        c = (p[0], p[1], 0.0)
        for j in range(i):
            q = P[j]
            if contains(c, q):
                continue
            c = circle_two(p, q)
            for m in range(j):
                s = P[m]
                if contains(c, s):
                    continue
                c3 = circle_three(p, q, s)
                if c3 is not None:
                    c = c3
    return np.array([c[0], c[1]]), float(c[2])


def circumball_axi_bisection(pts):
    """Smallest enclosing ball of a revolved point set, center on the axis,
    by bisection: max_j (rho_j^2 + (z_j - c)^2) is convex in c and falls
    towards the farthest point, so bisection on the side of that point
    brackets the minimiser until the bracket's ends are adjacent floats.
    The library's axial circumball before it pivoted on the mirrored
    meridian (geometry._circumball_axi, same signature)."""
    rho2, z = pts[:, 0] ** 2, pts[:, 2]
    lo, hi = z.min(), z.max()
    c = 0.5 * (lo + hi)
    while lo < c < hi:
        if z[np.argmax(rho2 + (z - c) ** 2)] > c:
            lo = c
        else:
            hi = c
        c = 0.5 * (lo + hi)
    return np.array([0.0, 0.0, c]), float(np.sqrt((rho2 + (z - c) ** 2).max()))


def radii_reference(body):
    """(r_minus, r_plus) of geometry.radii by enumeration.

    Curves (N <= 64): the in-radius is the smallest vertex value over all
    direction triples whose triangle holds the origin (barycentric weights
    of the origin >= -1e-12, which admits the exact zero weight of a triple
    with two antipodal directions); the circumradius is the smallest circle
    through two points (as diameter) or three that holds every point to
    1e-14 relative.  Axisymmetric: the in-radius is the smallest crossing of
    a falling line h_i - c u_i (u_i > 0) with a rising one (u_j < 0), or an
    equatorial node's h_j; the squared circumradius is the largest, over
    all point pairs with z_i >= z_j, of max(d_i, d_j) at the pair's
    equidistant axis point clipped to [z_j, z_i], d the squared distance
    from the revolved point (one-dimensional Helly: a min-max over the axis
    is decided by a pair)."""
    from itertools import combinations

    from noncollapse.geometry import CURVE, _points, check_convex

    check_convex(body)
    h, N, pts = body.h, body.N, _points(body)
    if body.mode == CURVE:
        if N > 64:
            raise ValueError("the curve reference enumerates triples; use N <= 64")
        T = np.array(list(combinations(range(N), 3)))
        A = np.concatenate([body.directions()[T], np.ones((len(T), 3, 1))], axis=2)
        e3 = np.broadcast_to([0.0, 0.0, 1.0], (len(T), 3))
        lam = np.linalg.solve(np.swapaxes(A, 1, 2), e3[..., None])[..., 0]
        vertex = np.linalg.solve(A, h[T][..., None])[:, 2, 0]
        r_minus = vertex[(lam >= -1e-12).all(axis=1)].min()
        # candidate circles: (center, radius) through pairs and triples
        P2 = np.array(list(combinations(range(N), 2)))
        a, b = pts[P2[:, 0]], pts[P2[:, 1]]
        centers, rads = [0.5 * (a + b)], [0.5 * np.hypot(*(a - b).T)]
        a, b, c = pts[T[:, 0]], pts[T[:, 1]], pts[T[:, 2]]
        M = 2.0 * np.stack([b - a, c - a], axis=1)
        ok = np.abs(np.linalg.det(M)) > 1e-12
        rhs = np.stack([(b * b).sum(1) - (a * a).sum(1), (c * c).sum(1) - (a * a).sum(1)], axis=1)
        ctr = np.linalg.solve(M[ok], rhs[ok][..., None])[..., 0]
        centers.append(ctr)
        rads.append(np.hypot(*(ctr - a[ok]).T))
        centers, rads = np.concatenate(centers), np.concatenate(rads)
        far = np.hypot(pts[None, :, 0] - centers[:, None, 0],
                       pts[None, :, 1] - centers[:, None, 1]).max(axis=1)
        r_plus = rads[far <= rads * (1.0 + 1e-14)].min()
        return float(r_minus), float(r_plus)
    u = np.cos(body.thetas)
    vals = [h[j] for j in range(N) if abs(u[j]) <= 1e-13]
    for i in np.flatnonzero(u > 1e-13):
        for j in np.flatnonzero(u < -1e-13):
            c = (h[i] - h[j]) / (u[i] - u[j])
            vals.append(h[i] - c * u[i])
    rho2, z = pts[:, 0] ** 2, pts[:, 2]
    hi, lo = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    keep = z[hi] >= z[lo]
    i, j = hi[keep], lo[keep]
    dz = z[i] - z[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(dz > 0.0, (rho2[i] - rho2[j] + z[i] ** 2 - z[j] ** 2) / (2.0 * dz), z[i])
    c = np.clip(c, z[j], z[i])
    d2 = np.maximum(rho2[i] + (z[i] - c) ** 2, rho2[j] + (z[j] - c) ** 2)
    return float(min(vals)), float(np.sqrt(d2.max()))


# ---------------------------------------------------------------------------
# Per-sample references for the batched speed Hessians, the boundary terms,
# the draws and the certifier (the loops the library replaced by stacked
# arrays; same formulas, evaluated one point at a time)
# ---------------------------------------------------------------------------

def elem_batch_reference(Z):
    """e_0..e_n of each row of Z, shape (m, n+1), by the recurrence on the
    (m, n+1) table one column of Z at a time."""
    m, n = Z.shape
    E = np.zeros((m, n + 1))
    E[:, 0] = 1.0
    for j in range(n):
        E[:, 1:] = E[:, 1:] + Z[:, j : j + 1] * E[:, :-1]
    return E


def _e_subset(z, k):
    """e_k of the entries of z; 0 outside 0 <= k <= len(z)."""
    from noncollapse.speeds import _elem_batch

    if k < 0 or k > z.size:
        return 0.0
    return _elem_batch(z[None, :])[0, k]


def hess_reference(f, z):
    """Hessian of a catalog speed (or its dual) at one cone point, from the
    per-entry closed forms with np.delete subsets."""
    from noncollapse.speeds import (ArithmeticMean, DualSpeed, PowerMean,
                                    SigmaRatio, SigmaRoot)

    z = np.asarray(z, dtype=float)
    n = f.n
    if isinstance(f, ArithmeticMean):
        return np.zeros((n, n))
    if isinstance(f, PowerMean):
        fz = f.value(z)
        p = f.p
        if p == 0.0:
            H = fz / (n * n * np.outer(z, z))
            H[np.diag_indices(n)] -= fz / (n * z**2)
            return H
        gpow = np.power(z, p - 1.0)
        return (p - 1.0) * (
            np.diag(np.power(z, p - 2.0)) * (fz ** (1.0 - p)) / n
            - np.outer(gpow, gpow) * (fz ** (1.0 - 2.0 * p)) / (n * n)
        )
    if isinstance(f, SigmaRatio):
        k, c = f.k, f.c
        u, v = _e_subset(z, k), _e_subset(z, k - 1)
        ui = np.empty(n)
        vi = np.empty(n)
        for i in range(n):
            zi = np.delete(z, i)
            ui[i] = _e_subset(zi, k - 1)
            vi[i] = _e_subset(zi, k - 2)
        H = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    uij = vij = 0.0
                else:
                    zij = np.delete(z, [i, j])
                    uij = _e_subset(zij, k - 2)
                    vij = _e_subset(zij, k - 3)
                H[i, j] = c * (
                    (uij * v + ui[i] * vi[j] - ui[j] * vi[i] - u * vij) / v**2
                    - 2.0 * vi[j] * (ui[i] * v - u * vi[i]) / v**3
                )
        return H
    if isinstance(f, SigmaRoot):
        k, c = f.k, f.c
        u = _e_subset(z, k)
        ui = np.array([_e_subset(np.delete(z, i), k - 1) for i in range(n)])
        H = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                uij = 0.0 if i == j else _e_subset(np.delete(z, [i, j]), k - 2)
                H[i, j] = (c / k) * (
                    (1.0 / k - 1.0) * u ** (1.0 / k - 2.0) * ui[i] * ui[j]
                    + u ** (1.0 / k - 1.0) * uij
                )
        return H
    if isinstance(f, DualSpeed):
        x = 1.0 / z
        fx = f.base.value(x)
        g = f.base.grad_many([x])[0]
        H = hess_reference(f.base, x)
        gx2 = g * x**2
        out = 2.0 * np.outer(gx2, gx2) / fx**3 - H * np.outer(x**2, x**2) / fx**2
        out[np.diag_indices(n)] -= 2.0 * g * x**3 / fx**2
        return out
    raise TypeError(f"no reference Hessian for {f!r}")


def hess_form_terms_reference(lam, B, g, H):
    """d^T H d for the diagonal d of B, then coef_pq B_pq^2 for each nonzero
    off-diagonal B_pq in row order; coef_pq the divided difference, or its
    limit H_pp - H_pq below the relative GAP_TOL."""
    from noncollapse.speeds import GAP_TOL

    d = np.diag(B)
    terms = [float(d @ H @ d)]
    n = lam.size
    for p in range(n):
        for q in range(n):
            if p == q or B[p, q] == 0.0:
                continue
            gap = lam[p] - lam[q]
            if abs(gap) < GAP_TOL * (1.0 + abs(lam[p])):
                coef = H[p, p] - H[p, q]
            else:
                coef = (g[p] - g[q]) / gap
            terms.append(coef * B[p, q] ** 2)
    return terms


def boundary_terms_reference(s):
    """(value, scale, closed-form sup part) of one BoundarySample by the
    per-sample term loop."""
    from noncollapse.speeds import GAP_TOL

    lam = s.lam
    n = s.f.n
    gaps = lam[1:] - lam[0]
    tol = GAP_TOL * (1.0 + abs(lam[0]))
    if np.any(gaps < tol):
        lam = lam + np.arange(n) * 10.0 * tol
    g = s.f.grad_many([lam])[0]
    terms = hess_form_terms_reference(lam, s.B, g, hess_reference(s.f, lam))
    sup_part = 0.0
    for p in range(n):
        for q in range(1, n):
            if s.B[p, q] != 0.0:
                sup_part += 2.0 * g[p] / (lam[q] - lam[0]) * s.B[p, q] ** 2
    terms.append(sup_part)
    return float(sum(terms)), 1.0 + max(abs(t) for t in terms), float(sup_part)


def interior_draw_reference(n, rng):
    """(a, Q, b, k) of one interior trial drawn from a Generator: a
    log-uniform spectrum, then b, a sign-fixed QR rotation of a standard
    normal matrix, and k uniform below 0.9 min(a, b).  The reference law of
    the suites' draws, and the sampler of the tests that take a Generator."""
    a = 10.0 ** rng.uniform(-2.0, 2.0, n)
    b = 10.0 ** rng.uniform(-2.0, 2.0, n)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    k = rng.uniform(0.0, 0.9 * min(a.min(), b.min()))
    return a, Q, b, k


def interior_stack_reference(n, seed, m):
    """Stacked (a, Q, b, k) of interior_draw_reference(n, default_rng((seed, t)))
    for t < m."""
    draws = [interior_draw_reference(n, np.random.default_rng((seed, t))) for t in range(m)]
    return tuple(np.array(x) for x in zip(*draws))


def sample_interior(f, rng):
    """interior_draw_reference as a validated InteriorSample, A = Q diag(a) Q^T
    symmetrised."""
    a, Q, b, k = interior_draw_reference(f.n, rng)
    A = (Q * a) @ Q.T
    return InteriorSample(A=0.5 * (A + A.T), B=np.diag(b), k=k, f=f)


def interior_gaps_reference(f, A, b, k):
    """Interior gaps and tolerance scales of stacked samples A (m, n, n),
    b (m, n), k (m,) by the matrix path: one stacked eigh of A gives F(A)
    and G = dF(A), then F(B) - F(A) - tr[G((A-kI) - (A-kI)(B-kI)^-1 (A-kI))]."""
    n = b.shape[1]
    lam, U = np.linalg.eigh(A)
    FA = f.value_many(lam)
    G = np.einsum("mik,mk,mjk->mij", U, f.grad_many(lam), U)
    M = A - k[:, None, None] * np.eye(n)[None, :, :]
    inner = M - np.einsum("mij,mj,mjl->mil", M, 1.0 / (b - k[:, None]), M)
    gaps = f.value_many(b) - FA - np.einsum("mij,mij->m", G, inner)
    return gaps, 1.0 + np.abs(FA)


def boundary_draw_reference(n, rng):
    """(lam, B) of one boundary trial drawn from a Generator."""
    lam = np.sort(10.0 ** rng.uniform(-2.0, 2.0, n))
    B = rng.standard_normal((n, n))
    B = 0.5 * (B + B.T)
    B[0, 0] = 0.0
    return lam, B


def boundary_stack_reference(n, seed, m):
    """Stacked (lam, B) of boundary_draw_reference(n, default_rng((seed, t)))
    for t < m."""
    draws = [boundary_draw_reference(n, np.random.default_rng((seed, t))) for t in range(m)]
    return tuple(np.array(x) for x in zip(*draws))


def sample_boundary(f, rng):
    """boundary_draw_reference as a validated BoundarySample."""
    lam, B = boundary_draw_reference(f.n, rng)
    return BoundarySample(lam=lam, B=B, f=f)


# ---------------------------------------------------------------------------
# The counter-based trial stream, one trial at a time in Python integers
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_mix(z):
    """SplitMix64's output function on a Python int (Steele, Lea & Flood 2014)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def splitmix64_outputs(state, count):
    """The next count outputs of a SplitMix64 generator at state, run
    sequentially."""
    out = []
    for _ in range(count):
        state = (state + _GAMMA) & _MASK
        out.append(splitmix64_mix(state))
    return out


def splitmix64_uniforms(seed, t, k):
    """Trial t's k uniforms of seed's stream: the stream starts at the state
    that absorbs the word count of seed and then its 64-bit words,
    little-endian, each by xor and mix; the trial skips the t k outputs
    before it and keeps the top 53 bits of each of its own."""
    words = []
    while True:
        words.append(seed & _MASK)
        seed >>= 64
        if not seed:
            break
    state = 0
    for w in [len(words)] + words:
        state = splitmix64_mix(state ^ w)
    state = (state + t * k * _GAMMA) & _MASK
    return [(z >> 11) * 2.0 ** -53 for z in splitmix64_outputs(state, k)]


def cone_point_reference(n, seed, t):
    """certify's point z and scale s of trial t, from its uniforms one trial
    at a time: log-uniform z, a 1-in-4 near-degenerate ray z_j = z_i (1 +
    1e-6 v) with i != j, and a log-uniform scale."""
    u = np.array(splitmix64_uniforms(seed, t, n + 5))
    z = 10.0 ** (-3.0 + 6.0 * u[:n])
    if n >= 2 and u[n] < 0.25:
        i = int(n * u[n + 1])
        others = [j for j in range(n) if j != i]
        j = others[(int((n - 1) * u[n + 2]) + i) % (n - 1)]
        z[j] = z[i] * (1.0 + (-1.0 + 2.0 * u[n + 3]) * 1e-6)
    # NumPy's array power, as on the stack: Python's float power may round
    # differently in the last bit
    return z, (10.0 ** (-2.0 + 4.0 * u[n + 4:]))[0]


# ---------------------------------------------------------------------------
# The trial draws as stacks laid out trial by trial (row-major)
# ---------------------------------------------------------------------------

def trial_uniforms_reference(seed, trials, k):
    """speeds.trial_uniforms built row-major: the C-contiguous (m, k) array
    whose row i holds trial trials[i]'s k uniforms."""
    z = np.asarray(trials).astype(np.uint64)[:, None] * np.uint64(k) \
        + np.arange(1, k + 1, dtype=np.uint64)
    z *= _GAMMA
    z += _seed_state(seed)
    _mix64(z)
    z >>= 11
    u = z.astype(float)
    u *= 2.0 ** -53
    return u


def normals_reference(U, count):
    """oracle._normals on the row-major uniforms U, C-contiguous (m, count)."""
    p = U.shape[1] // 2
    r = np.sqrt(-2.0 * np.log1p(-U[:, :p]))
    theta = 2.0 * np.pi * U[:, p:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=1)[:, :count]


def rotations_reference(G):
    """oracle._rotations with each dot product a sum along a length-n axis
    of the trial rows."""
    V = np.moveaxis(G, 2, 0).copy()  # V[j] is column j of every matrix, (m, n)
    for _ in range(2):
        for j in range(len(V)):
            for i in range(j):
                V[j] -= (V[i] * V[j]).sum(axis=1)[:, None] * V[i]
            V[j] /= np.sqrt((V[j] * V[j]).sum(axis=1))[:, None]
    return np.ascontiguousarray(np.moveaxis(V, 0, 2))


def interior_draws_reference(n, seed, trials):
    """oracle._interior_draws from the row-major references above."""
    U = trial_uniforms_reference(seed, trials, 2 * n + 1 + _normal_width(n))
    ab = 10.0 ** (-2.0 + 4.0 * U[:, :2 * n])
    a, b = ab[:, :n], ab[:, n:]
    k = 0.9 * np.minimum(a.min(axis=1), b.min(axis=1)) * U[:, 2 * n]
    Q = rotations_reference(normals_reference(U[:, 2 * n + 1:], n * n).reshape(-1, n, n))
    return a, Q, b, k


def boundary_draws_reference(n, seed, trials):
    """oracle._boundary_draws from the row-major references above."""
    U = trial_uniforms_reference(seed, trials, n + _normal_width(n))
    G = normals_reference(U[:, n:], n * n).reshape(-1, n, n)
    B = 0.5 * (G + G.transpose(0, 2, 1))
    B[:, 0, 0] = 0.0
    return np.sort(10.0 ** (-2.0 + 4.0 * U[:, :n]), axis=1), B


def cone_points_reference(n, seed, trials):
    """speeds._cone_points from the row-major trial_uniforms_reference."""
    U = trial_uniforms_reference(seed, trials, n + 5)
    Z = 10.0 ** (-3.0 + 6.0 * U[:, :n])
    if n >= 2:
        near = np.flatnonzero(U[:, n] < 0.25)
        i = (n * U[near, n + 1]).astype(int)
        j = (i + 1 + ((n - 1) * U[near, n + 2]).astype(int)) % n
        Z[near, j] = Z[near, i] * (1.0 + (-1.0 + 2.0 * U[near, n + 3]) * 1e-6)
    return Z, 10.0 ** (-2.0 + 4.0 * U[:, n + 4])


def without_one_reference(Z, k):
    """(m, n): e_k of each row of Z with entry i left out, in column i, by the
    recurrence over the other n - 1 entries in order."""
    from noncollapse.speeds import _e_col, _elem_without

    return np.stack([_e_col(_elem_without(Z, i), k) for i in range(Z.shape[1])], axis=1)


def certify_reference(f, property, trials=2000, seed=0):
    """certify's report as a dict, by the per-sample loop: the witness is the
    last sample that lowers the running minimum below its own tolerance."""
    dual = f.dual() if property == "inverse-concave" else None
    worst = np.inf
    witness = None
    witness_eig = None
    for t in range(trials):
        z, s = cone_point_reference(f.n, seed, t)
        if property == "concave":
            H = f.hess_many([z])[0]
            margin = float(-np.linalg.eigvalsh(H)[-1])
            tol = 1e-8 * (1.0 + np.abs(H).max())
        elif property == "inverse-concave":
            M = f.hess_many([z])[0] + 2.0 * np.diag(f.grad_many([z])[0] / z)
            m1 = float(np.linalg.eigvalsh(M)[0])
            Hd = dual.hess_many([1.0 / z])[0]
            m2 = float(-np.linalg.eigvalsh(Hd)[-1])
            margin = min(m1, m2)
            tol = max(1e-8 * (1.0 + np.abs(M).max()), 1e-8 * (1.0 + np.abs(Hd).max()))
        elif property == "monotone":
            margin = float(f.grad_many([z])[0].min())
            tol = 0.0
        else:
            fz = f.value(z)
            margin = -abs(f.value(s * z) - s * fz) / (s * fz)
            tol = 1e-9
        if margin < worst:
            worst = margin
            if margin < -tol:
                witness = z.tolist()
                witness_eig = margin
    return {"property": property, "samples_tested": trials,
            "min_eigen_seen": float(worst),
            "verdict": "certified-on-samples" if witness is None else "refuted",
            "witness": witness, "witness_eigenvalue": witness_eig}
