"""Independent oracles for the test suite: finite differences, brute-force
parametric geometry, and reference implementations kept separate from the
library code paths they check."""
from __future__ import annotations

import math

import numpy as np


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
# Reference comparison function for the interior estimate
# ---------------------------------------------------------------------------

def q_reference(f, a, b, k):
    """f(b) - f(a) - sum_i grad_i(a) [(a_i - k) - (a_i - k)^2 / (b_i - k)],
    assembled with fsum in a different order than the library."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ga = f.grad(a)
    terms = [float(f.value(b)), -float(f.value(a))]
    for i in range(a.size):
        terms.append(-ga[i] * (a[i] - k))
        terms.append(ga[i] * (a[i] - k) ** 2 / (b[i] - k))
    return math.fsum(terms)


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
# Reference spectral derivatives (independent of the library's rfft kernel)
# ---------------------------------------------------------------------------

def axi_derivs_dct(h):
    """(h', h'') of an even sample on the closed [0, pi] grid through a DCT-I
    cosine series and a DST-I for the odd derivative."""
    import scipy.fft

    M = h.size
    c = scipy.fft.dct(h, type=1) / (M - 1)
    c[0] *= 0.5
    c[-1] *= 0.5
    m = np.arange(M)
    y = -(m**2) * c
    y[0] *= 2.0
    y[-1] *= 2.0
    h2 = scipy.fft.dct(y, type=1) / 2.0
    h1 = np.zeros(M)
    s = -(m * c)[1 : M - 1]  # sin-mode M-1 vanishes on this grid
    if M > 2:
        h1[1 : M - 1] = scipy.fft.dst(s, type=1) / 2.0
    return h1, h2


def curve_derivs_complex(h):
    """(h', h'') of a periodic sample through the full complex FFT; the
    unmatched Nyquist mode of an even N contributes to h'' only."""
    import scipy.fft

    N = h.size
    k = scipy.fft.fftfreq(N, 1.0 / N)
    H = scipy.fft.fft(h)
    d1 = 1j * k
    if N % 2 == 0:
        d1[N // 2] = 0.0
    return scipy.fft.ifft(d1 * H).real, scipy.fft.ifft(-(k**2) * H).real


def principal_radii_reference(mode, h):
    """(N, n) principal radii from the reference derivatives."""
    if mode == "curve":
        return (curve_derivs_complex(h)[1] + h)[:, None]
    h1, h2 = axi_derivs_dct(h)
    th = np.pi * np.arange(h.size) / (h.size - 1)
    r1 = h2 + h
    r2 = r1.copy()
    r2[1:-1] = h1[1:-1] * np.cos(th[1:-1]) / np.sin(th[1:-1]) + h[1:-1]
    return np.stack([r1, r2], axis=1)


def principal_radii_three_transform(mode, h):
    """(N, n) principal radii by one rfft of the (even-extended) samples and
    one irfft per derivative: the reference for geometry._Workspace.radii,
    which stacks the inverse transforms above DENSE_MAX_N and applies a dense
    operator up to it."""
    N = h.size
    if mode == "curve":
        nfft = N
        H = np.fft.rfft(h)
    else:
        nfft = 2 * (N - 1)
        H = np.fft.rfft(np.concatenate([h, h[-2:0:-1]]))
    m = np.arange(nfft // 2 + 1, dtype=float)
    d1 = 1j * m
    if nfft % 2 == 0:
        d1[-1] = 0.0
    r1 = np.fft.irfft(-(m * m) * H, nfft)[:N] + h
    if mode == "curve":
        return r1[:, None]
    th = np.pi * np.arange(N) / (N - 1)
    h1 = np.fft.irfft(d1 * H, nfft)
    r2 = np.empty_like(r1)
    r2[1:-1] = np.cos(th[1:-1]) / np.sin(th[1:-1]) * h1[1 : N - 1] + h[1:-1]
    r2[0] = r1[0]
    r2[-1] = r1[-1]
    return np.stack([r1, r2], axis=1)


# ---------------------------------------------------------------------------
# Reference ball-curvature field: the direct sweep over every grid pair, with
# the axisymmetric y running over the full (theta, phi) torus (O(N^3))
# ---------------------------------------------------------------------------

def ball_curvature_field_sweep(body):
    """Exterior/interior ball curvatures by brute force.  Witnesses are the
    first extremum in (y, phi) order, so either mirror azimuth may appear."""
    from noncollapse.geometry import (CURVE, SEP_FACTOR, BallCurvatureField,
                                      check_convex, embed)

    r = check_convex(body)
    kappa = 1.0 / r
    N = body.N
    pts, nus = embed(body)

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
            if lo < kmin_diag:
                k_lower[x] = lo
                w_lower[x] = (j_lo, 0)
            else:
                k_lower[x] = kmin_diag
            if hi > kmax_diag:
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
        if lo < kmin_diag:
            k_lower[x] = lo
            w_lower[x] = divmod(flat_lo, n_phi)
        else:
            k_lower[x] = kmin_diag
        if hi > kmax_diag:
            k_upper[x] = hi
            w_upper[x] = divmod(flat_hi, n_phi)
        else:
            k_upper[x] = kmax_diag
    return BallCurvatureField(k_lower, k_upper, w_lower, w_upper, kappa, pts)
