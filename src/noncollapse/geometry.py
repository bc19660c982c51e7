"""Convex hypersurfaces represented by support-function samples.

Two modes: closed curves in the plane (periodic grid) and axisymmetric
surfaces in 3-space (polar-angle grid including the poles, differentiated
through its even periodic extension); both use one cached Fourier kernel,
and the flow steps in the closed-form eigenbasis of the linearised radii
operator (_Eigenbasis).  The module computes embeddings, principal
curvatures, interior/exterior ball-curvature fields, in/circumradius, and
the Hausdorff distance to a unit sphere.  The radii are exact to rounding
in one stage each: dual-simplex pivoting for a curve's in-circle, the
lowest dual vertex for the axial in-ball, and farthest-point pivoting for a
curve's circumcircle and, on the mirrored meridian, the axial circumball.
The ball-curvature fields take their x rows in blocks, and the axisymmetric
field finds each pair's nearest admissible azimuth in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CURVE = "curve"
AXISYMMETRIC = "axisymmetric"

# off-diagonal pairs closer than SEP_FACTOR grid spacings (in arclength at x)
# fall to the diagonal extension
SEP_FACTOR = 3.0

# an off-diagonal ball curvature within this relative distance of the
# principal curvature it is compared against is a tie, and the diagonal wins
# it: y on x's own parallel circle gives exactly the azimuthal curvature,
# which the two computations round apart by up to about 1e-11 relative
DIAG_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class ConvexBody:
    """Support-function samples of a convex body at flow time t.

    center_offset is the absolute position of the support origin; it changes
    only when a body is recentered, so curvatures and radii are unaffected.
    """

    mode: str
    h: np.ndarray
    t: float = 0.0
    center_offset: np.ndarray = None

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        if self.mode not in (CURVE, AXISYMMETRIC):
            raise ValueError(f"unknown mode {self.mode!r}")
        if h.ndim != 1 or h.size < 3:
            raise ValueError(f"need a vector of at least 3 support values, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("support values must be finite")
        off = self.center_offset
        if off is None:
            off = np.zeros(self.dim)
        off = np.array(off, dtype=float)
        off.flags.writeable = False
        if off.shape != (self.dim,):
            raise ValueError("center_offset has the wrong dimension")
        if not np.all(np.isfinite(off)):
            raise ValueError("center_offset must be finite")
        object.__setattr__(self, "center_offset", off)

    @property
    def N(self) -> int:
        return self.h.size

    @property
    def dim(self) -> int:
        return 2 if self.mode == CURVE else 3

    @property
    def grid_spacing(self) -> float:
        return 2.0 * np.pi / self.N if self.mode == CURVE else np.pi / (self.N - 1)

    @property
    def thetas(self) -> np.ndarray:
        if self.mode == CURVE:
            return 2.0 * np.pi * np.arange(self.N) / self.N
        return np.pi * np.arange(self.N) / (self.N - 1)

    def directions(self) -> np.ndarray:
        """Outward normal directions of the grid (curve: (N,2); axisym meridian: (N,3))."""
        th = self.thetas
        if self.mode == CURVE:
            return np.stack([np.cos(th), np.sin(th)], axis=1)
        return np.stack([np.sin(th), np.zeros(self.N), np.cos(th)], axis=1)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "N": self.N,
            "t": self.t,
            "h": self.h.tolist(),
            "center_offset": self.center_offset.tolist(),
        }


# ---------------------------------------------------------------------------
# Spectral derivatives
# ---------------------------------------------------------------------------

class _Workspace:
    """Cached Fourier multipliers of one grid.  Curve grids are periodic;
    an axisymmetric grid is differentiated through its even 2(N-1)-periodic
    extension.  One forward rfft per call and one inverse of the stacked
    [h', h''] multipliers."""

    def __init__(self, mode: str, N: int):
        self.mode = mode
        self.N = N
        if mode == CURVE:
            self.dth = 2.0 * np.pi / N
            self.nfft = N
        else:
            self.dth = np.pi / (N - 1)
            self.nfft = 2 * (N - 1)
            th = np.pi * np.arange(N) / (N - 1)
            self.cot_int = np.cos(th[1:-1]) / np.sin(th[1:-1])
        m = np.arange(self.nfft // 2 + 1, dtype=float)
        d1 = 1j * m
        if self.nfft % 2 == 0:
            d1[-1] = 0.0  # unmatched Nyquist mode has no odd derivative
        self.mult = np.array([d1, -(m * m)])
        self._eigen = None

    def derivs(self, h: np.ndarray):
        """(h', h'') on the grid.  It transforms h less its mean, which the
        derivatives annihilate, so the rounding that the m^2 multiplier
        amplifies scales with the variation of h, not with its size."""
        h = h - h.sum() / self.N
        if self.mode == AXISYMMETRIC:
            h = np.concatenate([h, h[-2:0:-1]])
        h1, h2 = np.fft.irfft(self.mult * np.fft.rfft(h), self.nfft)[:, : self.N]
        if self.mode == AXISYMMETRIC:
            h1[0] = h1[-1] = 0.0  # even about both poles
        return h1, h2

    def radii(self, h: np.ndarray) -> np.ndarray:
        """Principal radii (N, 1) or (N, 2): r_1 = h + h'' and, off the
        poles, r_2 = h + cot(theta) h'; the poles take r_1.  No positivity
        check."""
        h1, h2 = self.derivs(h)
        r = np.empty((self.N, 1 if self.mode == CURVE else 2))
        r[:, 0] = h + h2
        if self.mode == AXISYMMETRIC:
            r[1:-1, 1] = h[1:-1] + self.cot_int * h1[1:-1]
            r[0, 1], r[-1, 1] = r[0, 0], r[-1, 0]
        return r

    def eigenbasis(self) -> "_Eigenbasis":
        """The closed-form eigenbasis of sum_i (1 + O_i), built on first use."""
        if self._eigen is None:
            self._eigen = _Eigenbasis(self.mode, self.N)
        return self._eigen


class _Eigenbasis:
    """Eigenpairs of a grid's linearised radii operator sum_i (1 + O_i), O_i
    the offsets r_i - h of _Workspace.radii, in closed form, and the
    principal radii of the eigenvectors themselves.

    Curve grids: 1 + d^2/dtheta^2 has eigenvalue 1 - k^2 on the real Fourier
    modes, so the coefficients are rfft's, and the one radius of
    coefficients c is irfft((1 - k^2) c).  Axisymmetric grids: the operator
    is 2 plus the spherical Laplacian of axisymmetric functions, and it is
    exact on the grid for polynomials in x = cos(theta) of degree below N
    (the Nyquist mode's derivative vanishes at every node), so its
    eigenvectors are the Legendre polynomials P_k(x_j), k < N, with
    eigenvalues 2 - k(k+1).  By Legendre's equation their radii are
    r_1 = (1 - k(k+1)) P_k + x P_k' and r_2 = P_k - x P_k', which sum to
    the eigenvalue times P_k and agree at the poles; P_k' comes from
    P'_{k+1} = P'_{k-1} + (2k+1) P_k in the loop that builds P_k.  P_k has
    the parity of k and the grid is symmetric about the equator, so each
    transform and the radii operator split into an even and an odd half of
    about N/2 x N/2 (the radii blocks have two rows per node); coefficients
    are stored as [even k..., odd k...].  forward(), the inverse of the
    Legendre matrix, is the DCT-I of the grid values (their Chebyshev
    coefficients) followed by the Chebyshev-to-Legendre conversion, built
    column by column from T_{m+1} = 2x T_m - T_{m-1}: no matrix inverse and
    no matrix-matrix product, and no storage beyond the two matrices kept."""

    def __init__(self, mode: str, N: int):
        self.mode = mode
        self.N = N
        if mode == CURVE:
            k = np.arange(N // 2 + 1, dtype=float)
            self.lam = 1.0 - k * k
            return
        M = N - 1
        ne, no = self.ne, self.no = (N + 1) // 2, N // 2
        k = np.arange(N, dtype=float)
        lam = 2.0 - k * (k + 1.0)
        self.lam = np.concatenate([lam[0::2], lam[1::2]])
        th = np.pi * np.arange(ne) / M
        x = np.cos(th)  # the nodes down to the equator; odd P_k vanish on it
        self.v_e, self.v_o = np.empty((ne, ne)), np.empty((no, no))
        # b_e, b_o: Legendre coefficients of the Chebyshev T_m, by parity
        b_e, b_o = np.empty((ne, ne)), np.empty((no, no))
        down = k[1:] / (2.0 * k[1:] - 1.0)          # x P_{k-1} -> P_k
        up = (k[:-1] + 1.0) / (2.0 * k[:-1] + 3.0)  # x P_{k+1} -> P_k
        # r_e, r_o: the radii (r_1, r_2) of P_k at the nodes, by parity
        r_e, r_o = np.empty((ne, 2, ne)), np.empty((no, 2, no))
        p_prev, p = np.zeros(ne), np.ones(ne)
        dp_prev, dp = np.zeros(ne), np.zeros(ne)  # P'_{m-1}, P'_m
        t_prev, t = np.zeros(N), np.zeros(N)
        t[0] = 1.0
        for m in range(N):
            xdp = x * dp
            r1, r2 = (1.0 - m * (m + 1.0)) * p + xdp, p - xdp
            if m % 2 == 0:
                self.v_e[:, m // 2] = p
                r_e[:, 0, m // 2], r_e[:, 1, m // 2] = r1, r2
                b_e[:, m // 2] = t[0::2]
            else:
                self.v_o[:, m // 2] = p[:no]
                r_o[:, 0, m // 2], r_o[:, 1, m // 2] = r1[:no], r2[:no]
                b_o[:, m // 2] = t[1::2]
            dp_prev, dp = dp, dp_prev + (2 * m + 1) * p
            p_prev, p = p, ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
            xt = np.zeros(N)
            xt[1:] = down * t[:-1]
            xt[:-1] += up * t[1:]
            t_prev, t = t, (2.0 if m else 1.0) * xt - t_prev
        # forward() is B C, B the conversion and C the DCT-I c_m =
        # (2/M) w_m sum_j w_j h_j cos(m theta_j) (w = 1/2 at the ends; on the
        # half grid a mirrored node pair counts twice, the equator node
        # once).  Row k of B C is then a DCT-I of row k of B: an rfft of its
        # even extension, written back over the row, 16 rows at a time
        w_node = np.full(ne, 2.0 / M)
        w_node[0] = 1.0 / M
        if N % 2:
            w_node[-1] = 1.0 / M
        for b, parity in ((b_e, 0), (b_o, 1)):
            n = b.shape[0]
            for lo in range(0, n, 16):
                rows = b[lo : lo + 16]
                g = np.zeros((rows.shape[0], N))
                g[:, parity::2] = rows
                spec = np.fft.rfft(np.concatenate([g, g[:, -2:0:-1]], axis=1), axis=1)
                rows[:] = w_node[:n] * spec.real[:, :n]
        self.inv_e, self.inv_o = b_e, b_o
        self.r_e, self.r_o = r_e.reshape(2 * ne, ne), r_o.reshape(2 * no, no)

    def forward(self, h: np.ndarray) -> np.ndarray:
        """Eigen-coefficients of grid values h, one row (N,) or each row of a
        stack (B, N)."""
        if self.mode == CURVE:
            return np.fft.rfft(h)
        hr = h[..., ::-1]
        return np.concatenate([_rows(self.inv_e, 0.5 * (h[..., : self.ne] + hr[..., : self.ne])),
                               _rows(self.inv_o, 0.5 * (h[..., : self.no] - hr[..., : self.no]))],
                              axis=-1)

    def radii(self, c: np.ndarray) -> np.ndarray:
        """Principal radii (N, n), n = 1 or 2, of the body with
        eigen-coefficients c, or (B, N, n) of the rows of a stack c,
        straight from the coefficients.  No positivity check."""
        if self.mode == CURVE:
            return np.fft.irfft(self.lam * c, self.N)[..., None]
        lead = c.shape[:-1]
        return self._unfold(_rows(self.r_e, c[..., : self.ne]).reshape(lead + (self.ne, 2)),
                            _rows(self.r_o, c[..., self.ne :]).reshape(lead + (self.no, 2)))

    def inverse(self, c: np.ndarray) -> np.ndarray:
        """Grid values (N,) of eigen-coefficients c, or (B, N) of the rows of
        a stack c."""
        if self.mode == CURVE:
            return np.fft.irfft(c, self.N)
        return self._unfold(_rows(self.v_e, c[..., : self.ne])[..., None],
                            _rows(self.v_o, c[..., self.ne :])[..., None])[..., 0]

    def _unfold(self, s: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Values (..., N, k) on the whole grid from their even part s
        (..., ne, k) on the nodes down to the equator and their odd part d
        (..., no, k): s + d there, mirrored s - d beyond."""
        out = np.empty(s.shape[:-2] + (self.N, s.shape[-1]))
        out[..., : self.ne, :] = s
        out[..., : self.no, :] += d
        out[..., self.ne :, :] = (s[..., : self.no, :] - d)[..., ::-1, :]
        return out


def _rows(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M applied to X (k,) or to every row of X (B, k): one matrix-vector
    product for a row, one matrix-matrix product for a stack.  (X @ M.T
    would give the same stack, but it makes the one-row case slower.)"""
    return (M @ X.T).T


_WORKSPACES: dict = {}


def _workspace(mode: str, N: int) -> _Workspace:
    key = (mode, N)
    ws = _WORKSPACES.get(key)
    if ws is None:
        ws = _WORKSPACES[key] = _Workspace(mode, N)
    return ws


def curve_derivs(h: np.ndarray):
    """(h', h'') of a periodic sample by Fourier differentiation."""
    return _workspace(CURVE, h.size).derivs(h)


def axi_derivs(h: np.ndarray):
    """(h', h'') of an even sample on the closed [0, pi] grid."""
    return _workspace(AXISYMMETRIC, h.size).derivs(h)


class ConvexityLost(RuntimeError):
    """A principal radius of curvature dropped to zero or below."""


def check_convex(body: ConvexBody) -> np.ndarray:
    """(N, n) principal radii of curvature (poles take the meridian value),
    checked positive."""
    r = _workspace(body.mode, body.N).radii(body.h)
    if r.min() <= 0.0:
        raise ConvexityLost(f"min principal radius {r.min():.3e} <= 0 at t={body.t}")
    return r


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------

def _points(body: ConvexBody) -> np.ndarray:
    """Grid points (curve: full circle; axisym: the meridian at azimuth 0),
    without the convexity check."""
    th = body.thetas
    h = body.h
    if body.mode == CURVE:
        h1, _ = curve_derivs(h)
        return np.stack([h * np.cos(th) - h1 * np.sin(th),
                         h * np.sin(th) + h1 * np.cos(th)], axis=1)
    h1, _ = axi_derivs(h)
    return np.stack([h * np.sin(th) + h1 * np.cos(th), np.zeros(body.N),
                     h * np.cos(th) - h1 * np.sin(th)], axis=1)


# ---------------------------------------------------------------------------
# Ball curvatures
# ---------------------------------------------------------------------------

@dataclass
class BallCurvatureField:
    """Per-gridpoint exterior (k_lower) and interior (k_upper) ball curvatures.

    Witnesses are (y index, azimuth index); the azimuth of y is
    2 pi iphi / N, with iphi <= N // 2 (0 in curve mode).  (-1, -1) marks
    the diagonal (the extremum is a principal curvature at x itself).
    """

    k_lower: np.ndarray
    k_upper: np.ndarray
    witness_lower: np.ndarray  # (N, 2) int
    witness_upper: np.ndarray
    kappa: np.ndarray          # (N, n)
    points: np.ndarray         # (N, dim) grid points, as _points returns them

    def diagonal_lower(self, i: int) -> bool:
        return self.witness_lower[i, 0] < 0


def ball_curvature_field(body: ConvexBody) -> BallCurvatureField:
    """Exterior/interior ball curvatures at every gridpoint.

    k(x, y) = 2 <X_x - Y, nu_x> / |X_x - Y|^2 over admissible y: grid points
    farther from x than SEP_FACTOR grid spacings in arclength at x.  Closer
    pairs are covered by the diagonal extension, which contributes the
    principal curvatures at x; an off-diagonal extremum is reported only when
    it is below the smallest (k_lower) or above the largest (k_upper) of them
    by more than DIAG_TIE_RTOL relative.  A closer extremum is a tie, which
    the diagonal wins, so rounding cannot decide whether a row has an
    off-diagonal witness.

    The x rows are taken FIELD_ROWS at a time: each block builds its
    candidate values against every y and keeps only its row extrema, so no
    temporary is larger than FIELD_ROWS x N.  Curve mode's candidates are
    the pairs of grid points.  Axisymmetric mode fixes x at azimuth 0 and
    turns the meridian point y by the grid azimuths 2 pi m / N.  With
    c = cos(2 pi m / N), |X_x - Y|^2 = A - B c (B = 2 rho_x rho_y >= 0) and
    2 <X_x - Y, nu_x> = P - Q c, so k is linear-fractional, hence monotone,
    in c on the admissible set {A - B c > sep^2}.  Its extrema over the
    azimuths therefore sit at the far azimuth m = N // 2 (the smallest c,
    which is pi only for even N) or at the nearest admissible one, the first
    admissible m <= N // 2, estimated in closed form and made exact by
    _first_admissible.  The result equals the sweep over the whole
    (theta, phi) torus up to rounding.

    Ties: the witness is the first extremum in y; on one y the nearer of the
    two azimuths wins, and of the mirror azimuths m and N - m the one
    <= N // 2 is reported.
    """
    r = check_convex(body)
    kappa = 1.0 / r
    N = body.N
    pts = _points(body)
    nus = body.directions()
    sep2 = ((SEP_FACTOR * body.grid_spacing * r[:, 0]) ** 2)[:, None]
    blocks = _curve_blocks if body.mode == CURVE else _axi_blocks
    lo, hi = np.empty(N), np.empty(N)
    w_lower, w_upper = np.empty((N, 2), dtype=np.intp), np.empty((N, 2), dtype=np.intp)
    for s, ok, k_lo, k_hi, m_lo, m_hi in blocks(pts, nus, sep2):
        rows = np.arange(ok.shape[0])
        k_lo = np.where(ok, k_lo, np.inf)
        k_hi = np.where(ok, k_hi, -np.inf)
        y_lo, y_hi = k_lo.argmin(axis=1), k_hi.argmax(axis=1)
        lo[s], hi[s] = k_lo[rows, y_lo], k_hi[rows, y_hi]
        w_lower[s, 0], w_upper[s, 0] = y_lo, y_hi
        w_lower[s, 1] = np.broadcast_to(m_lo, ok.shape)[rows, y_lo]
        w_upper[s, 1] = np.broadcast_to(m_hi, ok.shape)[rows, y_hi]
    kmin, kmax = kappa.min(axis=1), kappa.max(axis=1)
    off_lo = lo < kmin * (1.0 - DIAG_TIE_RTOL)
    off_hi = hi > kmax * (1.0 + DIAG_TIE_RTOL)
    w_lower[~off_lo] = -1
    w_upper[~off_hi] = -1
    return BallCurvatureField(np.where(off_lo, lo, kmin), np.where(off_hi, hi, kmax),
                              w_lower, w_upper, kappa, pts)


# x rows per block of ball_curvature_field: a block's (FIELD_ROWS, N)
# temporaries, 130 kB each at N = 511, stay in a 2 MB L2 cache where the
# full (N, N) ones (2 MB) do not.  ms per axisymmetric N = 511 field at
# 16/32/64/128 rows: 20.0/19.4/18.3/21.2, 32 and 64 alike within the noise
# (the block sweep of BENCH_fields.json, 2-core x86-64, BLAS on one thread)
FIELD_ROWS = 32


def _curve_blocks(pts, nus, sep2):
    """Per block of x rows: (rows, admissible, k, k, 0, 0) over every y."""
    for a in range(0, pts.shape[0], FIELD_ROWS):
        s = slice(a, a + FIELD_ROWS)
        d0 = pts[s, 0:1] - pts[:, 0]                # X_x - X_y
        d1 = pts[s, 1:2] - pts[:, 1]
        d2 = d0 * d0 + d1 * d1
        with np.errstate(divide="ignore", invalid="ignore"):
            k = 2.0 * (d0 * nus[s, 0:1] + d1 * nus[s, 1:2]) / d2
        yield s, d2 > sep2[s], k, k, 0, 0


def _axi_blocks(pts, nus, sep2):
    """Per block of x rows: (rows, admissible, k at the lower and the upper
    of the two candidate azimuths, their azimuth indices) over every y;
    admissibility is that of the far azimuth, the widest chord."""
    N = pts.shape[0]
    rho, z = pts[:, 0], pts[:, 2]
    phi = 2.0 * np.pi * np.arange(N) / N
    cphi, sphi = np.cos(phi), np.sin(phi)
    far = N // 2
    for a in range(0, N, FIELD_ROWS):
        s = slice(a, a + FIELD_ROWS)
        rx, dz, sep2_s = rho[s, None], z[s, None] - z, sep2[s]
        nu0, nu2 = nus[s, 0:1], nus[s, 2:3]
        d0, d2 = _chord(rx, rho, dz, cphi[far], sphi[far])
        # the pair is admissible at the azimuth phi when A - B cos(phi) >
        # sep^2, A = rho_x^2 + rho_y^2 + dz^2 and B = 2 rho_x rho_y, so the
        # first admissible m is ceil(N arccos((A - sep^2) / B) / 2 pi); where
        # B = 0 (a pole) the azimuth moves nothing, and the quotient's
        # infinity gives 0 or far
        with np.errstate(divide="ignore", invalid="ignore"):
            q = (rx * rx + rho * rho + dz * dz - sep2_s) / (2.0 * rx * rho)
        est = np.ceil(N / (2.0 * np.pi) * np.arccos(np.clip(q, -1.0, 1.0)))
        m = np.clip(np.nan_to_num(est), 0, far).astype(np.intp)
        d0_m, d2_m = _first_admissible(m, rx, rho, dz, sep2_s, cphi, sphi)
        with np.errstate(divide="ignore", invalid="ignore"):
            k_far = 2.0 * (d0 * nu0 + dz * nu2) / d2
            k_near = 2.0 * (d0_m * nu0 + dz * nu2) / d2_m
        near_lo = k_near <= k_far
        near_hi = k_near >= k_far
        yield (s, d2 > sep2_s, np.where(near_lo, k_near, k_far),
               np.where(near_hi, k_near, k_far),
               np.where(near_lo, m, far), np.where(near_hi, m, far))


def _chord(rx, ry, dz, c, s):
    """Radial component of X_x - Y and |X_x - Y|^2 for the meridian point y
    turned to the azimuth of cosine c and sine s."""
    d0 = rx - ry * c
    d1 = ry * s
    return d0, d0 * d0 + d1 * d1 + dz * dz


def _first_admissible(m, rx, ry, dz, sep2, cphi, sphi):
    """Correct, in place, the estimates m of each (x, y) pair's first
    admissible azimuth index in [0, N // 2] (N // 2 where none is) to the
    exact test _chord(m)[1] > sep^2 that decides admissibility, and return
    _chord at m.  The pairs the estimate misses step down while m - 1
    passes the test and up while m fails it, until none moves, so m is
    exact however far the estimate is off."""
    far = cphi.size // 2
    d0, d2 = _chord(rx, ry, dz, cphi[m], sphi[m])
    below = _chord(rx, ry, dz, cphi[m - 1], sphi[m - 1])[1] > sep2
    i, j = np.nonzero((m > 0) & below | (m < far) & ~(d2 > sep2))
    rx, ry, dz, sep2, mm = rx[i, 0], ry[j], dz[i, j], sep2[i, 0], m[i, j]
    while True:
        down = (mm > 0) & (_chord(rx, ry, dz, cphi[mm - 1], sphi[mm - 1])[1] > sep2)
        up = ~down & (mm < far) & ~(_chord(rx, ry, dz, cphi[mm], sphi[mm])[1] > sep2)
        if not (down.any() or up.any()):
            break
        mm = mm - down + up
    m[i, j] = mm
    d0[i, j], d2[i, j] = _chord(rx, ry, dz, cphi[mm], sphi[mm])
    return d0, d2


def tangent_plane_diagnostic(body: ConvexBody, fld: BallCurvatureField,
                             x_index: int) -> float:
    """First-order optimality residual at the witness of k_lower(x): the
    normalised projection of nu_x - k (X_x - X_y) onto the tangent plane at y.
    fld must be the field of body; its grid points are reused.
    O(grid spacing^2) when the discrete witness tracks a smooth off-diagonal
    minimum."""
    if fld.diagonal_lower(x_index):
        raise ValueError(f"k_lower witness at x={x_index} is the diagonal")
    pts, nus = fld.points, body.directions()
    th = body.thetas
    k = fld.k_lower[x_index]
    iy, iphi = fld.witness_lower[x_index]
    if body.mode == CURVE:
        Xy = pts[iy]
        tangents = [np.array([-np.sin(th[iy]), np.cos(th[iy])])]
    else:
        phi = 2.0 * np.pi * iphi / body.N
        ca, sa = np.cos(phi), np.sin(phi)
        Xy = np.array([pts[iy, 0] * ca, pts[iy, 0] * sa, pts[iy, 2]])
        ct, st = np.cos(th[iy]), np.sin(th[iy])
        if st < 1e-12:  # pole: tangent plane is horizontal
            tangents = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        else:
            tangents = [np.array([ct * ca, ct * sa, -st]),
                        np.array([-sa, ca, 0.0])]
    u = nus[x_index] - k * (pts[x_index] - Xy)
    nu = np.linalg.norm(u)
    return float(max(abs(t @ u) for t in tangents) / nu)


# ---------------------------------------------------------------------------
# Radii and Hausdorff distance
# ---------------------------------------------------------------------------

@dataclass
class RadiiReport:
    r_minus: float
    r_plus: float
    in_center: np.ndarray
    circ_center: np.ndarray


def _zero_weights(P: np.ndarray) -> np.ndarray:
    """Barycentric weights of the origin in the triangles of P (..., 3, 2),
    three rows each: all >= 0 exactly when the origin lies in it."""
    a, b = P[..., [1, 2, 0], :], P[..., [2, 0, 1], :]
    w = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return w / w.sum(axis=-1, keepdims=True)


def _in_ball_curve(h: np.ndarray, Z: np.ndarray):
    """max_c min_j (h_j - <c, z_j>) by a dual simplex on the vertices of the
    support-line polygon's dual: triples of unit normals whose triangle holds
    the origin.  A triple's vertex (c, v) solves <c, z> + v = h on its three
    lines and bounds the optimum from above; the line with the smallest
    slack h_j - <c, z_j> replaces the one member that keeps the origin in
    the triangle, which lowers v, until no slack is below v."""
    N = h.size
    T = [0, N // 3, (2 * N) // 3]
    tol = 1e-14 * (1.0 + np.abs(h).max())
    for _ in range(N):
        sol = np.linalg.solve(np.column_stack([Z[T], np.ones(3)]), h[T])
        c, v = sol[:2], sol[2]
        slack = h - Z @ c
        j = int(np.argmin(slack))
        if slack[j] >= v - tol:
            break
        swaps = np.array([T[:i] + [j] + T[i + 1:] for i in range(3)])
        T = swaps[int(np.argmax(_zero_weights(Z[swaps]).min(axis=1)))].tolist()
    else:  # pragma: no cover - v falls at every pivot, so only rounding can cycle
        raise RuntimeError(f"in-center pivoting did not settle in {N} pivots")
    v = slack[j]
    # the optimum is a segment when the largest circle touches two parallel
    # support lines (antipodal grid directions, so N even) and can slide
    # between them; which end the pivoting stops at is then decided by
    # rounding, so take the segment's midpoint, as _in_ball_axi does
    if N % 2:
        return c, v
    width = h + np.roll(h, -(N // 2))
    j = int(np.argmin(width))
    tol = 1e-10 * (1.0 + np.abs(h).max())
    if 2.0 * v < width[j] - tol:
        return c, v
    e = np.array([-Z[j, 1], Z[j, 0]])  # along the two lines
    # the centers c + s e whose every slack stays >= v - tol (s = 0 is one)
    s_lo, s_hi = _line_range(h - Z @ c - (v - tol), Z @ e)
    return c + 0.5 * (s_lo + s_hi) * e, v


def _line_range(room: np.ndarray, u: np.ndarray):
    """(lo, hi): the range of s with s * u_j <= room_j for every j with
    |u_j| > 1e-13, the ends of a flat optimum along a line of centers."""
    up, down = u > 1e-13, u < -1e-13
    return (room[down] / u[down]).max(), (room[up] / u[up]).min()


def _in_ball_axi(h: np.ndarray, u: np.ndarray):
    """max_c min_j (h_j - c u_j), u_j = cos(theta_j): the center on the
    symmetry axis.  The optimum is the lowest vertex of the dual, a crossing
    of a falling line (u_i > 0) with a rising one (u_j < 0), or an
    equatorial node's h_j.  Where the binding lines are nearly equatorial
    the optimal centers form an interval; its midpoint centers symmetric
    bodies exactly."""
    up, down = u > 1e-13, u < -1e-13
    ui, uj = u[up][:, None], u[down][None, :]
    v = ((h[up][:, None] * -uj + h[down][None, :] * ui) / (ui - uj)).min()
    if not (up | down).all():
        v = min(v, h[~(up | down)].min())
    lo, hi = _line_range(h - (v - 1e-10 * (1.0 + h.max())), u)
    return 0.5 * (lo + hi), v


def _circumball_curve(pts: np.ndarray):
    """Minimum enclosing circle by farthest-point pivoting (Elzinga & Hearn,
    Transportation Science 6, 1972).  The support S holds at most three
    points and the circle is the smallest one around them; the point
    farthest from its center joins S, and the smallest circle of S and that
    point, which passes through it, replaces circle and support (the two or
    three points it is drawn through).  The radius grows at every pivot, so
    no support returns; pivoting stops when no point lies outside the circle
    by more than a relative 1e-14, which only rounding can leave, and the
    radius returned is the distance of the farthest point."""
    N = pts.shape[0]
    S, c, r = [0], pts[0], 0.0
    for _ in range(2 * N):
        d = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])
        j = int(np.argmax(d))
        if d[j] <= r * (1.0 + 1e-14):
            return c, float(d[j])
        S, c, r = _smallest_circle_through(pts, S, j)
    else:  # pragma: no cover - the radius grows at every pivot, so only rounding can cycle
        raise RuntimeError(f"circumcircle pivoting did not settle in {2 * N} pivots")


def _smallest_circle_through(pts: np.ndarray, S: list, j: int):
    """(support, center, radius) of the smallest circle around the points S
    and j that passes through j: of the circles on j and one point of S as
    diameter and through j and two points of S, the one whose farthest
    point of S + [j] is nearest."""
    q = pts[j]
    best = None
    for T in [[i] for i in S] + [[a, b] for n, a in enumerate(S) for b in S[n + 1:]]:
        if len(T) == 1:
            c = 0.5 * (q + pts[T[0]])
        else:  # circumcenter, from j, of the triangle j, a, b
            u, v = pts[T[0]] - q, pts[T[1]] - q
            det = 2.0 * (u[0] * v[1] - u[1] * v[0])
            if det == 0.0:
                continue
            uu, vv = u @ u, v @ v
            c = q + np.array([v[1] * uu - u[1] * vv, u[0] * vv - v[0] * uu]) / det
        r = max(float(np.hypot(*(pts[i] - c))) for i in S + [j])
        if best is None or r < best[2]:
            best = (T + [j], c, r)
    return best


def _circumball_axi(pts: np.ndarray):
    """Smallest enclosing ball of a revolved point set; center on the axis.
    Its cut through the axis is the smallest circle around the meridian
    points (rho, z) and their mirror images (-rho, z), which is centered on
    the axis by symmetry: _circumball_curve's pivoting finds it, and the
    radius is that of the farthest point from the center's height."""
    rho, z = pts[:, 0], pts[:, 2]
    mirrored = np.stack([np.concatenate([rho, -rho]), np.concatenate([z, z])], axis=1)
    c = _circumball_curve(mirrored)[0][1]
    return np.array([0.0, 0.0, c]), float(np.sqrt((rho * rho + (z - c) ** 2).max()))


def radii(body: ConvexBody) -> RadiiReport:
    """Inradius (support maximisation) and circumradius (minimum enclosing
    ball of the embedded points), with the touching centers.  Curves: the
    in-circle by pivoting on triples of support lines (_in_ball_curve) and
    the circumcircle by farthest-point pivoting (_circumball_curve).
    Axisymmetric bodies, both centers on the axis: the in-ball from the
    lowest crossing of a falling and a rising support line (_in_ball_axi)
    and the circumball by the curve pivot on the meridian and its mirror
    image (_circumball_axi).  Where the in-center can slide along a flat
    optimum it is the optimum's midpoint."""
    check_convex(body)
    h = body.h
    if body.mode == CURVE:
        Z = body.directions()
        c_in, r_in = _in_ball_curve(h, Z)
        c_out, r_out = _circumball_curve(_points(body))
    else:
        u = np.cos(body.thetas)
        cz, r_in = _in_ball_axi(h, u)
        c_in = np.array([0.0, 0.0, cz])
        c_out, r_out = _circumball_axi(_points(body))
    return RadiiReport(r_minus=float(r_in), r_plus=float(r_out),
                       in_center=c_in, circ_center=c_out)


def hausdorff_to_unit_sphere(body: ConvexBody, center) -> float:
    """max over grid directions of |h(z) - <center, z> - 1| (support-function
    characterisation of the Hausdorff distance to the unit ball at center).
    An axisymmetric body's center must lie on the axis, its first two
    coordinates zero; every azimuth of a meridian direction then gives the
    same value, so the meridian alone is evaluated."""
    center = np.asarray(center, dtype=float)
    if center.shape != (body.dim,):
        raise ValueError("center has the wrong dimension")
    if body.mode == AXISYMMETRIC and np.abs(center[:2]).max() > 0.0:
        raise ValueError("an axisymmetric body's center must lie on the axis")
    g = body.h - body.directions() @ center
    if g.min() <= 0.0:
        raise ValueError(f"support relative to center dips to {g.min():.3e}")
    return float(np.abs(g - 1.0).max())


# ---------------------------------------------------------------------------
# Recentering and constructors
# ---------------------------------------------------------------------------

def recenter(body: ConvexBody) -> tuple[ConvexBody, RadiiReport]:
    """Shift the support origin to the in-center; returns (body, report).

    The report is that of the input body, so its in_center is the shift;
    r_minus and r_plus do not depend on the origin."""
    rep = radii(body)
    c = rep.in_center
    shifted = ConvexBody(mode=body.mode, h=body.h - body.directions() @ c,
                         t=body.t, center_offset=body.center_offset + c)
    return shifted, rep


def make_sphere(mode: str, N: int, radius: float = 1.0) -> ConvexBody:
    return ConvexBody(mode=mode, h=np.full(N, float(radius)))


def make_ellipse(N: int, a: float, b: float) -> ConvexBody:
    th = 2.0 * np.pi * np.arange(N) / N
    return ConvexBody(mode=CURVE, h=np.sqrt((a * np.cos(th)) ** 2 + (b * np.sin(th)) ** 2))


def make_ellipsoid(N: int, a: float, c: float) -> ConvexBody:
    """Axisymmetric ellipsoid with equatorial semi-axis a and polar semi-axis c."""
    th = np.pi * np.arange(N) / (N - 1)
    return ConvexBody(mode=AXISYMMETRIC,
                      h=np.sqrt((a * np.sin(th)) ** 2 + (c * np.cos(th)) ** 2))
