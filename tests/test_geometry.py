import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noncollapse.geometry import (AXISYMMETRIC, CURVE, SEP_FACTOR, ConvexBody,
                                  ConvexityLost, axi_derivs, ball_curvature_field,
                                  check_convex, curve_derivs,
                                  hausdorff_to_unit_sphere, make_ellipse,
                                  make_ellipsoid, make_sphere, radii, recenter,
                                  _chord, _circumball_axi, _circumball_curve,
                                  _first_admissible,
                                  _points, _Workspace, _workspace,
                                  tangent_plane_diagnostic)

from oracles import (PairTooClose, area, ball_curvature_field_bisection,
                     ball_curvature_pair,
                     ball_curvature_field_sweep, circumball_axi_bisection,
                     circumball_welzl,
                     eigenbasis_extended,
                     ellipse_curvature_parametric,
                     ellipsoid_curvatures_parametric, fd_derivs_even,
                     fd_derivs_periodic, principal_radii, principal_radii_reference,
                     principal_radii_three_transform, radii_dense,
                     radii_reference,
                     random_convex_axisym, random_convex_curve, scale,
                     spectral_derivs_extended, translate)


# ---------------------------------------------------------------------------
# Derivatives and embedding
# ---------------------------------------------------------------------------

def test_spectral_vs_finite_difference_derivatives():
    N = 512
    th = 2 * np.pi * np.arange(N) / N
    h = 1.0 + 0.2 * np.cos(3 * th) + 0.05 * np.sin(5 * th)
    d1, d2 = curve_derivs(h)
    f1, f2 = fd_derivs_periodic(h, 2 * np.pi / N)
    assert np.abs(d1 - f1).max() < 1e-6
    assert np.abs(d2 - f2).max() < 1e-6

    M = 513
    tha = np.pi * np.arange(M) / (M - 1)
    ha = 1.0 + 0.2 * np.cos(2 * tha) + 0.05 * np.cos(5 * tha)
    a1, a2 = axi_derivs(ha)
    g1, g2 = fd_derivs_even(ha, np.pi / (M - 1))
    assert np.abs(a1 - g1).max() < 1e-6
    assert np.abs(a2 - g2).max() < 1e-6


# Against a direct DFT in extended precision: the second derivative carries
# the m^2 multiplier, so the float64 kernel's rounding scales like
# N^2 eps max|h|.  The kernel transforms h less its mean, so its rounding
# scales with the variation of h and stays far below the bound for any seed
# (next test); with the mean left in, h'' reached 2.51 on 4 of 50 random
# axisymmetric bodies at N = 128.  Measured worst constant on the bodies
# below: 0.16 (axisymmetric), 0.021 (curve), for the radii and for h''
SPECTRAL_C = 2.0


@pytest.mark.parametrize("mode, N", [(AXISYMMETRIC, 64), (AXISYMMETRIC, 96),
                                     (AXISYMMETRIC, 128), (AXISYMMETRIC, 129),
                                     (AXISYMMETRIC, 256), (AXISYMMETRIC, 511),
                                     (CURVE, 64), (CURVE, 128), (CURVE, 256), (CURVE, 512)])
def test_spectral_kernel_matches_reference(mode, N):
    rng = np.random.default_rng(N)
    if mode == CURVE:
        bodies = [make_ellipse(N, 1.5, 1.0),
                  ConvexBody(mode=CURVE, h=3.0 * random_convex_curve(rng, N=N))]
        derivs = curve_derivs
    else:
        bodies = [make_ellipsoid(N, 1.0, 1.5),
                  ConvexBody(mode=AXISYMMETRIC, h=3.0 * random_convex_axisym(rng, N=N))]
        derivs = axi_derivs
    for b in bodies:
        tol = SPECTRAL_C * N * N * np.finfo(float).eps * np.abs(b.h).max()
        for got, want in zip(derivs(b.h), spectral_derivs_extended(mode, b.h)):
            assert np.abs(got - want).max() <= tol
        assert np.abs(principal_radii(b) - principal_radii_reference(mode, b.h)).max() <= tol


@pytest.mark.parametrize("mode", [AXISYMMETRIC, CURVE])
def test_principal_radii_bound_holds_across_seeds(mode):
    # 50 random bodies at N = 128 (axisymmetric transform length 254 = 2 * 127,
    # where float64 transforms round worst); measured constant at most: radii
    # 0.018, h'' 0.018, h' 0.0001 (axisymmetric); radii 0.0026, h'' 0.0026,
    # h' 4e-5 (curve)
    N = 128
    derivs = axi_derivs if mode == AXISYMMETRIC else curve_derivs
    for seed in range(50):
        rng = np.random.default_rng((N, seed))
        h = 3.0 * (random_convex_axisym(rng, N=N) if mode == AXISYMMETRIC
                   else random_convex_curve(rng, N=N))
        tol = SPECTRAL_C * N * N * np.finfo(float).eps * np.abs(h).max()
        got = principal_radii(ConvexBody(mode=mode, h=h))
        assert np.abs(got - principal_radii_reference(mode, h)).max() <= tol, seed
        for k, (got, want) in enumerate(zip(derivs(h), spectral_derivs_extended(mode, h))):
            assert np.abs(got - want).max() <= tol, (seed, k + 1)


# The grid kernel against the dense operator that served grids of at most
# 256 points before it (now tests/oracles.py::radii_dense, the RK4
# reference's kernel) and against the three-transform kernel, which keeps
# the mean of h and so rounds with max|h| (its worst measured constant
# against an extended-precision kernel is 3.4, axisymmetric N = 128, where
# the transform length 254 = 2 * 127 has a large prime factor).  Measured
# worst constant on the bodies below: 1.7 against the three-transform
# kernel and 0.87 against the dense operator (axisymmetric), 0.42 and 0.19
# (curve)
DENSE_C = 4.0


def _support_samples(mode, N, rng, axis_ratios, n_random):
    """Ellipsoids (ellipses) with the given axis ratios, then random bodies."""
    if mode == AXISYMMETRIC:
        return ([make_ellipsoid(N, 1.0, q).h for q in axis_ratios]
                + [3.0 * random_convex_axisym(rng, N=N) for _ in range(n_random)])
    return ([make_ellipse(N, 1.0, q).h for q in axis_ratios]
            + [3.0 * random_convex_curve(rng, N=N) for _ in range(n_random)])


@pytest.mark.parametrize("mode", [AXISYMMETRIC, CURVE])
def test_radii_kernel_paths_match_three_transform_reference(mode):
    rng = np.random.default_rng(7)
    n = 1 if mode == CURVE else 2
    grids = (96, 128, 129, 256, 257, 511) if mode == AXISYMMETRIC else (96, 128, 129, 256, 512)
    for N in grids:
        ws = _workspace(mode, N)
        # h less its mean vanishes on a sphere, so the radii are h exactly
        for radius in (3.0, 0.7):
            assert np.array_equal(ws.radii(np.full(N, radius)), np.full((N, n), radius))
        for h in _support_samples(mode, N, rng, (1.5, 4.0), 5):
            tol = DENSE_C * N * N * np.finfo(float).eps * np.abs(h).max()
            got = ws.radii(h)
            assert got.shape == (N, n)
            assert np.abs(got - principal_radii_three_transform(mode, h)).max() <= tol
            if N <= 256:
                assert np.abs(got - radii_dense(mode, h)).max() <= tol


@pytest.mark.parametrize("mode", [AXISYMMETRIC, CURVE])
def test_eigenbasis_diagonalises_radii_operator(mode):
    # the principal radii are linear in h, so sum_i r_i(v) applies
    # sum_i (1 + O_i) to v: every basis vector is an eigenvector to that
    # operator's rounding (N^2 eps |lambda|), with the closed-form eigenvalue
    # (Nyquist modes included), and the two transforms invert each other
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    for N in (8, 9, 64, 65, 256, 511):
        ws = _Workspace(mode, N)
        assert ws._eigen is None  # built on first use only
        eig = ws.eigenbasis()
        if mode == CURVE:
            k = np.arange(N // 2 + 1)
            units = [np.eye(k.size)[i] * z for i in range(k.size) for z in (1.0, 1j)]
            lam = [1.0 - i * i for i in k for _ in (1.0, 1j)]
        else:
            k = np.concatenate([np.arange(0, N, 2), np.arange(1, N, 2)])
            units = list(np.eye(N))
            lam = 2.0 - k * (k + 1.0)
        assert np.array_equal(np.repeat(eig.lam, 2) if mode == CURVE else eig.lam,
                              np.asarray(lam, dtype=float))
        for c, lam_k in zip(units, lam):
            v = eig.inverse(c)
            if not v.any():
                continue  # the sine of the Nyquist mode vanishes on the grid
            resid = np.abs(ws.radii(v).sum(axis=1) - lam_k * v).max()
            assert resid <= 10 * N * N * eps * max(1.0, abs(lam_k)) * np.abs(v).max()
        h = rng.standard_normal(N)
        assert np.abs(eig.inverse(eig.forward(h)) - h).max() <= 20 * N * eps * np.abs(h).max()


@pytest.mark.parametrize("mode", [AXISYMMETRIC, CURVE])
def test_eigenbasis_radii_match_extended_precision(mode):
    # the radii straight from eigen-coefficients against R c in long double
    # (eigenbasis_extended), on ellipsoids (ellipses) and a random body.
    # Measured worst constants of N^2 eps max|h|: at most 0.0034 from N = 64
    # on (0.0007 on curves), where the inverse transform and the radii
    # kernel measure 0.13 to 2.5; up to 0.12 at N <= 5, where the error is
    # the rounding of r itself, which N^2 does not scale.  The long-double
    # closed form is checked against the extended-precision DFT radii of its
    # own grid values (measured at most 0.056)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    for N in (3, 4, 5, 64, 65, 256, 257, 511):
        eig = _workspace(mode, N).eigenbasis()
        if mode == AXISYMMETRIC:
            bodies = [make_ellipsoid(N, 1.0, q).h for q in (0.3, 1.5, 4.0)]
            bodies.append(3.0 * random_convex_axisym(rng, N=N))
        else:
            bodies = [make_ellipse(N, 1.0, q).h for q in (0.3, 1.5, 4.0)]
            bodies.append(3.0 * random_convex_curve(rng, N=N))
        for h in bodies:
            c = eig.forward(h)
            h_ext, r_ext = eigenbasis_extended(mode, N, c)
            unit = N * N * eps * float(np.abs(h_ext).max())
            got = eig.radii(c)
            assert got.shape == (N, 1 if mode == CURVE else 2)
            assert np.abs(got - r_ext).max() <= (0.01 if N > 5 else 0.25) * unit, N
            assert np.abs(principal_radii_reference(mode, h_ext) - r_ext).max() <= 0.1 * unit


@pytest.mark.parametrize("mode", [AXISYMMETRIC, CURVE])
def test_eigenbasis_stack_matches_rows(mode):
    # forward, radii and inverse on a stack of two rows against the rows one
    # at a time: identical on curves (one rfft/irfft over both rows); on
    # axisymmetric grids the matrix-matrix product sums in another order
    # than the matrix-vector one, within 0.1 N eps of the largest input
    # (measured: at most 0.036 N, forward at N = 256)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(8)
    for N in (64, 129, 256, 511):
        eig = _workspace(mode, N).eigenbasis()
        if mode == AXISYMMETRIC:
            H = np.stack([make_ellipsoid(N, 1.0, 1.5).h, random_convex_axisym(rng, N=N)])
        else:
            H = np.stack([make_ellipse(N, 1.5, 1.0).h, random_convex_curve(rng, N=N)])
        C = eig.forward(H)
        for f, X in ((eig.forward, H), (eig.radii, C), (eig.inverse, C)):
            got, rows = f(X), np.stack([f(x) for x in X])
            assert got.shape == rows.shape
            if mode == CURVE:
                assert np.array_equal(got, rows), (f.__name__, N)
            else:
                assert np.abs(got - rows).max() <= 0.1 * N * eps * np.abs(X).max(), (f.__name__, N)


def test_embed_unit_circle():
    b = make_sphere(CURVE, 64)
    pts, nus = _points(b), b.directions()
    assert np.abs(pts - nus).max() < 1e-14
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-14


def test_embed_hand_value():
    N = 128
    th = 2 * np.pi * np.arange(N) / N
    b = ConvexBody(mode=CURVE, h=1.0 + 0.1 * np.cos(2 * th))
    pts = _points(b)
    # h'(0) = 0, so X(0) = (h(0), 0) = (1.1, 0)
    assert np.allclose(pts[0], [1.1, 0.0], atol=1e-12)


def test_support_round_trip():
    b = make_ellipse(256, 1.0, 2.0)
    pts = _points(b)
    h_rec = (pts @ b.directions().T).max(axis=0)
    assert np.abs(h_rec - b.h).max() <= 1e-8


def test_nonconvex_body_raises():
    N = 128
    th = 2 * np.pi * np.arange(N) / N
    b = ConvexBody(mode=CURVE, h=1.0 + 0.5 * np.cos(2 * th))  # h'' + h dips below 0
    with pytest.raises(ConvexityLost):
        check_convex(b)


# ---------------------------------------------------------------------------
# Principal curvatures
# ---------------------------------------------------------------------------

def test_sphere_curvatures():
    for mode, n in ((CURVE, 1), (AXISYMMETRIC, 2)):
        b = make_sphere(mode, 96, 2.5)
        k = 1.0 / principal_radii(b)
        assert k.shape == (96, n)
        assert np.abs(k - 1 / 2.5).max() < 1e-12


def test_ellipse_curvature_against_parametric_oracle():
    b = make_ellipse(256, 1.0, 2.0)
    kap = 1.0 / principal_radii(b)[:, 0]
    oracle = ellipse_curvature_parametric(1.0, 2.0, b.thetas)
    assert np.abs(kap - oracle).max() < 1e-10
    # short semi-axis tip has curvature a/b^2, long tip b/a^2
    assert kap[0] == pytest.approx(0.25, abs=1e-12)
    assert kap[64] == pytest.approx(2.0, abs=1e-10)


def test_ellipsoid_curvatures_against_parametric_oracle():
    a, c = 1.0, 2.0
    b = make_ellipsoid(129, a, c)
    kap = 1.0 / principal_radii(b)
    km, ka = ellipsoid_curvatures_parametric(a, c, b.thetas)
    assert np.abs(kap[:, 0] - km).max() < 1e-9
    assert np.abs(kap[:, 1] - ka).max() < 1e-9
    # equator: meridian a/c^2, azimuthal 1/a; poles umbilic at c/a^2
    assert kap[64, 0] == pytest.approx(a / c**2, abs=1e-12)
    assert kap[64, 1] == pytest.approx(1 / a, abs=1e-12)
    assert np.allclose(kap[0], c / a**2, atol=1e-9)


# ---------------------------------------------------------------------------
# Ball curvatures
# ---------------------------------------------------------------------------

def test_pair_on_circle_and_sphere():
    b = make_sphere(CURVE, 64)
    assert ball_curvature_pair(b, 0, 32) == pytest.approx(1.0, abs=1e-12)
    assert ball_curvature_pair(b, 3, 40) == pytest.approx(1.0, abs=1e-12)
    s = make_sphere(AXISYMMETRIC, 65, 2.0)
    assert ball_curvature_pair(s, 0, 64) == pytest.approx(0.5, abs=1e-12)
    assert ball_curvature_pair(s, 10, 40, y_azimuth=1.3) == pytest.approx(0.5, abs=1e-12)


def test_pair_too_close():
    b = make_sphere(CURVE, 256)
    with pytest.raises(PairTooClose):
        ball_curvature_pair(b, 0, 1)


def test_pair_ellipse_antipodal():
    b = make_ellipse(512, 1.0, 2.0)
    # chord along the long axis: k = 2(2b)/(2b)^2 = 1/b
    assert ball_curvature_pair(b, 128, 384) == pytest.approx(0.5, abs=1e-12)


def test_field_sphere_constant():
    for mode in (CURVE, AXISYMMETRIC):
        b = make_sphere(mode, 96, 2.0)
        fld = ball_curvature_field(b)
        assert np.abs(fld.k_lower - 0.5).max() < 1e-12
        assert np.abs(fld.k_upper - 0.5).max() < 1e-12


def test_field_ellipse_values_and_witnesses():
    b = make_ellipse(512, 1.0, 2.0)
    fld = ball_curvature_field(b)
    i = 128  # normal (0,1): the long-axis tip, maximal curvature point
    assert fld.k_lower[i] == pytest.approx(0.5, abs=1e-3)
    assert not fld.diagonal_lower(i)
    assert fld.k_upper[i] == pytest.approx(2.0, abs=1e-9)
    assert fld.witness_upper[i, 0] < 0
    j = 0  # short-axis tip: enclosed ball of radius 1 through the antipode
    assert fld.k_upper[j] == pytest.approx(1.0, abs=1e-3)


def test_field_sandwich_random_bodies():
    rng = np.random.default_rng(21)
    for _ in range(40):
        b = ConvexBody(mode=CURVE, h=random_convex_curve(rng))
        fld = ball_curvature_field(b)
        kmin = fld.kappa.min(axis=1)
        kmax = fld.kappa.max(axis=1)
        assert np.all(fld.k_lower <= kmin + 1e-10)
        assert np.all(kmax <= fld.k_upper + 1e-10)
        assert np.all(fld.k_lower <= fld.k_upper)
    for _ in range(15):
        b = ConvexBody(mode=AXISYMMETRIC, h=random_convex_axisym(rng))
        fld = ball_curvature_field(b)
        assert np.all(fld.k_lower <= fld.kappa.min(axis=1) + 1e-10)
        assert np.all(fld.kappa.max(axis=1) <= fld.k_upper + 1e-10)


def test_field_refinement_second_order():
    def lower_on(N):
        return ball_curvature_field(make_ellipse(N, 1.0, 2.0)).k_lower

    k64, k128, k256 = lower_on(64), lower_on(128), lower_on(256)
    d1 = np.abs(k64 - k128[::2]).max()
    d2 = np.abs(k128 - k256[::2]).max()
    assert d2 <= d1 / 2.5  # ~O(N^-2) between nested grids


def _assert_witnesses_replay(b, fld):
    for w, k in ((fld.witness_lower, fld.k_lower), (fld.witness_upper, fld.k_upper)):
        for x in np.flatnonzero(w[:, 0] >= 0):
            iy, iphi = w[x]
            assert 0 <= iphi <= b.N // 2
            azimuth = 2.0 * np.pi * iphi / b.N if b.mode == AXISYMMETRIC else 0.0
            assert ball_curvature_pair(b, x, iy, azimuth) == pytest.approx(k[x], rel=1e-12)


def test_field_matches_torus_sweep():
    # the two-candidate azimuth search equals the O(N^3) sweep up to rounding;
    # chords down to the separation SEP_FACTOR * dtheta * r amplify it by N^2
    eps = np.finfo(float).eps
    rng = np.random.default_rng(23)
    bodies = [make_ellipsoid(N, 1.0, c) for N in (64, 129, 256, 511) for c in (1.5, 0.4)]
    bodies += [ConvexBody(mode=AXISYMMETRIC,
                          h=random_convex_axisym(rng, N=int(rng.integers(33, 160))))
               for _ in range(10)]
    for b in bodies:
        fld, ref = ball_curvature_field(b), ball_curvature_field_sweep(b)
        assert np.array_equal(fld.kappa, ref.kappa)
        bound = 0.05 * b.N**2 * eps * np.abs(ref.kappa).max()
        assert np.abs(fld.k_lower - ref.k_lower).max() <= bound
        assert np.abs(fld.k_upper - ref.k_upper).max() <= bound
        _assert_witnesses_replay(b, fld)
    for _ in range(10):
        b = ConvexBody(mode=CURVE, h=random_convex_curve(rng, N=int(rng.integers(48, 257))))
        fld, ref = ball_curvature_field(b), ball_curvature_field_sweep(b)
        for name in ("k_lower", "k_upper", "witness_lower", "witness_upper", "kappa"):
            assert np.array_equal(getattr(fld, name), getattr(ref, name)), name
        _assert_witnesses_replay(b, fld)


def test_field_matches_bisection_reference():
    # the row blocks and the closed-form first admissible azimuth evaluate
    # the same formulas as the full-matrix bisection field, so every value
    # and witness is bit-identical; N below, at and just above FIELD_ROWS,
    # and both poles of the axisymmetric grids
    rng = np.random.default_rng(41)
    bodies = [make_ellipsoid(N, 1.0, c) for N in (5, 31, 32, 33, 64, 129, 256, 511)
              for c in (0.3, 1.5)]
    bodies += [ConvexBody(mode=AXISYMMETRIC,
                          h=random_convex_axisym(rng, N=int(rng.integers(5, 300))))
               for _ in range(8)]
    bodies += [make_ellipse(N, a, 1.0) for N in (31, 64, 255, 256, 512) for a in (1.5, 3.0)]
    bodies += [ConvexBody(mode=CURVE, h=random_convex_curve(rng, N=int(rng.integers(5, 400))))
               for _ in range(6)]
    for b in bodies:
        fld, ref = ball_curvature_field(b), ball_curvature_field_bisection(b)
        for name in ("k_lower", "k_upper", "witness_lower", "witness_upper"):
            assert np.array_equal(getattr(fld, name), getattr(ref, name)), (b.mode, b.N, name)


def test_first_admissible_azimuth_exact_from_any_estimate():
    # the closed-form estimate of each pair's first admissible azimuth is
    # exact on smooth bodies, so the field tests never reach its correction;
    # started from 0, from N // 2 or at random, the correction ends at the
    # first azimuth index whose chord passes the separation test, N // 2
    # where none does, and returns the chord there
    rng = np.random.default_rng(45)
    bodies = [make_ellipsoid(64, 1.0, 0.3), make_ellipsoid(65, 1.0, 1.5),
              ConvexBody(mode=AXISYMMETRIC, h=random_convex_axisym(rng, N=33))]
    for b in bodies:
        far = b.N // 2
        pts, r = _points(b), principal_radii(b)
        sep2 = ((SEP_FACTOR * b.grid_spacing * r[:, 0]) ** 2)[:, None]
        rho, z = pts[:, 0], pts[:, 2]
        rx, dz = rho[:, None], z[:, None] - z
        phi = 2.0 * np.pi * np.arange(b.N) / b.N
        cphi, sphi = np.cos(phi), np.sin(phi)
        adm = np.stack([_chord(rx, rho, dz, cphi[m], sphi[m])[1] > sep2
                        for m in range(far + 1)])
        first = np.where(adm.any(axis=0), adm.argmax(axis=0), far)
        assert (first > 0).any() and (first < far).any() and (first == far).any()
        for est in (np.zeros_like(first), np.full_like(first, far),
                    rng.integers(0, far + 1, size=first.shape)):
            m = est.astype(np.intp)
            d0, d2 = _first_admissible(m, rx, rho, dz, sep2, cphi, sphi)
            assert np.array_equal(m, first)
            d0_ref, d2_ref = _chord(rx, rho, dz, cphi[first], sphi[first])
            assert np.array_equal(d0, d0_ref) and np.array_equal(d2, d2_ref)


def test_field_global_radius_bounds():
    rng = np.random.default_rng(22)
    for _ in range(20):
        b = ConvexBody(mode=CURVE, h=random_convex_curve(rng))
        fld = ball_curvature_field(b)
        rep = radii(b)
        assert fld.k_upper.min() >= 1.0 / rep.r_plus - 1e-8
        assert fld.k_lower.max() <= 1.0 / rep.r_minus + 1e-8


# ---------------------------------------------------------------------------
# Invariances
# ---------------------------------------------------------------------------

def test_scaling_covariance():
    b = make_ellipse(128, 1.0, 2.0)
    fld = ball_curvature_field(b)
    rep = radii(b)
    for s in (0.5, 3.0):
        bs = scale(b, s)
        flds = ball_curvature_field(bs)
        reps = radii(bs)
        assert np.abs(flds.k_lower * s - fld.k_lower).max() < 1e-10
        assert np.abs(flds.k_upper * s - fld.k_upper).max() < 1e-10
        assert np.abs(flds.kappa * s - fld.kappa).max() < 1e-10
        assert reps.r_minus == pytest.approx(s * rep.r_minus, rel=1e-10)
        assert reps.r_plus == pytest.approx(s * rep.r_plus, rel=1e-10)


def test_translation_invariance():
    b = make_ellipse(128, 1.0, 2.0)
    fld = ball_curvature_field(b)
    rep = radii(b)
    bt = translate(b, [0.3, -0.7])
    fldt = ball_curvature_field(bt)
    rept = radii(bt)
    assert np.abs(fldt.k_lower - fld.k_lower).max() < 1e-10
    assert np.abs(fldt.k_upper - fld.k_upper).max() < 1e-10
    assert np.abs(fldt.kappa - fld.kappa).max() < 1e-10
    assert rept.r_minus == pytest.approx(rep.r_minus, abs=1e-10)
    assert rept.r_plus == pytest.approx(rep.r_plus, abs=1e-10)
    assert np.allclose(rept.in_center, rep.in_center + [0.3, -0.7], atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_scaling_translation_axisym_hypothesis(s, vz):
    b = make_ellipsoid(49, 1.0, 1.5)
    bs = translate(scale(b, s), [0.0, 0.0, vz])
    kap = 1.0 / principal_radii(b)
    kaps = 1.0 / principal_radii(bs)
    assert np.abs(kaps * s - kap).max() < 1e-9 * (1 + kap.max())


def test_translate_axisym_rejects_off_axis():
    b = make_ellipsoid(49, 1.0, 1.5)
    with pytest.raises(ValueError):
        translate(b, [0.1, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Radii and Hausdorff
# ---------------------------------------------------------------------------

def test_radii_sphere():
    for mode in (CURVE, AXISYMMETRIC):
        b = make_sphere(mode, 128, 1.7)
        rep = radii(b)
        assert rep.r_minus == pytest.approx(1.7, abs=1e-10)
        assert rep.r_plus == pytest.approx(1.7, abs=1e-10)


def test_radii_ellipse():
    rep = radii(make_ellipse(256, 1.0, 2.0))
    assert rep.r_minus == pytest.approx(1.0, abs=1e-9)
    assert rep.r_plus == pytest.approx(2.0, abs=1e-9)
    assert rep.r_minus <= rep.r_plus


def test_curve_in_center_is_segment_midpoint():
    # the polygon of an a/b = 1.5 ellipse's support lines has flat top and
    # bottom edges along which the largest circle slides by O(dtheta); the
    # in-center is the midpoint of that segment, the ellipse's center, and a
    # 1e-12 change of h moves it by 1e-12 over the angle, O(dtheta), at which
    # the stopping support lines meet the segment
    rng = np.random.default_rng(15)
    for N in (64, 128, 256):
        for shift in ([0.0, 0.0], [0.3, -0.2]):
            b = translate(make_ellipse(N, 1.5, 1.0), shift)
            c = radii(b).in_center
            assert np.abs(c - shift).max() < 1e-12
            for _ in range(5):
                moved = radii(ConvexBody(mode=CURVE, h=b.h + 1e-12 * rng.standard_normal(N)))
                assert np.abs(moved.in_center - c).max() < N * 1e-12


def test_radii_translated_sphere_recovers_center():
    b = translate(make_sphere(CURVE, 256, 1.0), [0.4, -0.2])
    rep = radii(b)
    assert np.allclose(rep.in_center, [0.4, -0.2], atol=1e-8)
    assert np.allclose(rep.circ_center, [0.4, -0.2], atol=1e-8)
    assert rep.r_minus == pytest.approx(1.0, abs=1e-10)


def test_radii_ellipsoid():
    rep = radii(make_ellipsoid(257, 1.0, 1.5))
    assert rep.r_minus == pytest.approx(1.0, abs=1e-6)
    assert rep.r_plus == pytest.approx(1.5, abs=1e-10)


def _radii_bodies():
    """Curves and axisymmetric bodies of odd and even N, N = 3, 4 and 5
    included: spheres, near-round and elongated ellipses, oblate and prolate
    ellipsoids, random bodies, each also translated off the origin."""
    rng = np.random.default_rng(31)
    bodies = []
    for N in (3, 4, 5, 16, 63, 64):
        base = [make_sphere(CURVE, N, 1.7), make_ellipse(N, 1.0001, 1.0),
                ConvexBody(mode=CURVE, h=random_convex_curve(rng, N=N))]
        if N in (3, 63, 64):  # coarser grids lose the a/b = 10 ellipse's convexity
            base.append(make_ellipse(N, 10.0, 1.0))
        bodies += base + [translate(b, [0.4, -0.3]) for b in base]
    for N in (3, 4, 5, 64, 65, 256, 257):
        base = [make_sphere(AXISYMMETRIC, N, 0.6), make_ellipsoid(N, 1.0, 1.5),
                ConvexBody(mode=AXISYMMETRIC, h=random_convex_axisym(rng, N=N))]
        if N != 3:  # three nodes lose the oblate ellipsoid's convexity
            base.append(make_ellipsoid(N, 1.0, 0.3))
        bodies += base + [translate(b, [0.0, 0.0, 0.7]) for b in base]
    return bodies


def test_radii_match_dual_vertex_enumeration():
    # r_minus and r_plus agree with the enumeration of every dual vertex to
    # 1e-13 relative; the in-center holds a ball of radius r_minus up to the
    # 1e-10 slack of the flat-optimum midpoint rule, and the circumcenter
    # holds every point within r_plus
    for b in _radii_bodies():
        rep = radii(b)
        r_minus, r_plus = radii_reference(b)
        assert rep.r_minus == pytest.approx(r_minus, rel=1e-13, abs=0.0), (b.mode, b.N)
        assert rep.r_plus == pytest.approx(r_plus, rel=1e-13, abs=0.0), (b.mode, b.N)
        slack = b.h - b.directions() @ rep.in_center
        assert slack.min() >= rep.r_minus - 2e-10 * (1.0 + np.abs(b.h).max()), (b.mode, b.N)
        pts = _points(b)
        if b.mode == CURVE:
            far = np.hypot(*(pts - rep.circ_center).T).max()
        else:
            far = np.hypot(pts[:, 0], pts[:, 2] - rep.circ_center[2]).max()
        assert far <= rep.r_plus * (1.0 + 1e-13), (b.mode, b.N)


def test_circumcircle_pivot_matches_welzl():
    # the pivot and Welzl's algorithm give the same circle to 1e-13 relative:
    # a circle, on which every point ties as the farthest, an a/b = 20
    # ellipse, random bodies, all also translated, and three and four points;
    # the radius is the distance of the farthest point from the center
    rng = np.random.default_rng(43)
    bodies = []
    for N in (3, 4, 256, 512):
        base = [make_sphere(CURVE, N, 1.3), make_ellipse(N, 1.5, 1.0),
                ConvexBody(mode=CURVE, h=random_convex_curve(rng, N=N))]
        if N != 4:  # four nodes lose the a/b = 20 ellipse's convexity
            base.append(make_ellipse(N, 20.0, 1.0))
        bodies += base + [translate(b, [0.4, -0.3]) for b in base]
    for b in bodies:
        pts = _points(b)
        center, r = _circumball_curve(pts)
        center_ref, r_ref = circumball_welzl(pts)
        assert r == pytest.approx(r_ref, rel=1e-13, abs=0.0), b.N
        assert np.abs(center - center_ref).max() <= 1e-13 * r_ref, b.N
        assert np.hypot(*(pts - center).T).max() == r, b.N


def test_circumball_axi_pivot_matches_bisection():
    # the pivot on the mirrored meridian and the bisection to adjacent
    # floats give the same radius to 1e-14 relative (measured: at most
    # 2.2e-15) on 81 revolved point sets: ellipsoids of c/a 0.05 to 5,
    # random bodies, and two of them moved along the axis, N = 33 to 511
    rng = np.random.default_rng(17)
    n = 0
    for N in (33, 64, 65, 128, 129, 255, 256, 257, 511):
        base = [make_ellipsoid(N, 1.0, q) for q in (0.05, 0.3, 1.0, 1.5, 5.0)]
        base += [ConvexBody(AXISYMMETRIC, random_convex_axisym(rng, N=N, strength=s))
                 for s in (0.3, 0.6)]
        base += [translate(base[1], [0.0, 0.0, 0.7]), translate(base[-1], [0.0, 0.0, -1.3])]
        for b in base:
            pts = _points(b)
            center, r = _circumball_axi(pts)
            _, r_ref = circumball_axi_bisection(pts)
            assert r == pytest.approx(r_ref, rel=1e-14, abs=0.0), N
            assert center[0] == center[1] == 0.0
            assert np.sqrt(pts[:, 0] ** 2 + (pts[:, 2] - center[2]) ** 2).max() == r
            n += 1
    assert n >= 80


def test_recenter_moves_origin():
    b = translate(make_sphere(CURVE, 128, 1.0), [0.3, 0.1])
    b2, rep = recenter(b)
    assert np.allclose(rep.in_center, [0.3, 0.1], atol=1e-8)
    assert np.allclose(b2.center_offset, [0.3, 0.1], atol=1e-8)
    assert np.abs(b2.h - 1.0).max() < 1e-8


def test_hausdorff_values():
    b = make_sphere(CURVE, 128, 1.0)
    assert hausdorff_to_unit_sphere(b, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-14)
    b11 = make_sphere(CURVE, 128, 1.1)
    assert hausdorff_to_unit_sphere(b11, [0.0, 0.0]) == pytest.approx(0.1, abs=1e-12)
    e = make_ellipse(128, 1.0, 2.0)
    assert hausdorff_to_unit_sphere(e, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    s3 = make_sphere(AXISYMMETRIC, 65, 1.3)
    assert hausdorff_to_unit_sphere(s3, [0.0, 0.0, 0.0]) == pytest.approx(0.3, abs=1e-12)


def test_hausdorff_axisymmetric_meridian_equals_azimuth_sweep():
    # with the center on the axis every azimuth gives the meridian's values,
    # so the meridian alone returns the sweep over all grid azimuths exactly;
    # a center off the axis is refused, as translate refuses it
    rng = np.random.default_rng(5)
    for b in (make_ellipsoid(65, 1.0, 1.5), ConvexBody(AXISYMMETRIC, random_convex_axisym(rng, N=96))):
        th = b.thetas
        phi = 2.0 * np.pi * np.arange(b.N) / b.N
        for cz in (0.0, 0.05, -0.1):
            center = np.array([0.0, 0.0, cz])
            proj = (np.sin(th)[:, None] * (0.0 * np.cos(phi) + 0.0 * np.sin(phi))[None, :]
                    + (np.cos(th) * cz)[:, None])
            sweep = float(np.abs(b.h[:, None] - proj - 1.0).max())
            assert hausdorff_to_unit_sphere(b, center) == sweep
    with pytest.raises(ValueError):
        hausdorff_to_unit_sphere(make_sphere(AXISYMMETRIC, 65), [0.1, 0.0, 0.0])


def test_hausdorff_center_outside():
    b = make_sphere(CURVE, 128, 1.0)
    with pytest.raises(ValueError, match="support relative to center dips"):
        hausdorff_to_unit_sphere(b, [1.5, 0.0])


# ---------------------------------------------------------------------------
# Tangent-plane diagnostic
# ---------------------------------------------------------------------------

def test_tangent_diagnostic_ellipse():
    b = make_ellipse(512, 1.0, 2.0)
    fld = ball_curvature_field(b)
    assert np.array_equal(fld.points, _points(b))
    res = tangent_plane_diagnostic(b, fld, 128)
    assert res <= 1e-3


def test_tangent_diagnostic_refinement():
    # generic witnesses sit off-grid, so the worst residual scales with the
    # grid distance to the continuum minimiser (first order); symmetric
    # witnesses like the ellipse tips are exact
    def worst(N):
        th = 2 * np.pi * np.arange(N) / N
        b = ConvexBody(mode=CURVE, h=1.0 + 0.08 * np.cos(2 * th)
                       + 0.03 * np.cos(3 * th + 0.4) + 0.008 * np.sin(5 * th + 1.1))
        fld = ball_curvature_field(b)
        return max(tangent_plane_diagnostic(b, fld, i)
                   for i in range(N) if not fld.diagonal_lower(i))

    r1, r2, r3 = worst(128), worst(256), worst(512)
    assert r2 <= r1 / 1.5
    assert r3 <= r2 / 1.5


def test_tangent_diagnostic_diagonal_witness_raises():
    b = make_ellipse(512, 1.0, 2.0)
    fld = ball_curvature_field(b)
    # force a diagonal witness report
    i = int(np.argmax(fld.witness_lower[:, 0] < 0)) if fld.diagonal_lower(0) else None
    fld.witness_lower[7] = (-1, -1)
    with pytest.raises(ValueError, match="is the diagonal"):
        tangent_plane_diagnostic(b, fld, 7)


def test_tangent_diagnostic_axisym():
    b = make_ellipsoid(129, 1.0, 1.5)
    fld = ball_curvature_field(b)
    i = int(np.argmin(np.abs(b.thetas - np.pi / 2)))
    if not fld.diagonal_lower(i):
        assert tangent_plane_diagnostic(b, fld, i) <= 5e-3


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------

def test_area_circle_and_ellipse():
    assert area(make_sphere(CURVE, 128, 2.0)) == pytest.approx(4 * np.pi, rel=1e-12)
    assert area(make_ellipse(128, 1.0, 2.0)) == pytest.approx(2 * np.pi, rel=1e-10)


def test_body_serialisation_round_trip():
    b = make_ellipsoid(33, 1.0, 1.5)
    d = b.to_dict()
    assert set(d) == {"mode", "N", "t", "h", "center_offset"}
    b2 = ConvexBody(mode=d["mode"], h=d["h"], t=d["t"], center_offset=d["center_offset"])
    assert b2.mode == b.mode and b2.t == b.t
    assert np.array_equal(b2.h, b.h)


def test_body_rejects_nonfinite_and_short_input():
    h = np.ones(16)
    h[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ConvexBody(mode=CURVE, h=h)
    with pytest.raises(ValueError, match="finite"):
        ConvexBody(mode=AXISYMMETRIC, h=np.ones(16), center_offset=[0.0, 0.0, np.inf])
    with pytest.raises(ValueError, match="at least 3"):
        ConvexBody(mode=CURVE, h=np.ones(2))
