"""Each stacked fast path against its per-sample reference in oracles.py:
the batched Hessians, boundary terms, interior gaps, trial draws and
certify.  Tolerances are multiples of eps times a stated scale; draws,
witnesses and certify reports must be identical."""
import dataclasses

import numpy as np
import pytest

from noncollapse import speeds
from noncollapse.oracle import (_boundary_draws, _boundary_terms_many, _interior_draw,
                                _interior_draws, _interior_matrices, _matrices,
                                _normal_width, _normals, _rotations, boundary_suite,
                                interior_gaps_batched, interior_suite)
from noncollapse.speeds import (GAP_TOL, SpeedFunction, _cone_points, certify,
                                parse_speed, trial_uniforms)

import oracles
from oracles import (BoundarySample, boundary_draws_reference, boundary_stack_reference,
                     boundary_terms_reference, certify_reference, cone_points_reference,
                     hess_reference, interior_draws_reference, interior_gaps_reference,
                     interior_stack_reference, rotations_reference,
                     trial_uniforms_reference)

EPS = np.finfo(float).eps
CATALOG = ["mean", "harmonic", "sigma-ratio:2", "sigma-root:2", "power:-1",
           "power:0.5", "power:0", "power:-2", "power:2", "sigma-ratio:1",
           "sigma-ratio:3", "sigma-root:3", "sigma-ratio:5", "sigma-root:5"]


def catalog(n):
    specs = [s for s in CATALOG if not (s.startswith("sigma") and int(s.split(":")[1]) > n)]
    return [parse_speed(s, n) for s in specs]


# ---------------------------------------------------------------------------
# Hessians
# ---------------------------------------------------------------------------

# Entry (i, j) of a degree-one homogeneous speed's Hessian is assembled from
# terms of size at most about f(z) / (z_i z_j); the batched closed forms
# evaluate the same formulas, with vectorised powers that may differ from the
# scalar ones in the last bit.  Measured worst: 4.6 eps f / (z_i z_j) on the
# points below, 6.0 over 1000 log-uniform points per speed and dual.
HESS_C = 16.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_batched_hessians_match_reference(n):
    rng = np.random.default_rng(n)
    Z = 10.0 ** rng.uniform(-3.0, 3.0, (300, n))
    # near-equal entries at 1e-6 relative: one pair per row, then whole rows
    Z[::3, 1] = Z[::3, 0] * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, Z[::3].shape[0]))
    Z[1::3] = Z[1::3, :1] * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, Z[1::3].shape))
    for f in catalog(n):
        for g in (f, f.dual()):
            H = g.hess_many(Z)
            scale = g.value_many(Z)[:, None, None] / (Z[:, :, None] * Z[:, None, :])
            for i, z in enumerate(Z):
                err = np.abs(H[i] - hess_reference(g, z)) / scale[i]
                assert err.max() <= HESS_C * EPS, (g.name, z, err.max() / EPS)


# ---------------------------------------------------------------------------
# Boundary terms
# ---------------------------------------------------------------------------

# The resolvent sum and the hess-form terms are added in the scalar order;
# only d^T H d (einsum against a matrix-vector product) and the Hessians
# round differently.  Measured worst: 0.99 eps scale on the samples below,
# 1.13 over 300 drawn samples per speed; scale = 1 + the largest term
# magnitude of the reference.
BOUNDARY_C = 4.0


def _boundary_stack(n, m, seed):
    """Drawn samples, then a quarter with lam[1] - lam[0] below GAP_TOL
    (the perturb path) and about a third of the B entries set to exact 0."""
    lam, B = boundary_stack_reference(n, seed, m)
    lam[::4, 1] = lam[::4, 0] * (1.0 + 1e-9)
    lam = np.sort(lam, axis=1)
    zero = np.random.default_rng(seed).uniform(size=B.shape) < 0.3
    B[zero | zero.transpose(0, 2, 1)] = 0.0
    B[:, 0, 0] = 0.0
    return lam, B


@pytest.mark.parametrize("n", [2, 3, 5])
def test_batched_boundary_terms_match_reference(n):
    m = 120
    lam, B = _boundary_stack(n, m, seed=40 + n)
    assert np.any(lam[:, 1] - lam[:, 0] < GAP_TOL * (1.0 + lam[:, 0]))
    assert np.any(B[:, 0, 1:] == 0.0)
    for f in catalog(n):
        values, scales, sups = _boundary_terms_many(f, lam, B)
        for i in range(m):
            ref = boundary_terms_reference(BoundarySample(lam=lam[i], B=B[i], f=f))
            bound = BOUNDARY_C * EPS * ref[1]
            assert abs(values[i] - ref[0]) <= bound, (f.name, i)
            assert abs(scales[i] - ref[1]) <= bound, (f.name, i)
            assert abs(sups[i] - ref[2]) <= bound, (f.name, i)


def test_boundary_suite_witness_is_the_reference_argmin():
    f = parse_speed("power:-2", 3)
    trials, seed = 400, 61
    rep = boundary_suite(f, trials=trials, seed=seed)
    refs = []
    for t in range(trials):
        lam, B = (x[0] for x in _boundary_draws(3, seed, [t]))
        refs.append((lam, B) + boundary_terms_reference(BoundarySample(lam=lam, B=B, f=f)))
    worst = min(range(trials), key=lambda t: refs[t][2] / (1e-7 * refs[t][3]))
    # the witness names the reference argmin and replays from its trial alone
    w = rep["witness"]
    assert w["trial"] == worst
    lam, B = (x[0] for x in _boundary_draws(3, seed, [w["trial"]]))
    assert w == {"lam": lam.tolist(), "B": B.tolist(), "trial": worst}
    assert abs(rep["min_value"] - refs[worst][2]) <= BOUNDARY_C * EPS * refs[worst][3]


# ---------------------------------------------------------------------------
# Interior gaps
# ---------------------------------------------------------------------------

# The closed form evaluates each gap in the basis its trial was drawn in.  The
# matrix-path reference recovers that basis by eigh of the formed A and
# subtracts kI in the original basis, so it carries errors of about eps max(a)
# in the eigenvalues and in A - kI, amplified by the gradient and by the
# resolvent (B - kI)^-1; the gap itself rounds to about eps |f(b)|.  Scale:
# 1 + |f(b)| + max(a) sum|g| (1 + max(s) / min(b - k)), s = a - k and
# g = grad f(a).  Measured worst: 4.7 eps scale on the samples below, 6.3 over
# 6000 trials per n with the same clustering and shifts; 1.6 for the
# tolerance scales 1 + |f(a)|.
INTERIOR_C = 16.0


def _interior_cond(f, a, b, k):
    s = a - k[:, None]
    return 1.0 + np.abs(f.value_many(b)) + (
        a.max(axis=1) * np.abs(f.grad_many(a)).sum(axis=1)
        * (1.0 + s.max(axis=1) / (b - k[:, None]).min(axis=1)))


def _interior_stack(n, m, seed):
    """Drawn trials, then a third with a[1] equal to a[0] to 1e-9 relative,
    a third with all of a equal to 1e-9 relative, and every other trial
    shifted to k = 0.9 min(a, b), the top of the sampler's range."""
    a, Q, b, k = interior_stack_reference(n, seed, m)
    if n > 1:
        a[::3, 1] = a[::3, 0] * (1.0 + 1e-9)
        jitter = np.random.default_rng(seed).uniform(-1.0, 1.0, a[1::3].shape)
        a[1::3] = a[1::3, :1] * (1.0 + 1e-9 * jitter)
    k[::2] = 0.9 * np.minimum(a.min(axis=1), b.min(axis=1))[::2]
    return a, Q, b, k


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_interior_gaps_match_matrix_reference(n):
    m = 300
    a, Q, b, k = _interior_stack(n, m, seed=90 + n)
    A = _interior_matrices(a, Q)
    for f in catalog(n):
        gaps, scales = interior_gaps_batched(f, a, Q, b, k)
        ref_gaps, ref_scales = interior_gaps_reference(f, A, b, k)
        bound = INTERIOR_C * EPS * _interior_cond(f, a, b, k)
        assert np.all(np.abs(gaps - ref_gaps) <= bound), \
            (f.name, np.max(np.abs(gaps - ref_gaps) * INTERIOR_C / bound))
        assert np.all(np.abs(scales - ref_scales) <= bound), f.name


@pytest.mark.parametrize("n", [2, 3, 5])
def test_interior_suite_witness_is_the_reference_draw(n):
    f = parse_speed("power:-2", n)
    trials, seed = 400, 62
    rep = interior_suite(f, trials=trials, seed=seed)
    draws = [_interior_draw(f, seed, t) for t in range(trials)]
    A, b, k = (np.array(x) for x in zip(*draws))
    gaps, scales = interior_gaps_reference(f, A, b, k)
    worst = int(np.argmin(gaps / (1e-7 * scales)))
    # the witness names the reference argmin and replays from its trial alone
    w = rep["witness"]
    assert w["trial"] == worst
    A_t, b_t, k_t = _interior_draw(f, seed, w["trial"])
    assert w == {"A": A_t.tolist(), "B_diag": b_t.tolist(), "k": k_t, "trial": worst}
    cond = _interior_cond(f, np.linalg.eigvalsh(A[[worst]]), b[[worst]], k[[worst]])
    assert abs(rep["min_value"] - gaps[worst]) <= INTERIOR_C * EPS * cond[0]


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5])
def test_batched_draws_bit_identical(n):
    # trial t alone, in a 1024-trial slice that holds it, and in the whole
    # stack: the same bits
    seed, whole, chunk = 71, np.arange(2100), np.arange(1024, 2048)
    picks = [1024, 1025, 1500, 2047]
    for draws in (_interior_draws, _boundary_draws, _cone_points):
        stack = draws(n, seed, whole)
        part = draws(n, seed, chunk)
        for t in picks:
            alone = draws(n, seed, [t])
            for x, y, z in zip(stack, part, alone):
                assert np.array_equal(x[t], y[t - 1024]), (draws.__name__, t)
                assert np.array_equal(x[t], z[0]), (draws.__name__, t)
    # one trial's matrix, as the witness forms it
    a, Q, b, k = _interior_draws(n, seed, whole)
    A = _interior_matrices(a, Q)
    for t in picks:
        A_t, b_t, k_t = _interior_draw(parse_speed("mean", n), seed, t)
        assert np.array_equal(A_t, A[t])
        assert np.array_equal(_interior_matrices(a[t], Q[t]), A[t])
        assert np.array_equal(b_t, b[t]) and k_t == k[t]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_draws_match_row_major_reference(n):
    # the trials-last stacks hold the bits of the row-major construction
    trials = np.arange(3000)
    for seed in (0, 1, 7):
        k = 2 * n + 1 + _normal_width(n)
        U = trial_uniforms(seed, trials, k)
        assert np.array_equal(U, trial_uniforms_reference(seed, trials, k))
        G = _matrices(_normals(U[:, 2 * n + 1:], n * n), n)
        assert np.array_equal(_rotations(G), rotations_reference(G))
        for draws, reference in ((_interior_draws, interior_draws_reference),
                                 (_boundary_draws, boundary_draws_reference),
                                 (_cone_points, cone_points_reference)):
            for x, y in zip(draws(n, seed, trials), reference(n, seed, trials), strict=True):
                assert np.array_equal(x, y), (draws.__name__, seed)


# From n = 8 NumPy sums a short axis with eight running partial sums, while
# _rotations adds a dot product's terms in turn, so Q moves by rounding
# amplified by cond(G).  Measured worst over 12,000 drawn matrices per n in
# {8, 9, 12, 16} and seeds 1-3: |Q - Q_ref| 0.36 eps cond(G).
ROT_C = 1.0


@pytest.mark.parametrize("n", [8, 12])
def test_rotations_near_reference_from_eight(n):
    U = trial_uniforms(n, np.arange(4000), _normal_width(n))
    G = _matrices(_normals(U, n * n), n)
    dist = np.abs(_rotations(G) - rotations_reference(G)).max(axis=(1, 2))
    assert np.all(dist <= ROT_C * EPS * np.linalg.cond(G))


def test_draw_stacks_are_trials_last():
    # a column of uniforms is one contiguous vector, and Q comes back
    # C-contiguous, the layout _interior_matrices and the evaluators have
    # always been given
    U = trial_uniforms(7, range(100), 17)
    assert all(U[:, c].flags.c_contiguous for c in range(17))
    G = _matrices(_normals(U[:, :_normal_width(3)], 9), 3)
    assert _rotations(G).flags.c_contiguous
    assert _interior_draws(3, 7, range(100))[1].flags.c_contiguous


def test_draws_follow_the_generator_laws():
    # the counter-based draws against the Generator reference samplers, 4000
    # trials a side at n = 3: two-sample KS on each coordinate's law
    from scipy.stats import ks_2samp, kstest

    n, m = 3, 4000
    a, Q, b, k = _interior_draws(n, 3, np.arange(m))
    a0, Q0, b0, k0 = interior_stack_reference(n, 3, m)
    lam, B = _boundary_draws(n, 3, np.arange(m))
    lam0, B0 = boundary_stack_reference(n, 3, m)
    pairs = [(np.log10(a), np.log10(a0)), (np.log10(b), np.log10(b0)),
             (k / np.minimum(a, b).min(axis=1), k0 / np.minimum(a0, b0).min(axis=1))]
    pairs += [(Q[:, i, j], Q0[:, i, j]) for i in range(n) for j in range(n)]
    pairs += [(lam[:, i], lam0[:, i]) for i in range(n)]
    pairs += [(B[:, i, j], B0[:, i, j]) for i in range(n) for j in range(i, n) if i + j]
    for new, old in pairs:
        assert ks_2samp(new.ravel(), old.ravel()).pvalue > 1e-3
    # certify's points: log-uniform scales, one trial in four near-degenerate
    Z, s = _cone_points(n, 3, np.arange(m))
    assert kstest((np.log10(s) + 2.0) / 4.0, "uniform").pvalue > 1e-3
    Zs = np.sort(Z, axis=1)
    near = np.mean(np.any(np.diff(Zs, axis=1) <= 1e-6 * Zs[:, 1:], axis=1))
    assert abs(near - 0.25) < 4.0 * np.sqrt(0.25 * 0.75 / m)


def test_box_muller_finite_at_the_ends():
    u = np.array([[0.0, 0.0], [0.0, 1.0 - 2.0**-53], [1.0 - 2.0**-53, 0.5]])
    Z = _normals(u, 2)
    assert np.all(np.isfinite(Z))
    assert np.array_equal(Z[:2], np.zeros((2, 2)))
    assert np.hypot(*Z[2]) == pytest.approx(np.sqrt(2.0 * 53.0 * np.log(2.0)))
    # the moments of a large draw
    Z = _normals(trial_uniforms(5, np.arange(50000), 2), 2)
    se = 1.0 / np.sqrt(Z.size)
    assert abs(Z.mean()) < 5 * se and abs(Z.var() - 1.0) < 5 * np.sqrt(2.0) * se


# Twice-run Gram-Schmidt is orthonormal to rounding whatever the conditioning;
# its Q differs from the sign-fixed QR's by rounding amplified by the
# condition number of G.  Measured worst over 12,000 drawn matrices per n and
# seeds 1-3: |Q^T Q - I| 2.0 eps, |Q - Q_qr| 1.93 eps cond(G), cond(G) up to 3.1e5.
ORTH_C, QR_C = 4.0, 4.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_rotations_are_the_sign_fixed_qr(n):
    U = trial_uniforms(n, np.arange(12000), _normal_width(n))
    G = _normals(U, n * n).reshape(-1, n, n)
    Q = _rotations(G)
    Q_qr, R = np.linalg.qr(G)
    Q_qr = Q_qr * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    orth = np.abs(np.swapaxes(Q, 1, 2) @ Q - np.eye(n)).max(axis=(1, 2))
    assert orth.max() <= ORTH_C * EPS
    dist = np.abs(Q - Q_qr).max(axis=(1, 2))
    assert np.all(dist <= QR_C * EPS * np.linalg.cond(G))


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("prop", ["concave", "inverse-concave", "monotone", "homogeneous"])
def test_certify_matches_per_sample_loop(prop):
    for n in (2, 3):
        for f in catalog(n):
            assert dataclasses.asdict(certify(f, [prop], trials=150, seed=81)[0]) == \
                certify_reference(f, prop, trials=150, seed=81), (f.name, n)


class _ScriptedHessian(SpeedFunction):
    """Not a speed: Hessian diag(z_0 - 1, -z_1), so each margin and its
    tolerance 1e-8 (1 + max|H|) are set by the point."""

    n = 2
    name = "scripted"

    def _v(self, Z):
        return Z.mean(axis=1)

    def _g(self, Z):
        return np.full_like(Z, 0.5)

    def _h(self, Z):
        H = np.zeros((len(Z), 2, 2))
        H[:, 0, 0] = Z[:, 0] - 1.0
        H[:, 1, 1] = -Z[:, 1]
        return H


@pytest.mark.parametrize("points, witness", [
    # margins 0, -1e-3 (witness), -5e-3 (new minimum, inside its 1e-2
    # tolerance), -2e-3 (not a new minimum): the earlier sample stays
    ([(1.0, 1.0), (1.001, 0.5), (1.005, 1e6), (1.002, 1.0)], [1.001, 0.5]),
    # ... until a later, deeper minimum falls below its own tolerance
    ([(1.0, 1.0), (1.001, 0.5), (1.005, 1e6), (1.01, 0.5)], [1.01, 0.5]),
])
def test_certify_witness_is_last_running_minimum_below_its_tolerance(
        monkeypatch, points, witness):
    f = _ScriptedHessian()
    monkeypatch.setattr(speeds, "_cone_points", lambda n, seed, trials: (
        np.array(points, dtype=float), np.ones(len(points))))
    monkeypatch.setattr(oracles, "cone_point_reference",
                        lambda n, seed, t: (np.array(points[t], dtype=float), 1.0))
    reports = [dataclasses.asdict(certify(f, ["concave"], trials=len(points), seed=0)[0]),
               certify_reference(f, "concave", trials=len(points), seed=0)]
    assert reports[0] == reports[1]
    assert reports[0]["verdict"] == "refuted"
    assert reports[0]["witness"] == witness
    assert reports[0]["min_eigen_seen"] == pytest.approx(-0.01 if witness[0] == 1.01 else -0.005)
