import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noncollapse.speeds import (PROPERTIES, ArithmeticMean, DomainError, HarmonicMean,
                                PowerMean, SigmaRatio, SigmaRoot, certify, parse_speed,
                                trial_uniforms, _elem_batch, _without_one)

from oracles import (elem_batch_reference, fd_gradient, fd_hessian, fd_second_along,
                     matrix_eval, matrix_hess_form, splitmix64_outputs, splitmix64_uniforms,
                     without_one_reference)

CATALOG = ["mean", "harmonic", "sigma-ratio:2", "sigma-root:2", "power:-1",
           "power:0.5", "power:0"]


def catalog(n):
    specs = [s for s in CATALOG if not (s.startswith("sigma") and int(s.split(":")[1]) > n)]
    return [parse_speed(s, n) for s in specs]


def sample_z(rng, n):
    return 10.0 ** rng.uniform(-2, 2, n)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

def test_normalisation_point():
    for n in (1, 2, 3, 5):
        for f in catalog(n):
            assert abs(f.value(np.ones(n)) - 1.0) < 1e-12


def test_normalisation_check_refuses_nan():
    # abs(nan - 1.0) > 1e-12 is False: a NaN value at ones used to pass
    class NaNMean(ArithmeticMean):
        def _v(self, Z):
            return np.full(len(Z), np.nan)

    with pytest.raises(AssertionError, match="not 1"):
        NaNMean(2)


def test_harmonic_value():
    assert HarmonicMean(2).value([1, 2]) == pytest.approx(4 / 3, abs=1e-14)


def test_sigma_ratio_value():
    # sigma_2/sigma_1 = 6/5, normalisation doubles it
    assert SigmaRatio(2, 2).value([2, 3]) == pytest.approx(2.4, abs=1e-14)


def test_domain_error():
    f = HarmonicMean(2)
    with pytest.raises(DomainError):
        f.value([1.0, 0.0])
    with pytest.raises(DomainError):
        f.grad_many([[1.0, -2.0]])


@pytest.mark.parametrize("z", [[1.0, 2.0, 3.0], [[1.0, 2.0]], 1.5, [np.nan, 1.0],
                               [np.inf, 1.0], [1.0, 0.0], [-1.0, 2.0]],
                         ids=["three-entries", "row-array", "bare-float", "nan", "inf",
                              "zero", "negative"])
def test_scalar_entry_points_refuse_points_off_the_cone(z):
    f = HarmonicMean(2)
    for call in (f.value, lambda z: matrix_hess_form(f, z, np.zeros((2, 2)))):
        with pytest.raises(DomainError):
            call(z)


def test_parse_speed_rejects_garbage():
    with pytest.raises(ValueError):
        parse_speed("quintic", 2)
    with pytest.raises(ValueError):
        parse_speed("sigma-ratio:4", 3)


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def test_mean_grad_and_hess():
    f = ArithmeticMean(2)
    assert np.allclose(f.grad_many([[3.0, 7.0]])[0], [0.5, 0.5])
    assert np.allclose(f.hess_many([[3.0, 7.0]]), 0.0)


def test_harmonic_grad_at_ones():
    assert np.allclose(HarmonicMean(2).grad_many([[1, 1]])[0], [0.5, 0.5], atol=1e-14)


def test_harmonic_hess_by_hand():
    H = HarmonicMean(2).hess_many([[1.0, 1.0]])[0]
    assert np.allclose(H, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-12)


def test_power_grad_matches_finite_differences():
    f = PowerMean(3, -0.5)
    z = np.array([1.0, 2.0, 4.0])
    g = f.grad_many([z])[0]
    g_fd = fd_gradient(f.value, z, rel=1e-5)
    assert np.abs(g - g_fd).max() / np.abs(g).max() < 1e-6


@pytest.mark.parametrize("spec", CATALOG)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_derivatives_match_finite_differences(spec, n):
    # moderate anisotropy: outside [0.1, 10] the FD quotient drowns in
    # roundoff; wide ranges are covered by the exact identities below
    f = parse_speed(spec, n)
    rng = np.random.default_rng(11)
    for _ in range(25):
        z = 10.0 ** rng.uniform(-1, 1, n)
        g = f.grad_many([z])[0]
        g_fd = fd_gradient(f.value, z)
        assert np.abs(g - g_fd).max() <= 1e-5 * (1 + np.abs(g).max())
        H = f.hess_many([z])[0]
        H_fd = fd_hessian(f.value, z)
        assert np.abs(H - H_fd).max() <= 1e-4 * (1 + np.abs(H).max())


def test_euler_identity_many_samples():
    rng = np.random.default_rng(5)
    for f in catalog(3):
        for _ in range(1000 // 7):
            z = sample_z(rng, 3)
            v = f.value(z)
            assert abs(f.grad_many([z])[0] @ z - v) <= 1e-9 * abs(v)


def test_homogeneity_many_samples():
    rng = np.random.default_rng(6)
    for f in catalog(3):
        for _ in range(1000 // 7):
            z = sample_z(rng, 3)
            t = 10.0 ** rng.uniform(-2, 2)
            assert abs(f.value(t * z) - t * f.value(z)) <= 1e-9 * t * f.value(z)


def test_hessian_annihilates_radial_direction():
    rng = np.random.default_rng(7)
    for f in catalog(3):
        for _ in range(50):
            z = sample_z(rng, 3)
            H = f.hess_many([z])[0]
            denom = np.linalg.norm(H) * np.linalg.norm(z)
            if denom > 0:
                assert np.linalg.norm(H @ z) <= 1e-8 * denom
            else:
                assert np.linalg.norm(H @ z) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=3, max_size=3),
       st.floats(min_value=0.01, max_value=100.0))
def test_homogeneity_and_symmetry_hypothesis(zs, t):
    f = SigmaRatio(3, 2)
    z = np.array(zs)
    assert f.value(t * z) == pytest.approx(t * f.value(z), rel=1e-9)
    perm = np.array([zs[2], zs[0], zs[1]])
    assert f.value(perm) == pytest.approx(f.value(z), rel=1e-12)


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------

def test_dual_values():
    mean = ArithmeticMean(2)
    assert mean.dual().value([1, 1]) == pytest.approx(1.0, abs=1e-14)
    assert mean.dual().value([1, 2]) == pytest.approx(4 / 3, abs=1e-12)
    assert HarmonicMean(2).dual().value([2, 3]) == pytest.approx(2.5, abs=1e-12)


def test_dual_defining_identity():
    rng = np.random.default_rng(8)
    for f in catalog(3):
        for _ in range(100):
            z = sample_z(rng, 3)
            assert f.dual().value(1.0 / z) * f.value(z) == pytest.approx(1.0, abs=1e-10)


def test_dual_involution():
    rng = np.random.default_rng(9)
    for f in catalog(3):
        g = f.dual().dual()
        for _ in range(30):
            z = sample_z(rng, 3)
            assert g.value(z) == pytest.approx(f.value(z), rel=1e-10)


def test_dual_derivatives_match_finite_differences():
    rng = np.random.default_rng(10)
    for f in catalog(3):
        d = f.dual()
        for _ in range(10):
            y = 10.0 ** rng.uniform(-1, 1, 3)
            g = d.grad_many([y])[0]
            g_fd = fd_gradient(d.value, y)
            assert np.abs(g - g_fd).max() <= 1e-5 * (1 + np.abs(g).max())
            H = d.hess_many([y])[0]
            H_fd = fd_hessian(d.value, y)
            assert np.abs(H - H_fd).max() <= 1e-4 * (1 + np.abs(H).max())


# ---------------------------------------------------------------------------
# Matrix lifts
# ---------------------------------------------------------------------------

def test_matrix_eval_identity_isotropy():
    v, G = matrix_eval(ArithmeticMean(2), np.eye(2))
    assert v == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(G, 0.5 * np.eye(2), atol=1e-14)


def test_matrix_eval_harmonic_diag():
    v, _ = matrix_eval(HarmonicMean(2), np.diag([2.0, 3.0]))
    assert v == pytest.approx(12 / 5, abs=1e-12)


def test_matrix_eval_rotation_invariance_and_equivariance():
    rng = np.random.default_rng(12)
    f = SigmaRatio(3, 2)
    for _ in range(20):
        lam = sample_z(rng, 3)
        Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
        Q = Q * np.sign(np.diag(R))
        A = (Q * lam) @ Q.T
        A = 0.5 * (A + A.T)
        v1, G1 = matrix_eval(f, A)
        U, RU = np.linalg.qr(rng.standard_normal((3, 3)))
        U = U * np.sign(np.diag(RU))
        v2, G2 = matrix_eval(f, 0.5 * ((U @ A @ U.T) + (U @ A @ U.T).T))
        assert v2 == pytest.approx(v1, rel=1e-10)
        assert np.abs(G2 - U @ G1 @ U.T).max() <= 1e-8 * (1 + np.abs(G1).max())


def test_matrix_eval_rejects_indefinite():
    with pytest.raises(ValueError, match="min eigenvalue"):
        matrix_eval(ArithmeticMean(2), np.diag([1.0, -1.0]))


def test_matrix_hess_form_linear_speed_vanishes():
    rng = np.random.default_rng(13)
    f = ArithmeticMean(3)
    for _ in range(10):
        lam = sample_z(rng, 3)
        B = rng.standard_normal((3, 3))
        B = 0.5 * (B + B.T)
        assert matrix_hess_form(f, lam, B) == pytest.approx(0.0, abs=1e-12)


def test_matrix_hess_form_harmonic_by_hand():
    f = HarmonicMean(2)
    lam = np.array([1.0, 2.0])
    g = f.grad_many([lam])[0]
    # divided-difference coefficient (grad_1 - grad_2)/(lam_1 - lam_2)
    assert (g[0] - g[1]) / (lam[0] - lam[1]) == pytest.approx(-2 / 3, abs=1e-12)
    # off-diagonal B hits that coefficient twice in the ordered sum; the
    # eigenvalue expansion of t -> f([[1,t],[t,2]]) = 2(2-t^2)/3 gives -4/3
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    val = matrix_hess_form(f, lam, B)
    assert val == pytest.approx(-4 / 3, abs=1e-12)
    fd = fd_second_along(lambda A: matrix_eval(f, A)[0], np.diag(lam), B)
    assert val == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("spec", CATALOG)
def test_matrix_hess_form_matches_finite_differences(spec):
    f = parse_speed(spec, 3)
    rng = np.random.default_rng(14)
    for _ in range(10):
        lam = np.sort(10.0 ** rng.uniform(-0.7, 0.7, 3))
        if np.diff(lam).min() < 0.05 * lam[-1]:
            continue
        B = rng.standard_normal((3, 3))
        B = 0.5 * (B + B.T)
        val = matrix_hess_form(f, lam, B)
        fd = fd_second_along(lambda A: matrix_eval(f, A)[0], np.diag(lam), B,
                             rel=1e-4)
        assert abs(val - fd) <= 1e-4 * (1 + abs(val))


def test_matrix_hess_form_degenerate_gap_limit():
    f = HarmonicMean(2)
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    # approaching the degenerate spectrum continuously
    v_limit = matrix_hess_form(f, np.array([1.0, 1.0 + 1e-9]), B)
    v_near = matrix_hess_form(f, np.array([1.0, 1.0 + 1e-5]), B)
    assert v_limit == pytest.approx(v_near, rel=1e-3)
    # divided-difference limit at equal arguments is hess_pp - hess_pq = -1
    H = f.hess_many([[1.0, 1.0]])[0]
    assert H[0, 0] - H[0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert v_limit == pytest.approx(2 * (H[0, 0] - H[0, 1]), rel=1e-6)


# ---------------------------------------------------------------------------
# trace of the gradient
# ---------------------------------------------------------------------------

def test_trace_grad_values():
    assert ArithmeticMean(3).grad_many([[0.2, 5.0, 1.7]])[0].sum() == pytest.approx(1.0, abs=1e-12)
    assert HarmonicMean(2).grad_many([[1.0, 2.0]])[0].sum() == pytest.approx(10 / 9, abs=1e-12)
    for f in catalog(3):
        assert f.grad_many([np.ones(3)])[0].sum() == pytest.approx(1.0, abs=1e-10)


def test_trace_grad_at_least_one_for_concave_speeds():
    rng = np.random.default_rng(15)
    for f in catalog(3):  # every catalog speed is concave
        for _ in range(1000 // 7):
            z = sample_z(rng, 3)
            assert f.grad_many([z])[0].sum() >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def test_certify_catalog_two_sided():
    for spec in CATALOG:
        f = parse_speed(spec, 3)
        for prop in ("concave", "inverse-concave"):
            rep = certify(f, prop, trials=400, seed=3)
            assert rep.certified, (spec, prop, rep.min_eigen_seen, rep.witness)
            assert rep.samples_tested == 400


def test_certify_power_minus_two_refuted_inverse_concave():
    rep = certify(PowerMean(2, -2.0), "inverse-concave", trials=400, seed=4)
    assert rep.verdict == "refuted"
    assert rep.witness is not None
    assert rep.witness_eigenvalue < 0


def test_certify_power_two_refuted_concave():
    rep = certify(PowerMean(2, 2.0), "concave", trials=400, seed=4)
    assert rep.verdict == "refuted"
    assert rep.witness is not None


def test_certify_power_two_is_inverse_concave():
    rep = certify(PowerMean(2, 2.0), "inverse-concave", trials=400, seed=4)
    assert rep.certified


def test_certify_one_dimensional_cone_trivial():
    f = ArithmeticMean(1)
    for prop in ("concave", "inverse-concave", "monotone", "homogeneous"):
        assert certify(f, prop, trials=50, seed=0).certified


def test_certify_monotone_and_homogeneous():
    for spec in CATALOG:
        f = parse_speed(spec, 2)
        assert certify(f, "monotone", trials=200, seed=1).certified
        assert certify(f, "homogeneous", trials=200, seed=1).certified


def test_certify_properties_share_one_draw():
    # a list of properties returns one report per name, each equal to the
    # report of that name alone: the points (and the homogeneity scales)
    # are drawn once per trial, in the same order
    for f in (parse_speed("sigma-root:2", 3), PowerMean(3, -2.0), PowerMean(2, 2.0)):
        for names in (list(PROPERTIES), ["inverse-concave", "concave"], ["homogeneous"]):
            reports = certify(f, names, trials=300, seed=17)
            assert [dataclasses.asdict(r) for r in reports] == \
                [dataclasses.asdict(certify(f, name, trials=300, seed=17)) for name in names]
    with pytest.raises(ValueError):
        certify(PowerMean(2, 2.0), ["concave", "convex"], trials=10)


def test_certify_deterministic():
    f = SigmaRoot(3, 2)
    a = certify(f, "concave", trials=100, seed=42)
    b = certify(f, "concave", trials=100, seed=42)
    assert a.min_eigen_seen == b.min_eigen_seen


# ---------------------------------------------------------------------------
# Elementary symmetric polynomials, all and with entries left out
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_elem_batch_matches_column_recurrence_bitwise(n):
    # the trials-last table runs the same recurrence, entry for entry
    rng = np.random.default_rng(20 + n)
    Z = 10.0 ** rng.uniform(-3.0, 3.0, (2000, n))
    got = _elem_batch(Z)
    assert got.shape == (2000, n + 1)
    assert np.array_equal(got, elem_batch_reference(Z))


# The prefix-suffix convolution adds the same nonnegative products as the
# recurrence over the other entries, in another order.  Measured worst over
# 20,000 log-uniform points in [1e-3, 1e3]^n, a third with a near-equal pair:
# 0 at n = 3, 2.7 eps relative at n = 5.
WITHOUT_ONE_C = 8.0


@pytest.mark.parametrize("n", [3, 5])
def test_without_one_matches_recurrence(n):
    rng = np.random.default_rng(30 + n)
    Z = 10.0 ** rng.uniform(-3.0, 3.0, (2000, n))
    Z[::3, 1] = Z[::3, 0] * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, Z[::3].shape[0]))
    ks = list(range(-1, n + 1))
    for k, got in zip(ks, _without_one(Z, *ks)):
        ref = without_one_reference(Z, k)
        assert np.all(np.abs(got - ref) <= WITHOUT_ONE_C * np.finfo(float).eps * ref), (n, k)


# ---------------------------------------------------------------------------
# Counter-based trial streams
# ---------------------------------------------------------------------------

def test_splitmix64_reference_known_answers():
    # published SplitMix64 outputs for states 0 and 1234567
    assert splitmix64_outputs(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                        0x06C45D188009454F]
    assert splitmix64_outputs(1234567, 2) == [6457827717110365317, 3203168211198807973]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1])
def test_trial_uniforms_match_reference(seed):
    # seeds of one to three 64-bit words; trial indices on both sides of 2**32
    trials = [0, 1, 12345, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 7]
    for k in (1, 8, 17):
        U = trial_uniforms(seed, trials, k)
        assert U.shape == (len(trials), k)
        for row, t in zip(U, trials):
            assert row.tolist() == splitmix64_uniforms(seed, t, k), (seed, t, k)


def test_trial_uniforms_seeds_distinct_and_in_range():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 3, 2**128 + 1]
    rows = [trial_uniforms(s, [0], 4)[0].tolist() for s in seeds]
    assert len({tuple(r) for r in rows}) == len(seeds)
    U = trial_uniforms(7, np.arange(20000), 16)
    assert U.min() >= 0.0 and U.max() < 1.0
    assert abs(U.mean() - 0.5) < 5 * np.sqrt(1 / 12 / U.size)


def test_trial_uniforms_reject_negative_seed():
    with pytest.raises(ValueError):
        trial_uniforms(-1, range(3), 4)
    with pytest.raises(ValueError):
        certify(PowerMean(2, 2.0), "concave", trials=10, seed=-1)
