import numpy as np
import pytest
from scipy.optimize import minimize

from noncollapse.oracle import BoundarySample, _boundary_terms, boundary_suite, interior_suite
from noncollapse.speeds import (GAP_TOL, ArithmeticMean, HarmonicMean,
                                PowerMean, SigmaRatio, parse_speed)

from oracles import (InteriorSample, boundary_bracket, brute_force_boundary, interior_bracket,
                     interior_gap, interior_scale, interior_stack_reference,
                     matrix_hess_form, optimal_lambda, q_reference,
                     q_second_derivative_check, sample_boundary, sample_interior)

INVERSE_CONCAVE = ["mean", "harmonic", "sigma-ratio:2", "sigma-root:2",
                   "power:-1", "power:0.5"]


# ---------------------------------------------------------------------------
# optimal_lambda
# ---------------------------------------------------------------------------

def test_optimal_lambda_identical_shifted_matrices():
    assert np.allclose(optimal_lambda(2 * np.eye(2), 2 * np.eye(2), 1.0), np.eye(2))


def test_optimal_lambda_diagonal():
    L = optimal_lambda(np.diag([2.0, 3.0]), np.diag([4.0, 5.0]), 1.0)
    assert np.allclose(L, np.diag([1 / 3, 1 / 2]), atol=1e-14)


def test_optimal_lambda_singular_shift():
    with pytest.raises(ValueError, match="shift margin"):
        optimal_lambda(np.diag([2.0, 3.0]), np.diag([4.0, 5.0]), 2.0 - 1e-15)


def test_optimal_lambda_dominates_perturbations():
    rng = np.random.default_rng(0)
    f = HarmonicMean(3)
    s = sample_interior(f, rng)
    L = optimal_lambda(s.A, s.B, s.k)
    base = interior_bracket(f, s.A, s.B, s.k, L)
    for _ in range(10_000):
        E = rng.standard_normal((3, 3))
        val = interior_bracket(f, s.A, s.B, s.k, L + 1e-3 * E)
        assert val <= base + 1e-10 * (1 + abs(base))


def test_interior_gap_equals_bracket_at_optimum():
    rng = np.random.default_rng(1)
    f = SigmaRatio(3, 2)
    for _ in range(20):
        s = sample_interior(f, rng)
        L = optimal_lambda(s.A, s.B, s.k)
        fa = f.value(np.linalg.eigvalsh(s.A))
        fb = f.value(np.diag(s.B))
        total = fb - fa + interior_bracket(f, s.A, s.B, s.k, L)
        assert total == pytest.approx(interior_gap(s), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# interior_gap
# ---------------------------------------------------------------------------

def test_interior_gap_vanishes_at_equal_spectra():
    f = HarmonicMean(3)
    A = np.diag([2.0, 3.0, 4.0])
    s = InteriorSample(A=A, B=A.copy(), k=0.5, f=f)
    assert interior_gap(s) == pytest.approx(0.0, abs=1e-12)


def test_interior_gap_harmonic_frozen_value():
    # grad at a=(2,3) is (18/25, 8/25); brackets 2/3 and 1; gap = 40/9-12/5-4/5
    f = HarmonicMean(2)
    s = InteriorSample(A=np.diag([2.0, 3.0]), B=np.diag([4.0, 5.0]), k=1.0, f=f)
    v = interior_gap(s)
    assert v == pytest.approx(56 / 45, abs=1e-12)
    assert v == pytest.approx(q_reference(f, [2, 3], [4, 5], 1.0), abs=1e-12)


def test_interior_gap_grid_minimum_at_equal_spectra():
    # dense scan of the comparison function around a: minimum sits at z = a
    f = HarmonicMean(2)
    a = np.array([2.0, 3.0])
    k = 1.0
    z1, z2 = np.meshgrid(np.linspace(1.2, 6.0, 1000), np.linspace(1.2, 6.0, 1000))
    Z = np.column_stack([z1.ravel(), z2.ravel()])
    ga = f.grad_many([a])[0]
    vals = (f.value_many(Z) - f.value(a)
            - ((a - k) - (a - k) ** 2 / (Z - k)) @ ga)
    imin = int(np.argmin(vals))
    assert vals[imin] >= -1e-7
    assert np.abs(Z[imin] - a).max() < 6.0 / 999 + 1e-9


@pytest.mark.parametrize("spec", INVERSE_CONCAVE)
def test_interior_gap_nonnegative_for_inverse_concave(spec):
    f = parse_speed(spec, 3)
    for t in range(300):
        s = sample_interior(f, np.random.default_rng((99, t)))
        assert interior_gap(s) >= -1e-7 * interior_scale(s)


def test_interior_gap_permutation_invariance():
    f = SigmaRatio(3, 2)
    a = np.array([2.0, 5.0, 11.0])
    b = np.array([3.0, 7.0, 13.0])
    perm = [2, 0, 1]
    s1 = InteriorSample(A=np.diag(a), B=np.diag(b), k=0.7, f=f)
    s2 = InteriorSample(A=np.diag(a[perm]), B=np.diag(b[perm]), k=0.7, f=f)
    assert interior_gap(s1) == pytest.approx(interior_gap(s2), rel=1e-12)


def test_interior_gap_negative_for_non_inverse_concave():
    # the suite's worst trial, and the formed-matrix gap of its witness
    f = PowerMean(2, -2.0)
    rep = interior_suite(f, trials=20_000, seed=0)
    assert rep["min_value"] < -1e-4
    w = rep["witness"]
    s = InteriorSample(A=np.array(w["A"]), B=np.diag(w["B_diag"]), k=w["k"], f=f)
    assert interior_gap(s) < -1e-4


def test_interior_gap_fails_for_negative_shift():
    # the estimate is one-sided in the shift: at k = -1 the harmonic mean
    # (inverse-concave!) already violates positivity, which is why samplers
    # draw k >= 0 only
    f = HarmonicMean(2)
    s = InteriorSample(A=np.eye(2), B=np.diag([2.0, 0.5]), k=-1.0, f=f)
    assert interior_gap(s) == pytest.approx(-0.2, abs=1e-12)


def test_interior_minimum_location_multistart():
    # L-BFGS in log-shifted coordinates lands at z = a with value ~ 0
    rng = np.random.default_rng(3)
    for spec in ("harmonic", "sigma-ratio:2"):
        f = parse_speed(spec, 2)
        for trial in range(50):
            a = 10.0 ** rng.uniform(-1, 1, 2)
            k = rng.uniform(0.0, 0.9 * a.min())
            ga = f.grad_many([a])[0]

            def q(w):
                z = k + np.exp(w)
                return (f.value(z) - f.value(a)
                        - ga @ ((a - k) - (a - k) ** 2 / (z - k)))

            def dq(w):
                z = k + np.exp(w)
                return (f.grad_many([z])[0] - ga * (a - k) ** 2 / (z - k) ** 2) * (z - k)

            best = None
            for start in range(3):
                w0 = np.log((a - k) * 10.0 ** rng.uniform(-0.5, 0.5, 2))
                res = minimize(q, w0, jac=dq, method="L-BFGS-B",
                               options={"ftol": 1e-16, "gtol": 1e-12})
                if best is None or res.fun < best.fun:
                    best = res
            z_star = k + np.exp(best.x)
            assert best.fun >= -1e-7
            assert abs(best.fun) <= 1e-7 * (1 + f.value(a))
            assert np.abs(z_star - a).max() <= 1e-4 * (1 + np.abs(a).max())


# ---------------------------------------------------------------------------
# Shifted-Hessian identity
# ---------------------------------------------------------------------------

def test_identity_at_equal_points():
    f = HarmonicMean(2)
    a = np.array([2.0, 3.0])
    lhs, rhs = q_second_derivative_check(f, a, a, 0.5)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_identity_random_points():
    rng = np.random.default_rng(4)
    f = HarmonicMean(3)
    for _ in range(200):
        a = 10.0 ** rng.uniform(-1, 1, 3)
        z = 10.0 ** rng.uniform(-1, 1, 3)
        k = rng.uniform(-1.0, 0.9 * min(a.min(), z.min()))
        lhs, rhs = q_second_derivative_check(f, a, z, k)
        assert np.abs(lhs - rhs).max() <= 1e-8


@pytest.mark.parametrize("spec", INVERSE_CONCAVE)
def test_identity_rhs_psd_at_zero_shift(spec):
    f = parse_speed(spec, 3)
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = 10.0 ** rng.uniform(-2, 2, 3)
        _, rhs = q_second_derivative_check(f, z, z, 0.0)
        assert np.linalg.eigvalsh(rhs)[0] >= -1e-8 * (1 + np.abs(rhs).max())


# ---------------------------------------------------------------------------
# boundary_form
# ---------------------------------------------------------------------------

def test_boundary_form_zero_tensor():
    f = HarmonicMean(3)
    s = BoundarySample(lam=np.array([1.0, 2.0, 3.0]), B=np.zeros((3, 3)), f=f)
    assert _boundary_terms(s)[0] == 0.0


def test_boundary_form_mean_by_hand():
    f = ArithmeticMean(2)
    s = BoundarySample(lam=np.array([1.0, 2.0]),
                       B=np.array([[0.0, 1.0], [1.0, 0.0]]), f=f)
    assert _boundary_terms(s)[0] == pytest.approx(1.0, abs=1e-14)


def test_boundary_form_harmonic_trials_nonnegative():
    f = HarmonicMean(3)
    for t in range(1000):
        s = sample_boundary(f, np.random.default_rng((7, t)))
        value, scale, _ = _boundary_terms(s)
        assert value >= -1e-8 * scale


def test_boundary_form_equality_probe():
    # first row zero and bottom eigenvalue tending to zero: the value
    # collapses like 8 lam1^3 / ((lam1+lam2)^3 (lam2-lam1))
    f = HarmonicMean(2)
    lam1, lam2 = 1e-3, 1.0
    s = BoundarySample(lam=np.array([lam1, lam2]), B=np.diag([0.0, 1.0]), f=f)
    v = _boundary_terms(s)[0]
    assert v >= -1e-12
    assert v < 1e-6
    assert v == pytest.approx(8 * lam1**3 / ((lam1 + lam2) ** 3 * (lam2 - lam1)),
                              rel=1e-10)


def test_boundary_form_first_row_terms_strictly_positive():
    f = HarmonicMean(3)
    rng = np.random.default_rng(8)
    lam = np.array([0.5, 1.0, 2.0])
    B0 = np.zeros((3, 3))
    B0[1, 2] = B0[2, 1] = rng.standard_normal()
    B0[1, 1], B0[2, 2] = rng.standard_normal(2)
    base = _boundary_terms(BoundarySample(lam=lam, B=B0, f=f))[0]
    B1 = B0.copy()
    B1[0, 1] = B1[1, 0] = 0.7
    with_row = _boundary_terms(BoundarySample(lam=lam, B=B1, f=f))[0]
    # divided difference and resolvent telescope: the (0,1) entry contributes
    # exactly 2 g_1/(lam_1 - lam_0) b^2
    g = f.grad_many([lam])[0]
    gain = 2 * g[1] / (lam[1] - lam[0]) * 0.7**2
    assert with_row - base == pytest.approx(gain, rel=1e-10)
    assert with_row > base


def test_boundary_form_degenerate_spectrum_paths():
    f = HarmonicMean(2)
    lam = np.array([1.0, 1.0 + 1e-9])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    s = BoundarySample(lam=lam, B=B, f=f)
    v, scale, _ = _boundary_terms(s)  # perturb-and-report path
    assert np.isfinite(v)
    assert v >= -1e-8 * scale


def test_boundary_form_is_hess_form_plus_closed_sup():
    for spec in INVERSE_CONCAVE + ["power:-2"]:
        f = parse_speed(spec, 3)
        for t in range(40):
            s = sample_boundary(f, np.random.default_rng((13, t)))
            assert (s.lam[1:] - s.lam[0]).min() > GAP_TOL * (1.0 + s.lam[0])
            value, _, sup = _boundary_terms(s)
            assert value == matrix_hess_form(f, s.lam, s.B) + sup


def test_boundary_sample_validation():
    f = HarmonicMean(2)
    with pytest.raises(ValueError):
        BoundarySample(lam=np.array([2.0, 1.0]), B=np.zeros((2, 2)), f=f)
    with pytest.raises(ValueError):
        BoundarySample(lam=np.array([1.0, 2.0]),
                       B=np.array([[1.0, 0.0], [0.0, 0.0]]), f=f)


# ---------------------------------------------------------------------------
# Brute-force maximiser
# ---------------------------------------------------------------------------

def test_brute_force_zero_tensor():
    f = HarmonicMean(2)
    s = BoundarySample(lam=np.array([1.0, 2.0]), B=np.zeros((2, 2)), f=f)
    assert brute_force_boundary(s) == pytest.approx(0.0, abs=1e-12)


def test_brute_force_matches_closed_form_mean_example():
    f = ArithmeticMean(2)
    s = BoundarySample(lam=np.array([1.0, 2.0]),
                       B=np.array([[0.0, 1.0], [1.0, 0.0]]), f=f)
    sup = _boundary_terms(s)[2]
    assert brute_force_boundary(s) == pytest.approx(sup, rel=1e-9)
    assert sup == pytest.approx(1.0, abs=1e-14)


def test_brute_force_matches_closed_form_random():
    f = SigmaRatio(3, 2)
    for t in range(30):
        s = sample_boundary(f, np.random.default_rng((9, t)))
        if (s.lam[1:] - s.lam[0]).min() < 1e-3 * (1 + s.lam[0]):
            continue
        cf = _boundary_terms(s)[2]
        bf = brute_force_boundary(s)
        assert abs(bf - cf) <= 1e-6 * (1 + abs(cf))


def test_closed_form_lambda_dominates_random_boundary():
    f = HarmonicMean(3)
    s = sample_boundary(f, np.random.default_rng(10))
    cf = _boundary_terms(s)[2]
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        L = rng.standard_normal((3, 3))
        assert boundary_bracket(s, L) <= cf + 1e-9 * (1 + abs(cf))


# ---------------------------------------------------------------------------
# Suites / reports
# ---------------------------------------------------------------------------

def test_batched_gaps_match_scalar_path():
    from noncollapse.oracle import interior_gaps_batched

    f = parse_speed("sigma-root:2", 5)
    gaps, scales = interior_gaps_batched(f, *interior_stack_reference(5, 31, 60))
    samples = [sample_interior(f, np.random.default_rng((31, t))) for t in range(60)]
    for i, s in enumerate(samples):
        assert gaps[i] == pytest.approx(interior_gap(s), rel=1e-9, abs=1e-9)
        assert scales[i] == pytest.approx(interior_scale(s), rel=1e-9)


def test_oracle_verdicts():
    # one evaluated sample per estimate: the value, the bound it is checked
    # against (-1e-7 scale), the closed-form optimiser, and for the boundary
    # the brute-force cross-value, which the closed form must dominate
    f = HarmonicMean(2)
    s = InteriorSample(A=np.diag([2.0, 3.0]), B=np.diag([4.0, 5.0]), k=1.0, f=f)
    v = interior_gap(s)
    assert v >= -1e-7 * interior_scale(s)
    assert v == pytest.approx(56 / 45, abs=1e-12)
    assert np.allclose(optimal_lambda(s.A, s.B, s.k), np.diag([1 / 3, 1 / 2]))

    bs = BoundarySample(lam=np.array([1.0, 2.0]),
                        B=np.array([[0.0, 1.0], [1.0, 0.0]]),
                        f=ArithmeticMean(2))
    value, scale, sup = _boundary_terms(bs)
    bound = -1e-7 * scale
    assert value >= bound
    assert value == pytest.approx(1.0, abs=1e-12)
    bf = brute_force_boundary(bs) + (value - sup)
    assert value >= bf - 1e-9 * (1.0 + abs(value)) - abs(bound)
    assert bf == pytest.approx(value, rel=1e-8)
    # optimiser entries: B[k,q]/(lam_q - lam_0) with a dead first column
    L = np.zeros((2, 2))
    L[:, 1:] = bs.B[:, 1:] / (bs.lam[1:] - bs.lam[0])[None, :]
    assert L[0, 1] == pytest.approx(1.0)
    assert L[1, 1] == pytest.approx(0.0)
    assert boundary_bracket(bs, L) == pytest.approx(sup, rel=1e-12)


def test_interior_suite_report_shape():
    rep = interior_suite(HarmonicMean(2), trials=200, seed=0)
    assert rep["proposition"] == "2.2"
    assert rep["speed"] == "harmonic"
    assert rep["trials"] == 200
    assert rep["min_scaled"] >= -1.0
    assert "witness" not in rep
    assert rep["runtime_ms"] > 0


def test_boundary_suite_report_shape():
    rep = boundary_suite(ArithmeticMean(2), trials=200, seed=0)
    assert rep["proposition"] == "2.5"
    assert rep["min_scaled"] >= -1.0


def test_suites_deterministic():
    f = SigmaRatio(2, 2)
    for suite in (interior_suite, boundary_suite):
        a = suite(f, trials=300, seed=5)
        b = suite(f, trials=300, seed=5)
        assert a["min_value"] == b["min_value"]
