import numpy as np
import pytest

from fieldnet import Grid, build_noise_covariance, gaussian_covariance
from fieldnet.errors import FieldnetError, ShapeError
from fieldnet.precision import (
    _column_lasso,
    glasso_objective,
    graphical_lasso,
    matrix_sqrt_psd,
    ridge_repair,
)
from oracles import brute_force_lasso, dual_glasso, full_sweep_glasso


def random_spd(rng, d, n=8):
    a = rng.standard_normal((d, n))
    return a @ a.T / n


class TestGraphicalLasso:
    def test_diagonal_input_zero_penalty_exact_inverse(self):
        est = graphical_lasso(np.diag([2.0, 0.5, 4.0]), 0.0)
        assert np.allclose(est.omega, np.diag([0.5, 2.0, 0.25]), atol=1e-14)
        assert est.converged

    def test_large_penalty_diagonal_limit(self, rng):
        s = random_spd(rng, 5)
        nu = 10 * np.abs(s - np.diag(np.diag(s))).max()
        est = graphical_lasso(s, nu)
        off = est.omega - np.diag(np.diag(est.omega))
        assert np.abs(off).max() == 0.0
        assert np.allclose(np.diag(est.omega), 1 / np.diag(s), rtol=1e-10)
        assert est.n_nonzero == 5

    def test_kkt_conditions(self, rng):
        for _ in range(5):
            s = random_spd(rng, 4)
            nu = 0.1 * np.abs(s - np.diag(np.diag(s))).max()
            est = graphical_lasso(s, nu, gap_tol=1e-9)
            w = np.linalg.inv(est.omega)
            off = ~np.eye(4, dtype=bool)
            assert np.abs(np.diag(w) - np.diag(s)).max() < 1e-5
            nz = (est.omega != 0) & off
            if nz.any():
                assert np.abs(w - s - nu * np.sign(est.omega))[nz].max() < 1e-5
            ze = (est.omega == 0) & off
            if ze.any():
                assert (np.abs(w - s) - nu)[ze].max() < 1e-5

    def test_objective_agreement_with_dual_oracle(self, rng):
        for seed in range(3):
            loc = np.random.default_rng(seed)
            s = random_spd(loc, 4)
            nu = 0.08 * np.abs(s).max()
            est = graphical_lasso(s, nu, gap_tol=1e-10)
            primal = glasso_objective(s, est.omega, nu)
            oracle = glasso_objective(s, dual_glasso(s, nu), nu)
            assert abs(primal - oracle) < 1e-5 * max(1.0, abs(oracle))

    def test_objective_trace_non_increasing(self, rng):
        s = random_spd(rng, 6)
        nu = 0.05 * np.abs(s).max()
        est = graphical_lasso(s, nu, gap_tol=1e-12, max_sweeps=30)
        tr = est.objective_trace
        assert (np.diff(tr) <= 1e-10 * np.maximum(1, np.abs(tr[:-1]))).all()

    def test_duality_gap_small_at_exit(self, rng):
        s = random_spd(rng, 5)
        est = graphical_lasso(s, 0.03, gap_tol=1e-6)
        assert est.converged
        assert est.dual_gap <= 1e-6

    def test_duality_gap_never_negative(self):
        # the gap certifies a feasible dual point, so rounding must not
        # carry it below zero on any input
        for seed in range(100):
            loc = np.random.default_rng(seed)
            d = int(loc.integers(2, 7))
            s = random_spd(loc, d, n=int(loc.integers(d, 3 * d + 1)))
            nu = float(loc.uniform(0.01, 0.5)) * np.abs(s - np.diag(np.diag(s))).max()
            assert graphical_lasso(s, nu).dual_gap >= 0.0, seed

    def test_converged_estimate_is_positive_definite(self):
        # rank-deficient inputs at a tiny penalty can drive the working
        # covariance indefinite; such a sweep must not certify
        for seed in range(30):
            s = random_spd(np.random.default_rng(seed), 6, n=2)
            for frac in (0.001, 0.005):
                nu = frac * np.abs(s - np.diag(np.diag(s))).max()
                est = graphical_lasso(s, nu, max_sweeps=50)
                if est.converged:
                    assert np.linalg.eigvalsh(est.omega).min() > 0, (seed, frac)

    @pytest.mark.parametrize("seed, frac", [(4, 0.002), (34, 0.002), (108, 0.005), (151, 0.005)])
    def test_rank_deficient_input_at_small_penalty(self, seed, frac):
        # nu < 0.05 max|s_ij| on rank-deficient inputs: a start outside the
        # dual box lets these overflow or meet a singular W[A, A]
        s = random_spd(np.random.default_rng(seed), 21, n=11)
        off = ~np.eye(21, dtype=bool)
        nu = frac * np.abs(s[off]).max()
        est = graphical_lasso(s, nu, gap_tol=1e-10)
        assert est.converged
        np.linalg.cholesky(est.omega)
        assert est.dual_gap <= 1e-10
        w = np.linalg.inv(est.omega)
        kkt = np.abs(np.diag(w) - np.diag(s)).max()
        nz = (est.omega != 0) & off
        if nz.any():
            kkt = max(kkt, np.abs(w - s - nu * np.sign(est.omega))[nz].max())
        ze = (est.omega == 0) & off
        if ze.any():
            kkt = max(kkt, (np.abs(w - s) - nu)[ze].max())
        assert kkt <= 1e-3 * nu

    def test_solve_count(self, rng):
        s = random_spd(rng, 6)
        assert graphical_lasso(s, 10 * np.abs(s).max()).n_solves == 0
        est = graphical_lasso(s, 0.02 * np.abs(s).max(), max_inner=1, max_sweeps=3)
        assert 0 < est.n_solves <= 6 * est.n_sweeps

    def test_output_symmetric_positive_definite(self, rng):
        s = random_spd(rng, 5)
        est = graphical_lasso(s, 0.05)
        assert np.array_equal(est.omega, est.omega.T)
        assert np.linalg.eigvalsh(est.omega).min() > 0
        assert (np.diag(est.omega) > 0).all()

    def test_indefinite_input_ridge_repaired(self, rng):
        s = random_spd(rng, 4, n=2)  # rank deficient
        est = graphical_lasso(s, 0.05)
        assert np.isfinite(est.omega).all()

    def test_asymmetric_rejected(self, rng):
        s = random_spd(rng, 4)
        s[0, 1] += 1.0
        with pytest.raises(ShapeError):
            graphical_lasso(s, 0.1)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            graphical_lasso(np.ones((2, 3)), 0.1)

    def test_one_by_one_input_is_exact_inverse(self):
        est = graphical_lasso(np.array([[2.0]]), 0.1)
        assert est.omega.tolist() == [[0.5]]
        assert est.converged
        assert est.dual_gap == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, rng, bad):
        s = random_spd(rng, 4)
        s[1, 2] = s[2, 1] = bad
        with pytest.raises(FieldnetError, match="non-finite"):
            graphical_lasso(s, 0.1)

    @pytest.mark.parametrize("nu", [-0.1, np.nan])
    def test_negative_or_nan_penalty_rejected(self, rng, nu):
        with pytest.raises(ValueError, match="non-negative"):
            graphical_lasso(random_spd(rng, 4), nu)

    def test_inner_budget_of_one_pass(self):
        # a strongly correlated input whose column lassos need many
        # coordinate-descent passes; one pass per column must still return
        # a finite estimate whose flag agrees with its certificate
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 40))
        s = (a + 0.2 * rng.standard_normal((12, 40))) @ a.T / 40
        s = (s + s.T) / 2.0
        nu = 0.02 * np.abs(s).max()
        full = graphical_lasso(s, nu)
        assert full.converged
        for sweeps in (1, 3, 500):
            est = graphical_lasso(s, nu, max_inner=1, max_sweeps=sweeps)
            assert np.isfinite(est.omega).all()
            assert est.converged == (est.dual_gap <= 1e-6)
        assert not np.allclose(graphical_lasso(s, nu, max_inner=1, max_sweeps=1).omega,
                               graphical_lasso(s, nu, max_sweeps=1).omega)


class TestActiveSetMatchesFullSweeps:
    """The active-set column solver against full cyclic passes."""

    @staticmethod
    def assert_same_fit(s, nu):
        est = graphical_lasso(s, nu)
        omega, n_sweeps, _ = full_sweep_glasso(s, nu)
        assert est.n_sweeps == n_sweeps
        assert np.array_equal(est.omega != 0, omega != 0)
        assert np.linalg.norm(est.omega - omega) <= 1e-9 * np.linalg.norm(omega)

    def test_random_inputs(self):
        for seed in range(60):
            loc = np.random.default_rng(seed)
            d = int(loc.integers(2, 31))
            s = random_spd(loc, d, n=int(loc.integers(d // 2 + 1, 3 * d + 1)))
            frac = (0.02, 0.05, 0.1, 0.3)[seed % 4]
            self.assert_same_fit(s, frac * np.abs(s - np.diag(np.diag(s))).max())

    def test_smooth_kernel_d100(self):
        grid = Grid(n_x=10, n_y=10, n_steps=10, n_lags=1, dt=0.05,
                    x_range=(0, 10), y_range=(0, 10))
        factor = build_noise_covariance(gaussian_covariance(0.75, 0.5), grid).factor
        z = factor @ np.random.default_rng(0).standard_normal((100, 300))
        s = z @ z.T / 300
        self.assert_same_fit(s, 0.05 * np.abs(s).max())


class TestExactSolvesMatchFullSweeps:
    """The sign-fixed column solves and their feature-sign fallback against
    full cyclic passes, on inputs that exercise each."""

    def test_dense_smooth_kernel_d36(self):
        # a small penalty leaves most of each column active, so every
        # column lasso is one large solve
        grid = Grid(n_x=6, n_y=6, n_steps=10, n_lags=1, dt=0.05,
                    x_range=(0, 6), y_range=(0, 6))
        factor = build_noise_covariance(gaussian_covariance(0.75, 0.5), grid).factor
        z = factor @ np.random.default_rng(0).standard_normal((36, 120))
        s = z @ z.T / 120
        off = ~np.eye(36, dtype=bool)
        for frac in (0.01, 0.002):
            nu = frac * np.abs(s).max()
            TestActiveSetMatchesFullSweeps.assert_same_fit(s, nu)
            assert (graphical_lasso(s, nu).omega[off] != 0).mean() > 0.6

    def test_wrong_first_sign_guess(self):
        # column 0 admits both coordinates, guessing the signs of s[1:, 0];
        # the strong correlation between them flips the second in the
        # solve, where the lasso keeps it at zero
        s = np.array([[1.0, 0.5, 0.3],
                      [0.5, 1.0, 0.9],
                      [0.3, 0.9, 1.0]])
        nu = 0.1
        w11 = 0.95 * s[1:, 1:] + 0.05 * np.diag(np.diag(s[1:, 1:]))
        guess = np.sign(s[1:, 0])
        first = np.linalg.solve(w11, s[1:, 0] - nu * guess)
        assert not np.array_equal(np.sign(first), guess)
        TestActiveSetMatchesFullSweeps.assert_same_fit(s, nu)


class TestFeatureSignKernel:
    """The dense-lasso kernel that the column solves and the rank-one
    stimulus factors share, against enumeration of supports and signs."""

    def test_per_coordinate_penalties_match_brute_force(self):
        rng = np.random.default_rng(5)
        for case in range(60):
            n = 1 + case % 6
            root = rng.standard_normal((n, n + 2))
            v = root @ root.T / (n + 2) + 0.05 * np.eye(n)
            c = rng.standard_normal(n)
            nu = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.8)  # zeros unpenalized
            want = brute_force_lasso(v, c, nu)
            # a warm start with every non-zero sign of the minimizer wrong
            x = np.where(want != 0, -np.sign(want), 1.0) * rng.uniform(0.1, 1.0, n)
            solves, solved = _column_lasso(v, c, x, np.sign(x), nu, 100)
            assert solved and solves <= 100, case
            assert np.abs(x - want).max() <= 1e-10 * max(1.0, np.abs(want).max()), case
            assert np.array_equal(x != 0, want != 0), case

    def test_scalar_penalty_equals_constant_vector(self):
        rng = np.random.default_rng(6)
        for case in range(30):
            n = 1 + case % 6
            v = random_spd(rng, n, n + 2) + 0.05 * np.eye(n)
            c = rng.standard_normal(n)
            start = rng.standard_normal(n) * (rng.random(n) < 0.5)
            nu = rng.uniform(0.05, 1.0)
            scalar, vector = start.copy(), start.copy()
            assert (_column_lasso(v, c, scalar, np.sign(start), nu, 100)
                    == _column_lasso(v, c, vector, np.sign(start), np.full(n, nu), 100))
            assert np.array_equal(scalar, vector), case
            assert np.abs(scalar - brute_force_lasso(v, c, nu)).max() <= 1e-10, case


class TestHelpers:
    def test_objective_infinite_off_positive_definite(self):
        # two negative eigenvalues give a positive determinant
        s = np.eye(3)
        assert glasso_objective(s, np.diag([1.0, -1.0, -1.0]), 0.1) == np.inf
        assert glasso_objective(s, np.diag([1.0, 2.0, 4.0]), 0.1) == pytest.approx(7 - np.log(8))

    def test_ridge_repair_floors_spectrum(self, rng):
        a = rng.standard_normal((4, 2))
        s = a @ a.T  # singular
        rep = ridge_repair(s)
        assert np.linalg.eigvalsh(rep).min() >= 0

    def test_matrix_sqrt_psd(self, rng):
        s = random_spd(rng, 5)
        r = matrix_sqrt_psd(s)
        assert np.allclose(r @ r, s, atol=1e-10)
        assert np.allclose(r, r.T, atol=1e-14)

    def test_matrix_sqrt_floor_on_singular(self, rng):
        a = rng.standard_normal((4, 2))
        s = a @ a.T
        r = matrix_sqrt_psd(s)
        assert np.isfinite(r).all()
        assert np.linalg.eigvalsh(r).min() >= 0
