import numpy as np
import pytest

from fieldnet import (
    DriftCoefficients,
    Grid,
    SimConfig,
    build_basis_set,
    build_noise_covariance,
    build_weight_matrices,
    gaussian_covariance,
    simulate_euler,
    uniform_bspline_spec,
    white_covariance,
)
from fieldnet import simulate as simulate_module
from fieldnet.errors import DivergenceError, InvalidCovarianceError, ShapeError
from oracles import dense_weight_euler, quadrature_weight_entry


def indicator_basis(grid, p_t=1, p_l=1):
    """Degree-0 bases so constant fields are represented exactly."""
    return build_basis_set(
        grid,
        uniform_bspline_spec(0, 2, *grid.x_range),
        uniform_bspline_spec(0, 2, *grid.y_range),
        uniform_bspline_spec(0, p_t, 0.0, grid.duration),
        uniform_bspline_spec(0, p_l, -grid.tau, 0.0),
    )


class TestNoiseCovariance:
    def test_white_noise_is_scaled_identity(self):
        grid = Grid(n_x=2, n_y=3, n_steps=4, n_lags=1, dt=0.1,
                    x_range=(0.0, 1.0), y_range=(0.0, 1.5))
        noise = build_noise_covariance(white_covariance(1.0), grid)
        assert np.array_equal(noise.c_tilde, grid.cell_area**2 * np.eye(6))

    def test_gaussian_two_by_two_hand_formula(self):
        grid = Grid(n_x=2, n_y=2, n_steps=4, n_lags=1, dt=0.1)
        ell = 0.3
        noise = build_noise_covariance(gaussian_covariance(ell), grid)
        xc, yc = grid.x_centers, grid.y_centers
        want = np.empty((4, 4))
        for col, (i, j) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
            for row, (m, n) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
                du = xc[m] - xc[i]
                dv = yc[n] - yc[j]
                want[row, col] = np.exp(-(du**2 + dv**2) / (2 * ell**2))
        want *= grid.cell_area**2
        assert np.allclose(noise.c_tilde, want, atol=1e-15)

    def test_exactly_symmetric(self, rng):
        grid = Grid(n_x=3, n_y=2, n_steps=4, n_lags=1, dt=0.1)
        noise = build_noise_covariance(gaussian_covariance(0.4), grid)
        assert np.array_equal(noise.c_tilde, noise.c_tilde.T)

    def test_strongly_indefinite_rejected(self):
        grid = Grid(n_x=2, n_y=2, n_steps=4, n_lags=1, dt=0.1)

        def bad(u, v):
            # anti-correlation larger than the variance
            return np.where((np.asarray(u) == 0) & (np.asarray(v) == 0), 0.1, -1.0)

        with pytest.raises(InvalidCovarianceError, match="min eigenvalue -0.1"):
            build_noise_covariance(bad, grid)

    # 0.05 is short enough for a diagonally dominant matrix, 0.75 is not
    @pytest.mark.parametrize("length, choleskys", [(0.05, []), (0.75, [(12, 12)])])
    def test_positive_definite_covariance_is_its_own_mixer(self, monkeypatch, length, choleskys):
        grid = Grid(n_x=4, n_y=3, n_steps=4, n_lags=1, dt=0.1)

        def refuse(*args, **kwargs):
            raise AssertionError("a positive definite covariance was eigendecomposed")

        cholesky, calls = np.linalg.cholesky, []
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
        noise = build_noise_covariance(gaussian_covariance(length, 0.5), grid)
        assert calls == choleskys
        assert np.array_equal(noise.factor, noise.c_tilde)
        assert not np.shares_memory(noise.factor, noise.c_tilde)

    def test_singular_covariance_takes_the_clipped_eigendecomposition(self, monkeypatch):
        # the fully correlated limit: every entry equal, rank one
        grid = Grid(n_x=3, n_y=2, n_steps=4, n_lags=1, dt=0.1)
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        noise = build_noise_covariance(gaussian_covariance(1e300), grid)
        assert calls == [(6, 6)]
        assert np.allclose(noise.factor @ noise.factor.T, noise.c_tilde.T @ noise.c_tilde,
                           atol=1e-15)

    def test_factor_is_psd_square_root_of_increment_covariance(self):
        grid = Grid(n_x=2, n_y=2, n_steps=4, n_lags=1, dt=0.1)
        noise = build_noise_covariance(gaussian_covariance(0.5), grid)
        assert np.allclose(noise.factor @ noise.factor.T,
                           noise.c_tilde.T @ noise.c_tilde, atol=1e-12)


class TestWeightMatrices:
    def test_zero_coefficients(self):
        grid = Grid(n_x=2, n_y=2, n_steps=4, n_lags=2, dt=0.1)
        basis = indicator_basis(grid, p_l=2)
        w = build_weight_matrices(np.zeros((2, 2, 2, 2, 2)), basis)
        assert w.shape == (4, 4, 2)
        assert not w.any()

    def test_single_coefficient_separability(self):
        grid = Grid(n_x=3, n_y=3, n_steps=4, n_lags=2, dt=0.1,
                    x_range=(0.0, 3.0), y_range=(0.0, 3.0))
        basis = build_basis_set(
            grid,
            uniform_bspline_spec(1, 3, *grid.x_range),
            uniform_bspline_spec(1, 3, *grid.y_range),
            uniform_bspline_spec(0, 1, 0.0, grid.duration),
            uniform_bspline_spec(1, 2, -grid.tau, 0.0),
        )
        beta = np.zeros((3, 3, 3, 3, 2))
        beta[1, 2, 0, 1, 1] = 1.0
        w5 = build_weight_matrices(beta, basis).reshape(3, 3, 3, 3, 2, order="F")
        want = np.einsum(
            "m,n,i,j,l->mnijl",
            basis.int_x[:, 1], basis.int_y[:, 2],
            basis.phi_x[:, 0], basis.phi_y[:, 1], basis.int_l[:, 1],
        )
        assert np.allclose(w5, want, atol=1e-14)

    def test_random_coefficients_match_quadrature(self, rng):
        grid = Grid(n_x=3, n_y=3, n_steps=4, n_lags=2, dt=0.1,
                    x_range=(0.0, 1.0), y_range=(0.0, 1.0))
        basis = build_basis_set(
            grid,
            uniform_bspline_spec(2, 4, *grid.x_range),
            uniform_bspline_spec(2, 4, *grid.y_range),
            uniform_bspline_spec(0, 1, 0.0, grid.duration),
            uniform_bspline_spec(2, 3, -grid.tau, 0.0),
        )
        beta = rng.standard_normal((4, 4, 4, 4, 3))
        w = build_weight_matrices(beta, basis)
        scale = np.abs(w).max()
        for m, n, i, j, l in [(0, 0, 1, 2, 0), (2, 1, 0, 0, 1), (1, 2, 2, 1, 1)]:
            want = quadrature_weight_entry(beta, basis, m, n, i, j, l)
            got = w[m + 3 * n, i + 3 * j, l]
            assert abs(got - want) <= 1e-6 * max(scale, 1.0)


class TestEuler:
    def test_constant_stimulus_linear_ramp_exact(self):
        grid = Grid(n_x=2, n_y=2, n_steps=32, n_lags=1, dt=0.25)
        basis = indicator_basis(grid)
        coeffs = DriftCoefficients.zeros(basis)
        coeffs.alpha[...] = 0.5
        out = simulate_euler(SimConfig(grid=grid, seed=0), coeffs, basis)
        increment = 0.5 * grid.cell_area * grid.dt  # dyadic: exact float steps
        expected = np.arange(grid.n_steps + 1) * increment
        for i in range(2):
            for j in range(2):
                assert np.array_equal(out[i, j, grid.n_lags:], expected)

    def test_pure_memory_geometric_decay_exact(self):
        grid = Grid(n_x=2, n_y=2, n_steps=30, n_lags=1, dt=0.5)
        basis = indicator_basis(grid)
        coeffs = DriftCoefficients.zeros(basis)
        coeffs.gamma[...] = -2.0  # per-step factor 1 - 2 * 0.25 * 0.5 = 0.75
        cfg = SimConfig(grid=grid, seed=0, initial_state=np.ones((2, 2)))
        out = simulate_euler(cfg, coeffs, basis)
        assert np.array_equal(out[1, 1, 1:], 0.75 ** np.arange(31))

    def test_seed_reproducibility_bitwise(self):
        grid = Grid(n_x=2, n_y=2, n_steps=10, n_lags=1, dt=0.1)
        basis = indicator_basis(grid)
        coeffs = DriftCoefficients.zeros(basis)
        coeffs.alpha[...] = 0.2
        noise = build_noise_covariance(gaussian_covariance(0.3, 0.2), grid)
        a = simulate_euler(SimConfig(grid=grid, seed=9), coeffs, basis, noise)
        b = simulate_euler(SimConfig(grid=grid, seed=9), coeffs, basis, noise)
        assert np.array_equal(a, b)
        c = simulate_euler(SimConfig(grid=grid, seed=10), coeffs, basis, noise)
        assert not np.array_equal(a, c)

    def test_history_enters_output_and_dynamics(self, rng):
        grid = Grid(n_x=2, n_y=2, n_steps=6, n_lags=3, dt=0.1)
        basis = indicator_basis(grid, p_l=2)
        coeffs = DriftCoefficients.zeros(basis)
        coeffs.beta[...] = rng.standard_normal(coeffs.beta.shape)
        hist = rng.standard_normal((2, 2, 3))
        cfg = SimConfig(grid=grid, seed=0, history=hist)
        out = simulate_euler(cfg, coeffs, basis)
        assert np.array_equal(out[:, :, :3], hist)
        assert np.abs(out[:, :, 4]).max() > 0  # lagged history drives the field

    def test_blowup_raises_with_step(self):
        grid = Grid(n_x=2, n_y=2, n_steps=400, n_lags=1, dt=0.5)
        basis = indicator_basis(grid)
        coeffs = DriftCoefficients.zeros(basis)
        coeffs.gamma[...] = 40.0  # strong positive feedback
        cfg = SimConfig(grid=grid, seed=0, initial_state=np.ones((2, 2)))
        with pytest.raises(DivergenceError) as err:
            simulate_euler(cfg, coeffs, basis)
        assert err.value.step is not None

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_initial_state_diverges_at_step_0(self, value):
        grid = Grid(n_x=2, n_y=2, n_steps=4, n_lags=1, dt=0.1)
        basis = indicator_basis(grid)
        state = np.zeros((2, 2))
        state[1, 0] = value
        cfg = SimConfig(grid=grid, seed=0, initial_state=state)
        # inf times the zero entries of the bases is NaN, with a warning
        with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
            simulate_euler(cfg, DriftCoefficients.zeros(basis), basis)
        assert err.value.step == 0

    def test_shape_validation(self, rng):
        grid = Grid(n_x=2, n_y=2, n_steps=4, n_lags=2, dt=0.1)
        basis = indicator_basis(grid, p_l=2)
        coeffs = DriftCoefficients.zeros(basis)
        with pytest.raises(ShapeError):
            simulate_euler(
                SimConfig(grid=grid, seed=0, history=np.zeros((2, 2, 1))),
                coeffs, basis,
            )

    def test_matches_dense_weight_recursion(self, rng, monkeypatch):
        # n_x != n_y and p_x != p_y, so a swapped Kronecker order fails
        grid = Grid(n_x=5, n_y=3, n_steps=40, n_lags=4, dt=0.05,
                    x_range=(0.0, 5.0), y_range=(0.0, 3.0))
        basis = build_basis_set(
            grid,
            uniform_bspline_spec(2, 4, *grid.x_range),
            uniform_bspline_spec(1, 3, *grid.y_range),
            uniform_bspline_spec(1, 3, 0.0, grid.duration),
            uniform_bspline_spec(2, 3, -grid.tau, 0.0),
        )
        coeffs = DriftCoefficients(*(rng.standard_normal(s) for s in basis.coef_shapes.values()))
        cfg = SimConfig(grid=grid, seed=5, history=rng.standard_normal((5, 3, 4)),
                        initial_state=rng.standard_normal((5, 3)))
        noise = build_noise_covariance(gaussian_covariance(0.8, 0.3), grid)
        want = dense_weight_euler(cfg, coeffs, basis, noise)

        def refuse(*args):
            raise AssertionError("simulate_euler formed the dense lag weight matrices")

        monkeypatch.setattr(simulate_module, "build_weight_matrices", refuse)
        got = simulate_euler(cfg, coeffs, basis, noise)
        assert np.abs(got[:, :, grid.n_lags + 1:]).max() > 1.0  # every term moved the field
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_stationarity_guard_long_run_bounded(self, rng):
        # stable drift: long horizon stays bounded
        grid = Grid(n_x=2, n_y=2, n_steps=200, n_lags=2, dt=0.1)
        basis = indicator_basis(grid, p_l=2)
        coeffs = DriftCoefficients.zeros(basis)
        coeffs.gamma[...] = -1.0
        coeffs.beta[...] = 0.05 * rng.standard_normal(coeffs.beta.shape)
        noise = build_noise_covariance(white_covariance(0.5), grid)
        out = simulate_euler(SimConfig(grid=grid, seed=3), coeffs, basis, noise)
        assert np.abs(out).max() < 50.0
