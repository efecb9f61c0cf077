import numpy as np
import pytest

import fieldnet.design
from conftest import random_coeffs, tiny_instance
from fieldnet import (
    DriftCoefficients,
    Grid,
    PenaltySpec,
    build_basis_set,
    build_design,
    compute_convolution_tensor,
    gradient,
    linear_predictor,
    model_parameter_count,
    naive_var_parameter_count,
    uniform_bspline_spec,
)
from fieldnet.arrays import vec
from fieldnet.design import _design_blocks, _KronBlock, network_memory_block, weight_frames
from fieldnet.errors import ShapeError
from fieldnet.solver import power_lipschitz
from oracles import explicit_design, kron_matrix, naive_convolution_tensor, theta_vec


def simple_setup(rng):
    grid = Grid(n_x=3, n_y=3, n_steps=8, n_lags=2, dt=0.1,
                x_range=(0.0, 3.0), y_range=(0.0, 3.0))
    basis = build_basis_set(
        grid,
        uniform_bspline_spec(1, 3, *grid.x_range),
        uniform_bspline_spec(1, 2, *grid.y_range),
        uniform_bspline_spec(1, 3, 0.0, grid.duration),
        uniform_bspline_spec(1, 2, -grid.tau, 0.0),
    )
    data = rng.standard_normal((3, 3, grid.n_frames))
    return grid, basis, data, build_design(data, basis)


class TestConvolutionTensor:
    def test_zero_data(self, rng):
        grid, basis, data, _ = simple_setup(rng)
        rows = compute_convolution_tensor(np.zeros_like(data), basis)
        assert not rows.any()

    def test_constant_data_matches_naive(self, rng):
        grid, basis, data, _ = simple_setup(rng)
        ones = np.ones_like(data)
        rows = compute_convolution_tensor(ones, basis)
        want = naive_convolution_tensor(ones, basis)
        assert np.abs(rows - want).max() < 1e-12

    def test_random_data_matches_naive(self, rng):
        grid, basis, data, design = simple_setup(rng)
        want = naive_convolution_tensor(data, basis)
        assert np.abs(design.phi_xyt - want).max() < 1e-10

    def test_insufficient_history(self, rng):
        grid, basis, data, _ = simple_setup(rng)
        with pytest.raises(ValueError):
            compute_convolution_tensor(data[:, :, :5], basis)


class TestLinearPredictor:
    def test_zero_coefficients(self, rng):
        grid, basis, _, design = simple_setup(rng)
        pred = linear_predictor(DriftCoefficients.zeros(basis), design)
        assert pred.shape == (3, 3, 8)
        assert not pred.any()

    def test_memory_only_with_unit_data(self, rng):
        grid, basis, _, _ = simple_setup(rng)
        data = np.ones((3, 3, grid.n_frames))
        design = build_design(data, basis)
        coeffs = DriftCoefficients.zeros(basis)
        coeffs.gamma[...] = rng.standard_normal(coeffs.gamma.shape)
        pred = linear_predictor(coeffs, design)
        field = np.einsum("mq,nr,qr->mn", basis.phi_x, basis.phi_y, coeffs.gamma)
        for k in range(grid.n_steps):
            assert np.allclose(pred[:, :, k], field, atol=1e-14)

    def test_matches_explicit_design(self, rng):
        for _ in range(5):
            _, basis, _, design = tiny_instance(rng)
            x, _ = explicit_design(design)
            coeffs = random_coeffs(rng, basis)
            lhs = x @ theta_vec(coeffs)
            rhs = vec(linear_predictor(coeffs, design))
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(lhs).max())

    def test_levels_is_the_only_response_convention(self, rng):
        grid, basis, data, design = simple_setup(rng)
        lags = grid.n_lags
        increments = np.diff(data, axis=2)[:, :, lags : lags + grid.n_steps]
        assert np.array_equal(design.target, increments)
        with pytest.raises(ValueError, match="increments"):
            build_design(data, basis, response="increments")


class TestGradient:
    def test_zero_residual(self, rng):
        _, basis, _, design = simple_setup(rng)
        g = gradient(np.zeros(design.response.shape), design)
        assert not g.alpha.any() and not g.beta.any() and not g.gamma.any()

    def test_matches_explicit_transpose(self, rng):
        for _ in range(5):
            _, basis, _, design = tiny_instance(rng)
            x, _ = explicit_design(design)
            resid = rng.standard_normal(design.response.shape)
            g = gradient(resid, design)
            want = x.T @ vec(resid)
            got = theta_vec(g)
            assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    def test_matches_finite_differences(self, rng):
        _, basis, _, design = tiny_instance(rng, max_grid=3, max_steps=8, max_basis=2)
        coeffs = random_coeffs(rng, basis, scale=0.3)
        resid = design.target - linear_predictor(coeffs, design)
        g = theta_vec(gradient(resid, design))

        def objective(theta):
            c = DriftCoefficients(
                alpha=theta[: basis.n_stimulus].reshape(
                    basis.p_x, basis.p_y, basis.p_t, order="F"),
                beta=theta[basis.n_stimulus: basis.n_stimulus + basis.n_network].reshape(
                    basis.p_x, basis.p_y, basis.p_x, basis.p_y, basis.p_l, order="F"),
                gamma=theta[-basis.n_memory:].reshape(basis.p_x, basis.p_y, order="F"),
            )
            r = design.target - linear_predictor(c, design)
            return 0.5 * float(np.vdot(r, r))

        theta0 = theta_vec(coeffs)
        h = 1e-6 * max(1.0, np.abs(theta0).max())
        fd = np.empty_like(theta0)
        for i in range(theta0.size):
            up = theta0.copy(); up[i] += h
            dn = theta0.copy(); dn[i] -= h
            fd[i] = (objective(up) - objective(dn)) / (2 * h)
        # gradient of the loss is the negative adjoint action on the residual
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(fd + g).max() <= 1e-5 * scale

    def test_weighted_gradient_matches_explicit(self, rng):
        _, basis, _, design = tiny_instance(rng)
        d = design.grid.n_pixels
        a = rng.standard_normal((d, d))
        omega = a @ a.T / d + np.eye(d)
        design = design.with_omega(omega)
        x, _ = explicit_design(design)
        resid = rng.standard_normal(design.response.shape)
        m = design.grid.n_steps
        big = np.kron(np.eye(m), omega)
        want = x.T @ (big @ vec(resid))
        got = theta_vec(gradient(resid, design))
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

    def test_shape_error(self, rng):
        _, basis, _, design = simple_setup(rng)
        with pytest.raises(ShapeError):
            gradient(np.zeros((2, 2, 2)), design)


class TestLipschitz:
    @staticmethod
    def top_eigenvalue(x, omega, frame):
        # normal matrix x^T (I kron Omega) x, frames of ``frame`` rows each
        if omega is not None:
            x = np.kron(np.eye(x.shape[0] // frame), np.linalg.cholesky(omega).T) @ x
        return float(np.linalg.eigvalsh(x.T @ x)[-1])

    def test_matches_explicit_normal_matrix(self, rng):
        for _ in range(5):
            grid, basis, _, design = tiny_instance(rng)
            d = grid.n_pixels
            x, slices = explicit_design(design)
            blocks = _design_blocks(design)
            cases = [(blocks[name], x[:, cols], d) for name, cols in slices.items()]
            cases.append((_KronBlock("stimulus-eta", [basis.phi_x, basis.phi_y],
                                     (basis.p_x, basis.p_y)),
                          kron_matrix([basis.phi_x, basis.phi_y]), d))
            cases.append((_KronBlock("stimulus-zeta", [basis.phi_t], (basis.p_t,)),
                          basis.phi_t, grid.n_steps))
            for block, dense, frame in cases:
                root = rng.standard_normal((frame, frame))
                for omega in (None, root @ root.T / frame + 0.5 * np.eye(frame)):
                    want = self.top_eigenvalue(dense, omega, frame)
                    got = block.lipschitz(omega)
                    assert abs(got - want) <= 1e-12 * want, (block.name, got, want)
                    assert power_lipschitz(block, omega) <= got * (1 + 1e-12)


class TestStackedBlock:
    def test_network_memory_block_matches_explicit_columns(self, rng):
        for _ in range(5):
            grid, basis, _, design = tiny_instance(rng)
            d, m = grid.n_pixels, grid.n_steps
            x, slices = explicit_design(design)
            dense = np.hstack([x[:, slices["network"]], x[:, slices["memory"]]])
            blocks = _design_blocks(design)
            block = network_memory_block(design)
            assert block.coef_shape == (dense.shape[1],)
            theta = rng.standard_normal(dense.shape[1])
            want = dense @ theta
            got = vec(block.predict(theta))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            beta, gamma = block.split(theta)
            assert beta.shape == blocks["network"].coef_shape
            assert np.array_equal(block.stack([beta, gamma]), theta)
            root = rng.standard_normal((d, d))
            resid = rng.standard_normal(design.response.shape)
            for omega in (None, root @ root.T / d + 0.5 * np.eye(d)):
                weighted = vec(resid) if omega is None else np.kron(np.eye(m), omega) @ vec(resid)
                want = dense.T @ weighted
                got = block.adjoint(weight_frames(resid, omega))
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
                # the per-coordinate constants D majorize the normal matrix:
                # the top eigenvalue of D^-1/2 X^T Omega X D^-1/2 is at most 1
                lip = block.lipschitz(omega)
                assert lip.shape == theta.shape
                scaled = TestLipschitz.top_eigenvalue(dense / np.sqrt(lip), omega, d)
                assert scaled <= 1 + 1e-12, scaled

    def test_predictor_and_gradient_equal_per_block_sums(self, rng):
        for _ in range(5):
            _, basis, _, design = tiny_instance(rng)
            coeffs = random_coeffs(rng, basis)
            blocks = _design_blocks(design)
            pred = (blocks["stimulus"].predict(coeffs.alpha)
                    + blocks["network"].predict(coeffs.beta)
                    + blocks["memory"].predict(coeffs.gamma))
            assert np.array_equal(linear_predictor(coeffs, design), pred)
            grad = gradient(pred, design)
            for got, name in ((grad.alpha, "stimulus"), (grad.beta, "network"),
                              (grad.gamma, "memory")):
                assert np.array_equal(got, blocks[name].adjoint(pred))


class TestGram:
    @staticmethod
    def cases(design):
        """(block, explicit design columns, rows per frame) for each block
        the solver iterates on."""
        basis, d = design.basis, design.grid.n_pixels
        x, slices = explicit_design(design)
        blocks = _design_blocks(design)
        net, mem = x[:, slices["network"]], x[:, slices["memory"]]
        return [
            (_KronBlock("stimulus-eta", [basis.phi_x, basis.phi_y], (basis.p_x, basis.p_y)),
             kron_matrix([basis.phi_x, basis.phi_y]), d),
            (_KronBlock("stimulus-zeta", [basis.phi_t], (basis.p_t,)), basis.phi_t,
             design.grid.n_steps),
            (blocks["network"], net, d),
            (blocks["memory"], mem, d),
            (network_memory_block(design), np.hstack([net, mem]), d),
        ]

    def test_apply_matches_matrix_free_and_explicit_normal_operator(self, rng):
        for _ in range(5):
            _, _, _, design = tiny_instance(rng)
            for block, dense, frame in self.cases(design):
                root = rng.standard_normal((frame, frame))
                for omega in (None, root @ root.T / frame + 0.5 * np.eye(frame)):
                    weighted = (dense if omega is None
                                else np.kron(np.eye(dense.shape[0] // frame), omega) @ dense)
                    v = rng.standard_normal(block.coef_shape)
                    want = dense.T @ (weighted @ vec(v))
                    got = block.gram(omega).apply(v)
                    assert got.shape == block.coef_shape
                    free = block.adjoint(weight_frames(block.predict(v), omega))
                    tol = 1e-12 * np.abs(want).max()
                    assert np.abs(vec(got) - want).max() <= tol, block.name
                    assert np.abs(vec(got) - vec(free)).max() <= tol, block.name

    def test_cross_term_matches_column_by_column_construction(self, rng):
        for _ in range(5):
            _, _, _, design = tiny_instance(rng)
            d = design.grid.n_pixels
            blocks = _design_blocks(design)
            net, mem = blocks["network"], blocks["memory"]
            units = np.eye(int(np.prod(mem.coef_shape)))
            root = rng.standard_normal((d, d))
            for omega in (None, root @ root.T / d + 0.5 * np.eye(d)):
                got = network_memory_block(design).gram(omega).cross[(0, 1)]
                want = np.column_stack([
                    vec(net.adjoint(weight_frames(mem.predict(e.reshape(mem.coef_shape,
                                                                         order="F")), omega)))
                    for e in units])
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestCoefShapes:
    def test_every_layout_follows_the_basis_table(self, rng):
        for _ in range(5):
            _, basis, _, design = tiny_instance(rng)
            shapes = basis.coef_shapes
            assert list(shapes) == ["stimulus", "network", "memory"]
            blocks = _design_blocks(design)
            assert {name: b.coef_shape for name, b in blocks.items()} == shapes
            zeros = DriftCoefficients.zeros(basis)
            assert [a.shape for a in zeros.arrays()] == list(shapes.values())
            weights = PenaltySpec(np.array([1.0])).weights_for(basis)
            assert {name: w.shape for name, w in weights.items()} == shapes
            counts = (basis.n_stimulus, basis.n_network, basis.n_memory)
            assert counts == tuple(int(np.prod(s)) for s in shapes.values())
            assert network_memory_block(design).coef_shape == (counts[1] + counts[2],)


class TestParameterCounts:
    def test_reference_configuration(self):
        assert model_parameter_count(8, 8, 27, 11) == 46848

    def test_naive_var_counts(self):
        assert naive_var_parameter_count(50, 625) == 19_531_250

    def test_matches_basis_accounting(self, rng):
        _, basis, _, _ = tiny_instance(rng)
        assert basis.n_parameters == model_parameter_count(
            basis.p_x, basis.p_y, basis.p_t, basis.p_l
        )


def test_no_dense_design_assembly_in_module():
    # the dense stacked design exists only in the test oracle
    names = [n for n in dir(fieldnet.design) if "explicit" in n.lower()]
    assert names == []
    import oracles

    assert hasattr(oracles, "explicit_design")
