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
from fieldnet.design import _KronBlock
from fieldnet.errors import ShapeError
from fieldnet.solver import power_lipschitz
from oracles import explicit_design, naive_convolution_tensor, theta_vec


def random_spd(rng, n):
    root = rng.standard_normal((n, n))
    return root @ root.T / n + 0.5 * np.eye(n)


def weigh_rows(dense, omega):
    """``(I kron Omega) dense``: rows in frames of ``omega``'s size."""
    if omega is None:
        return dense
    return np.kron(np.eye(dense.shape[0] // omega.shape[0]), omega) @ dense


def block_cases(rng, design):
    """(block, explicit columns) for every block of the design that has a
    Gram, unweighted and weighted by a random SPD Omega, plus a toy
    one-factor block on the time basis, unweighted and under a
    frame-sized Omega."""
    basis = design.basis
    x, slices = explicit_design(design)
    net, mem = x[:, slices["network"]], x[:, slices["memory"]]
    dense = {"stimulus": x[:, slices["stimulus"]], "network": net, "memory": mem,
             "network+memory": np.hstack([net, mem])}
    weighted = design.with_omega(random_spd(rng, design.grid.n_pixels))
    cases = [(case.blocks[name], cols) for case in (design, weighted)
             for name, cols in dense.items()]
    times = [_KronBlock("times", [basis.phi_t], (basis.p_t,), omega=omega)
             for omega in (None, random_spd(rng, design.grid.n_steps))]
    return cases + [(block, basis.phi_t) for block in times]


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
    def test_matches_explicit_normal_matrix(self, rng):
        # power iteration approaches the top eigenvalue of the normal
        # matrix x^T (I kron Omega) x from below
        for _ in range(5):
            _, _, _, design = tiny_instance(rng)
            for block, dense in block_cases(rng, design):
                want = float(np.linalg.eigvalsh(dense.T @ weigh_rows(dense, block.omega))[-1])
                got = power_lipschitz(block)
                assert 0.9 * want <= got <= want * (1 + 1e-12), (block.name, got, want)


class TestStackedBlock:
    def test_network_memory_block_matches_explicit_columns(self, rng):
        for _ in range(5):
            grid, basis, _, design = tiny_instance(rng)
            x, slices = explicit_design(design)
            dense = np.hstack([x[:, slices["network"]], x[:, slices["memory"]]])
            block = design.blocks["network+memory"]
            assert block.coef_shape == (dense.shape[1],)
            theta = rng.standard_normal(dense.shape[1])
            want = dense @ theta
            got = vec(block.predict(theta))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            beta, gamma = block.split(theta)
            assert beta.shape == design.blocks["network"].coef_shape
            assert np.array_equal(block.stack([beta, gamma]), theta)
            resid = rng.standard_normal(design.response.shape)
            for case in (design, design.with_omega(random_spd(rng, grid.n_pixels))):
                want = weigh_rows(dense, case.omega).T @ vec(resid)
                got = case.blocks["network+memory"].weighted_adjoint(resid)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_predictor_and_gradient_equal_per_block_sums(self, rng):
        for _ in range(5):
            _, basis, _, design = tiny_instance(rng)
            coeffs = random_coeffs(rng, basis)
            blocks = design.blocks
            pred = (blocks["stimulus"].predict(coeffs.alpha)
                    + blocks["network"].predict(coeffs.beta)
                    + blocks["memory"].predict(coeffs.gamma))
            assert np.array_equal(linear_predictor(coeffs, design), pred)
            grad = gradient(pred, design)
            for got, name in ((grad.alpha, "stimulus"), (grad.beta, "network"),
                              (grad.gamma, "memory")):
                assert np.array_equal(got, blocks[name].adjoint(pred))


class TestGram:
    def test_apply_matches_matrix_free_and_explicit_normal_operator(self, rng):
        for _ in range(5):
            _, _, _, design = tiny_instance(rng)
            for block, dense in block_cases(rng, design):
                v = rng.standard_normal(block.coef_shape)
                normal = dense.T @ weigh_rows(dense, block.omega)
                want = normal @ vec(v)
                got = block.gram().apply(v)
                assert got.shape == block.coef_shape
                free = block.weighted_adjoint(block.predict(v))
                tol = 1e-12 * np.abs(want).max()
                assert np.abs(vec(got) - want).max() <= tol, block.name
                assert np.abs(vec(got) - vec(free)).max() <= tol, block.name
                diagonal = np.diag(normal)
                assert np.abs(vec(block.gram().diagonal) - diagonal).max() <= \
                    1e-12 * diagonal.max(), block.name

    def test_cross_term_matches_column_by_column_construction(self, rng):
        for _ in range(5):
            _, _, _, design = tiny_instance(rng)
            for case in (design, design.with_omega(random_spd(rng, design.grid.n_pixels))):
                net, mem = case.blocks["network"], case.blocks["memory"]
                units = np.eye(int(np.prod(mem.coef_shape)))
                got = case.blocks["network+memory"].gram().cross
                want = np.column_stack([
                    vec(net.weighted_adjoint(mem.predict(e.reshape(mem.coef_shape, order="F"))))
                    for e in units])
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def working_sets(rng, block):
    """Sorted coordinate sets of ``block``: all, a random half, one
    coordinate, none, and for a stacked block one that spans both parts and
    one inside each part alone."""
    n = int(np.prod(block.coef_shape))
    sets = [np.arange(n), np.sort(rng.choice(n, max(1, n // 2), replace=False)),
            rng.integers(n, size=1), np.array([], dtype=int)]
    parts = getattr(block, "blocks", None)
    if parts:
        bounds = np.cumsum([0] + [int(np.prod(b.coef_shape)) for b in parts])
        inside = [np.sort(rng.choice(np.arange(lo, hi), max(1, (hi - lo) // 2), replace=False))
                  for lo, hi in zip(bounds[:-1], bounds[1:])]
        sets += [np.concatenate(inside)] + inside
    return sets


class TestRestrictedGram:
    def test_restriction_matches_explicit_normal_matrix(self, rng):
        # G[W, W] gathered from the factors is the explicit normal matrix's
        for _ in range(3):
            _, _, _, design = tiny_instance(rng)
            for block, dense in block_cases(rng, design):
                gram = block.gram()
                normal = dense.T @ weigh_rows(dense, block.omega)
                tol = 1e-12 * np.abs(normal).max()
                for index in working_sets(rng, block):
                    want = normal[np.ix_(index, index)]
                    got = gram.submatrix(index)
                    assert got.shape == want.shape, block.name
                    assert np.abs(got - want).max(initial=0.0) <= tol, (block.name, index)

    def test_one_factor_grams_restrict_densely(self, rng):
        # quickstart's 3x3 spatial basis: the memory Gram and a toy block's
        # on the time basis are one dense factor each, whose G[W, W] is a
        # plain gather
        grid = Grid(n_x=6, n_y=6, n_steps=12, n_lags=3, dt=0.05,
                    x_range=(0.0, 6.0), y_range=(0.0, 6.0))
        basis = build_basis_set(
            grid,
            uniform_bspline_spec(0, 3, *grid.x_range),
            uniform_bspline_spec(0, 3, *grid.y_range),
            uniform_bspline_spec(2, 4, 0.0, grid.duration),
            uniform_bspline_spec(1, 2, -grid.tau, 0.0),
        )
        design = build_design(rng.standard_normal((6, 6, grid.n_frames)), basis)
        for block, dense in block_cases(rng, design):
            if block.name not in ("memory", "times"):
                continue
            gram = block.gram()
            assert len(gram.factors) == 1, block.name
            normal = dense.T @ weigh_rows(dense, block.omega)
            tol = 1e-12 * np.abs(normal).max()
            for k in range(1, len(normal) + 1):
                index = np.sort(rng.choice(len(normal), k, replace=False))
                got = gram.submatrix(index)
                assert np.array_equal(got, gram.factors[0][np.ix_(index, index)]), block.name
                assert np.abs(got - normal[np.ix_(index, index)]).max() <= tol, (block.name, k)


class TestDesignBlocks:
    def test_with_omega_builds_its_own_blocks_and_keeps_the_originals(self, rng):
        _, _, _, design = tiny_instance(rng)
        m = design.grid.n_steps
        x, slices = explicit_design(design)
        joint = np.hstack([x[:, slices["network"]], x[:, slices["memory"]]])
        plain = {name: block.gram() for name, block in design.blocks.items()
                 if name != "design"}
        omega = random_spd(rng, design.grid.n_pixels)
        weighted = design.with_omega(omega)
        assert design.blocks is design.blocks
        for name, block in weighted.blocks.items():
            assert block is not design.blocks[name]
            assert block.omega is omega, name
            assert design.blocks[name].omega is None
        v = rng.standard_normal(joint.shape[1])
        big = np.kron(np.eye(m), omega)
        for case, normal in ((weighted, joint.T @ big @ joint), (design, joint.T @ joint)):
            got = case.blocks["network+memory"].gram().apply(v)
            want = normal @ v
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert all(design.blocks[name].gram() is gram for name, gram in plain.items())
        resid = rng.standard_normal(design.response.shape)
        for case, want in ((weighted, x.T @ (big @ vec(resid))), (design, x.T @ vec(resid))):
            got = theta_vec(gradient(resid, case))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestCoefShapes:
    def test_every_layout_follows_the_basis_table(self, rng):
        for _ in range(5):
            _, basis, _, design = tiny_instance(rng)
            shapes = basis.coef_shapes
            assert list(shapes) == ["stimulus", "network", "memory"]
            assert {name: design.blocks[name].coef_shape for name in shapes} == shapes
            zeros = DriftCoefficients.zeros(basis)
            assert [a.shape for a in zeros.arrays()] == list(shapes.values())
            weights = PenaltySpec(np.array([1.0])).weights_for(basis)
            assert {name: w.shape for name, w in weights.items()} == shapes
            counts = (basis.n_stimulus, basis.n_network, basis.n_memory)
            assert counts == tuple(int(np.prod(s)) for s in shapes.values())
            assert design.blocks["network+memory"].coef_shape == (counts[1] + counts[2],)


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
