import numpy as np
import pytest

from fieldnet.bases import (
    BSplineSpec,
    DriftCoefficients,
    Grid,
    default_basis_set,
    eval_bspline_basis,
    integrate_bspline_basis,
    memory_values,
    network_values,
    stimulus_values,
    uniform_bspline_spec,
)
from fieldnet.errors import DomainError
from oracles import deboor_row, kron_matrix, trapezoid_integral


def small_grid():
    return Grid(n_x=3, n_y=4, n_steps=6, n_lags=2, dt=0.1,
                x_range=(0.0, 1.0), y_range=(0.0, 2.0))


class TestSpecValidation:
    def test_counts(self):
        spec = uniform_bspline_spec(2, 5, 0.0, 1.0)
        assert spec.n_basis == 5
        assert spec.domain == (0.0, 1.0)

    def test_too_few_functions(self):
        with pytest.raises(ValueError):
            uniform_bspline_spec(3, 3, 0.0, 1.0)

    def test_unclamped_rejected(self):
        with pytest.raises(ValueError):
            BSplineSpec(1, (0.0, 0.5, 1.0))  # boundary multiplicity 1, degree 1

    def test_interior_outside_rejected(self):
        with pytest.raises(ValueError):
            BSplineSpec(0, (0.0, 2.0, 1.0))

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError):
            BSplineSpec(0, (0.0, 0.5, 0.2, 1.0))


class TestEvaluation:
    def test_degree_zero_indicator(self):
        spec = BSplineSpec(0, (0.0, 1.0, 2.0))
        assert np.array_equal(eval_bspline_basis(spec, [0.5]), [[1.0, 0.0]])
        assert np.array_equal(eval_bspline_basis(spec, [1.5]), [[0.0, 1.0]])
        assert np.array_equal(eval_bspline_basis(spec, [2.0]), [[0.0, 1.0]])

    def test_partition_of_unity(self, rng):
        for degree in (0, 1, 2, 3):
            spec = uniform_bspline_spec(degree, degree + 4, -1.0, 3.0)
            pts = rng.uniform(-1.0, 3.0, size=40)
            rows = eval_bspline_basis(spec, pts)
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
            assert (rows >= -1e-15).all()

    def test_compact_support(self, rng):
        spec = uniform_bspline_spec(2, 9, 0.0, 1.0)
        rows = eval_bspline_basis(spec, rng.uniform(0, 1, 25))
        assert ((rows != 0).sum(axis=1) <= 3).all()

    def test_matches_recursive_oracle(self, rng):
        spec = uniform_bspline_spec(3, 7, 0.0, 1.0)
        for x in [0.4, *rng.uniform(0, 1, 10)]:
            got = eval_bspline_basis(spec, [x])[0]
            want = deboor_row(spec, x)
            assert np.abs(got - want).max() < 1e-12
        # one call per degree over random points, every knot and both
        # endpoints, given as a 2-D array: rows follow the flattened points
        for degree in (0, 1, 2, 3):
            spec = uniform_bspline_spec(degree, degree + 5, -1.0, 2.0)
            pts = np.concatenate([rng.uniform(-1.0, 2.0, 12), spec.knots, [-1.0, 2.0]])
            rng.shuffle(pts)
            rows = eval_bspline_basis(spec, pts.reshape(-1, 2))
            assert rows.shape == (pts.size, spec.n_basis)
            for x, got in zip(pts, rows):
                assert np.abs(got - deboor_row(spec, x)).max() < 1e-12

    def test_domain_error(self):
        spec = uniform_bspline_spec(1, 3, 0.0, 1.0)
        with pytest.raises(DomainError):
            eval_bspline_basis(spec, [1.2])
        with pytest.raises(DomainError):
            eval_bspline_basis(spec, [-0.1])


class TestIntegration:
    def test_degree_zero_single_span(self):
        spec = BSplineSpec(0, (0.0, 1.0, 2.0, 3.0))
        got = integrate_bspline_basis(spec, [(1.0, 2.0)])
        assert np.array_equal(got, [[0.0, 1.0, 0.0]])

    def test_partition_additivity(self, rng):
        spec = uniform_bspline_spec(2, 6, 0.0, 1.0)
        cuts = np.sort(rng.uniform(0, 1, 3))
        edges = [0.0, *cuts, 1.0]
        parts = integrate_bspline_basis(spec, list(zip(edges[:-1], edges[1:])))
        whole = integrate_bspline_basis(spec, [(0.0, 1.0)])
        assert np.allclose(parts.sum(axis=0), whole[0], atol=1e-13)

    def test_quadrature_oracle(self):
        spec = uniform_bspline_spec(2, 7, 0.0, 2.0)
        intervals = [(0.0, 0.3), (0.3, 1.7), (1.7, 2.0)]
        got = integrate_bspline_basis(spec, intervals)
        for row, (a, b) in zip(got, intervals):
            ref = trapezoid_integral(spec, a, b)
            assert np.abs(row - ref).max() < 1e-8

    def test_linearity_on_columns(self, rng):
        spec = uniform_bspline_spec(2, 6, 0.0, 1.0)
        table = integrate_bspline_basis(spec, [(0.2, 0.9)])[0]
        c1, c2 = rng.standard_normal(2)
        combined = c1 * table[1] + c2 * table[3]
        # integral of a linear combination equals the combination of integrals
        xs = np.linspace(0.2, 0.9, 200_001)
        vals = eval_bspline_basis(spec, xs)
        ref = np.trapezoid(c1 * vals[:, 1] + c2 * vals[:, 3], xs)
        assert abs(combined - ref) < 1e-8

    def test_interval_outside_domain(self):
        spec = uniform_bspline_spec(1, 3, 0.0, 1.0)
        with pytest.raises(DomainError):
            integrate_bspline_basis(spec, [(0.5, 1.5)])


class TestBasisSet:
    def test_shapes_and_rows(self):
        grid = small_grid()
        basis = default_basis_set(grid, 3, 3, 4, 3, degree_space=1, degree_time=2)
        assert basis.phi_x.shape == (3, 3)
        assert basis.phi_y.shape == (4, 3)
        assert basis.phi_t.shape == (6, 4)
        assert basis.int_x.shape == (3, 3)
        assert basis.int_l.shape == (2, 3)
        assert np.allclose(basis.phi_x.sum(axis=1), 1.0)
        # cell integrals per row sum to the cell width
        assert np.allclose(basis.int_x.sum(axis=1), grid.dx, atol=1e-12)
        assert np.allclose(basis.int_l.sum(axis=1), grid.dt, atol=1e-12)

    def test_grid_tensor_rows_equal_kronecker(self):
        grid = small_grid()
        basis = default_basis_set(grid, 3, 3, 4, 3, degree_space=1, degree_time=2)
        big = kron_matrix([basis.phi_x, basis.phi_y, basis.phi_t])
        # row for pixel (i, j) and frame k sits at the column-major position
        i, j, k = 2, 1, 4
        row = big[i + grid.n_x * j + grid.n_pixels * k]
        want = np.einsum(
            "a,b,c->abc", basis.phi_x[i], basis.phi_y[j], basis.phi_t[k]
        ).ravel(order="F")
        assert np.allclose(row, want, atol=1e-14)

    def test_stim_onset_masks_rows(self):
        grid = small_grid()
        basis = default_basis_set(grid, 3, 3, 4, 3, degree_space=1, degree_time=2,
                                  stim_onset=0.25)
        times = grid.model_times
        assert np.array_equal(basis.phi_t[times < 0.25], 0 * basis.phi_t[times < 0.25])
        assert basis.phi_t[times >= 0.25].sum() > 0

    def test_parameter_counts(self):
        grid = small_grid()
        basis = default_basis_set(grid, 3, 3, 4, 3, degree_space=1, degree_time=2)
        assert basis.n_parameters == 3 * 3 * 4 + (3 * 3) ** 2 * 3 + 3 * 3


class TestDriftEvaluation:
    def setup_method(self):
        self.grid = small_grid()
        self.basis = default_basis_set(self.grid, 3, 3, 4, 3,
                                       degree_space=1, degree_time=2)

    def test_zero_coefficients(self):
        coeffs = DriftCoefficients.zeros(self.basis)
        assert stimulus_values(coeffs, self.basis, [0.5], [0.5], [0.3])[0] == 0.0
        assert network_values(coeffs, self.basis, [0.5], [0.5], [0.2], [0.9], [-0.1])[0] == 0.0
        assert memory_values(coeffs, self.basis, [0.5], [0.5])[0] == 0.0

    def test_single_coefficient_is_product_of_marginals(self):
        coeffs = DriftCoefficients.zeros(self.basis)
        coeffs.alpha[1, 2, 3] = 1.0
        x, y, t = 0.37, 1.21, 0.44
        got = stimulus_values(coeffs, self.basis, [x], [y], [t])[0]
        want = (
            eval_bspline_basis(self.basis.spec_x, [x])[0][1]
            * eval_bspline_basis(self.basis.spec_y, [y])[0][2]
            * eval_bspline_basis(self.basis.spec_t, [t])[0][3]
        )
        assert got == pytest.approx(want, abs=1e-15)

    def test_network_matches_quintuple_sum(self, rng):
        coeffs = DriftCoefficients.zeros(self.basis)
        coeffs.beta[...] = rng.standard_normal(coeffs.beta.shape)
        for _ in range(10):
            x, xs = rng.uniform(0, 1, 2)
            y, ys = rng.uniform(0, 2, 2)
            t = rng.uniform(-self.grid.tau, 0)
            got = network_values(coeffs, self.basis, [x], [y], [xs], [ys], [t])[0]
            bx = eval_bspline_basis(self.basis.spec_x, [x])[0]
            by = eval_bspline_basis(self.basis.spec_y, [y])[0]
            bxs = eval_bspline_basis(self.basis.spec_x, [xs])[0]
            bys = eval_bspline_basis(self.basis.spec_y, [ys])[0]
            bl = eval_bspline_basis(self.basis.spec_l, [t])[0]
            want = 0.0
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        for d in range(3):
                            for e in range(3):
                                want += (coeffs.beta[a, b, c, d, e]
                                         * bx[a] * by[b] * bxs[c] * bys[d] * bl[e])
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_rank1_assembly_is_exact(self, rng):
        zeta = rng.standard_normal(4)
        eta = rng.standard_normal((3, 3))
        coeffs = DriftCoefficients.from_rank1(
            zeta, eta, np.zeros((3, 3, 3, 3, 3)), np.zeros((3, 3))
        )
        assert np.array_equal(coeffs.alpha, np.einsum("k,ij->ijk", zeta, eta))
