import numpy as np
import pytest

from fieldnet import (
    DriftCoefficients,
    Grid,
    build_basis_set,
    compute_degree_maps,
    compute_separation_profile,
    evaluate_network_grid,
    uniform_bspline_spec,
    weight_density,
)
from oracles import naive_degree_maps


def summary_basis(n=5, p=3, degree=1):
    grid = Grid(n_x=n, n_y=n, n_steps=6, n_lags=3, dt=0.1,
                x_range=(0.0, float(n)), y_range=(0.0, float(n)))
    return grid, build_basis_set(
        grid,
        uniform_bspline_spec(degree, p, *grid.x_range),
        uniform_bspline_spec(degree, p, *grid.y_range),
        uniform_bspline_spec(1, 2, 0.0, grid.duration),
        uniform_bspline_spec(1, 2, -grid.tau, 0.0),
    )


def sparse_beta(rng, basis, k=4, scale=1.0):
    beta = np.zeros((basis.p_x, basis.p_y, basis.p_x, basis.p_y, basis.p_l))
    flat = beta.reshape(-1)
    pos = rng.choice(flat.size, size=k, replace=False)
    flat[pos] = scale * rng.standard_normal(k)
    return beta


class TestDegreeMaps:
    def test_zero_coefficients(self, rng):
        grid, basis = summary_basis()
        maps = compute_degree_maps(np.zeros((3, 3, 3, 3, 2)), basis)
        for arr in (maps.deg_in, maps.deg_out, maps.w_in, maps.w_out):
            assert not arr.any()

    def test_single_coefficient_localized_out_support(self):
        grid, basis = summary_basis(n=6, p=4, degree=0)
        beta = np.zeros((4, 4, 4, 4, 2))
        beta[0, 0, 2, 3, 0] = 1.0  # source strip (2, 3)
        maps = compute_degree_maps(beta, basis)
        src_x = basis.phi_x[:, 2] > 0
        src_y = basis.phi_y[:, 3] > 0
        outside = ~np.outer(src_x, src_y)
        assert (maps.deg_out[outside] == 0).all()
        assert maps.deg_out[np.outer(src_x, src_y)].min() > 0

    def test_matches_naive_oracle(self, rng):
        grid, basis = summary_basis()
        beta = sparse_beta(rng, basis)
        w5 = evaluate_network_grid(beta, basis)
        eps = 1e-8 * np.abs(w5).max()
        maps = compute_degree_maps(beta, basis, eps=eps)
        deg_in, deg_out, w_in, w_out = naive_degree_maps(beta, basis, eps)
        assert np.abs(maps.deg_in - deg_in).max() < 1e-8
        assert np.abs(maps.deg_out - deg_out).max() < 1e-8
        assert np.abs(maps.w_in - w_in).max() < 1e-8
        assert np.abs(maps.w_out - w_out).max() < 1e-8

    def test_scaling_property(self, rng):
        grid, basis = summary_basis()
        beta = sparse_beta(rng, basis)
        w5 = evaluate_network_grid(beta, basis)
        eps = 1e-6 * np.abs(w5).max()
        base = compute_degree_maps(beta, basis, eps=eps)
        scaled = compute_degree_maps(3.0 * beta, basis, eps=3.0 * eps)
        assert np.allclose(scaled.deg_in, base.deg_in, atol=1e-14)
        assert np.allclose(scaled.deg_out, base.deg_out, atol=1e-14)
        assert np.allclose(scaled.w_in, 3.0 * base.w_in, rtol=1e-12)
        assert np.allclose(scaled.w_out, 3.0 * base.w_out, rtol=1e-12)

    def test_invariant_under_adding_exact_zeros(self, rng):
        grid, basis = summary_basis()
        beta = sparse_beta(rng, basis)
        maps1 = compute_degree_maps(beta, basis)
        maps2 = compute_degree_maps(beta + 0.0, basis)
        assert np.array_equal(maps1.w_in, maps2.w_in)


class TestSeparationProfile:
    def test_zero_coefficients(self):
        grid, basis = summary_basis()
        prof = compute_separation_profile(np.zeros((3, 3, 3, 3, 2)), basis)
        assert not prof.table.any()

    def test_doubling_angles_changes_little(self, rng):
        # interior-localized smooth weight, like the bundled synthetic fits;
        # boundary-heavy weights make the circle truncation angle-sensitive
        grid, basis = summary_basis(p=5, degree=2)
        beta = np.zeros((5, 5, 5, 5, 2))
        interior = [1, 2, 3]
        for _ in range(4):
            q = tuple(rng.choice(interior) for _ in range(4)) + (int(rng.integers(0, 2)),)
            beta[q] = rng.standard_normal()
        a = compute_separation_profile(beta, basis, n_theta=64)
        b = compute_separation_profile(beta, basis, n_theta=128)
        scale = np.abs(a.table).max()
        assert np.abs(a.table - b.table).max() < 0.01 * scale

    def test_matches_direct_loop(self, rng):
        grid, basis = summary_basis(n=4)
        self.assert_matches_direct_loop(grid, basis, sparse_beta(rng, basis),
                                        np.array([0.8, 1.6]), np.array([-0.15, -0.05]))
        # non-square grid and basis, so a swapped pixel or mode order shows;
        # both radii carry edge circles out of the window
        grid = Grid(n_x=4, n_y=3, n_steps=6, n_lags=3, dt=0.1,
                    x_range=(0.0, 4.0), y_range=(0.0, 1.5))
        basis = build_basis_set(
            grid,
            uniform_bspline_spec(2, 5, *grid.x_range),
            uniform_bspline_spec(2, 3, *grid.y_range),
            uniform_bspline_spec(1, 2, 0.0, grid.duration),
            uniform_bspline_spec(1, 2, -grid.tau, 0.0),
        )
        self.assert_matches_direct_loop(grid, basis, sparse_beta(rng, basis, k=12),
                                        np.array([0.4, 1.3]), np.array([-0.25, -0.1, 0.0]))

    @staticmethod
    def assert_matches_direct_loop(grid, basis, beta, s_vals, t_vals, n_theta=16):
        prof = compute_separation_profile(beta, basis, s_vals, t_vals, n_theta)
        from fieldnet.bases import network_values

        coeffs = DriftCoefficients(alpha=None, beta=beta, gamma=None)
        x_lo, x_hi = basis.spec_x.domain
        y_lo, y_hi = basis.spec_y.domain
        for si, s in enumerate(s_vals):
            for ti, t in enumerate(t_vals):
                total = 0.0
                for xi in grid.x_centers:
                    for yj in grid.y_centers:
                        for a in range(n_theta):
                            ang = 2 * np.pi * a / n_theta
                            px = xi + s * np.cos(ang)
                            py = yj + s * np.sin(ang)
                            if not (x_lo <= px <= x_hi and y_lo <= py <= y_hi):
                                continue
                            val = network_values(coeffs, basis,
                                                 [px], [py], [xi], [yj], [t])[0]
                            total += val * s * (2 * np.pi / n_theta) * grid.cell_area
                assert prof.table[si, ti] == pytest.approx(total, rel=1e-10, abs=1e-12)


class TestWeightDensity:
    def test_zero_coefficients_empty(self):
        grid, basis = summary_basis()
        dens = weight_density(np.zeros((3, 3, 3, 3, 2)), basis)
        assert dens.counts.sum() == 0

    def test_positive_coefficient_mass_positive(self):
        grid, basis = summary_basis(degree=0, p=3)
        beta = np.zeros((3, 3, 3, 3, 2))
        beta[1, 1, 2, 2, 0] = 2.0
        dens = weight_density(beta, basis)
        mids = (dens.value_edges[:-1] + dens.value_edges[1:]) / 2
        mass_at_negative = dens.counts[:, mids < 0].sum()
        assert mass_at_negative == 0
        assert dens.counts.sum() > 0

    def test_total_count_oracle(self, rng):
        grid, basis = summary_basis()
        beta = sparse_beta(rng, basis)
        w5 = evaluate_network_grid(beta, basis)
        eps = 1e-8 * np.abs(w5).max()
        dens = weight_density(beta, basis, eps=eps)
        want = int((np.abs(w5) > eps).sum())
        assert int(dens.counts.sum()) == want
        assert dens.n_excluded == w5.size - want
