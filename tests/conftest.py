import numpy as np
import pytest

from fieldnet import (
    DriftCoefficients,
    Grid,
    build_basis_set,
    build_design,
    uniform_bspline_spec,
)


def tiny_instance(rng, max_grid=4, max_steps=12, max_lags=3, max_basis=3):
    """Random small grid + basis + data + design for oracle comparisons."""
    n_x = int(rng.integers(2, max_grid + 1))
    n_y = int(rng.integers(2, max_grid + 1))
    n_lags = int(rng.integers(1, max_lags + 1))
    n_steps = int(rng.integers(n_lags + 2, max_steps + 1))
    grid = Grid(n_x=n_x, n_y=n_y, n_steps=n_steps, n_lags=n_lags, dt=0.1,
                x_range=(0.0, float(n_x)), y_range=(0.0, float(n_y)))
    def spec(lo, hi):
        degree = int(rng.integers(0, 2))
        count = int(rng.integers(degree + 1, max_basis + 1))
        return uniform_bspline_spec(degree, count, lo, hi)
    basis = build_basis_set(
        grid,
        spec(*grid.x_range),
        spec(*grid.y_range),
        spec(0.0, grid.duration),
        spec(-grid.tau, 0.0),
    )
    data = rng.standard_normal((n_x, n_y, grid.n_frames))
    return grid, basis, data, build_design(data, basis)


def random_coeffs(rng, basis, scale=1.0):
    return DriftCoefficients(*(scale * rng.standard_normal(shape)
                               for shape in basis.coef_shapes.values()))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
