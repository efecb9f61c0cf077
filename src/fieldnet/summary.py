"""Network summary functionals of a fitted propagation weight.

All spatial integrals are Riemann sums over the observation grid cells
and the delay integrals Riemann sums over the lag intervals, matching
the discretization the fit itself uses.  The support indicator of the
weight function is ill-posed in floating point, so "non-zero" means
``|w| > eps`` with ``eps`` defaulting to ``1e-8 * max |w|`` on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import rho_chain
from .bases import eval_bspline_basis


def evaluate_network_grid(beta, basis):
    """Propagation weight at target centers x source centers x lag nodes.

    Returns ``(n_x, n_y, n_x, n_y, L)`` with the lag-interval midpoints as
    lag nodes.
    """
    phi_lag = eval_bspline_basis(basis.spec_l, basis.grid.lag_midpoints)
    return rho_chain([basis.phi_x, basis.phi_y, basis.phi_x, basis.phi_y, phi_lag],
                     np.asarray(beta, dtype=np.float64))


def default_epsilon(values):
    """Zero-detection threshold: 1e-8 of the largest magnitude."""
    peak = float(np.abs(values).max()) if np.asarray(values).size else 0.0
    return 1e-8 * peak


@dataclass
class DegreeMaps:
    deg_in: np.ndarray
    deg_out: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray


def compute_degree_maps(beta, basis, eps=None):
    """Aggregated incoming/outgoing weight maps and their support measures.

    ``deg_in`` at a target point measures the (source x delay) support of
    the weight into it; ``w_in`` is the aggregated absolute weight per
    unit of that support, zero where the support is empty.  ``deg_out``
    and ``w_out`` aggregate over targets for each source point.
    """
    grid = basis.grid
    w5 = evaluate_network_grid(beta, basis)
    if eps is None:
        eps = default_epsilon(w5)
    cell = grid.cell_area * grid.dt
    absw = np.abs(w5)
    nonzero = absw > eps
    deg_in = nonzero.sum(axis=(2, 3, 4)) * cell
    deg_out = nonzero.sum(axis=(0, 1, 4)) * cell
    sum_in = absw.sum(axis=(2, 3, 4)) * cell
    sum_out = absw.sum(axis=(0, 1, 4)) * cell
    with np.errstate(invalid="ignore", divide="ignore"):
        w_in = np.where(deg_in > 0, sum_in / np.where(deg_in > 0, deg_in, 1.0), 0.0)
        w_out = np.where(deg_out > 0, sum_out / np.where(deg_out > 0, deg_out, 1.0), 0.0)
    return DegreeMaps(deg_in=deg_in, deg_out=deg_out, w_in=w_in, w_out=w_out)


@dataclass
class SeparationProfile:
    s_values: np.ndarray
    t_values: np.ndarray
    table: np.ndarray  # (len(s_values), len(t_values))


def compute_separation_profile(beta, basis, s_values=None, t_values=None, n_theta=64):
    """Aggregated weight as a function of spatial separation and delay.

    For each separation ``s`` the weight is integrated over the circle of
    radius ``s`` around every source point (``n_theta`` angle nodes, arc
    length weight ``s``), evaluated through the continuous expansion, then
    summed over sources with the grid cell measure.  Circle points outside
    the observation window contribute zero.
    """
    grid = basis.grid
    if s_values is None:
        diam = float(np.hypot(grid.x_range[1] - grid.x_range[0],
                              grid.y_range[1] - grid.y_range[0]))
        s_values = np.linspace(min(grid.dx, grid.dy), diam, 12)
    if t_values is None:
        t_values = grid.lag_midpoints
    s_values = np.asarray(s_values, dtype=np.float64)
    t_values = np.asarray(t_values, dtype=np.float64)

    # Sources are the grid centers, so beta contracts with their bases and
    # with the lag basis once: (source x, source y, target coefficients, delay).
    phi_lag = eval_bspline_basis(basis.spec_l, t_values)
    src = np.einsum("ic,jd,te,abcde->ijabt", basis.phi_x, basis.phi_y, phi_lag,
                    np.asarray(beta, dtype=np.float64), optimize=True)

    angles = np.arange(n_theta) * (2 * np.pi / n_theta)
    cos_a, sin_a = np.cos(angles), np.sin(angles)

    def circle_rows(spec, centers, offsets):
        # Basis rows at every (center, angle) circle coordinate, zeroed
        # where the coordinate leaves the window: (n_centers, n_theta, p).
        lo, hi = spec.domain
        coord = centers[:, None] + offsets
        rows = eval_bspline_basis(spec, np.clip(coord, lo, hi))
        inside = (coord >= lo) & (coord <= hi)
        return rows.reshape(*coord.shape, -1) * inside[..., None]

    table = np.zeros((s_values.size, t_values.size))
    for si, s in enumerate(s_values):
        # Circle point (i, j, k) is (x_i + s cos, y_j + s sin), so its
        # tensor-product row factors into one x row and one y row.
        bx = circle_rows(basis.spec_x, grid.x_centers, s * cos_a)
        by = circle_rows(basis.spec_y, grid.y_centers, s * sin_a)
        # curve integral over each source's circle (arc weight
        # s * 2 pi / n_theta), then the outer Riemann sum over source cells
        on_circle = np.einsum("ika,jkb->ijab", bx, by)
        table[si] = (np.einsum("ijab,ijabt->t", on_circle, src)
                     * s * (2 * np.pi / n_theta) * grid.cell_area)
    return SeparationProfile(s_values=s_values, t_values=t_values, table=table)


@dataclass
class WeightDensity:
    delay_edges: np.ndarray
    value_edges: np.ndarray
    counts: np.ndarray  # (n_delay_bins, n_value_bins)
    n_excluded: int


DENSITY_VALUE_BINS = 40


def weight_density(beta, basis, eps=None):
    """Histogram of the non-negligible evaluated weights by delay.

    Evaluates the weight at every grid x lag node, drops values with
    ``|w| <= eps`` (the truncation that removes the mass at zero), and
    bins the remainder jointly by lag interval and into
    ``DENSITY_VALUE_BINS`` equal value bins.
    """
    grid = basis.grid
    delay_edges = np.arange(-grid.n_lags, 1) * grid.dt
    w5 = evaluate_network_grid(beta, basis)
    if eps is None:
        eps = default_epsilon(w5)
    lag_nodes = grid.lag_midpoints
    keep = np.abs(w5) > eps
    values = w5[keep]
    delays = np.broadcast_to(lag_nodes, w5.shape)[keep]
    value_range = (values.min(), values.max()) if values.size else (-1.0, 1.0)
    value_edges = np.linspace(*value_range, DENSITY_VALUE_BINS + 1)
    counts, _, _ = np.histogram2d(delays, values, bins=[delay_edges, value_edges])
    return WeightDensity(
        delay_edges=delay_edges,
        value_edges=value_edges,
        counts=counts,
        n_excluded=int(w5.size - values.size),
    )
