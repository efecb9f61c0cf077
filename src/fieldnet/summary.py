"""Network summary functionals of a fitted propagation weight.

All spatial integrals are Riemann sums over the observation grid cells
and the delay integrals Riemann sums over the lag intervals, matching
the discretization the fit itself uses.  The support indicator of the
weight function is ill-posed in floating point, so "non-zero" means
``|w| > eps`` with ``eps`` defaulting to ``1e-8 * max |w|`` on the grid.
The degree maps and the density read that ``(n_x, n_y, n_x, n_y, L)``
grid ``LAG_CHUNK`` lags at a time, so it is never held whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import rho_chain
from .bases import eval_bspline_basis


# Lags per evaluation of the network grid in the degree maps and the density.
# On a 25x25 grid with L = 50 (2 cores, numpy 2.4), `summarize` peaks at
# 104, 115, 109 and 126 MB with chunks of 8, 10, 12 and 16 lags, and 10
# is the fastest of the four.
LAG_CHUNK = 10


def evaluate_network_grid(beta, basis, lags=slice(None)):
    """Propagation weight at target centers x source centers x lag nodes.

    Returns ``(n_x, n_y, n_x, n_y, L)`` with the lag-interval midpoints as
    lag nodes, or only the lags that the slice ``lags`` selects.  Only the
    lag functions that are non-zero at those nodes enter, so a few lags cost
    a few functions' share of the spatial contraction; the terms left out
    are exact zeros.
    """
    phi_lag = eval_bspline_basis(basis.spec_l, basis.grid.lag_midpoints[lags])
    used = np.flatnonzero(phi_lag.any(axis=0))
    return rho_chain([basis.phi_x, basis.phi_y, basis.phi_x, basis.phi_y, phi_lag[:, used]],
                     np.asarray(beta, dtype=np.float64)[..., used])


def _map_lags(fn, beta, basis):
    """``fn`` of the ``(n_x, n_y, n_x, n_y)`` network grid at each lag, in
    lag order.  The grid is evaluated ``LAG_CHUNK`` lags at a time, and a
    chunk is dropped before the next one is evaluated."""
    chunks = (evaluate_network_grid(beta, basis, slice(start, start + LAG_CHUNK))
              for start in range(0, basis.grid.n_lags, LAG_CHUNK))
    per_chunk = map(lambda w: [fn(w[..., k]) for k in range(w.shape[-1])], chunks)
    return [out for outs in per_chunk for out in outs]


def default_epsilon(beta, basis):
    """Zero-detection threshold: 1e-8 of the largest magnitude on the
    network grid, from one max pass over its lags."""
    return 1e-8 * max(_map_lags(lambda w: max(w.max(), -w.min()), beta, basis))


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
    if eps is None:
        eps = default_epsilon(beta, basis)

    def support_sums(w):
        absw = np.abs(w, out=w)  # in place: every pass evaluates its own chunks
        nonzero = absw > eps
        return (nonzero.sum(axis=(2, 3)), nonzero.sum(axis=(0, 1)),
                absw.sum(axis=(2, 3)), absw.sum(axis=(0, 1)))

    count_in, count_out, sum_in, sum_out = map(sum, zip(*_map_lags(support_sums, beta, basis)))
    cell = grid.cell_area * grid.dt
    deg_in, deg_out = count_in * cell, count_out * cell
    sum_in, sum_out = sum_in * cell, sum_out * cell
    w_in = np.divide(sum_in, deg_in, out=np.zeros_like(sum_in), where=deg_in > 0)
    w_out = np.divide(sum_out, deg_out, out=np.zeros_like(sum_out), where=deg_out > 0)
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
    # with the lag basis once: (source x, target x coefficient, source y,
    # target y coefficient, delay).
    phi_lag = eval_bspline_basis(basis.spec_l, t_values)
    src = np.einsum("ic,jd,te,abcde->iajbt", basis.phi_x, basis.phi_y, phi_lag,
                    np.asarray(beta, dtype=np.float64), optimize=True)

    angles = np.arange(n_theta) * (2 * np.pi / n_theta)
    cos_a, sin_a = np.cos(angles), np.sin(angles)

    def circle_rows(spec, centers, offsets):
        # Basis rows at every (separation, center, angle) circle coordinate,
        # zeroed where the coordinate leaves the window: (n_s, n_centers,
        # n_theta, p).
        lo, hi = spec.domain
        coord = centers[:, None] + offsets[:, None, :]
        rows = eval_bspline_basis(spec, np.clip(coord, lo, hi))
        inside = (coord >= lo) & (coord <= hi)
        return rows.reshape(*coord.shape, -1) * inside[..., None]

    # Circle point (s, i, j, k) is (x_i + s cos, y_j + s sin), so its
    # tensor-product row factors into one x row and one y row.
    bx = circle_rows(basis.spec_x, grid.x_centers, s_values[:, None] * cos_a)
    by = circle_rows(basis.spec_y, grid.y_centers, s_values[:, None] * sin_a)
    # curve integral over each source's circle, for all separations in one
    # batched product over the angles: (s, x center, x row, y center, y row)
    on_circle = np.matmul(bx.transpose(0, 1, 3, 2).reshape(s_values.size, -1, n_theta),
                          by.transpose(0, 2, 1, 3).reshape(s_values.size, n_theta, -1))
    # then against src, with the arc weight s * 2 pi / n_theta and the outer
    # Riemann sum over source cells
    table = (on_circle.reshape(s_values.size, -1) @ src.reshape(-1, t_values.size)
             * s_values[:, None] * (2 * np.pi / n_theta) * grid.cell_area)
    return SeparationProfile(s_values=s_values, t_values=t_values, table=table)


@dataclass
class WeightDensity:
    delay_edges: np.ndarray
    value_edges: np.ndarray
    counts: np.ndarray  # (n_delay_bins, n_value_bins), int64
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
    if eps is None:
        eps = default_epsilon(beta, basis)

    def kept(w):
        flat = w.ravel(order="F")  # a view: a lag is column-major
        return flat[np.abs(flat) > eps]

    def kept_range(w):
        values = kept(w)
        return values.min(initial=np.inf), values.max(initial=-np.inf), values.size

    lows, highs, n_kept = zip(*_map_lags(kept_range, beta, basis))
    value_range = (min(lows), max(highs)) if sum(n_kept) else (-1.0, 1.0)
    value_edges = np.linspace(*value_range, DENSITY_VALUE_BINS + 1)
    # lag l is delay bin l
    counts = np.array(_map_lags(lambda w: np.histogram(kept(w), value_edges)[0], beta, basis))
    return WeightDensity(
        delay_edges=grid.lag_edges,
        value_edges=value_edges,
        counts=counts,
        n_excluded=grid.n_lags * grid.n_pixels**2 - sum(n_kept),
    )
