"""B-spline bases, their exact integrals, and drift-component expansions.

The drift of the field model decomposes into three functions expanded in
tensor-product B-splines over marginal bases:

* a stimulus ``s(x, y, t)`` with coefficient array ``alpha`` of shape
  ``(p_x, p_y, p_t)``,
* a propagation weight ``w(x, y, x', y', t)`` with coefficient array
  ``beta`` of shape ``(p_x, p_y, p_x, p_y, p_l)`` where the first two
  modes address the target location, the next two the source location
  and the last the delay,
* a pointwise memory ``h(x, y)`` with coefficient array ``gamma`` of
  shape ``(p_x, p_y)``.

Marginal bases are clamped B-splines with uniform interior knots.
Integrals over partition cells and lag intervals are computed exactly
through the antiderivative identity (the integral of a degree-k spline
is a combination of degree-(k+1) splines), not by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .arrays import rho_chain
from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class BSplineSpec:
    """A clamped univariate B-spline basis.

    ``knots`` is the full non-decreasing knot vector with boundary knots
    repeated exactly ``degree + 1`` times; interior knots must lie
    strictly inside the domain.
    """

    degree: int
    knots: tuple

    def __post_init__(self):
        knots = tuple(float(t) for t in self.knots)
        object.__setattr__(self, "knots", knots)
        p = self.degree
        if p < 0:
            raise ValueError("degree must be non-negative")
        if len(knots) < 2 * (p + 1):
            raise ValueError("knot vector too short for a clamped basis")
        if any(b < a for a, b in zip(knots, knots[1:])):
            raise ValueError("knots must be non-decreasing")
        if self.n_basis < 1:
            raise ValueError("basis must contain at least one function")
        lo, hi = knots[0], knots[-1]
        if not (lo < hi):
            raise ValueError("domain must have positive length")
        if any(k != lo for k in knots[: p + 1]) or any(k != hi for k in knots[-(p + 1):]):
            raise ValueError("boundary knots must have multiplicity degree+1")
        interior = knots[p + 1 : len(knots) - p - 1]
        if any(not (lo < k < hi) for k in interior):
            raise ValueError("interior knots must lie strictly inside the domain")

    @property
    def n_basis(self):
        return len(self.knots) - self.degree - 1

    @property
    def domain(self):
        return (self.knots[0], self.knots[-1])


def uniform_bspline_spec(degree, n_basis, lo, hi):
    """Clamped basis with ``n_basis`` functions and uniform interior knots."""
    if n_basis < degree + 1:
        raise ValueError(f"need at least degree+1={degree + 1} basis functions")
    n_interior = n_basis - degree - 1
    interior = np.linspace(lo, hi, n_interior + 2)[1:-1]
    knots = np.concatenate([np.full(degree + 1, lo), interior, np.full(degree + 1, hi)])
    return BSplineSpec(degree, tuple(knots))


def eval_bspline_basis(spec, points):
    """Evaluate every basis function at ``points``.

    Returns a ``len(points) x n_basis`` matrix (N-d ``points`` are
    flattened).  Each row has at most ``degree + 1`` non-zeros and sums to
    one (partition of unity); the right endpoint is treated as part of the
    last span.
    """
    pts = np.asarray(points, dtype=np.float64).ravel()
    lo, hi = spec.domain
    outside = (pts < lo) | (pts > hi)
    if outside.any():
        raise DomainError(f"point {pts[outside][0]} outside basis domain [{lo}, {hi}]")
    p = spec.degree
    knots = np.asarray(spec.knots)
    # Largest i with knots[i] <= x, clipped to the non-empty spans.
    span = np.clip(np.searchsorted(knots, pts, side="right") - 1, p, spec.n_basis - 1)
    # Triangular Cox-de Boor scheme over all points at once; column r of
    # ``vals`` ends up holding function span - p + r.
    vals = np.ones((pts.size, p + 1))
    left = np.empty((pts.size, p + 1))
    right = np.empty((pts.size, p + 1))
    for j in range(1, p + 1):
        left[:, j] = pts - knots[span + 1 - j]
        right[:, j] = knots[span + j] - pts
        saved = np.zeros(pts.size)
        for r in range(j):
            tmp = vals[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * tmp
            saved = left[:, j - r] * tmp
        vals[:, j] = saved
    out = np.zeros((pts.size, spec.n_basis))
    out[np.arange(pts.size)[:, None], span[:, None] + np.arange(-p, 1)] = vals
    return out


def _antiderivative_parts(spec):
    # Integral of basis function q from lo to x:
    #   (t_{q+p+1} - t_q) / (p+1) * sum_{i >= q+1} B-hat_i(x)
    # where B-hat is the clamped degree p+1 basis on the knot vector
    # extended by one extra boundary knot at each end.
    p = spec.degree
    knots = np.asarray(spec.knots)
    scale = (knots[p + 1 : p + 1 + spec.n_basis] - knots[: spec.n_basis]) / (p + 1)
    ext = BSplineSpec(p + 1, (knots[0],) + spec.knots + (knots[-1],))
    return scale, ext


def integrate_bspline_basis(spec, intervals):
    """Exact integrals of every basis function over each interval.

    Entry ``(i, q)`` is the integral of function ``q`` over interval
    ``i``; intervals must lie inside the domain.
    """
    lo, hi = spec.domain
    ivals = [(float(a), float(b)) for a, b in intervals]
    for a, b in ivals:
        if a < lo or b > hi or b < a:
            raise DomainError(f"interval [{a}, {b}] outside basis domain [{lo}, {hi}]")
    scale, ext = _antiderivative_parts(spec)
    endpoints = sorted({a for a, _ in ivals} | {b for _, b in ivals})
    ext_vals = eval_bspline_basis(ext, endpoints)
    # Tail sums over the extended basis give the cumulative integrals.
    tails = np.cumsum(ext_vals[:, ::-1], axis=1)[:, ::-1]
    cum = {x: tails[i, 1 : spec.n_basis + 1] * scale for i, x in enumerate(endpoints)}
    return np.array([cum[b] - cum[a] for a, b in ivals])


# -- Discretization grid ------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Spatial partition and time stepping for the discretized field.

    The spatial window splits into ``n_x x n_y`` congruent cells with the
    observation points at the cell centers.  Time runs over ``n_lags``
    history steps, one initial frame, and ``n_steps`` modeled steps of
    length ``dt``.
    """

    n_x: int
    n_y: int
    n_steps: int
    n_lags: int
    dt: float
    x_range: tuple = (0.0, 1.0)
    y_range: tuple = (0.0, 1.0)

    def __post_init__(self):
        if min(self.n_x, self.n_y, self.n_steps) < 1 or self.n_lags < 1:
            raise ValueError("grid sizes, steps and lag count must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.x_range[1] <= self.x_range[0] or self.y_range[1] <= self.y_range[0]:
            raise ValueError("spatial ranges must have positive length")

    @property
    def n_pixels(self):
        return self.n_x * self.n_y

    @property
    def dx(self):
        return (self.x_range[1] - self.x_range[0]) / self.n_x

    @property
    def dy(self):
        return (self.y_range[1] - self.y_range[0]) / self.n_y

    @property
    def cell_area(self):
        return self.dx * self.dy

    @property
    def x_centers(self):
        return self.x_range[0] + (np.arange(self.n_x) + 0.5) * self.dx

    @property
    def y_centers(self):
        return self.y_range[0] + (np.arange(self.n_y) + 0.5) * self.dy

    @property
    def x_cells(self):
        edges = self.x_range[0] + np.arange(self.n_x + 1) * self.dx
        return list(zip(edges[:-1], edges[1:]))

    @property
    def y_cells(self):
        edges = self.y_range[0] + np.arange(self.n_y + 1) * self.dy
        return list(zip(edges[:-1], edges[1:]))

    @property
    def duration(self):
        return self.n_steps * self.dt

    @property
    def tau(self):
        return self.n_lags * self.dt

    @property
    def model_times(self):
        return np.arange(self.n_steps) * self.dt

    @property
    def lag_intervals(self):
        edges = np.arange(-self.n_lags, 1) * self.dt
        return list(zip(edges[:-1], edges[1:]))

    @property
    def lag_midpoints(self):
        return np.array([(a + b) / 2 for a, b in self.lag_intervals])

    @property
    def n_frames(self):
        return self.n_steps + self.n_lags + 1


# -- Basis set ----------------------------------------------------------------


@dataclass(frozen=True)
class BasisSet:
    """Marginal bases evaluated and integrated on a grid.

    ``phi_*`` are pointwise evaluation matrices (targets at grid centers,
    stimulus at modeled times); ``int_x`` / ``int_y`` hold cell integrals
    and ``int_l`` lag-interval integrals.
    """

    grid: Grid
    spec_x: BSplineSpec
    spec_y: BSplineSpec
    spec_t: BSplineSpec
    spec_l: BSplineSpec
    phi_x: np.ndarray = field(repr=False, default=None)
    phi_y: np.ndarray = field(repr=False, default=None)
    phi_t: np.ndarray = field(repr=False, default=None)
    int_x: np.ndarray = field(repr=False, default=None)
    int_y: np.ndarray = field(repr=False, default=None)
    int_l: np.ndarray = field(repr=False, default=None)

    @property
    def p_x(self):
        return self.spec_x.n_basis

    @property
    def p_y(self):
        return self.spec_y.n_basis

    @property
    def p_t(self):
        return self.spec_t.n_basis

    @property
    def p_l(self):
        return self.spec_l.n_basis

    @property
    def n_stimulus(self):
        return self.p_x * self.p_y * self.p_t

    @property
    def n_network(self):
        return (self.p_x * self.p_y) ** 2 * self.p_l

    @property
    def n_memory(self):
        return self.p_x * self.p_y

    @property
    def n_parameters(self):
        return self.n_stimulus + self.n_network + self.n_memory


def build_basis_set(grid, spec_x, spec_y, spec_t, spec_l, stim_onset=None):
    """Evaluate and integrate the marginal bases on ``grid``.

    ``stim_onset`` restricts the temporal stimulus basis support: rows of
    the stimulus evaluation matrix for modeled times before the onset are
    zeroed, so no stimulus basis function is active before it.
    """
    times = grid.model_times
    phi_t = np.zeros((grid.n_steps, spec_t.n_basis))
    if stim_onset is None:
        phi_t = eval_bspline_basis(spec_t, times)
    else:
        active = times >= stim_onset
        if active.any():
            phi_t[active] = eval_bspline_basis(spec_t, times[active])
    return BasisSet(
        grid=grid,
        spec_x=spec_x,
        spec_y=spec_y,
        spec_t=spec_t,
        spec_l=spec_l,
        phi_x=eval_bspline_basis(spec_x, grid.x_centers),
        phi_y=eval_bspline_basis(spec_y, grid.y_centers),
        phi_t=phi_t,
        int_x=integrate_bspline_basis(spec_x, grid.x_cells),
        int_y=integrate_bspline_basis(spec_y, grid.y_cells),
        int_l=integrate_bspline_basis(spec_l, grid.lag_intervals),
    )


def default_basis_set(
    grid,
    n_x_basis=8,
    n_y_basis=8,
    n_t_basis=27,
    n_l_basis=11,
    degree_space=2,
    degree_time=3,
    stim_onset=None,
):
    """Basis set with quadratic spatial and cubic temporal splines."""
    lo_t = 0.0 if stim_onset is None else float(stim_onset)
    return build_basis_set(
        grid,
        spec_x=uniform_bspline_spec(degree_space, n_x_basis, *grid.x_range),
        spec_y=uniform_bspline_spec(degree_space, n_y_basis, *grid.y_range),
        spec_t=uniform_bspline_spec(degree_time, n_t_basis, lo_t, grid.duration),
        spec_l=uniform_bspline_spec(degree_time, n_l_basis, -grid.tau, 0.0),
        stim_onset=stim_onset,
    )


# -- Drift coefficients -------------------------------------------------------


@dataclass
class DriftCoefficients:
    """Coefficient arrays of the three drift components.

    When the stimulus was fitted under the rank-one constraint, ``zeta``
    (temporal factor, length ``p_t``) and ``eta`` (spatial factor,
    ``p_x x p_y``) are stored and ``alpha[i, j, k] == zeta[k] * eta[i, j]``
    exactly.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    zeta: Optional[np.ndarray] = None
    eta: Optional[np.ndarray] = None

    @classmethod
    def zeros(cls, basis):
        p_x, p_y, p_t, p_l = basis.p_x, basis.p_y, basis.p_t, basis.p_l
        return cls(
            alpha=np.zeros((p_x, p_y, p_t)),
            beta=np.zeros((p_x, p_y, p_x, p_y, p_l)),
            gamma=np.zeros((p_x, p_y)),
        )

    @classmethod
    def from_rank1(cls, zeta, eta, beta, gamma):
        zeta = np.asarray(zeta, dtype=np.float64)
        eta = np.asarray(eta, dtype=np.float64)
        alpha = np.einsum("k,ij->ijk", zeta, eta)
        return cls(alpha=alpha, beta=np.asarray(beta, dtype=np.float64),
                   gamma=np.asarray(gamma, dtype=np.float64), zeta=zeta, eta=eta)

    def validate(self, basis):
        p_x, p_y, p_t, p_l = basis.p_x, basis.p_y, basis.p_t, basis.p_l
        expected = {
            "alpha": (p_x, p_y, p_t),
            "beta": (p_x, p_y, p_x, p_y, p_l),
            "gamma": (p_x, p_y),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")

    def nonzero_counts(self):
        return {
            "stimulus": int(np.count_nonzero(self.alpha)),
            "network": int(np.count_nonzero(self.beta)),
            "memory": int(np.count_nonzero(self.gamma)),
        }


def stimulus_values(coeffs, basis, x, y, t):
    """Evaluate ``s`` at matched coordinate arrays."""
    bx = eval_bspline_basis(basis.spec_x, x)
    by = eval_bspline_basis(basis.spec_y, y)
    bt = eval_bspline_basis(basis.spec_t, t)
    return np.einsum("ni,nj,nk,ijk->n", bx, by, bt, coeffs.alpha)


def network_values(coeffs, basis, x, y, x_src, y_src, lag):
    """Evaluate ``w`` at matched target/source/delay coordinate arrays."""
    bx = eval_bspline_basis(basis.spec_x, x)
    by = eval_bspline_basis(basis.spec_y, y)
    bxs = eval_bspline_basis(basis.spec_x, x_src)
    bys = eval_bspline_basis(basis.spec_y, y_src)
    bl = eval_bspline_basis(basis.spec_l, lag)
    return np.einsum("na,nb,nc,nd,ne,abcde->n", bx, by, bxs, bys, bl, coeffs.beta)


def memory_values(coeffs, basis, x, y):
    """Evaluate ``h`` at matched coordinate arrays."""
    bx = eval_bspline_basis(basis.spec_x, x)
    by = eval_bspline_basis(basis.spec_y, y)
    return np.einsum("ni,nj,ij->n", bx, by, coeffs.gamma)


def memory_field(coeffs, basis):
    """``h`` evaluated at every grid center, shape ``(n_x, n_y)``."""
    return rho_chain([basis.phi_x, basis.phi_y], coeffs.gamma)


def stimulus_frames(coeffs, basis):
    """``s`` evaluated at grid centers and modeled times, ``(n_x, n_y, M)``."""
    return rho_chain([basis.phi_x, basis.phi_y, basis.phi_t], coeffs.alpha)
