"""Forward Euler simulation of the space-discretized delay field model.

One step advances the vectorized field ``V_k`` (one entry per grid cell,
column-major pixel order) by

    V_{k+1} = V_k + (S_k + sum_l W_l V_{k+l} + h .* V_k) * dt
              + factor @ eps_k * sqrt(dt)

where ``S_k`` is the cell-aggregated stimulus, ``W_l`` are the lag weight
matrices integrating the propagation function over target cells and lag
intervals, ``h`` the cell-aggregated memory, and ``eps_k`` i.i.d. standard
normal vectors mixed by the noise covariance matrix.

The ``W_l`` are never formed: ``sum_l W_l V_{k+l}`` is the design's
network block applied to one frame.  Each frame is contracted once with
the source bases, and a step folds its window of ``L`` contracted frames
with the lag integrals, applies ``beta`` and maps the result to the cells.
With ``P = p_x p_y``, a step costs ``O(D P + P L p_l + P^2 p_l)`` for the
network term instead of the ``O(D^2 L)`` of the dense matrices.  The noise
of all steps is mixed in one ``(D, D) x (D, M)`` product before the loop,
so a step only adds its column.  :func:`build_weight_matrices` still
assembles the ``W_l`` for inspection and checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arrays import rho_chain
from .bases import memory_field, stimulus_frames
from .errors import DivergenceError, InvalidCovarianceError, ShapeError

# A state entry above this magnitude ends the simulation as diverged.
BLOWUP_THRESHOLD = 1e12


@dataclass
class SimConfig:
    """Simulation settings: grid, seed, and the starting trajectory.

    ``history`` holds the ``n_lags`` frames before time zero and
    ``initial_state`` the frame at time zero; both default to zeros,
    which isolates the stimulus response.
    """

    grid: object
    seed: int = 0
    history: Optional[np.ndarray] = None
    initial_state: Optional[np.ndarray] = None

    def resolved_history(self):
        g = self.grid
        hist = self.history
        if hist is None:
            hist = np.zeros((g.n_x, g.n_y, g.n_lags))
        hist = np.asarray(hist, dtype=np.float64)
        if hist.shape != (g.n_x, g.n_y, g.n_lags):
            raise ShapeError(
                f"history has shape {hist.shape}, expected {(g.n_x, g.n_y, g.n_lags)}"
            )
        state = self.initial_state
        if state is None:
            state = np.zeros((g.n_x, g.n_y))
        state = np.asarray(state, dtype=np.float64)
        if state.shape != (g.n_x, g.n_y):
            raise ShapeError(
                f"initial state has shape {state.shape}, expected {(g.n_x, g.n_y)}"
            )
        # checked before any contraction, where an inf would warn first
        for name, arr in (("history", hist), ("initial state", state)):
            if not np.isfinite(arr).all():
                raise DivergenceError(f"simulation diverged at step 0: non-finite {name}", step=0)
        return hist, state


@dataclass
class NoiseModel:
    """Stationary spatial noise: grid covariance matrix and mixer.

    ``c_tilde`` has entry ``([m,n],[i,j]) = c(x_m - x_i, y_n - y_j) * cell_area^2``;
    ``factor``, the mixing matrix for the Gaussian increments, is its
    positive semidefinite repair: a copy of ``c_tilde`` when that is
    positive definite, else its eigendecomposition with negative
    eigenvalues clipped to zero.  The one-step increment covariance is
    ``factor @ factor.T * dt``, which is ``c_tilde.T @ c_tilde * dt`` when
    no eigenvalue was clipped.
    """

    c_tilde: np.ndarray
    factor: np.ndarray


def build_noise_covariance(covariance_fn, grid):
    """Assemble the grid covariance matrix and its PSD-repaired mixer.

    ``covariance_fn`` must be a stationary, symmetric covariance function
    of the displacement, accepting ndarray arguments.  A positive definite
    matrix is its own mixer (its clipped eigendecomposition is the matrix
    up to rounding).  Strict diagonal dominance proves it in one pass
    (Gershgorin), else a Cholesky test does, and only a matrix that fails
    both is eigendecomposed.  Raises
    :class:`InvalidCovarianceError` when the grid matrix is strongly
    indefinite (minimum eigenvalue below ``-1e-6 * trace``).
    """
    xc = grid.x_centers
    yc = grid.y_centers
    du = xc[:, None, None, None] - xc[None, None, :, None]
    dv = yc[None, :, None, None] - yc[None, None, None, :]
    du, dv = np.broadcast_arrays(du, dv)
    vals = np.asarray(covariance_fn(du, dv), dtype=np.float64)
    d = grid.n_pixels
    c_tilde = vals.reshape(d, d, order="F") * grid.cell_area**2
    c_tilde = (c_tilde + c_tilde.T) / 2.0
    dominant = np.all(2.0 * np.diag(c_tilde) > np.abs(c_tilde).sum(axis=1))
    if dominant or _cholesky_succeeds(c_tilde):
        return NoiseModel(c_tilde=c_tilde, factor=c_tilde.copy())
    evals, evecs = np.linalg.eigh(c_tilde)
    trace = np.trace(c_tilde)
    if evals.min() < -1e-6 * max(trace, 0.0):
        raise InvalidCovarianceError(
            f"covariance matrix strongly indefinite: min eigenvalue {evals.min():g}"
        )
    factor = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
    return NoiseModel(c_tilde=c_tilde, factor=factor)


def _cholesky_succeeds(a):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def gaussian_covariance(length, amplitude=1.0):
    """Isotropic squared-exponential covariance of the displacement; a
    length whose square overflows gives the fully correlated limit, and
    one whose square underflows the white-noise limit."""
    try:
        ell2 = 2.0 * float(length) ** 2
    except OverflowError:
        ell2 = np.inf
    if ell2 == 0:
        return white_covariance(amplitude)

    def cov(u, v):
        # a ratio that overflows is inf, whose exponential is the exact 0
        with np.errstate(over="ignore"):
            return amplitude * np.exp(-(np.asarray(u) ** 2 + np.asarray(v) ** 2) / ell2)

    return cov


def white_covariance(amplitude=1.0):
    """Covariance supported only at zero displacement."""

    def cov(u, v):
        u = np.asarray(u)
        v = np.asarray(v)
        return amplitude * ((u == 0) & (v == 0)).astype(np.float64)

    return cov


def build_weight_matrices(beta, basis):
    """Lag weight matrices of shape ``(D, D, L)`` from the propagation
    coefficients.

    Entry ``([m,n],[i,j],l)`` integrates the propagation weight over target
    cell ``(m, n)`` and lag interval ``l`` at source grid point ``(i, j)``,
    assembled from the integrated and pointwise marginal bases.
    """
    w5 = rho_chain([basis.int_x, basis.int_y, basis.phi_x, basis.phi_y, basis.int_l], beta)
    d = basis.grid.n_pixels
    return w5.reshape(d, d, basis.grid.n_lags, order="F")


def simulate_euler(config, coeffs, basis, noise=None):
    """Run the Euler recursion and return all frames,
    ``(n_x, n_y, M + L + 1)``.

    The output stacks the ``n_lags`` history frames, the initial frame,
    and the ``n_steps`` simulated frames.  Deterministic for a fixed seed.
    Raises :class:`DivergenceError` when a state entry exceeds the blow-up
    threshold or turns non-finite, naming the offending step.
    """
    grid = config.grid
    if basis.grid != grid:
        raise ShapeError("basis was built on a different grid")
    coeffs.validate(basis)
    n_lags, n_steps, d = grid.n_lags, grid.n_steps, grid.n_pixels

    hist, state = config.resolved_history()
    traj = np.zeros((d, grid.n_frames))
    traj[:, :n_lags] = hist.reshape(d, n_lags, order="F")
    traj[:, n_lags] = state.ravel(order="F")

    s_vec = grid.cell_area * stimulus_frames(coeffs, basis).reshape(d, n_steps, order="F")
    h_vec = grid.cell_area * memory_field(coeffs, basis).ravel(order="F")
    # Row f of ``contracted`` is frame f times ``phi_y kron phi_x``.  A lag
    # window folded with ``int_l`` is ``(p_l, P)``, whose row-major ravel is
    # beta's column-major coefficient order; ``int_y kron int_x`` maps the
    # target coefficients to the cells.
    source = np.kron(basis.phi_y, basis.phi_x)
    cells = np.kron(basis.int_y, basis.int_x)
    beta = coeffs.beta.reshape(source.shape[1], -1, order="F")
    contracted = np.zeros((grid.n_frames, source.shape[1]))
    contracted[: n_lags + 1] = traj[:, : n_lags + 1].T @ source

    mixed = None
    if noise is not None:
        eps = np.random.default_rng(config.seed).standard_normal((d, n_steps))
        mixed = (noise.factor @ eps) * np.sqrt(grid.dt)

    for k in range(n_steps):
        f = n_lags + k
        window = (basis.int_l.T @ contracted[k : k + n_lags]).ravel()
        drift = s_vec[:, k] + cells @ (beta @ window) + h_vec * traj[:, f]
        nxt = traj[:, f] + drift * grid.dt
        if mixed is not None:
            nxt = nxt + mixed[:, k]
        # also true for NaN, which fails every comparison
        if not np.abs(nxt).max() <= BLOWUP_THRESHOLD:
            raise DivergenceError(f"simulation diverged at step {k}", step=k)
        traj[:, f + 1] = nxt
        np.matmul(nxt, source, out=contracted[f + 1])

    return traj.reshape(grid.n_x, grid.n_y, grid.n_frames, order="F")
