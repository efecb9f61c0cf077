"""Sparse precision estimation by graphical lasso.

Minimizes ``tr(S Omega) - log det(Omega) + nu * ||Omega||_1,off`` over
positive definite matrices by block coordinate descent on the working
covariance ``W`` (Friedman, Hastie & Tibshirani 2008).  Column ``j``
solves the lasso ``min 0.5 b'Wb - b's_j + nu |b|_1`` (``b_j = 0``) by
cyclic coordinate descent over its non-zero coefficients, then one
vectorized KKT pass ``r = s_j - Wb`` admits every zero with ``|r| > nu``
and the descent repeats; a zero with ``|r| <= nu`` is one a full cyclic
pass would leave at zero.  ``Wb`` is written back into row and column
``j``, the coefficients warm-start the next sweep, and the duality gap of
the recovered precision matrix stops the loop.  Only off-diagonal entries
are penalized, so large ``nu`` shrinks the estimate to ``diag(1 / S_ii)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCovarianceError, ShapeError


@dataclass
class PrecisionEstimate:
    omega: np.ndarray
    n_nonzero: int
    converged: bool
    dual_gap: float
    n_sweeps: int
    objective_trace: np.ndarray = None


def ridge_repair(s):
    """Shift an almost-PSD matrix so its spectrum clears a small floor."""
    s = np.asarray(s, dtype=np.float64)
    d = s.shape[0]
    lam_min = float(np.linalg.eigvalsh(s).min())
    eps = max(0.0, 1e-8 * np.trace(s) / d - lam_min)
    if eps > 0:
        s = s + eps * np.eye(d)
    return s


def matrix_sqrt_psd(a, floor_rel=1e-10):
    """Symmetric PSD square root with a relative eigenvalue floor."""
    a = np.asarray(a, dtype=np.float64)
    evals, evecs = np.linalg.eigh((a + a.T) / 2.0)
    floor = floor_rel * max(evals.max(), 0.0)
    evals = np.clip(evals, floor, None)
    return (evecs * np.sqrt(evals)) @ evecs.T


def glasso_objective(s, omega, nu):
    """Penalized negative Gaussian log-likelihood (up to constants)."""
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0:
        return np.inf
    off = np.abs(omega).sum() - np.abs(np.diag(omega)).sum()
    return float(np.sum(s * omega) - logdet + nu * off)


def _dual_gap(s, omega, w_dual, nu):
    # A dual-feasible w (diag equal to diag(s), off-diagonals within nu of
    # s) gives the lower bound logdet(w) + D on the primal optimum.  The
    # working covariance is feasible only up to the inner tolerance, so it
    # is clipped into the box first; the gap left below zero is rounding.
    sign, logdet = np.linalg.slogdet(np.clip(w_dual, s - nu, s + nu))
    if sign <= 0:
        return np.inf
    return max(glasso_objective(s, omega, nu) - logdet - omega.shape[0], 0.0)


def graphical_lasso(s, nu, max_sweeps=500, gap_tol=1e-6, inner_tol=1e-10,
                    max_inner=1000):
    """Penalized precision estimate from a covariance matrix.

    ``s`` must be finite and symmetric (a small asymmetry is averaged
    away, larger ones raise); an indefinite input is ridge-repaired first.
    ``max_inner`` caps the coordinate-descent passes of one column lasso,
    summed over its admission rounds.  Exits when the duality gap drops
    below ``gap_tol``; a result that exhausts ``max_sweeps`` is flagged as
    not converged.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"covariance must be square, got {s.shape}")
    if not np.isfinite(s).all():
        raise InvalidCovarianceError("covariance has non-finite entries")
    if not nu >= 0:
        raise ValueError(f"penalty nu must be non-negative, got {nu}")
    scale = max(np.abs(s).max(), 1.0)
    if np.abs(s - s.T).max() > 1e-8 * scale:
        raise ShapeError("covariance must be symmetric")
    s = ridge_repair((s + s.T) / 2.0)
    d = s.shape[0]

    if nu == 0:
        omega = np.linalg.inv(s)
        omega = (omega + omega.T) / 2.0
        gap = _dual_gap(s, omega, s, 0.0)
        trace = np.array([glasso_objective(s, omega, 0.0)])
        return PrecisionEstimate(omega, int(np.count_nonzero(omega)), True, gap, 0, trace)

    w = s.copy()
    off_mask = ~np.eye(d, dtype=bool)
    w[off_mask] *= 0.95  # keeps the working covariance safely PD
    # Row j holds column j's lasso coefficients, with betas[j, j] = 0.
    betas = np.zeros((d, d))

    omega = np.eye(d)
    converged = False
    gap = np.inf
    sweep = 0
    trace = []
    for sweep in range(1, max_sweeps + 1):
        for j in range(d):
            beta = betas[j]
            act = np.flatnonzero(beta)
            passes = 0
            while True:
                v = w[np.ix_(act, act)]
                s12 = s[act, j]
                b = beta[act]
                while act.size and passes < max_inner:
                    passes += 1
                    delta = 0.0
                    for q in range(act.size):
                        r = s12[q] - v[q] @ b + v[q, q] * b[q]
                        new = np.sign(r) * max(abs(r) - nu, 0.0) / v[q, q]
                        delta = max(delta, abs(new - b[q]))
                        b[q] = new
                    if delta <= inner_tol:
                        break
                beta[act] = b
                w12 = w @ beta  # KKT pass over every coordinate
                viol = (np.abs(s[:, j] - w12) > nu) & (beta == 0)
                viol[j] = False
                if passes >= max_inner or not viol.any():
                    break
                act = np.flatnonzero((beta != 0) | viol)
            w12[j] = w[j, j]
            w[:, j] = w12
            w[j, :] = w12
        # Recover the precision matrix from the column solutions; the
        # soft-threshold zeros in beta give exact zeros in omega.
        for j in range(d):
            diag = 1.0 / (w[j, j] - w[:, j] @ betas[j])
            omega[:, j] = -betas[j] * diag
            omega[j, j] = diag
        omega = (omega + omega.T) / 2.0
        trace.append(glasso_objective(s, omega, nu))
        gap = _dual_gap(s, omega, w, nu)
        if gap <= gap_tol:
            converged = True
            break
    return PrecisionEstimate(omega, int(np.count_nonzero(omega)), converged, gap, sweep,
                             np.asarray(trace))
