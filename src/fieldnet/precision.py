"""Sparse precision estimation by graphical lasso.

Minimizes ``tr(S Omega) - log det(Omega) + nu * ||Omega||_1,off`` over
positive definite matrices by block coordinate descent on the working
covariance ``W`` (Friedman, Hastie & Tibshirani 2008).  Column ``j``
solves the lasso ``min 0.5 b'Wb - b's_j + nu |b|_1`` (``b_j = 0``)
exactly with the kernel of ``lasso.py`` on an active set ``A``: a non-zero
warm start keeps its sign, and one vectorized KKT pass ``r = s_j - Wb``
admits every zero with ``|r| > nu`` with the sign of its residual, until
none is left.  ``Wb`` is written back into row and column ``j``, the
coefficients warm-start the next sweep, and the duality gap of the
recovered precision matrix stops the loop.  Only off-diagonal entries
are penalized, so large ``nu`` shrinks the estimate to ``diag(1 / S_ii)``.

Screening: a variable ``i`` with ``|S_ij| <= nu`` for every ``j != i`` is
a connected component of its own in the thresholded covariance, and the
estimate is block diagonal over those components (Witten, Friedman &
Simon 2011; Mazumder & Hastie 2012), so row ``i`` of ``Omega`` is zero
off the diagonal and ``Omega_ii = 1 / S_ii``.  Such a variable's row and
column of ``W`` start at zero off the diagonal, which keeps ``W`` in the
dual box and positive definite, and its column is never swept: no other
column's KKT pass can admit it, since its residual there is ``S_ij``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCovarianceError, ShapeError
from .lasso import _column_lasso


@dataclass
class PrecisionEstimate:
    omega: np.ndarray
    n_nonzero: int
    converged: bool
    dual_gap: float
    n_sweeps: int
    objective_trace: np.ndarray = None
    n_solves: int = 0


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


def _logdet(a):
    """``log det a`` of a symmetric matrix, ``None`` unless it is positive
    definite (a determinant's sign misses an even number of negative
    eigenvalues, a Cholesky factor does not)."""
    try:
        return 2.0 * np.log(np.diag(np.linalg.cholesky(a))).sum()
    except np.linalg.LinAlgError:
        return None


def glasso_objective(s, omega, nu):
    """Penalized negative Gaussian log-likelihood (up to constants); ``inf``
    unless ``omega`` is positive definite."""
    logdet = _logdet(omega)
    if logdet is None:
        return np.inf
    off = np.abs(omega).sum() - np.abs(np.diag(omega)).sum()
    return float(np.sum(s * omega) - logdet + nu * off)


def _dual_gap(objective, s, w_dual, nu):
    # ``objective`` minus the lower bound logdet(w) + D that a dual-feasible
    # w (diag equal to diag(s), off-diagonals within nu of s) gives.  The
    # working covariance is feasible only up to rounding (or less, when a
    # column exhausts its solve budget), so it is clipped into the box
    # first; the gap left below zero is rounding.
    logdet = _logdet(np.clip(w_dual, s - nu, s + nu))
    if logdet is None:
        return np.inf
    return max(objective - logdet - s.shape[0], 0.0)


def graphical_lasso(s, nu, max_sweeps=500, gap_tol=1e-6, max_inner=1000):
    """Penalized precision estimate from a covariance matrix.

    ``s`` must be finite and symmetric (a small asymmetry is averaged
    away, larger ones raise); an indefinite input is ridge-repaired first.
    ``max_inner`` caps the linear solves of one column lasso, summed over
    its admission rounds; ``n_solves`` counts those of the whole call.
    The working covariance starts at ``S - t offdiag(S)``, ``t = min(0.05,
    nu / max_(i != j) |S_ij|)``: a convex combination of ``S`` and its
    diagonal inside the dual box, so positive definite and feasible even
    for a rank-deficient ``S``; isolated variables' off-diagonal entries
    then start at zero (screening, in the module docstring).  Exits when
    the duality gap drops below ``gap_tol``; an estimate that is not
    positive definite has no finite gap, and a result that exhausts
    ``max_sweeps`` is flagged as not converged.
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
        objective = glasso_objective(s, omega, 0.0)
        return PrecisionEstimate(omega, int(np.count_nonzero(omega)), True,
                                 _dual_gap(objective, s, s, 0.0), 0, np.array([objective]))

    off_mask = ~np.eye(d, dtype=bool)
    top = np.abs(s[off_mask]).max(initial=0.0)
    w = s.copy()
    w[off_mask] *= 1 - (min(0.05, nu / top) if top > 0 else 0.05)
    # Screening (module docstring): only linked variables are swept.
    linked = ((np.abs(s) > nu) & off_mask).any(axis=0)
    w[off_mask & ~np.outer(linked, linked)] = 0.0
    # Row j holds column j's lasso coefficients, with betas[j, j] = 0.
    betas = np.zeros((d, d))

    omega = np.eye(d)
    converged = False
    gap = np.inf
    sweep = 0
    n_solves = 0
    trace = []
    for sweep in range(1, max_sweeps + 1):
        for j in np.flatnonzero(linked):
            beta = betas[j]
            sign = np.sign(beta)
            solves = 0
            while True:
                act = np.flatnonzero(sign)
                solved = True
                if act.size:
                    b, sg = beta[act], sign[act]
                    n, solved = _column_lasso(w[np.ix_(act, act)], s[act, j], b, sg, nu,
                                              max_inner - solves)
                    solves += n
                    beta[act] = b
                w12 = w @ beta  # KKT pass over every coordinate
                r = s[:, j] - w12
                viol = (np.abs(r) > nu) & (beta == 0)
                viol[j] = False
                if not solved or not viol.any():
                    break
                sign = np.sign(beta)
                sign[viol] = np.sign(r[viol])
            n_solves += solves
            w12[j] = w[j, j]
            w[:, j] = w12
            w[j, :] = w12
        # Recover the precision matrix from the column solutions; the
        # exact zeros in betas give exact zeros in omega.
        diag = 1.0 / (np.diag(w) - np.einsum("ij,ji->i", betas, w))
        omega = -betas.T * diag
        omega[np.diag_indices(d)] = diag
        omega = (omega + omega.T) / 2.0
        trace.append(glasso_objective(s, omega, nu))
        gap = _dual_gap(trace[-1], s, w, nu)
        if gap <= gap_tol:
            converged = True
            break
    return PrecisionEstimate(omega, int(np.count_nonzero(omega)), converged, gap, sweep,
                             np.asarray(trace), n_solves)
