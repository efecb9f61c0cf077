"""Sparse precision estimation by graphical lasso.

Minimizes ``tr(S Omega) - log det(Omega) + nu * ||Omega||_1,off`` over
positive definite matrices by block coordinate descent on the working
covariance ``W`` (Friedman, Hastie & Tibshirani 2008).  Column ``j``
solves the lasso ``min 0.5 b'Wb - b's_j + nu |b|_1`` (``b_j = 0``)
exactly on an active set ``A`` by sign-fixed linear solves: every active
coefficient gets a sign (a non-zero warm start keeps its own, a coordinate
just admitted takes the sign of its residual ``s_j - Wb``), and one solve
``W[A, A] b = s_A - nu sign`` whose result carries those signs is the
minimizer on ``A``.  A wrong guess hands over to feature-sign search from
the current point (Lee, Battle, Raina & Ng 2007): a line search over the
sign changes on the segment toward the solve, the zeros dropped, then the
worst zero violator of ``A`` activated one at a time.  One vectorized KKT
pass ``r = s_j - Wb`` then admits every zero with ``|r| > nu`` and the
column is solved again.  ``Wb`` is written back into row and column
``j``, the coefficients warm-start the next sweep, and the duality gap of
the recovered precision matrix stops the loop.  Only off-diagonal entries
are penalized, so large ``nu`` shrinks the estimate to ``diag(1 / S_ii)``.

The kernel, :func:`_column_lasso`, takes a scalar or per-coordinate
penalty and is the package's one dense-lasso solver: the rank-one stimulus
factors of ``solver.fit_factor`` use it too.
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


def _line_search(v, c, x, z, nu):
    """Best point of the segment from ``x`` toward ``z`` for the lasso
    ``0.5 x'vx - c'x + sum_i nu_i |x_i|``, among ``z`` and the points where
    a penalized coefficient changes sign; ``None`` if none is lower than
    ``x``.  ``nu`` is a scalar or per-coordinate."""
    d = z - x
    # only here can x + t d reach a kink of the penalty for t in (0, 1)
    cross = (x * z < 0) & (nu > 0)
    t = np.append(x[cross] / (x[cross] - z[cross]), 1.0)
    seg = np.abs(x + t[:, None] * d)
    penalty = (nu * (seg.sum(axis=1) - np.abs(x).sum()) if np.ndim(nu) == 0
               else seg @ nu - np.abs(x) @ nu)
    gain = t * ((v @ x - c) @ d) + 0.5 * t * t * (d @ v @ d) + penalty
    k = int(np.argmin(gain))
    if gain[k] >= 0:
        return None
    if k == t.size - 1:
        return z
    out = x + t[k] * d
    out[np.flatnonzero(cross)[t[:-1] == t[k]]] = 0.0
    return out


def _column_lasso(v, c, x, sign, nu, budget):
    """Solve ``min 0.5 x'vx - c'x + sum_i nu_i |x_i|`` in place by
    feature-sign search, with at most ``budget`` linear solves.

    ``v`` is dense and symmetric positive definite on the active set.
    ``nu`` is a scalar or a vector of per-coordinate penalties ``>= 0``; a
    zero entry leaves its coordinate unpenalized, so its sign is free.
    ``sign`` is the guess: its non-zero entries are the active
    coordinates, and each active penalized ``x_i`` is zero or has that
    sign.  Returns the solves made and whether ``x`` is the minimizer.  A
    singular ``v[A, A]`` raises ``LinAlgError`` with ``x`` at the last point
    reached, which is no higher than the start.
    """
    solves = 0
    while solves < budget:
        act = np.flatnonzero(sign)
        if act.size:
            v_act = v if act.size == sign.size else v[np.ix_(act, act)]
            nu_act = nu if np.ndim(nu) == 0 else nu[act]
            z = np.linalg.solve(v_act, c[act] - nu_act * sign[act])
            solves += 1
            if ((np.sign(z) != sign[act]) & (nu_act > 0)).any():
                step = _line_search(v_act, c[act], x[act], z, nu_act)
                if step is not None:
                    x[act] = step
                elif solves > 1:
                    # past the caller's guess the segment descends, unless
                    # W[A, A] is not positive definite (or at rounding level)
                    break
                sign[:] = np.sign(x)
                continue
            x[act] = z
            if act.size == sign.size:  # no zero left to activate
                return solves, True
        r = c - v @ x
        excess = np.where(sign == 0, np.abs(r) - nu, 0.0)
        i = int(np.argmax(excess))
        if excess[i] <= 0:
            return solves, True
        sign[i] = np.sign(r[i])
    return solves, False


def graphical_lasso(s, nu, max_sweeps=500, gap_tol=1e-6, max_inner=1000):
    """Penalized precision estimate from a covariance matrix.

    ``s`` must be finite and symmetric (a small asymmetry is averaged
    away, larger ones raise); an indefinite input is ridge-repaired first.
    ``max_inner`` caps the linear solves of one column lasso, summed over
    its admission rounds; ``n_solves`` counts those of the whole call.
    The working covariance starts at ``S - t offdiag(S)``, ``t = min(0.05,
    nu / max_(i != j) |S_ij|)``: a convex combination of ``S`` and its
    diagonal inside the dual box, so positive definite and feasible even
    for a rank-deficient ``S``.  Exits when the duality gap drops below
    ``gap_tol``; an estimate that is not positive definite has no finite
    gap, and a result that exhausts ``max_sweeps`` is flagged as not
    converged.
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
    # Row j holds column j's lasso coefficients, with betas[j, j] = 0.
    betas = np.zeros((d, d))

    omega = np.eye(d)
    converged = False
    gap = np.inf
    sweep = 0
    n_solves = 0
    trace = []
    for sweep in range(1, max_sweeps + 1):
        for j in range(d):
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
