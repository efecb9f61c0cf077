"""The exact weighted lasso: the package's one lasso solver.

Every lasso here is ``min 1/2 x'Gx - c'x + sum_i nu_i |x_i|`` with ``G``
symmetric PSD and ``nu_i >= 0`` (a zero leaves its coordinate unpenalized,
its sign free).  :func:`_column_lasso` solves it exactly on a dense ``G``:
each active coordinate guesses a sign, and a solve ``G[A, A] x_A = c_A -
nu_A sign_A`` whose result keeps those signs is the minimizer on ``A``.  A
wrong guess hands over to feature-sign search (Lee, Battle, Raina & Ng
2007): a line search over the sign changes toward the solve, the zeros
dropped, then the worst zero violator activated one at a time.  The
graphical lasso runs it on each column's active set; :func:`_dense_lasso`,
which adds zero columns and a ridge on a singular matrix, runs it on the
rank-one factor Grams and on :func:`_working_set_lasso`'s working sets.
"""

from __future__ import annotations

import numpy as np

# KKT pass tolerance, relative to the penalty level.
KKT_TOL_FACTOR = 1e-4
# Ridge on a singular G[W, W], relative to its largest diagonal entry.
SINGULAR_RIDGE = 1e-13


def soft_threshold(value, threshold):
    """Proximal operator of the (scaled) absolute value."""
    value = np.asarray(value, dtype=np.float64)
    out = np.sign(value) * np.maximum(np.abs(value) - threshold, 0.0)
    return float(out) if out.ndim == 0 else out


def kkt_residual(grad_f, coef, lam, weights):
    """Stationarity residual and pass flag for the weighted-lasso optimum.

    Non-zero entries must satisfy ``|g + lam w sign(theta)| <= tol * lam``;
    zero entries ``|g| <= lam w (1 + tol)``, with ``tol = KKT_TOL_FACTOR``.
    """
    grad_f, coef = np.asarray(grad_f), np.asarray(coef)
    weights = np.broadcast_to(weights, coef.shape)
    nz = coef != 0
    on = float(np.abs(grad_f[nz] + lam * weights[nz] * np.sign(coef[nz])).max(initial=0.0))
    off = np.abs(grad_f[~nz])
    ok = on <= KKT_TOL_FACTOR * lam and (off <= lam * weights[~nz] * (1 + KKT_TOL_FACTOR)).all()
    return max(on, float((off - lam * weights[~nz]).max(initial=0.0))), bool(ok)


def _line_search(v, c, x, z, nu):
    """Best point of the segment from ``x`` toward ``z``, among ``z`` and
    the points where a penalized coefficient changes sign; ``None`` if none
    is lower than ``x``."""
    d = z - x
    # only here can x + t d reach a kink of the penalty for t in (0, 1)
    cross = (x * z < 0) & (nu > 0)
    t = np.append(x[cross] / (x[cross] - z[cross]), 1.0)
    seg = np.abs(x + t[:, None] * d)
    gain = t * ((v @ x - c) @ d) + 0.5 * t * t * (d @ v @ d) + seg @ nu - np.abs(x) @ nu
    k = int(np.argmin(gain))
    if gain[k] >= 0:
        return None
    if k == t.size - 1:
        return z
    out = x + t[k] * d
    out[np.flatnonzero(cross)[t[:-1] == t[k]]] = 0.0
    return out


def _column_lasso(v, c, x, sign, nu, budget):
    """Solve the lasso on the dense ``v`` in place, with at most ``budget``
    linear solves.  ``nu`` is a scalar or per-coordinate.  The non-zero
    entries of ``sign`` are the active coordinates, each active penalized
    ``x_i`` is zero or has that sign, and ``v`` is positive definite on
    them.  Returns the solves made and whether ``x`` is the minimizer.  A
    singular ``v[A, A]`` raises ``LinAlgError`` with ``x`` at the last
    point reached, which is no higher than the start.
    """
    nu = np.full(c.shape, nu) if np.ndim(nu) == 0 else nu
    solves = 0
    while solves < budget:
        act = np.flatnonzero(sign)
        if act.size:
            full = act.size == sign.size
            v_act, c_act, nu_act = (v, c, nu) if full else (v[act[:, None], act], c[act], nu[act])
            z = np.linalg.solve(v_act, c_act - nu_act * sign[act])
            solves += 1
            if ((np.sign(z) != sign[act]) & (nu_act > 0)).any():
                step = _line_search(v_act, c_act, x[act], z, nu_act)
                if step is not None:
                    x[act] = step
                elif solves > 1:
                    # past the caller's guess the segment descends, unless
                    # v[A, A] is not positive definite (or at rounding level)
                    break
                sign[:] = np.sign(x)
                continue
            x[act] = z
            if full:  # no zero left to activate
                return solves, True
        r = c - v @ x
        excess = np.where(sign == 0, np.abs(r) - nu, 0.0)
        i = int(np.argmax(excess))
        if excess[i] <= 0:
            return solves, True
        sign[i] = np.sign(r[i])
    return solves, False


def _dense_lasso(v, c, x, sign, nu, budget):
    """:func:`_column_lasso` on the caller's own dense ``v`` and ``c``, with a
    per-coordinate ``nu`` and an unpenalized zero guessing ``+1``.  A zero
    column's coordinate stays 0.  A singular ``v[A, A]`` (the solve raises or
    fails the KKT test) takes a ridge of ``SINGULAR_RIDGE`` times its largest
    diagonal entry in place, which moves the minimizer by rounding only;
    so does one on which the search gives up with budget left."""
    if not nu.all():
        sign[(nu == 0) & (sign == 0)] = 1.0
    if not v.diagonal().min() > 0:
        dead = ~(v.diagonal() > 0)
        v[dead] = v[:, dead] = x[dead] = sign[dead] = c[dead] = 0.0
    n = 1
    try:
        n, solved = _column_lasso(v, c, x, sign, nu, budget)
        if not solved and n < budget:
            # no descending point toward the solve: v[A, A] is singular
            raise np.linalg.LinAlgError
        if solved and (np.abs((v @ x - c + nu * sign) * sign).max()
                       > KKT_TOL_FACTOR * (np.abs(c).max() + nu.max())):
            # a singular v[A, A] that did not raise returned amplified
            # rounding: start again from zero on the same active set
            x[:] = 0.0
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        # go on with the ridge; a failed solve counts as one
        v[np.diag_indices_from(v)] += SINGULAR_RIDGE * v.diagonal().max()
        more, solved = _column_lasso(v, c, x, sign, nu, budget - n)
        n += more
    return n, solved


def _working_set_lasso(gram, c, x, g, nu, max_inner):
    """Minimize the lasso on the factored ``gram`` exactly from ``x``
    (updated in place), whose gradient ``G x - c`` is ``g``; all vectors
    are flat (column-major).  The working set ``W`` starts as the support
    and the unpenalized coordinates.  Each round admits the ``k`` worst zero
    violators ``|g_i| > nu_i (1 + KKT_TOL_FACTOR)`` (``k = max(10,
    |support|)``, then at least twice the support), solves on the dense
    ``gram.submatrix(W)`` by :func:`_dense_lasso`, and makes one full Gram
    apply for the gradient everywhere; W's zeros then leave it.  A kept
    coefficient guesses its own sign, an admitted one the sign of ``-g_i``.
    Rounds stop once nothing violates after an exact solve, or at
    ``max_inner`` linear solves.  A zero column is never admitted.  Returns
    the linear solves, whether the last was exact, and the largest ``|W|``.
    """
    live = np.ravel(gram.diagonal, order="F") > 0
    free = live & (nu == 0)
    k = max(10, np.count_nonzero(x))
    solves = size = 0
    solved = False
    while solves < max_inner:
        sign = np.sign(x)
        sign[free & (sign == 0)] = 1.0
        excess = np.where(live & (sign == 0), np.abs(g) - nu * (1 + KKT_TOL_FACTOR), 0.0)
        admit = np.flatnonzero(excess > 0)
        if admit.size > k:
            admit = admit[np.argpartition(excess[admit], -k)[-k:]]
        if not admit.size and (solved or not sign.any()):
            break
        sign[admit] = -np.sign(g[admit])
        index = np.flatnonzero(sign)
        size = max(size, index.size)
        x_w = x[index]
        n, solved = _dense_lasso(gram.submatrix(index), c[index], x_w, sign[index], nu[index],
                                 max_inner - solves)
        solves += n
        x[index] = x_w
        g = np.ravel(gram.apply(x), order="F") - c
        if not solved:
            break
        k = max(k, 2 * np.count_nonzero(x))
    return solves, solved, size
