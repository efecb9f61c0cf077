"""Penalized estimation of the drift components.

The estimator minimizes

    1/2 sum_k || Omega^(1/2) (y_k - y_(k-1) - (X theta)_k) ||^2
    + lambda * sum_i w_i |theta_i|

over the stacked coefficient blocks, without forming the design matrix.
A block relaxation sweep makes two sub-solves against partial residuals:
the stimulus under a rank-one constraint (spatially modulated common
temporal signal), then the propagation and memory blocks as one lasso on
their stacked design.  The stimulus alternates two small lassos, one per
factor, each on a Gram that is one dense matrix; they are solved exactly
by sign-fixed linear solves with feature-sign search, the kernel the
graphical lasso's column solves use (see :func:`fit_factor`).  The joint
lasso runs a monotone accelerated proximal gradient method with the step
``1 / L`` (twice each part's exact Lipschitz constant on that part's
coordinates), iterated on the block's small Gram operator ``X^T Omega X``
restricted to a working set of coordinates, which periodic full-gradient
KKT checks grow (see :func:`fit_component`).  No sub-solve returns a
point above its warm start, so the full penalized objective is
non-increasing across every sub-solve.  The data are touched only when a
sub-solve starts and returns, where the objective and the KKT certificate
are evaluated exactly in residual form.
The precision ``Omega`` belongs to the design: the solver takes its
blocks, and their Grams, from ``design.blocks`` and never applies
``Omega`` itself.
The outer loop couples this with precision estimation (graphical lasso on
the residual covariance) and a refit on precision-weighted data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bases import DriftCoefficients
from .design import _KronBlock, linear_predictor, network_block  # noqa: F401  (re-exported)
from .errors import DivergenceError
from .precision import _column_lasso, graphical_lasso


def soft_threshold(value, threshold):
    """Proximal operator of the (scaled) absolute value."""
    value = np.asarray(value, dtype=np.float64)
    out = np.sign(value) * np.maximum(np.abs(value) - threshold, 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass
class SolverOptions:
    tol_inner: float = 1e-7
    max_inner: int = 5000
    tol_outer: float = 1e-5
    max_sweeps: int = 20
    tol_rank1: float = 1e-6
    max_rank1: int = 50


# Iterations between full-gradient KKT checks of a working-set fit.
KKT_CHECK_EVERY = 10
# KKT pass tolerance, relative to the penalty level.
KKT_TOL_FACTOR = 1e-4


@dataclass
class PenaltySpec:
    """Penalty path and per-coefficient weights.

    ``lambda_path`` must be decreasing and positive; zero-weight entries
    are unpenalized.  ``nu`` is the graphical-lasso penalty used by the
    precision step.
    """

    lambda_path: np.ndarray
    weights_stimulus: Optional[np.ndarray] = None
    weights_network: Optional[np.ndarray] = None
    weights_memory: Optional[np.ndarray] = None
    nu: float = 0.0

    def __post_init__(self):
        path = np.asarray(self.lambda_path, dtype=np.float64)
        if path.ndim != 1 or path.size == 0:
            raise ValueError("lambda path must be a non-empty vector")
        if (path <= 0).any():
            raise ValueError("lambda path entries must be positive")
        if (np.diff(path) > 0).any():
            raise ValueError("lambda path must be non-increasing")
        self.lambda_path = path
        for name in ("weights_stimulus", "weights_network", "weights_memory"):
            w = getattr(self, name)
            if w is not None:
                w = np.asarray(w, dtype=np.float64)
                if not np.isfinite(w).all() or (w < 0).any():
                    raise ValueError(f"{name} must be finite and non-negative")
                setattr(self, name, w)
        if self.nu < 0:
            raise ValueError("nu must be non-negative")

    def weights_for(self, basis):
        out = {}
        for name, shape in basis.coef_shapes.items():
            w = getattr(self, f"weights_{name}")
            out[name] = np.ones(shape) if w is None else np.broadcast_to(w, shape).astype(float)
        return out


def default_lambda_path(lam_max, n_lambdas=10, min_ratio=1e-3):
    """Log-spaced path from ``lam_max`` down to ``lam_max * min_ratio``.

    Falls back to a unit path when ``lam_max`` is zero (all-zero target),
    for which every penalized fit is exactly zero anyway.
    """
    if lam_max <= 0:
        return np.geomspace(1.0, min_ratio, n_lambdas)
    return np.geomspace(lam_max, lam_max * min_ratio, n_lambdas)


# -- component fits -----------------------------------------------------------


def _weighted_residual(block, target, theta, lam, weights):
    """Precision-weighted residual ``Omega (target - X theta)`` of ``block``
    at ``theta``, and the penalized objective there.  The loss gradient at
    ``theta`` is ``-block.adjoint`` of the residual."""
    resid = target - block.predict(theta)
    weighted = block.weigh(resid)
    penalty = lam * float(np.sum(weights * np.abs(theta)))
    return weighted, 0.5 * float(np.vdot(resid, weighted)) + penalty


def power_lipschitz(block, iterations=60, seed=0):
    """Power-iteration estimate of the block's largest normal-operator
    eigenvalue, from below.  A reference for the exact constant the
    solver reads from ``block.gram().lipschitz``."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(block.coef_shape)
    norm = np.linalg.norm(v)
    if norm == 0:
        return 0.0
    v /= norm
    est = 0.0
    for _ in range(iterations):
        w = block.weighted_adjoint(block.predict(v))
        est = float(np.linalg.norm(w))
        if est <= 0.0:
            return 0.0
        v = w / est
    return est


def kkt_residual(grad_f, coef, lam, weights):
    """Stationarity residual and pass flag for the weighted-lasso optimum.

    Non-zero entries must satisfy ``|g + lam w sign(theta)| <= tol * lam``;
    zero entries ``|g| <= lam w (1 + tol)``, with ``tol = KKT_TOL_FACTOR``.
    """
    grad_f = np.asarray(grad_f)
    coef = np.asarray(coef)
    weights = np.broadcast_to(weights, coef.shape)
    nz = coef != 0
    resid = 0.0
    ok = True
    if nz.any():
        r1 = float(np.abs(grad_f[nz] + lam * weights[nz] * np.sign(coef[nz])).max())
        resid = max(resid, r1)
        ok = ok and r1 <= KKT_TOL_FACTOR * lam
    if (~nz).any():
        excess = np.abs(grad_f[~nz]) - lam * weights[~nz]
        resid = max(resid, max(0.0, float(excess.max())))
        ok = ok and bool((np.abs(grad_f[~nz]) <= lam * weights[~nz] * (1 + KKT_TOL_FACTOR)).all())
    return resid, ok


def _certificate(theta, grad, lam, weights):
    """KKT residual and pass flag of a block fit at ``theta`` from the
    loss gradient there; with no penalty there is no KKT test, and the
    residual is the gradient size."""
    if lam == 0:
        return float(np.abs(grad).max()), True
    return kkt_residual(np.ravel(grad, order="F"), np.ravel(theta, order="F"), lam,
                        np.ravel(weights, order="F"))


def _scatter(values, index, size):
    """A length-``size`` vector holding ``values`` at ``index``, zero elsewhere."""
    out = np.zeros(size)
    out[index] = values
    return out


@dataclass
class ComponentFit:
    coef: np.ndarray
    objective: float
    trace: np.ndarray
    n_iter: int
    converged: bool
    kkt_residual: float
    kkt_ok: bool
    working_set: int


def fit_component(block, target, lam, weights, warm=None, options=None):
    """Weighted-lasso fit of one block by monotone accelerated proximal
    gradient with the fixed step ``1 / L``, iterated in Gram form on a
    working set of coordinates.

    ``target`` is the partial residual the block is fitted against.  The
    loss is ``1/2 theta^T G theta - c^T theta + const``, with ``c = X^T
    Omega target`` and ``G = X^T (I_M kron Omega) X`` the block's
    ``gram()``, which also carries ``L``: the exact constant, or
    per-coordinate constants for a stacked block.

    Set-up makes one forward apply, one Omega apply and one adjoint (the
    exact objective and gradient at the warm start) and one full Gram apply
    (``c``).  The working set ``W`` starts as the warm start's support, the
    unpenalized coordinates and every violator ``|g_i| > lam w_i`` of that
    gradient; when it is empty the warm start is optimal and is returned
    after no iteration.  An iteration applies ``gram.restrict(W)``, a
    dense ``G[W, W]`` or a scattered full apply: the extrapolated point's
    gradient is the same affine combination of the iterates' gradients as
    the point is of the iterates.  A candidate is accepted on the objective
    difference ``1/2 d^T (g' + g) + delta_penalty`` (``d`` the step, ``g``
    and ``g'`` the gradients at its ends), which does not cancel near the
    optimum; the trace adds these to the warm-start objective.

    Every ``KKT_CHECK_EVERY`` iterations one full Gram apply gives the
    gradient at every coordinate.  A stalled objective converges if the KKT
    test passes on it; otherwise its violators join ``W`` at zero, with the
    momentum kept.

    On return the objective is evaluated in residual form (one forward
    apply, one Omega apply); if it exceeds the warm-start objective, the
    warm start is returned.  So the returned objective never exceeds the
    warm-start objective.  The KKT certificate is one adjoint of the
    returned coefficients' weighted residual, so it is exact there, and a
    fit reports ``converged`` only if that certificate passes.
    ``working_set`` is the final (largest) size of ``W``.
    """
    opts = options or SolverOptions()
    shape = block.coef_shape
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), shape)
    x0 = (np.zeros(shape) if warm is None
          else np.array(warm, dtype=np.float64).reshape(shape))
    gram = block.gram()
    w = np.ravel(weights, order="F")

    lip = np.asarray(gram.lipschitz)
    if lip.max() <= 1e-300:
        # Zero design: every penalized entry is optimal at zero.
        coef = np.zeros(shape) if lam > 0 else x0
        _, obj = _weighted_residual(block, target, coef, lam, weights)
        return ComponentFit(coef, obj, np.array([obj]), 0, True, 0.0, True, 0)

    # A stacked part with all-zero columns has constant zero and keeps step 0.
    step = np.broadcast_to(np.divide(1.0, lip, out=np.zeros(lip.shape), where=lip > 1e-300),
                           w.shape)
    threshold = step * lam * w
    r_start, f_start = _weighted_residual(block, target, x0, lam, weights)
    if not np.isfinite(f_start):
        raise DivergenceError(f"non-finite objective at warm start of {block.name!r}")
    x_full = np.ravel(x0, order="F")
    g_full = np.ravel(-block.adjoint(r_start), order="F")
    c = np.ravel(gram.apply(x0), order="F") - g_full
    active = np.flatnonzero((x_full != 0) | (w == 0) | (np.abs(g_full) > lam * w))
    if active.size == 0:
        kkt = _certificate(x0, g_full, lam, w)
        return ComponentFit(x0, f_start, np.array([f_start]), 0, kkt[1], *kkt, 0)

    def restrict(index):
        return gram.restrict(index), c[index], step[index], threshold[index], lam * w[index]

    op, c_w, step_w, threshold_w, lam_w = restrict(active)
    x, g_x = x_full[active], g_full[active]
    f_best, pen_x = f_start, float(lam_w @ np.abs(x))
    trace = [f_best]
    y, g_y = x, g_x
    t_mom = 1.0
    n_iter = 0
    converged = False

    for it in range(1, opts.max_inner + 1):
        n_iter = it
        cand = soft_threshold(y - step_w * g_y, threshold_w)
        g_cand = op(cand) - c_w
        pen_cand = float(lam_w @ np.abs(cand))
        delta = 0.5 * float(np.vdot(cand - x, g_cand + g_x)) + pen_cand - pen_x
        if not np.isfinite(delta):
            raise DivergenceError(f"component fit diverged for block {block.name!r}")
        # Monotone acceleration: keep the incumbent when the accelerated
        # candidate overshoots, but still extrapolate through it.
        accepted = delta <= 0
        if accepted:
            x_new, g_new, pen_new, f_new = cand, g_cand, pen_cand, f_best + delta
        else:
            x_new, g_new, pen_new, f_new = x, g_x, pen_x, f_best
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_mom**2)) / 2.0
        a, b = t_mom / t_new, (t_mom - 1.0) / t_new
        y = x_new + a * (cand - x_new) + b * (x_new - x)
        g_y = g_new + a * (g_cand - g_new) + b * (g_new - g_x)
        rel = abs(f_best - f_new) / max(1.0, abs(f_best))
        x, g_x, pen_x, f_best, t_mom = x_new, g_new, pen_new, f_new, t_new
        trace.append(f_best)
        if it % KKT_CHECK_EVERY:
            continue
        x_full = _scatter(x, active, w.size)
        g_full = np.ravel(gram.apply(x_full), order="F") - c
        # At an optimum rounding can reject every candidate, so with a
        # penalty a rejected step also counts as a stall.  Without one
        # there is no KKT test, and only an accepted stall converges.
        if (rel < opts.tol_inner and (accepted or lam > 0)
                and _certificate(x_full, g_full, lam, w)[1]):
            converged = True
            break
        grown = np.abs(g_full) > lam * w
        grown[active] = True
        grown = np.flatnonzero(grown)
        if grown.size > active.size:
            x, y = (_scatter(v, np.searchsorted(grown, active), grown.size) for v in (x, y))
            active = grown
            op = None  # drop the old restriction before the grown one is built
            op, c_w, step_w, threshold_w, lam_w = restrict(active)
            g_x, g_y = g_full[active], op(y) - c_w

    coef = _scatter(x, active, w.size).reshape(shape, order="F")
    resid, objective = _weighted_residual(block, target, coef, lam, weights)
    if objective > f_start:
        # rounding in the Gram form lost the descent: keep the warm start
        coef, resid, objective, converged = x0, r_start, f_start, False
    kkt = _certificate(coef, -block.adjoint(resid), lam, w)
    return ComponentFit(coef, objective, np.asarray(trace), n_iter, converged and kkt[1], *kkt,
                        int(active.size))


def fit_factor(block, target, lam, weights, warm, options=None):
    """Weighted-lasso fit of a block whose Gram is one dense factor ``V``,
    as each factor block of the rank-one stimulus has: solved exactly by
    the graphical lasso's feature-sign kernel.

    The lasso is ``min 1/2 x^T V x - c^T x + lam sum_i w_i |x_i|`` with
    ``c = X^T Omega target``.  It starts from ``warm``, whose signs are the
    first guess, and makes at most ``max_inner`` linear solves, which
    ``n_iter`` counts.  A singular ``V[A, A]`` hands the fit to
    :func:`fit_component` from the point reached; ``n_iter`` then counts
    its iterations.  As there, the objective is evaluated in residual form
    on return, a result above the warm-start objective returns the warm
    start, and the KKT certificate is exact at the returned coefficients.
    """
    opts = options or SolverOptions()
    shape = block.coef_shape
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), shape)
    x0 = np.array(warm, dtype=np.float64).reshape(shape)
    r_start, f_start = _weighted_residual(block, target, x0, lam, weights)
    if not np.isfinite(f_start):
        raise DivergenceError(f"non-finite objective at warm start of {block.name!r}")
    x = x0.flatten(order="F")
    sign = np.sign(x)
    c = np.ravel(block.weighted_adjoint(target), order="F")
    v, nu = block.gram().factors[0], lam * np.ravel(weights, order="F")
    try:
        n_iter, solved = _column_lasso(v, c, x, sign, nu, opts.max_inner)
    except np.linalg.LinAlgError:
        fit = fit_component(block, target, lam, weights, x.reshape(shape, order="F"), opts)
        coef, n_iter, solved = fit.coef, fit.n_iter, fit.converged
    else:
        coef = x.reshape(shape, order="F")
    resid, objective = _weighted_residual(block, target, coef, lam, weights)
    if not objective <= f_start:
        # rounding, or a nearly singular V[A, A]: the warm start is at least
        # as good, and a solved fit still converges if it passes the KKT test
        coef, resid, objective = x0, r_start, f_start
    kkt = _certificate(coef, -block.adjoint(resid), lam, weights)
    return ComponentFit(coef, objective, np.array([f_start, objective]), n_iter,
                        solved and kkt[1], *kkt, int(np.count_nonzero(sign)))


def standardized_weights(design):
    """Per-coefficient penalty weights equal to the design columns'
    precision-weighted norms, ``sqrt(diag(X_b^T (I_M kron Omega) X_b))``.

    Standardizes the penalty so every coefficient activates at a
    comparable correlation level.  The diagonals are read from the blocks'
    Grams.  Identically-zero columns get weight zero (unpenalized, never
    active).
    """
    return {name: np.sqrt(design.blocks[name].gram().diagonal)
            for name in design.basis.coef_shapes}


def lambda_max(design, weights=None):
    """Smallest penalty level whose solution is exactly zero.

    Computed as the largest weighted gradient entry of the smooth loss at
    the zero coefficient vector; an all-zero target gives zero.
    """
    if weights is None:
        weights = PenaltySpec(np.array([1.0])).weights_for(design.basis)
    block = design.blocks["design"]
    grad = np.abs(block.weighted_adjoint(design.target))
    w = block.stack([np.broadcast_to(weights[b.name], b.coef_shape) for b in block.blocks])
    return float((grad[w > 0] / w[w > 0]).max(initial=0.0))


# -- reduced-rank stimulus -----------------------------------------------------


@dataclass
class Rank1Fit:
    zeta: np.ndarray
    eta: np.ndarray
    alpha: np.ndarray
    objective: float
    n_alternations: int
    n_iter: int
    converged: bool
    collapsed: bool
    kkt_residual: float


def _rank1_init(design, target):
    """Leading separable direction of the stimulus-block gradient at zero."""
    g = design.blocks["stimulus"].weighted_adjoint(target)
    mat = g.reshape(-1, g.shape[-1], order="F")
    _, _, vt = np.linalg.svd(mat, full_matrices=False)
    zeta = vt[0]
    peak = int(np.abs(zeta).argmax())
    if zeta[peak] < 0:
        zeta = -zeta
    return zeta


def fit_reduced_rank_stimulus(design, target, lam, weights=None, warm_zeta=None,
                              warm_eta=None, options=None):
    """Rank-one stimulus fit by alternating weighted lassos.

    The stimulus coefficients are constrained to ``alpha[i,j,k] =
    zeta[k] * eta[i,j]``.  With one factor fixed, the loss is a scaled
    least-squares problem for the other on a contracted target: the eta
    step fits the spatial field to ``sum_k g_k T_k / |g|^2`` (``g = phi_t
    zeta``) on one frame; the zeta step fits the time profile to ``c_k =
    <Omega f, T_k> / f'Omega f`` (``f`` the field of ``eta``) without Omega.
    Both factor blocks, and their Grams, are the design's own.  Each step
    is solved exactly by :func:`fit_factor` from the previous factor, so
    ``n_iter`` counts linear solves (plus the iterations of any fit handed
    to :func:`fit_component` on a singular Gram block).
    Alternation makes the joint objective non-increasing.  It stops once
    that objective stalls (``tol_rank1``) at stationary factors, whose
    rank-one KKT residual is at most ``KKT_TOL_FACTOR * lam``.  Returns a
    collapsed (all-zero) stimulus with a flag when either factor vanishes.
    The returned ``kkt_residual`` is the rank-one stationarity at the
    returned factors: the larger of the eta-lasso residual with zeta fixed
    and the zeta-lasso residual with eta fixed, both in units of ``lam``.
    """
    opts = options or SolverOptions()
    shape = design.basis.coef_shapes["stimulus"]  # (space..., time)
    if weights is None:
        weights = np.ones(shape)
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), shape)

    zeta = None if warm_zeta is None else np.array(warm_zeta, dtype=np.float64)
    eta = (np.zeros(shape[:-1]) if warm_eta is None
           else np.array(warm_eta, dtype=np.float64))
    if zeta is None or not zeta.any():
        zeta = _rank1_init(design, target)
    # balance the factor scales without changing their product
    nz = np.linalg.norm(zeta)
    if nz > 0:
        zeta = zeta / nz
        eta = eta * nz

    space, times, stimulus = (design.blocks[name]
                              for name in ("stimulus-eta", "stimulus-zeta", "stimulus"))

    def stationarity(resid):
        # each factor's lasso KKT residual with the other fixed, by the
        # chain rule, at the factors whose residual this is
        grad = -stimulus.adjoint(resid)
        return max(kkt_residual(grad @ zeta, eta, lam, weights @ np.abs(zeta))[0],
                   kkt_residual(np.tensordot(eta, grad, 2), zeta, lam,
                                np.tensordot(np.abs(eta), weights, 2))[0])

    alpha = np.einsum("k,ij->ijk", zeta, eta)
    resid, obj = _weighted_residual(stimulus, target, alpha, lam, weights)
    total_iter = 0
    converged = False
    collapsed = False
    kkt = None
    n_alt = 0
    for n_alt in range(1, opts.max_rank1 + 1):
        profile = times.predict(zeta)
        scale = float(profile @ profile)
        if scale == 0.0:
            collapsed = True
            break
        w_eta = np.einsum("ijk,k->ij", weights, np.abs(zeta))
        fit_e = fit_factor(space, (target @ profile) / scale, lam / scale, w_eta, eta, opts)
        eta = fit_e.coef
        total_iter += fit_e.n_iter
        field = space.predict(eta)
        weighted_field = space.weigh(field)
        scale = float(np.vdot(field, weighted_field))
        if scale == 0.0:
            collapsed = True
            break
        w_zeta = np.einsum("ijk,ij->k", weights, np.abs(eta))
        contracted = np.einsum("ij,ijk->k", weighted_field, target) / scale
        fit_z = fit_factor(times, contracted, lam / scale, w_zeta, zeta, opts)
        zeta = fit_z.coef
        total_iter += fit_z.n_iter
        if not zeta.any():
            collapsed = True
            break
        alpha = np.einsum("k,ij->ijk", zeta, eta)
        resid, new_obj = _weighted_residual(stimulus, target, alpha, lam, weights)
        stalled = abs(obj - new_obj) <= opts.tol_rank1 * max(1.0, abs(obj))
        obj = new_obj
        # a stalled objective is not a solution unless the factors are stationary
        kkt = stationarity(resid) if stalled else None
        if stalled and (lam == 0 or kkt <= KKT_TOL_FACTOR * lam):
            converged = True
            break
    if collapsed:
        eta = np.zeros_like(eta)
        alpha = np.einsum("k,ij->ijk", zeta, eta)
        resid, obj = _weighted_residual(stimulus, target, alpha, lam, weights)
        kkt = stationarity(resid)
        converged = bool(lam == 0 or kkt <= KKT_TOL_FACTOR * lam)
    elif kkt is None:
        kkt = stationarity(resid)
    return Rank1Fit(zeta, eta, alpha, obj, n_alt, total_iter, converged, collapsed, kkt)


# -- block relaxation over the penalty path ------------------------------------


@dataclass
class LambdaFit:
    lam: float
    coeffs: DriftCoefficients
    objective_trace: np.ndarray
    n_nonzero: dict
    iterations: dict
    converged: dict
    kkt: dict
    n_sweeps: int
    converged_outer: bool
    working_set: int

    @property
    def objective(self):
        return float(self.objective_trace[-1])

    @property
    def total_iterations(self):
        # network and memory report the same joint solve: count it once
        return int(self.iterations["stimulus"] + self.iterations["network"])


@dataclass
class FitResult:
    lambda_path: np.ndarray
    fits: list

    def best_index(self):
        """Index of the smallest final objective along the path."""
        if not self.fits:
            return None
        return int(np.argmin([f.objective for f in self.fits]))


@dataclass
class MrceResult:
    first: FitResult
    precision: object
    second: FitResult
    lambda_index: int


def fit_penalized(design, lam, penalty_weights=None, options=None, warm=None):
    """Block-relaxed fit of all three components at one penalty level.

    Each sweep fits the rank-one stimulus, then the network and memory
    blocks jointly.  ``lam`` may be zero (pure least squares).  ``warm`` is
    an optional ``DriftCoefficients`` whose rank-one factors seed the
    stimulus.
    """
    opts = options or SolverOptions()
    if penalty_weights is None:
        penalty_weights = PenaltySpec(np.array([1.0])).weights_for(design.basis)
    stimulus = design.blocks["stimulus"]
    joint = design.blocks["network+memory"]
    target = design.target

    zeta, eta = (None, None) if warm is None else (warm.zeta, warm.eta)
    theta = np.zeros(joint.coef_shape) if warm is None else joint.stack([warm.beta, warm.gamma])
    alpha = (np.zeros(stimulus.coef_shape) if zeta is None or eta is None
             else np.einsum("k,ij->ijk", zeta, eta))

    w_a = penalty_weights["stimulus"]
    w_nm = joint.stack([np.broadcast_to(penalty_weights[b.name], b.coef_shape)
                        for b in joint.blocks])

    # Each sub-solve returns its objective on the partial residual; adding
    # the other block's penalty gives the full objective at that point.
    _, obj = _weighted_residual(joint, target - stimulus.predict(alpha), theta, lam, w_nm)
    trace = [obj + lam * float(np.sum(w_a * np.abs(alpha)))]
    iterations = {"stimulus": 0, "network": 0, "memory": 0}
    converged_blocks = {"stimulus": True, "network": True, "memory": True}
    kkt = {"stimulus": 0.0, "network": 0.0, "memory": 0.0}
    converged_outer = False
    sweeps = working_set = 0
    for sweeps in range(1, opts.max_sweeps + 1):
        obj_start = trace[-1]

        rank1 = fit_reduced_rank_stimulus(design, target - joint.predict(theta), lam, w_a,
                                          zeta, eta, opts)
        zeta, eta, alpha = rank1.zeta, rank1.eta, rank1.alpha
        iterations["stimulus"] += rank1.n_iter
        converged_blocks["stimulus"] = rank1.converged
        kkt["stimulus"] = rank1.kkt_residual
        trace.append(rank1.objective + lam * float(np.sum(w_nm * np.abs(theta))))

        fit_nm = fit_component(joint, target - stimulus.predict(alpha), lam, w_nm, theta, opts)
        theta = fit_nm.coef
        working_set = max(working_set, fit_nm.working_set)
        for name in ("network", "memory"):  # one joint solve, reported for both
            iterations[name] += fit_nm.n_iter
            converged_blocks[name] = fit_nm.converged
            kkt[name] = fit_nm.kkt_residual
        trace.append(fit_nm.objective + lam * float(np.sum(w_a * np.abs(alpha))))

        if abs(obj_start - trace[-1]) <= opts.tol_outer * max(1.0, abs(obj_start)):
            converged_outer = True
            break

    beta, gamma = joint.split(theta)
    coeffs = DriftCoefficients(alpha=alpha, beta=beta, gamma=gamma, zeta=zeta, eta=eta)
    return LambdaFit(
        lam=float(lam),
        coeffs=coeffs,
        objective_trace=np.asarray(trace),
        n_nonzero=coeffs.nonzero_counts(),
        iterations=iterations,
        converged=converged_blocks,
        kkt=kkt,
        n_sweeps=sweeps,
        converged_outer=converged_outer,
        working_set=working_set,
    )


def fit_block_relaxation(design, penalty, options=None):
    """Fit the whole penalty path, each level warm-started from the
    previous level's solution.  The design's blocks keep their Grams, so
    each is built once for the whole path."""
    opts = options or SolverOptions()
    weights = penalty.weights_for(design.basis)
    fits = []
    warm = None
    for lam in penalty.lambda_path:
        fits.append(fit_penalized(design, lam, weights, opts, warm=warm))
        warm = fits[-1].coeffs
    return FitResult(lambda_path=penalty.lambda_path.copy(), fits=fits)


def residual_covariance(design, coeffs):
    """Average outer product of the model residual frames, ``D x D``."""
    resid = design.target - linear_predictor(coeffs, design)
    d = design.grid.n_pixels
    flat = resid.reshape(d, -1, order="F")
    return (flat @ flat.T) / design.grid.n_steps


def mrce_loop(design, penalty, options=None, lambda_index=None):
    """Two-round estimation: fit, estimate the noise precision from the
    residual covariance by graphical lasso, then refit on weighted data.

    ``lambda_index`` selects the path entry feeding the precision step
    (defaults to the path midpoint).  The second-round path is rebuilt
    from the weighted problem's own zero-solution level, keeping the
    length and dynamic range of the original path.
    """
    opts = options or SolverOptions()
    first = fit_block_relaxation(design, penalty, opts)
    idx = penalty.lambda_path.size // 2 if lambda_index is None else int(lambda_index)
    prec = graphical_lasso(residual_covariance(design, first.fits[idx].coeffs), penalty.nu)
    design2 = design.with_omega(prec.omega)

    lam_max2 = lambda_max(design2, penalty.weights_for(design.basis))
    ratio = penalty.lambda_path[-1] / penalty.lambda_path[0]
    path2 = default_lambda_path(lam_max2, penalty.lambda_path.size, ratio)
    penalty2 = replace(penalty, lambda_path=path2)
    second = fit_block_relaxation(design2, penalty2, opts)
    return MrceResult(first=first, precision=prec, second=second, lambda_index=idx)


def support_scores(estimated, truth):
    """Support recovery summary of an estimated coefficient array."""
    est = np.asarray(estimated) != 0
    tru = np.asarray(truth) != 0
    n_true = int(tru.sum())
    n_est = int(est.sum())
    hits = int((est & tru).sum())
    return {
        "n_true": n_true,
        "n_estimated": n_est,
        "recall": hits / n_true if n_true else 1.0,
        "false_positive_rate": (n_est - hits) / n_est if n_est else 0.0,
    }
