"""Penalized estimation of the drift components.

The estimator minimizes

    1/2 sum_k || Omega^(1/2) (y_k - y_(k-1) - (X theta)_k) ||^2
    + lambda * sum_i w_i |theta_i|

over the stacked coefficient blocks, without forming the design matrix.
A block relaxation sweep makes two sub-solves against partial residuals:
the stimulus under a rank-one constraint (spatially modulated common
temporal signal), then the propagation and memory blocks as one lasso on
their stacked design.  Every lasso is solved exactly by ``lasso.py``:
:func:`fit_component` by its working set on a block's Gram ``X^T Omega
X``, each rank-one factor by one dense solve on its scaled factor of the
stimulus Gram (its Gram form, as in Currie, Durban & Eilers 2006).  Every
solve descends from its warm start, so the full penalized objective is
non-increasing across every sub-solve.  The data are touched only when a
sub-solve starts and returns, where the objective and the KKT certificate
are evaluated exactly in residual form.  The precision ``Omega`` belongs to
the design: the solver takes its blocks, and their Grams, from
``design.blocks`` and never applies ``Omega`` itself.  The outer loop
couples this with precision estimation (graphical lasso on the residual
covariance) and a refit on precision-weighted data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bases import DriftCoefficients
from .design import _KronBlock, linear_predictor, network_block  # noqa: F401  (re-exported)
from .errors import DivergenceError
from .lasso import KKT_TOL_FACTOR, _dense_lasso, _working_set_lasso, kkt_residual
from .precision import graphical_lasso


@dataclass
class SolverOptions:
    tol_inner: float = 1e-7
    max_inner: int = 5000
    tol_outer: float = 1e-5
    max_sweeps: int = 20
    tol_rank1: float = 1e-6
    max_rank1: int = 50


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

    def scaled_to(self, design):
        """This penalty with its path rescaled to start at ``design``'s
        ``lambda_max`` under these weights, keeping the path's length and
        end-to-start ratio."""
        path = self.lambda_path
        top = lambda_max(design, self.weights_for(design.basis))
        return replace(self, lambda_path=default_lambda_path(top, path.size, path[-1] / path[0]))


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
    eigenvalue, from below.  The solver needs no step size and does not
    call it; perfbench's tracer names it."""
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
    """Exact weighted-lasso fit of one block against the partial residual
    ``target`` by :func:`_working_set_lasso` on the block's ``gram()`` ``G =
    X^T (I_M kron Omega) X``, with ``c = X^T Omega target``.

    Set-up makes one forward, one Omega and one adjoint apply (the exact
    objective and gradient ``g`` at the warm start) and one Gram apply
    (``c = G theta_0 - g``).  ``n_iter`` counts linear solves, up to
    ``max_inner``; ``tol_inner`` is not read.  On return the objective is
    evaluated in residual form; if it exceeds the warm start's, the warm
    start is returned.  The KKT certificate is one adjoint of the returned
    coefficients' weighted residual, so it is exact there, and
    ``converged`` is its pass flag; without a penalty, whether the last
    solve was exact.  ``working_set`` is the largest ``|W|``.
    """
    opts = options or SolverOptions()
    shape = block.coef_shape
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), shape)
    x0 = (np.zeros(shape) if warm is None
          else np.array(warm, dtype=np.float64).reshape(shape))
    gram = block.gram()
    r_start, f_start = _weighted_residual(block, target, x0, lam, weights)
    if not np.isfinite(f_start):
        raise DivergenceError(f"non-finite objective at warm start of {block.name!r}")
    x = x0.flatten(order="F")
    g = np.ravel(-block.adjoint(r_start), order="F")
    c = np.ravel(gram.apply(x0), order="F") - g
    solves, solved, size = _working_set_lasso(gram, c, x, g, lam * np.ravel(weights, order="F"),
                                              opts.max_inner)

    coef = x.reshape(shape, order="F")
    resid, objective = _weighted_residual(block, target, coef, lam, weights)
    if not objective <= f_start:
        # rounding lost the descent: keep the warm start
        coef, resid, objective, solved = x0, r_start, f_start, False
    # the exact certificate; with no penalty there is no KKT test, and the
    # residual is the gradient size
    grad = -block.adjoint(resid)
    kkt = (float(np.abs(grad).max()), True) if lam == 0 else kkt_residual(grad, coef, lam, weights)
    return ComponentFit(coef, objective, np.array([f_start, objective]), solves,
                        kkt[1] if lam > 0 else solved, *kkt, size)


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
    trace: np.ndarray
    n_alternations: int
    n_iter: int
    converged: bool
    collapsed: bool
    kkt_residual: float


def fit_reduced_rank_stimulus(design, target, lam, weights=None, warm_zeta=None,
                              warm_eta=None, options=None):
    """Rank-one stimulus fit by alternating weighted lassos in Gram form.

    The stimulus is ``alpha[i,j,k] = zeta[k] * eta[i,j]``, as a ``(p_x p_y,
    p_t)`` matrix ``A = eta zeta^T``, on which the stimulus Gram acts as
    ``G_s A G_t``.  The loss is ``1/2 (zeta^T G_t zeta)(eta^T G_s eta) -
    eta^T C zeta + const``, with ``C = G A_0 - g_0 = X^T Omega target`` from
    one residual at the warm product ``A_0``.  So the eta step is the lasso
    on ``(zeta^T G_t zeta) G_s`` with linear term ``C zeta``, the zeta step
    the one on ``(eta^T G_s eta) G_t`` with ``C^T eta``, each solved exactly
    by one :func:`_dense_lasso` call from the previous factor's signs;
    ``n_iter`` counts linear solves.  A missing or zero ``warm_zeta`` starts
    as C's leading right singular vector.

    ``trace`` is the objective at the start and after each alternation in
    Gram form, the start objective plus ``<g_0, D> + 1/2 <D, G_s D G_t>``
    for ``D = A - A_0`` plus the penalty, so its rounding scales with the
    change.  Alternation stops once it stalls (``tol_rank1``) at factors
    whose rank-one KKT residual, from the gradient ``g_0 + G_s D G_t``, is
    at most ``KKT_TOL_FACTOR * lam``.  A vanishing factor collapses the
    stimulus to zero, flagged, and the trace ends there.  The data are read
    again only at return, for the residual-form ``objective`` and the
    certificate ``kkt_residual``: the larger of the eta-lasso KKT residual
    with zeta fixed and the zeta-lasso one with eta fixed.  ``converged``
    is its pass flag; without a penalty, whether the alternation stopped.
    """
    opts = options or SolverOptions()
    stimulus = design.blocks["stimulus"]
    g_s, g_t = stimulus.gram().factors
    shape = stimulus.coef_shape  # (space..., time)
    weights = np.broadcast_to(np.asarray(1.0 if weights is None else weights, dtype=float), shape)
    w = weights.reshape(len(g_s), len(g_t), order="F")

    def balanced(zeta, eta):
        # the factor scales, balanced without changing their product
        nz = np.linalg.norm(zeta)
        return (zeta / nz, eta * nz) if nz > 0 else (zeta, eta)

    zeta, eta = balanced(
        np.zeros(len(g_t)) if warm_zeta is None else np.array(warm_zeta, dtype=np.float64),
        np.zeros(len(g_s)) if warm_eta is None
        else np.array(warm_eta, dtype=np.float64).ravel(order="F"))
    a_start = np.outer(eta, zeta)
    resid, loss_start = _weighted_residual(stimulus, target, a_start.reshape(shape, order="F"),
                                           0.0, weights)
    if not np.isfinite(loss_start):
        raise DivergenceError("non-finite objective at warm start of 'stimulus'")
    g_start = -stimulus.adjoint(resid).reshape(a_start.shape, order="F")
    c = g_s @ a_start @ g_t - g_start
    if not zeta.any():
        # the leading separable direction of C
        zeta = np.linalg.svd(c, full_matrices=False)[2][0]
        if zeta[np.abs(zeta).argmax()] < 0:
            zeta = -zeta
        zeta, eta = balanced(zeta, eta)

    def objective(a):
        # the Gram-form objective and loss gradient at A
        d = a - a_start
        gd = g_s @ d @ g_t
        return (loss_start + float(np.vdot(g_start + 0.5 * gd, d))
                + lam * float(np.sum(w * np.abs(a))), g_start + gd)

    def stationarity(grad):
        # each factor's lasso KKT residual with the other fixed, by the
        # chain rule, at the current factors
        return max(kkt_residual(grad @ zeta, eta, lam, w @ np.abs(zeta))[0],
                   kkt_residual(eta @ grad, zeta, lam, np.abs(eta) @ w)[0])

    trace = [objective(np.outer(eta, zeta))[0]]
    total_iter = 0
    stopped = collapsed = False
    n_alt = 0
    for n_alt in range(1, opts.max_rank1 + 1):
        total_iter += _dense_lasso((zeta @ g_t @ zeta) * g_s, c @ zeta, eta, np.sign(eta),
                                   lam * (w @ np.abs(zeta)), opts.max_inner)[0]
        if eta.any():
            total_iter += _dense_lasso((eta @ g_s @ eta) * g_t, eta @ c, zeta, np.sign(zeta),
                                       lam * (np.abs(eta) @ w), opts.max_inner)[0]
        if not (eta.any() and zeta.any()):
            collapsed = True
            break
        obj, grad = objective(np.outer(eta, zeta))
        stalled = abs(trace[-1] - obj) <= opts.tol_rank1 * max(1.0, abs(trace[-1]))
        trace.append(obj)
        # a stalled objective is not a solution unless the factors are stationary
        if stalled and (lam == 0 or stationarity(grad) <= KKT_TOL_FACTOR * lam):
            stopped = True
            break
    if collapsed:
        eta = np.zeros_like(eta)
        trace.append(objective(np.outer(eta, zeta))[0])
    alpha = np.outer(eta, zeta).reshape(shape, order="F")
    resid, obj = _weighted_residual(stimulus, target, alpha, lam, weights)
    kkt = stationarity(-stimulus.adjoint(resid).reshape(w.shape, order="F"))
    converged = bool(kkt <= KKT_TOL_FACTOR * lam) if lam > 0 else stopped or collapsed
    return Rank1Fit(zeta, eta.reshape(shape[:-1], order="F"), alpha, obj, np.asarray(trace),
                    n_alt, total_iter, converged, collapsed, kkt)


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
    blocks jointly.  The sweeps stop once the full objective stalls
    (``tol_outer``) in a sweep whose sub-fits all report converged, and
    only then is ``converged_outer`` set.  ``lam`` may be zero (pure least
    squares).  ``warm`` is
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

        # a stalled objective ends the sweeps only over certified sub-fits
        if (all(converged_blocks.values())
                and abs(obj_start - trace[-1]) <= opts.tol_outer * max(1.0, abs(obj_start))):
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
    (defaults to the path midpoint).  The second round's path is
    ``penalty.scaled_to(design.with_omega(Omega))``: the first path's length
    and range, from the weighted problem's own zero-solution level.
    """
    opts = options or SolverOptions()
    first = fit_block_relaxation(design, penalty, opts)
    idx = penalty.lambda_path.size // 2 if lambda_index is None else int(lambda_index)
    prec = graphical_lasso(residual_covariance(design, first.fits[idx].coeffs), penalty.nu)
    design2 = design.with_omega(prec.omega)
    second = fit_block_relaxation(design2, penalty.scaled_to(design2), opts)
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
