"""Penalized estimation of the drift components.

The estimator minimizes

    1/2 sum_k || Omega^(1/2) (y_k - y_(k-1) - (X theta)_k) ||^2
    + lambda * sum_i w_i |theta_i|

over the stacked coefficient blocks, without forming the design matrix.
A block relaxation sweep makes two sub-solves against partial residuals:
the stimulus under a rank-one constraint (spatially modulated common
temporal signal), then the propagation and memory blocks as one lasso on
their stacked design.  Each lasso runs a monotone accelerated proximal
gradient method with the step ``1 / L`` (``L`` a block's exact Lipschitz
constant; for the stacked pair, twice each part's own constant on that
part's coordinates), so the full penalized objective is non-increasing
across every sub-solve.  The iterations run on the block's small Gram
operator ``X^T Omega X`` (see :func:`fit_component`); the data are touched
only when a sub-solve starts and returns, where the objective is evaluated
exactly in residual form.
The outer loop couples this with precision estimation (graphical lasso on
the residual covariance) and a refit on precision-weighted data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bases import DriftCoefficients
from .design import (  # noqa: F401  (network_block is re-exported)
    _KronBlock,
    design_block,
    network_memory_block,
    linear_predictor,
    network_block,
    stimulus_block,
    weight_frames,
)
from .errors import DivergenceError
from .precision import graphical_lasso


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


# Iterations between KKT checks once the objective has stalled.
KKT_CHECK_EVERY = 25
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


def _weighted_residual(block, target, theta, lam, weights, omega):
    """Precision-weighted residual ``Omega (target - X theta)`` of ``block``
    at ``theta``, and the penalized objective there.  The loss gradient at
    ``theta`` is ``-block.adjoint`` of the residual."""
    resid = target - block.predict(theta)
    weighted = weight_frames(resid, omega)
    penalty = lam * float(np.sum(weights * np.abs(theta)))
    return weighted, 0.5 * float(np.vdot(resid, weighted)) + penalty


def power_lipschitz(block, omega=None, iterations=60, seed=0):
    """Power-iteration estimate of the block's largest normal-operator
    eigenvalue, from below.  A reference for the exact constant the
    solver reads from ``block.gram(omega).lipschitz``."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(block.coef_shape)
    norm = np.linalg.norm(v)
    if norm == 0:
        return 0.0
    v /= norm
    est = 0.0
    for _ in range(iterations):
        w = block.adjoint(weight_frames(block.predict(v), omega))
        est = float(np.linalg.norm(w))
        if est <= 0.0:
            return 0.0
        v = w / est
    return est


def kkt_residual(grad_f, coef, lam, weights, tol_factor=KKT_TOL_FACTOR):
    """Stationarity residual and pass flag for the weighted-lasso optimum.

    Non-zero entries must satisfy ``|g + lam w sign(theta)| <= tol * lam``;
    zero entries ``|g| <= lam w (1 + tol)``.
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
        ok = ok and r1 <= tol_factor * lam
    if (~nz).any():
        excess = np.abs(grad_f[~nz]) - lam * weights[~nz]
        resid = max(resid, max(0.0, float(excess.max())))
        ok = ok and bool((np.abs(grad_f[~nz]) <= lam * weights[~nz] * (1 + tol_factor)).all())
    return resid, ok


@dataclass
class ComponentFit:
    coef: np.ndarray
    objective: float
    trace: np.ndarray
    n_iter: int
    converged: bool
    kkt_residual: float
    kkt_ok: bool


def fit_component(block, target, lam, weights, warm=None, omega=None, options=None,
                  gram=None):
    """Weighted-lasso fit of one block by monotone accelerated proximal
    gradient with the fixed step ``1 / L``, iterated in Gram form.

    ``target`` is the partial residual the block is fitted against.  The
    loss is ``1/2 theta^T G theta - c^T theta + const``, with ``c = X^T
    Omega target`` and ``G = X^T (I_M kron Omega) X`` given as ``gram``
    (``block.gram(omega)`` unless given).  ``gram`` also carries ``L``: the
    exact constant, or per-coordinate constants for a stacked block.

    Set-up makes one forward apply, one Omega apply and one adjoint (the
    exact objective and gradient at the warm start) and one Gram apply
    (``c``).  An iteration is one Gram apply: the extrapolated point's
    gradient ``G y - c`` is the same affine combination of the iterates'
    gradients as the point is of the iterates.  A candidate is accepted on
    the objective difference ``1/2 d^T (g' + g) + delta_penalty`` (``d`` the
    step, ``g`` and ``g'`` the gradients at its ends), which does not
    cancel near the optimum; the trace adds these to the warm-start
    objective.  The KKT certificate is read from the gradient.

    On return the objective is evaluated in residual form (one forward
    apply, one Omega apply); if it exceeds the warm-start objective, the
    warm start is returned.  So the returned objective never exceeds the
    warm-start objective, and the certificate is evaluated at the returned
    coefficients.
    """
    opts = options or SolverOptions()
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), block.coef_shape)
    x = (np.zeros(block.coef_shape) if warm is None
         else np.array(warm, dtype=np.float64).reshape(block.coef_shape))
    gram = block.gram(omega) if gram is None else gram

    def penalty(theta):
        return lam * float(np.sum(weights * np.abs(theta)))

    def certificate(theta, grad):
        # with no penalty there is no KKT test: report the gradient size
        if lam == 0:
            return float(np.abs(grad).max()), True
        return kkt_residual(grad, theta, lam, weights)

    lip = np.asarray(gram.lipschitz)
    if lip.max() <= 1e-300:
        # Zero design: every penalized entry is optimal at zero.
        coef = np.zeros(block.coef_shape) if lam > 0 else x
        _, obj = _weighted_residual(block, target, coef, lam, weights, omega)
        return ComponentFit(coef, obj, np.array([obj]), 0, True, 0.0, True)

    # A stacked part with all-zero columns has constant zero and keeps step 0.
    step = np.divide(1.0, lip, out=np.zeros(lip.shape), where=lip > 1e-300)
    threshold = step * lam * weights
    r_start, f_start = _weighted_residual(block, target, x, lam, weights, omega)
    if not np.isfinite(f_start):
        raise DivergenceError(f"non-finite objective at warm start of {block.name!r}")
    g_x = -block.adjoint(r_start)
    c = gram.apply(x) - g_x
    x_start, g_start = x, g_x
    f_best, pen_x = f_start, penalty(x)
    trace = [f_best]
    y, g_y = x, g_x
    t_mom = 1.0
    n_iter = 0
    converged = False
    last_kkt_check = -KKT_CHECK_EVERY

    for it in range(1, opts.max_inner + 1):
        n_iter = it
        cand = soft_threshold(y - step * g_y, threshold)
        g_cand = gram.apply(cand) - c
        pen_cand = penalty(cand)
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
        # At an optimum rounding can reject every candidate, so with a
        # penalty a rejected step also reaches the KKT test.  Without one
        # there is no such test, and only an accepted stall converges.
        if (rel < opts.tol_inner and (accepted or lam > 0)
                and it - last_kkt_check >= KKT_CHECK_EVERY):
            last_kkt_check = it
            kkt = certificate(x, g_x)
            if kkt[1]:
                converged = True
                break
    _, objective = _weighted_residual(block, target, x, lam, weights, omega)
    if objective > f_start:
        # rounding in the Gram form lost the descent: keep the warm start
        x, g_x, objective, converged = x_start, g_start, f_start, False
    if not converged:
        kkt = certificate(x, g_x)
    return ComponentFit(x, objective, np.asarray(trace), n_iter, converged, *kkt)


def standardized_weights(design):
    """Per-coefficient penalty weights equal to the design column norms.

    Standardizes the penalty so every coefficient activates at a
    comparable correlation level.  Kronecker-block column norms factor
    into products of marginal column norms; the memory block's norms
    contract the squared lagged data against the squared spatial bases.
    Identically-zero columns get weight zero (unpenalized, never active).
    """
    basis = design.basis
    nx = np.linalg.norm(basis.phi_x, axis=0)
    ny = np.linalg.norm(basis.phi_y, axis=0)
    nt = np.linalg.norm(basis.phi_t, axis=0)
    nix = np.linalg.norm(basis.int_x, axis=0)
    niy = np.linalg.norm(basis.int_y, axis=0)
    nconv = np.linalg.norm(design.phi_xyt, axis=0)
    w_stim = np.einsum("a,b,c->abc", nx, ny, nt)
    w_net = np.einsum("a,b,c->abc", nix, niy, nconv).reshape(
        basis.coef_shapes["network"], order="F")
    sq = np.einsum("ma,nb,mnk->ab", basis.phi_x**2, basis.phi_y**2, design.v_lag1**2)
    w_mem = np.sqrt(sq)
    return {"stimulus": w_stim, "network": w_net, "memory": w_mem}


def lambda_max(design, weights=None):
    """Smallest penalty level whose solution is exactly zero.

    Computed as the largest weighted gradient entry of the smooth loss at
    the zero coefficient vector; an all-zero target gives zero.
    """
    if weights is None:
        weights = PenaltySpec(np.array([1.0])).weights_for(design.basis)
    block = design_block(design)
    grad = np.abs(block.adjoint(weight_frames(design.target, design.omega)))
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
    block = stimulus_block(design)
    g = block.adjoint(weight_frames(target, design.omega))
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
    Alternation makes the joint objective non-increasing.  Returns a
    collapsed (all-zero) stimulus with a flag when either factor vanishes.
    The returned ``kkt_residual`` is the rank-one stationarity at the
    returned factors: the larger of the eta-lasso residual with zeta fixed
    and the zeta-lasso residual with eta fixed, both in units of ``lam``.
    """
    opts = options or SolverOptions()
    basis = design.basis
    omega = design.omega
    shape = basis.coef_shapes["stimulus"]  # (space..., time)
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

    space = _KronBlock("stimulus-eta", [basis.phi_x, basis.phi_y], shape[:-1])
    times = _KronBlock("stimulus-zeta", [basis.phi_t], shape[-1:])
    gram_space = space.gram(omega)
    gram_times = times.gram()
    stimulus = stimulus_block(design)

    alpha = np.einsum("k,ij->ijk", zeta, eta)
    resid, obj = _weighted_residual(stimulus, target, alpha, lam, weights, omega)
    total_iter = 0
    converged = False
    collapsed = False
    n_alt = 0
    for n_alt in range(1, opts.max_rank1 + 1):
        profile = times.predict(zeta)
        scale = float(profile @ profile)
        if scale == 0.0:
            collapsed = True
            break
        w_eta = np.einsum("ijk,k->ij", weights, np.abs(zeta))
        fit_e = fit_component(space, (target @ profile) / scale, lam / scale, w_eta,
                              warm=eta, omega=omega, options=opts, gram=gram_space)
        eta = fit_e.coef
        total_iter += fit_e.n_iter
        field = space.predict(eta)
        weighted_field = weight_frames(field, omega)
        scale = float(np.vdot(field, weighted_field))
        if scale == 0.0:
            collapsed = True
            break
        w_zeta = np.einsum("ijk,ij->k", weights, np.abs(eta))
        contracted = np.einsum("ij,ijk->k", weighted_field, target) / scale
        fit_z = fit_component(times, contracted, lam / scale, w_zeta, warm=zeta,
                              options=opts, gram=gram_times)
        zeta = fit_z.coef
        total_iter += fit_z.n_iter
        if not zeta.any():
            collapsed = True
            break
        alpha = np.einsum("k,ij->ijk", zeta, eta)
        resid, new_obj = _weighted_residual(stimulus, target, alpha, lam, weights, omega)
        converged = bool(abs(obj - new_obj) <= opts.tol_rank1 * max(1.0, abs(obj)))
        obj = new_obj
        if converged:
            break
    if collapsed:
        eta = np.zeros_like(eta)
        alpha = np.einsum("k,ij->ijk", zeta, eta)
        resid, obj = _weighted_residual(stimulus, target, alpha, lam, weights, omega)
        converged = True
    # stationarity of each factor with the other fixed, by the chain rule,
    # from the residual of the last evaluation: the returned factors
    grad = -stimulus.adjoint(resid)
    kkt = max(kkt_residual(grad @ zeta, eta, lam, weights @ np.abs(zeta))[0],
              kkt_residual(np.tensordot(eta, grad, 2), zeta, lam,
                           np.tensordot(np.abs(eta), weights, 2))[0])
    # a stalled objective is not a solution unless the factors are stationary
    converged = bool(converged and (lam == 0 or kkt <= KKT_TOL_FACTOR * lam))
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


def fit_penalized(design, lam, penalty_weights=None, options=None, warm=None,
                  gram=None):
    """Block-relaxed fit of all three components at one penalty level.

    Each sweep fits the rank-one stimulus, then the network and memory
    blocks jointly.  ``lam`` may be zero (pure least squares).  ``warm`` is
    an optional ``DriftCoefficients`` whose rank-one factors seed the
    stimulus; ``gram`` is the joint block's normal operator (built here
    unless given).
    """
    opts = options or SolverOptions()
    if penalty_weights is None:
        penalty_weights = PenaltySpec(np.array([1.0])).weights_for(design.basis)
    stimulus = stimulus_block(design)
    joint = network_memory_block(design)
    if gram is None:
        gram = joint.gram(design.omega)
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
    _, obj = _weighted_residual(joint, target - stimulus.predict(alpha), theta, lam, w_nm,
                                design.omega)
    trace = [obj + lam * float(np.sum(w_a * np.abs(alpha)))]
    iterations = {"stimulus": 0, "network": 0, "memory": 0}
    converged_blocks = {"stimulus": True, "network": True, "memory": True}
    kkt = {"stimulus": 0.0, "network": 0.0, "memory": 0.0}
    converged_outer = False
    sweeps = 0
    for sweeps in range(1, opts.max_sweeps + 1):
        obj_start = trace[-1]

        rank1 = fit_reduced_rank_stimulus(design, target - joint.predict(theta), lam, w_a,
                                          zeta, eta, opts)
        zeta, eta, alpha = rank1.zeta, rank1.eta, rank1.alpha
        iterations["stimulus"] += rank1.n_iter
        converged_blocks["stimulus"] = rank1.converged
        kkt["stimulus"] = rank1.kkt_residual
        trace.append(rank1.objective + lam * float(np.sum(w_nm * np.abs(theta))))

        fit_nm = fit_component(joint, target - stimulus.predict(alpha), lam, w_nm, theta,
                               design.omega, opts, gram)
        theta = fit_nm.coef
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
    )


def fit_block_relaxation(design, penalty, options=None):
    """Fit the whole penalty path, each level warm-started from the
    previous level's solution."""
    opts = options or SolverOptions()
    weights = penalty.weights_for(design.basis)
    gram = network_memory_block(design).gram(design.omega)
    fits = []
    warm = None
    for lam in penalty.lambda_path:
        fits.append(fit_penalized(design, lam, weights, opts, warm=warm, gram=gram))
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
