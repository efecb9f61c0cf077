"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (dense matrices, explicit loops,
brute quadrature) so it shares no code path with the library it checks.
"""

import itertools

import numpy as np

from fieldnet.arrays import vec
from fieldnet.bases import eval_bspline_basis, network_values
from fieldnet.errors import DivergenceError
from fieldnet.lasso import soft_threshold
from fieldnet.precision import glasso_objective, ridge_repair
from fieldnet.simulate import build_weight_matrices
from fieldnet.solver import (
    ComponentFit,
    SolverOptions,
    _weighted_residual,
    kkt_residual,
)


def kron_matrix(factors):
    """Dense Kronecker product X_d kron ... kron X_1 (factors in mode order)."""
    out = np.asarray(factors[0], dtype=float)
    for f in factors[1:]:
        out = np.kron(np.asarray(f, dtype=float), out)
    return out


def deboor_value(x, k, i, t):
    """Textbook recursive B-spline evaluation."""
    if k == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    c1 = 0.0
    if t[i + k] != t[i]:
        c1 = (x - t[i]) / (t[i + k] - t[i]) * deboor_value(x, k - 1, i, t)
    c2 = 0.0
    if t[i + k + 1] != t[i + 1]:
        c2 = (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) * deboor_value(x, k - 1, i + 1, t)
    return c1 + c2


def deboor_row(spec, x):
    """All basis values at one point via the recursive oracle."""
    t = spec.knots
    row = np.array([deboor_value(x, spec.degree, i, t) for i in range(spec.n_basis)])
    if x == spec.domain[1]:
        # the recursion's half-open spans miss the right endpoint
        row = np.zeros(spec.n_basis)
        row[-1] = 1.0
    return row


def trapezoid_integral(spec, a, b, n=100_001):
    """Quadrature oracle for basis integrals."""
    xs = np.linspace(a, b, n)
    vals = eval_bspline_basis(spec, xs)
    return np.trapezoid(vals, xs, axis=0)


def naive_convolution_tensor(data, basis):
    """Triple-loop lagged basis sums."""
    g = basis.grid
    L, M = g.n_lags, g.n_steps
    out = np.zeros((M, basis.p_x * basis.p_y * basis.p_l))
    for k in range(M):
        for q3 in range(basis.p_x):
            for q4 in range(basis.p_y):
                for q5 in range(basis.p_l):
                    total = 0.0
                    for li in range(L):
                        frame = k + li  # data frame k - L + li in model time
                        for i in range(g.n_x):
                            for j in range(g.n_y):
                                total += (
                                    data[i, j, frame]
                                    * basis.phi_x[i, q3]
                                    * basis.phi_y[j, q4]
                                    * basis.int_l[li, q5]
                                )
                    out[k, q3 + basis.p_x * (q4 + basis.p_y * q5)] = total
    return out


def explicit_design(design, conv=None):
    """Dense stacked design matrix with frame-major rows.

    Returns the matrix and the column slices of the three blocks.
    """
    basis = design.basis
    g = basis.grid
    m, d = g.n_steps, g.n_pixels
    if conv is None:
        conv = design.phi_xyt
    xs = np.einsum("mq,nr,ks->mnkqrs", basis.phi_x, basis.phi_y, basis.phi_t)
    xs = xs.reshape(d * m, -1, order="F")
    xf = np.einsum("mq,nr,kc->mnkqrc", basis.int_x, basis.int_y, conv)
    xf = xf.reshape(d * m, -1, order="F")
    xh = np.einsum("mq,nr,mnk->mnkqr", basis.phi_x, basis.phi_y, design.v_lag1)
    xh = xh.reshape(d * m, -1, order="F")
    slices = {
        "stimulus": slice(0, xs.shape[1]),
        "network": slice(xs.shape[1], xs.shape[1] + xf.shape[1]),
        "memory": slice(xs.shape[1] + xf.shape[1], xs.shape[1] + xf.shape[1] + xh.shape[1]),
    }
    return np.hstack([xs, xf, xh]), slices


def theta_vec(coeffs):
    """Stacked column-major coefficient vector matching explicit_design."""
    return np.concatenate([vec(coeffs.alpha), vec(coeffs.beta), vec(coeffs.gamma)])


def dense_weight_euler(config, coeffs, basis, noise):
    """Euler recursion with the dense ``(D, D, L)`` lag weight matrices of
    ``build_weight_matrices``, one matrix-vector product per lag, and the
    stimulus and memory fields summed out from the marginal bases."""
    g = basis.grid
    d, n_lags, n_steps = g.n_pixels, g.n_lags, g.n_steps
    weights = build_weight_matrices(coeffs.beta, basis)
    stim = np.einsum("ma,nb,kc,abc->mnk", basis.phi_x, basis.phi_y, basis.phi_t, coeffs.alpha)
    stim = g.cell_area * stim.reshape(d, n_steps, order="F")
    memory = g.cell_area * vec(basis.phi_x @ coeffs.gamma @ basis.phi_y.T)
    eps = np.random.default_rng(config.seed).standard_normal((d, n_steps))
    traj = np.zeros((d, g.n_frames))
    traj[:, :n_lags] = config.history.reshape(d, n_lags, order="F")
    traj[:, n_lags] = vec(config.initial_state)
    for k in range(n_steps):
        f = n_lags + k
        drift = stim[:, k] + memory * traj[:, f]
        for lag in range(n_lags):
            drift = drift + weights[:, :, lag] @ traj[:, k + lag]
        traj[:, f + 1] = traj[:, f] + drift * g.dt + noise.factor @ eps[:, k] * np.sqrt(g.dt)
    return traj.reshape(g.n_x, g.n_y, g.n_frames, order="F")


def _simpson_weights(a, b, n):
    # n must be even; composite Simpson nodes and weights
    xs = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return xs, w * (b - a) / (3 * n)


def quadrature_weight_entry(coeffs, basis, m, n, i, j, l, n_space=40, n_lag=40):
    """Simpson quadrature of w over one target cell x lag interval at a
    fixed source grid point."""
    g = basis.grid
    xs, wxs = _simpson_weights(*g.x_edges[m : m + 2], n_space)
    ys, wys = _simpson_weights(*g.y_edges[n : n + 2], n_space)
    ls, wls = _simpson_weights(*g.lag_edges[l : l + 2], n_lag)
    bx = eval_bspline_basis(basis.spec_x, xs)
    by = eval_bspline_basis(basis.spec_y, ys)
    bl = eval_bspline_basis(basis.spec_l, ls)
    src_x = eval_bspline_basis(basis.spec_x, [g.x_centers[i]])[0]
    src_y = eval_bspline_basis(basis.spec_y, [g.y_centers[j]])[0]
    core = np.einsum("abcde,c,d->abe", coeffs, src_x, src_y)
    vals = np.einsum("ua,vb,we,abe->uvw", bx, by, bl, core)
    return float(np.einsum("uvw,u,v,w->", vals, wxs, wys, wls))


def dual_glasso(s, nu, iters=40_000, step=None):
    """Projected gradient ascent on the dual of the graphical lasso.

    Maximizes ``logdet(W)`` over ``|W - S| <= nu`` off-diagonally with the
    diagonal pinned to ``diag(S)``; the primal point is ``inv(W)``.
    """
    s = np.asarray(s, dtype=float)
    d = s.shape[0]
    off = ~np.eye(d, dtype=bool)
    w = s.copy()
    if step is None:
        step = 0.1 * np.diag(s).min() ** 2
    lo, hi = s - nu, s + nu
    for _ in range(iters):
        grad = np.linalg.inv(w)
        cand = w + step * grad
        np.fill_diagonal(cand, np.diag(s))
        cand[off] = np.clip(cand[off], lo[off], hi[off])
        try:
            np.linalg.cholesky(cand)
        except np.linalg.LinAlgError:
            step *= 0.5
            continue
        w = cand
    omega = np.linalg.inv(w)
    return (omega + omega.T) / 2.0


def dual_glasso_objective(s, nu, **kw):
    return glasso_objective(s, dual_glasso(s, nu, **kw), nu)


def full_sweep_glasso(s, nu, max_sweeps=500, gap_tol=1e-6, inner_tol=1e-13,
                      max_inner=1000):
    """Column-by-column graphical lasso whose inner lasso is a full cyclic
    coordinate-descent pass over all D - 1 coordinates of every column.

    Same warm starts, start ``S - t offdiag(S)``, precision recovery and
    duality-gap stop as the library, so it must reach the same sweep count
    and support.  Its passes stop far below the 1e-9 agreement the tests
    check.  Returns ``(omega, n_sweeps, dual_gap)``.
    """
    s = ridge_repair(np.asarray(s, dtype=float))
    d = s.shape[0]
    w = s.copy()
    off = ~np.eye(d, dtype=bool)
    top = np.abs(s[off]).max(initial=0.0)
    w[off] *= 1 - (min(0.05, nu / top) if top > 0 else 0.05)
    betas = np.zeros((d, d - 1))
    idx = [np.array([i for i in range(d) if i != j]) for j in range(d)]
    omega = np.eye(d)
    gap = np.inf
    for sweep in range(1, max_sweeps + 1):
        for j in range(d):
            sub = idx[j]
            v = w[np.ix_(sub, sub)]
            beta = betas[j]
            for _ in range(max_inner):
                delta = 0.0
                for q in range(d - 1):
                    r = s[sub[q], j] - v[q] @ beta + v[q, q] * beta[q]
                    new = np.sign(r) * max(abs(r) - nu, 0.0) / v[q, q]
                    delta = max(delta, abs(new - beta[q]))
                    beta[q] = new
                if delta <= inner_tol:
                    break
            w12 = v @ beta
            w[sub, j] = w12
            w[j, sub] = w12
        for j in range(d):
            sub = idx[j]
            omega[j, j] = 1.0 / (w[j, j] - w[sub, j] @ betas[j])
            omega[sub, j] = -betas[j] * omega[j, j]
        omega = (omega + omega.T) / 2.0
        sign, logdet = np.linalg.slogdet(np.clip(w, s - nu, s + nu))
        gap = max(glasso_objective(s, omega, nu) - logdet - d, 0.0) if sign > 0 else np.inf
        if gap <= gap_tol:
            break
    return omega, sweep, gap


def full_width_fit_component(block, target, lam, weights, warm=None, options=None):
    """Weighted-lasso fit whose every iteration applies the block's full
    Gram: monotone accelerated proximal gradient with the step ``1 / L``
    over all coordinates at once, ``L`` the top eigenvalue of the dense
    normal matrix built column by column from the block's own applies.

    Same set-up and return as the library's exact working-set fit, so run
    long enough both reach the same optimum.  A stalled objective is
    tested for convergence at most once every 25 iterations.
    """
    opts = options or SolverOptions()
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), block.coef_shape)
    x0 = (np.zeros(block.coef_shape) if warm is None
          else np.array(warm, dtype=np.float64).reshape(block.coef_shape))
    gram = block.gram()

    def penalty(theta):
        return lam * float(np.sum(weights * np.abs(theta)))

    def certificate(theta, grad):
        if lam == 0:
            return float(np.abs(grad).max()), True
        return kkt_residual(grad, theta, lam, weights)

    units = np.eye(int(np.prod(block.coef_shape)))
    normal = np.column_stack([
        np.ravel(block.weighted_adjoint(block.predict(e.reshape(block.coef_shape, order="F"))),
                 order="F") for e in units])
    lip = float(np.linalg.eigvalsh((normal + normal.T) / 2)[-1])
    step = 1.0 / lip if lip > 1e-300 else 0.0
    threshold = step * lam * weights
    r_start, f_start = _weighted_residual(block, target, x0, lam, weights)
    x, g_x = x0, -block.adjoint(r_start)
    c = gram.apply(x) - g_x
    f_best, pen_x = f_start, penalty(x)
    trace = [f_best]
    y, g_y = x, g_x
    t_mom = 1.0
    n_iter = 0
    converged = False
    last_check = -25
    for it in range(1, opts.max_inner + 1):
        n_iter = it
        cand = soft_threshold(y - step * g_y, threshold)
        g_cand = gram.apply(cand) - c
        pen_cand = penalty(cand)
        delta = 0.5 * float(np.vdot(cand - x, g_cand + g_x)) + pen_cand - pen_x
        if not np.isfinite(delta):
            raise DivergenceError(f"component fit diverged for block {block.name!r}")
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
        if (rel < opts.tol_inner and (accepted or lam > 0)
                and it - last_check >= 25):
            last_check = it
            if certificate(x, g_x)[1]:
                converged = True
                break
    resid, objective = _weighted_residual(block, target, x, lam, weights)
    if objective > f_start:
        x, resid, objective, converged = x0, r_start, f_start, False
    kkt = certificate(x, -block.adjoint(resid))
    return ComponentFit(x, objective, np.asarray(trace), n_iter, converged and kkt[1], *kkt,
                        int(np.size(x)))


def brute_force_lasso(v, c, nu):
    """Minimizer of ``0.5 x'vx - c'x + sum_i nu_i |x_i|`` for a small SPD
    ``v``: every support and every sign pattern of its penalized
    coordinates solved exactly, the best sign-consistent solution kept."""
    n = len(c)
    nu = np.broadcast_to(nu, (n,))
    best, best_obj = np.zeros(n), 0.0
    for mask in itertools.product((False, True), repeat=n):
        support = np.flatnonzero(mask)
        penalized = support[nu[support] > 0]
        for signs in itertools.product((-1.0, 1.0), repeat=penalized.size):
            sign = np.zeros(n)
            sign[penalized] = signs
            x = np.zeros(n)
            x[support] = np.linalg.solve(v[np.ix_(support, support)],
                                         c[support] - nu[support] * sign[support])
            if (x[penalized] * sign[penalized] < 0).any():
                continue
            obj = 0.5 * x @ v @ x - c @ x + nu @ np.abs(x)
            if obj < best_obj:
                best, best_obj = x, obj
    return best


def naive_degree_maps(beta, basis, eps):
    """Quadruple-loop Riemann sums for the degree and weight maps."""
    g = basis.grid
    lag_nodes = g.lag_midpoints
    cell = g.cell_area * g.dt
    shape = (g.n_x, g.n_y)
    deg_in = np.zeros(shape)
    deg_out = np.zeros(shape)
    sum_in = np.zeros(shape)
    sum_out = np.zeros(shape)
    from fieldnet.bases import DriftCoefficients

    coeffs = DriftCoefficients(alpha=None, beta=np.asarray(beta), gamma=None)
    for m in range(g.n_x):
        for n in range(g.n_y):
            for i in range(g.n_x):
                for j in range(g.n_y):
                    for l, t in enumerate(lag_nodes):
                        val = network_values(
                            coeffs, basis,
                            [g.x_centers[m]], [g.y_centers[n]],
                            [g.x_centers[i]], [g.y_centers[j]], [t],
                        )[0]
                        a = abs(val)
                        if a > eps:
                            deg_in[m, n] += cell
                            deg_out[i, j] += cell
                        sum_in[m, n] += a * cell
                        sum_out[i, j] += a * cell
    w_in = np.where(deg_in > 0, sum_in / np.where(deg_in > 0, deg_in, 1), 0.0)
    w_out = np.where(deg_out > 0, sum_out / np.where(deg_out > 0, deg_out, 1), 0.0)
    return deg_in, deg_out, w_in, w_out
