from types import SimpleNamespace

import numpy as np
import pytest

from conftest import tiny_instance
from fieldnet import (
    DriftCoefficients,
    Grid,
    PenaltySpec,
    SimConfig,
    SolverOptions,
    build_basis_set,
    build_design,
    build_noise_covariance,
    default_lambda_path,
    fit_block_relaxation,
    fit_reduced_rank_stimulus,
    lambda_max,
    linear_predictor,
    mrce_loop,
    simulate_euler,
    soft_threshold,
    stimulus_weight_profile,
    support_scores,
    uniform_bspline_spec,
    white_covariance,
)
from fieldnet import design as design_module
from fieldnet import lasso as lasso_module
from fieldnet import solver as solver_module
from fieldnet.arrays import vec
from fieldnet.solver import (
    KKT_TOL_FACTOR,
    _KronBlock,
    _weighted_residual,
    fit_component,
    fit_penalized,
    kkt_residual,
    network_block,
    standardized_weights,
)
from oracles import brute_force_lasso, explicit_design, full_width_fit_component, theta_vec


def monotone(trace, slack=1e-12):
    trace = np.asarray(trace)
    bound = slack * np.maximum(1.0, np.abs(trace[:-1]))
    return bool((np.diff(trace) <= bound).all())


class TestSoftThreshold:
    def test_definition(self):
        assert soft_threshold(5.0, 2.0) == 3.0

    def test_shrinks_to_zero(self):
        assert soft_threshold(-1.0, 2.0) == 0.0

    def test_identity_at_zero_threshold(self, rng):
        x = rng.standard_normal(7)
        assert np.array_equal(soft_threshold(x, 0.0), x)

    def test_vectorized_thresholds(self):
        got = soft_threshold(np.array([3.0, -3.0]), np.array([1.0, 4.0]))
        assert np.array_equal(got, [2.0, 0.0])


class TestFitComponent:
    def test_orthonormal_design_closed_form(self, rng):
        n = 12
        block = _KronBlock("toy", [np.eye(n)], (n,))
        y = rng.standard_normal(n)
        lam = 0.4
        opts = SolverOptions(tol_inner=1e-14, max_inner=2000)
        fit = fit_component(block, y, lam, np.ones(n), options=opts)
        want = soft_threshold(y, lam)
        assert np.abs(fit.coef - want).max() < 1e-10
        assert fit.converged and fit.kkt_ok

    def test_lambda_at_or_above_max_returns_exact_zero(self, rng):
        _, basis, _, design = tiny_instance(rng)
        lam = lambda_max(design)
        fit = fit_penalized(design, lam * 1.000001)
        assert fit.n_nonzero == {"stimulus": 0, "network": 0, "memory": 0}

    def test_lambda_zero_matches_normal_equations(self, rng):
        _, basis, _, design = tiny_instance(rng, max_grid=3, max_steps=9, max_basis=2)
        from fieldnet.solver import network_block

        block = network_block(design)
        x, slices = explicit_design(design)
        xf = x[:, slices["network"]]
        y = design.target
        opts = SolverOptions(tol_inner=1e-15, max_inner=60000)
        fit = fit_component(block, y, 0.0, np.ones(block.coef_shape), options=opts)
        want, *_ = np.linalg.lstsq(xf, vec(y), rcond=None)
        got = fit.coef.ravel(order="F")
        # compare through the fitted values: the coefficient solution is
        # unique only when xf has full column rank
        assert np.abs(xf @ got - xf @ want).max() < 1e-6

    def test_trace_monotone_and_kkt(self, rng):
        _, basis, _, design = tiny_instance(rng)
        from fieldnet.solver import network_block

        block = network_block(design)
        lam = 0.3 * lambda_max(design)
        fit = fit_component(block, design.target, lam, np.ones(block.coef_shape))
        assert monotone(fit.trace)
        assert fit.kkt_ok
        assert fit.kkt_residual <= 1e-4 * lam + 1e-12

    def test_returned_objective_never_exceeds_warm_start(self, rng):
        _, basis, _, design = tiny_instance(rng)
        from fieldnet.solver import network_block

        block = network_block(design)
        lam = 0.05 * lambda_max(design)
        warm = 0.1 * rng.standard_normal(block.coef_shape)
        fit = fit_component(block, design.target, lam, np.ones(block.coef_shape), warm=warm)
        assert fit.objective <= fit.trace[0] + 1e-12 * max(1.0, abs(fit.trace[0]))


def small_lasso(seed):
    """A random 30 x 4 lasso at half its zero-solution level."""
    loc = np.random.default_rng(seed)
    a = loc.standard_normal((30, 4))
    y = loc.standard_normal(30)
    lam = 0.5 * float(np.abs(a.T @ y).max())
    return a, y, lam


class TestStalledFits:
    # At these seeds rounding rejects every candidate near the optimum, so
    # no accepted step ever reaches the convergence test.
    SEEDS = (28, 52, 63, 107, 131)

    def test_stalled_fit_at_optimum_converges(self):
        for seed in self.SEEDS:
            a, y, lam = small_lasso(seed)
            block = _KronBlock("toy", [a], (4,))
            fit = fit_component(block, y, lam, np.ones(4),
                                options=SolverOptions(max_inner=3000))
            assert fit.converged and fit.kkt_ok, seed
            assert fit.n_iter <= 100, (seed, fit.n_iter)

    def test_certificate_is_evaluated_at_returned_coefficients(self):
        for seed in self.SEEDS:
            a, y, lam = small_lasso(seed)
            block = _KronBlock("toy", [a], (4,))
            for opts in (SolverOptions(max_inner=3000),
                         SolverOptions(tol_inner=0.0, max_inner=40)):
                fit = fit_component(block, y, lam, np.ones(4), options=opts)
                grad = -a.T @ (y - a @ fit.coef)
                want, ok = kkt_residual(grad, fit.coef, lam, np.ones(4))
                assert abs(fit.kkt_residual - want) <= 1e-12 * lam, (seed, opts)
                assert fit.kkt_ok == ok


class TestLambdaMax:
    def test_zero_response_gives_zero(self, rng):
        _, basis, data, _ = tiny_instance(rng)
        design = build_design(np.zeros_like(data), basis)
        assert lambda_max(design) == 0.0

    def test_scaling_linearity(self, rng):
        # Scaling the data also scales the lagged design, so scale only the
        # target: lambda_max is linear in it with the design held fixed.
        import dataclasses

        _, basis, data, design = tiny_instance(rng)
        scaled = dataclasses.replace(design, response=design.v_lag1 + 3 * design.target)
        assert lambda_max(scaled) == pytest.approx(3.0 * lambda_max(design), rel=1e-12)

    def test_brute_force_bisection_oracle(self, rng):
        _, basis, _, design = tiny_instance(rng, max_grid=3, max_steps=8, max_basis=2)
        lm = lambda_max(design)
        assert lm > 0

        def is_zero(lam):
            fit = fit_penalized(design, lam)
            return fit.n_nonzero == {"stimulus": 0, "network": 0, "memory": 0}

        assert is_zero(lm * 1.001)
        assert not is_zero(lm * 0.97)
        # bisection localizes the activation boundary near lambda_max
        lo, hi = lm * 0.97, lm * 1.001
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            if is_zero(mid):
                hi = mid
            else:
                lo = mid
        assert abs(hi - lm) / lm < 0.01


def rank1_instance(rng):
    """Random data on a grid whose stimulus has several spatial and
    temporal functions, so the rank-one constraint binds."""
    grid = Grid(n_x=4, n_y=3, n_steps=12, n_lags=2, dt=0.1,
                x_range=(0.0, 4.0), y_range=(0.0, 3.0))
    basis = build_basis_set(
        grid,
        uniform_bspline_spec(1, 3, *grid.x_range),
        uniform_bspline_spec(0, 2, *grid.y_range),
        uniform_bspline_spec(1, 4, 0.0, grid.duration),
        uniform_bspline_spec(0, 2, -grid.tau, 0.0),
    )
    data = rng.standard_normal((grid.n_x, grid.n_y, grid.n_frames))
    return grid, basis, build_design(data, basis)


def stimulus_lambda_max(design, weights):
    # zero network and memory weights leave them out of lambda_max
    return lambda_max(design, {"stimulus": weights, "network": np.zeros(1),
                               "memory": np.zeros(1)})


class TestReducedRank:
    def test_huge_lambda_collapses(self, rng):
        _, basis, _, design = tiny_instance(rng)
        lam = 10 * lambda_max(design)
        fit = fit_reduced_rank_stimulus(design, design.target, lam)
        assert fit.collapsed
        assert not fit.alpha.any()

    def test_alternation_trace_non_increasing(self, rng):
        _, basis, _, design = tiny_instance(rng)
        lam = 0.2 * lambda_max(design)
        # track the joint objective across alternations via the fit objective
        fit = fit_reduced_rank_stimulus(design, design.target, lam)
        assert fit.converged or fit.n_alternations == 50
        # rank-one structure is exact
        assert np.array_equal(fit.alpha, np.einsum("k,ij->ijk", fit.zeta, fit.eta))

    def test_scaled_identity_precision_scales_only_the_objective(self, rng):
        # Omega = c I with penalty c * lam is the unweighted problem times c:
        # on pinned budgets the factors agree and the objective scales by c
        grid, basis, design = rank1_instance(rng)
        lam = 0.2 * stimulus_lambda_max(design, np.ones((basis.p_x, basis.p_y, basis.p_t)))
        opts = SolverOptions(tol_inner=0.0, max_inner=300, tol_rank1=0.0, max_rank1=4)
        c = 3.0
        plain = fit_reduced_rank_stimulus(design, design.target, lam, options=opts)
        scaled = fit_reduced_rank_stimulus(design.with_omega(c * np.eye(grid.n_pixels)),
                                           design.target, c * lam, options=opts)
        assert not plain.collapsed and not scaled.collapsed
        for a, b in ((scaled.zeta, plain.zeta), (scaled.eta, plain.eta)):
            assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()
        assert abs(scaled.objective - c * plain.objective) <= 1e-9 * c * plain.objective

    def test_weighted_objective_matches_explicit_design(self, rng):
        grid, basis, design = rank1_instance(rng)
        d = grid.n_pixels
        root = rng.standard_normal((d, d))
        omega = root @ root.T / d + 0.5 * np.eye(d)
        weighted = design.with_omega(omega)
        weights = 0.5 + rng.random((basis.p_x, basis.p_y, basis.p_t))
        lam = 0.2 * stimulus_lambda_max(weighted, weights)
        fit = fit_reduced_rank_stimulus(weighted, weighted.target, lam, weights)
        assert fit.alpha.any()
        x, slices = explicit_design(design)
        resid = vec(design.target) - x[:, slices["stimulus"]] @ vec(fit.alpha)
        frames = resid.reshape(grid.n_steps, d)  # row k: frame k, column-major pixels
        want = (0.5 * float(np.einsum("ki,ij,kj->", frames, omega, frames))
                + lam * float(np.sum(weights * np.abs(fit.alpha))))
        assert abs(fit.objective - want) <= 1e-12 * max(1.0, want)

    def test_stalled_objective_keeps_alternating_until_stationary(self, rng):
        # a loose tol_rank1 stalls after one alternation, far from a
        # stationary pair of factors; alternation goes on until the
        # rank-one KKT residual passes
        grid, basis, design = rank1_instance(rng)
        top = stimulus_lambda_max(design, np.ones((basis.p_x, basis.p_y, basis.p_t)))
        for factor in (0.2, 0.05):
            lam = factor * top
            loose = fit_reduced_rank_stimulus(design, design.target, lam,
                                              options=SolverOptions(tol_rank1=1e-2))
            tight = fit_reduced_rank_stimulus(design, design.target, lam)
            assert loose.converged and not loose.collapsed
            assert loose.kkt_residual <= KKT_TOL_FACTOR * lam
            assert loose.objective <= tight.objective * (1 + 1e-9)

    def test_stationarity_matches_explicit_design(self, rng):
        # the reported certificate is the lasso KKT residual of eta with zeta
        # fixed and of zeta with eta fixed, from the explicit design's
        # gradient at the returned factors; a collapsed fit is checked at eta = 0
        grid, basis, design = rank1_instance(rng)
        d, m = grid.n_pixels, grid.n_steps
        x, slices = explicit_design(design)
        xs = x[:, slices["stimulus"]]
        root = rng.standard_normal((d, d))
        shape = (basis.p_x, basis.p_y, basis.p_t)
        collapsed = 0
        for omega in (None, root @ root.T / d + 0.5 * np.eye(d)):
            case = design if omega is None else design.with_omega(omega)
            weights = 0.5 + rng.random(shape)
            top = stimulus_lambda_max(case, weights)
            for factor, opts in ((0.2, None), (0.05, SolverOptions(max_inner=40, max_rank1=2)),
                                 (1.5, None)):
                lam = factor * top
                fit = fit_reduced_rank_stimulus(case, case.target, lam, weights, options=opts)
                resid = vec(case.target) - xs @ vec(fit.alpha)
                if omega is not None:
                    resid = np.kron(np.eye(m), omega) @ resid
                g_alpha = -(xs.T @ resid).reshape(shape, order="F")
                g_eta = np.einsum("ijk,k->ij", g_alpha, fit.zeta)
                g_zeta = np.einsum("ijk,ij->k", g_alpha, fit.eta)
                want = max(
                    kkt_residual(g_eta, fit.eta, lam,
                                 np.einsum("ijk,k->ij", weights, np.abs(fit.zeta)))[0],
                    kkt_residual(g_zeta, fit.zeta, lam,
                                 np.einsum("ijk,ij->k", weights, np.abs(fit.eta)))[0],
                )
                assert abs(fit.kkt_residual - want) <= 1e-9 * lam, (factor, fit.kkt_residual, want)
                if fit.collapsed:
                    collapsed += 1
                    assert not fit.eta.any()
                else:
                    assert fit.kkt_residual > 0
        assert collapsed == 2


class TestFactorFits:
    """The rank-one factor steps: exact feature-sign solves on the scaled
    dense factor Gram, with the same singular ridge as every other block."""

    def test_singular_gram_is_solved_with_a_rounding_ridge(self, monkeypatch):
        loc = np.random.default_rng(8)
        a = loc.standard_normal(30)
        y = 2.0 * a + 0.3 * loc.standard_normal(30)
        block = _KronBlock("toy", [np.c_[a, a]], (2,))  # Gram [[s, s], [s, s]]
        gram = block.gram().submatrix(np.arange(2))
        solved_on = []

        def spy(v, *args, column_lasso=lasso_module._column_lasso):
            solved_on.append(v.copy())
            return column_lasso(v, *args)
        monkeypatch.setattr(lasso_module, "_column_lasso", spy)
        lam = 0.2 * float(np.abs(a @ y))
        warm = np.array([1.5, -0.5])
        fit = fit_component(block, y, lam, np.ones(2), warm)
        # the warm start's signs make the singular pair active, and the
        # round goes on with a rounding-size ridge on the diagonal
        assert len(solved_on) == 2 and np.array_equal(solved_on[0], gram)
        ridge = solved_on[1] - gram
        assert np.array_equal(ridge, ridge[0, 0] * np.eye(2))
        assert 0 < ridge[0, 0] <= 1e-12 * gram.max()
        start = 0.5 * float(np.sum((y - a * warm.sum()) ** 2)) + lam * np.abs(warm).sum()
        assert np.isfinite(fit.objective) and fit.objective <= start
        assert monotone(fit.trace)
        resid = y - a * fit.coef.sum()
        assert abs(fit.objective - 0.5 * resid @ resid - lam * np.abs(fit.coef).sum()) \
            <= 1e-12 * fit.objective
        want, ok = kkt_residual(-np.array([a @ resid, a @ resid]), fit.coef, lam, np.ones(2))
        assert abs(fit.kkt_residual - want) <= 1e-12 * lam
        assert fit.kkt_ok == ok and ok and fit.converged

    def test_each_factor_fit_is_exact_and_alternation_descends(self, rng, monkeypatch):
        # every eta and zeta step passes its lasso KKT test with the other
        # factor fixed, by the explicit design's gradient at the step's
        # product, and the alternation's objective never rises
        grid, basis, design = rank1_instance(rng)
        d, m = grid.n_pixels, grid.n_steps
        x, slices = explicit_design(design)
        xs = x[:, slices["stimulus"]]
        steps = []

        def recording(v, c, x, sign, nu, budget, solve=solver_module._dense_lasso):
            start = x.copy()
            out = solve(v, c, x, sign, nu, budget)
            steps.append((start, x.copy(), nu, out))
            return out

        monkeypatch.setattr(solver_module, "_dense_lasso", recording)
        shape = (basis.p_x, basis.p_y, basis.p_t)
        for omega in (None, random_precision(rng, d)):
            case = design if omega is None else design.with_omega(omega)
            big = np.eye(d * m) if omega is None else np.kron(np.eye(m), omega)
            weights = 0.5 + rng.random(shape)
            w = weights.reshape(-1, basis.p_t, order="F")
            top = stimulus_lambda_max(case, weights)

            def grad(eta, zeta):
                resid = vec(case.target) - xs @ np.outer(eta, zeta).ravel(order="F")
                return -(xs.T @ (big @ resid)).reshape(w.shape, order="F")

            for factor in (0.3, 0.05):
                lam = factor * top
                steps.clear()
                rank1 = fit_reduced_rank_stimulus(case, case.target, lam, weights)
                assert not rank1.collapsed
                assert len(steps) == 2 * rank1.n_alternations
                assert rank1.n_iter == sum(out[0] for *_, out in steps)
                # the eta step holds zeta at the zeta step's start; the zeta
                # step holds eta at the eta step's result
                for (_, eta, nu_eta, out_eta), (zeta, zeta_new, nu_zeta, out_zeta) in zip(
                        steps[::2], steps[1::2]):
                    for coef, g, nu, w_fixed, out in (
                            (eta, grad(eta, zeta) @ zeta, nu_eta, w @ np.abs(zeta), out_eta),
                            (zeta_new, eta @ grad(eta, zeta_new), nu_zeta, np.abs(eta) @ w,
                             out_zeta)):
                        assert np.abs(nu - lam * w_fixed).max() <= 1e-12 * np.abs(nu).max()
                        resid, ok = kkt_residual(g, coef, lam, w_fixed)
                        assert ok and resid <= KKT_TOL_FACTOR * lam, resid / lam
                        assert out[1]  # the last solve was exact
                assert len(rank1.trace) == rank1.n_alternations + 1
                assert monotone(rank1.trace), np.diff(rank1.trace)


def lasso_objective(v, c, x, nu):
    return 0.5 * float(x @ v @ x) - float(c @ x) + float(nu @ np.abs(x))


def working_set_step(v, c, x, nu, max_inner):
    """A factor step as the working set made it: a one-factor ``_Gram``
    on ``v``, from ``x`` and its gradient."""
    gram = design_module._Gram([v], (len(v),))
    return lasso_module._working_set_lasso(gram, c, x, gram.apply(x) - c, nu, max_inner)


def assert_same_step(v, c, start, nu, got, solved, max_inner=1000):
    want = start.copy()
    _, want_solved, _ = working_set_step(v, c, want, nu, max_inner)
    f_got, f_want = lasso_objective(v, c, got, nu), lasso_objective(v, c, want, nu)
    assert abs(f_got - f_want) <= 1e-12 * abs(f_want), (f_got, f_want)
    assert np.array_equal(got != 0, want != 0)
    assert solved and want_solved


def stimulus_only(design, phi_x):
    """A design holding only ``design``'s stimulus block, with ``phi_x`` for
    its x factor; the rank-one fit reads nothing else."""
    stimulus = design.blocks["stimulus"]
    _, phi_y, phi_t = stimulus.factors
    block = _KronBlock("stimulus", [phi_x, phi_y, phi_t],
                       (phi_x.shape[1], phi_y.shape[1], phi_t.shape[1]), omega=stimulus.omega)
    return SimpleNamespace(blocks={"stimulus": block}, target=design.target)


def recording_steps(monkeypatch):
    """Record every factor step's inputs and result; each entry is ``(v,
    c, start, nu, budget, v after, x after, (solves, solved))``."""
    steps = []

    def recording(v, c, x, sign, nu, budget, solve=solver_module._dense_lasso):
        inputs = (v.copy(), c.copy(), x.copy(), nu.copy(), budget)
        out = solve(v, c, x, sign, nu, budget)
        steps.append(inputs + (v.copy(), x.copy(), out))
        return out

    monkeypatch.setattr(solver_module, "_dense_lasso", recording)
    return steps


class TestFactorStepsOnDenseGrams:
    """Each rank-one factor step is one dense feature-sign call on its
    scaled factor Gram; it must reach the working set's optimum."""

    @pytest.mark.parametrize("case", ["penalized", "unpenalized-coordinates", "lambda-zero"])
    def test_random_factors_match_the_working_set(self, case):
        loc = np.random.default_rng(24)
        for n in (4, 9, 27, 64):
            for _ in range(4):
                root = loc.standard_normal((n + 3, n))
                v = root.T @ root + 0.1 * np.eye(n)
                c = 3.0 * loc.standard_normal(n)
                nu = 0.5 * np.abs(c).max() * loc.uniform(0.5, 1.5, n)
                if case == "unpenalized-coordinates":
                    nu[loc.random(n) < 0.25] = 0.0
                elif case == "lambda-zero":
                    nu[:] = 0.0
                start = loc.standard_normal(n) * (loc.random(n) < 0.4)
                x = start.copy()
                # the call the solver makes: the factor's own signs first
                _, solved = solver_module._dense_lasso(v.copy(), c.copy(), x, np.sign(x), nu,
                                                       1000)
                assert_same_step(v, c, start, nu, x, solved)

    @pytest.mark.parametrize("case", ["weighted", "unpenalized-coordinates", "lambda-zero"])
    def test_recorded_factor_steps_match_the_working_set(self, rng, monkeypatch, case):
        _, basis, design = rank1_instance(rng)
        weights = 0.5 + rng.random((basis.p_x, basis.p_y, basis.p_t))
        if case == "unpenalized-coordinates":
            weights[0] = 0.0  # eta's first row of coefficients
            weights[..., 1] = 0.0  # zeta's second coefficient
        lam = 0.0 if case == "lambda-zero" else 0.05 * stimulus_lambda_max(design, weights)
        steps = recording_steps(monkeypatch)
        fit = fit_reduced_rank_stimulus(design, design.target, lam, weights)
        assert not fit.collapsed and len(steps) == 2 * fit.n_alternations
        for v, c, start, nu, budget, _, x, (_, solved) in steps:
            assert_same_step(v, c, start, nu, x, solved, budget)

    def test_singular_spatial_factor_takes_the_ridge_and_is_certified(self, rng, monkeypatch):
        _, basis, design = rank1_instance(rng)
        phi_x = design.blocks["stimulus"].factors[0]
        # the new last x function repeats the first, so G_s has two equal
        # rows and columns
        case = stimulus_only(design, np.c_[phi_x, phi_x[:, 0]])
        block = case.blocks["stimulus"]
        factors = [f.copy() for f in block.gram().factors]
        lam = 0.05 * float(np.abs(block.weighted_adjoint(case.target)).max())
        warm_eta = np.zeros((basis.p_x + 1, basis.p_y))
        warm_eta[0] = warm_eta[-1] = 1.0  # both copies active with one sign
        steps = recording_steps(monkeypatch)
        rank1 = fit_reduced_rank_stimulus(case, case.target, lam,
                                          warm_zeta=np.ones(basis.p_t), warm_eta=warm_eta)
        ridged = [(v, after) for v, *_, after, _, _ in steps if not np.array_equal(after, v)]
        assert ridged
        for v, after in ridged:
            # a rounding-size ridge on the step's diagonal, nothing else
            diag = np.diag(after - v)
            assert np.array_equal(after - v, np.diag(diag))
            assert 0 < diag.min() and diag.max() <= 1e-12 * np.abs(v).max()
        assert not rank1.collapsed and np.isfinite(rank1.alpha).all()
        assert rank1.converged and rank1.kkt_residual <= KKT_TOL_FACTOR * lam
        assert rank1.objective <= rank1.trace[0]
        # the ridge went on the step's own matrix, never on the Gram
        assert all(np.array_equal(a, b) for a, b in zip(factors, block.gram().factors))

    def test_singular_solve_that_does_not_raise_is_caught_by_the_kkt_test(self):
        # a dependent triple of columns, all three active with the signs of
        # the null vector: LAPACK often returns amplified rounding instead
        # of raising, and that point must not be taken for the minimizer
        loc = np.random.default_rng(3)
        caught = 0
        for trial in range(20):
            root = loc.standard_normal((12, 5))
            root[:, 4] = root[:, 0] + 0.3 * root[:, 1]
            v = root.T @ root
            c = root.T @ loc.standard_normal(12)
            nu = np.full(5, 0.05)
            x = 0.1 * (-1) ** trial * np.array([1.0, 1.0, 0.0, 0.0, -1.0])
            act = [0, 1, 4]
            try:
                np.linalg.solve(v[np.ix_(act, act)], c[act] - nu[act] * np.sign(x[act]))
                raised = False
            except np.linalg.LinAlgError:
                raised = True
            step = v.copy()
            _, solved = solver_module._dense_lasso(step, c.copy(), x, np.sign(x), nu, 100)
            assert solved and kkt_residual(v @ x - c, x, 1.0, nu)[1], trial
            caught += not raised and not np.array_equal(step, v)
        assert caught

    def test_singular_set_the_search_gives_up_on_takes_the_ridge(self):
        # the same dependent triple with all five columns active from x = 1:
        # the search often finds no descending point toward the solve and
        # gives up with budget left; that must not end the step unsolved
        loc = np.random.default_rng(57)
        gave_up = 0
        for trial in range(200):
            root = loc.standard_normal((12, 5))
            root[:, 4] = root[:, 0] + 0.3 * root[:, 1]
            v = root.T @ root
            c = root.T @ loc.standard_normal(12)
            nu = np.full(5, 0.05)
            try:
                solves, solved = lasso_module._column_lasso(v.copy(), c.copy(), np.ones(5),
                                                            np.ones(5), nu, 100)
                gave_up += not solved and solves < 100
            except np.linalg.LinAlgError:
                pass
            x = np.ones(5)
            step = v.copy()
            _, solved = solver_module._dense_lasso(step, c.copy(), x, np.sign(x), nu, 100)
            assert solved and kkt_residual(v @ x - c, x, 1.0, nu)[1], trial
        assert gave_up

    def test_stimulus_factors_are_bit_identical_after_fits(self, rng):
        # the singular case, where a ridge is taken, is checked above
        _, basis, design = rank1_instance(rng)
        block = design.blocks["stimulus"]
        before = [f.copy() for f in block.gram().factors]
        top = float(np.abs(block.weighted_adjoint(design.target)).max())
        for factor in (0.5, 0.05, 0.0):
            fit_reduced_rank_stimulus(design, design.target, factor * top)
            assert all(np.array_equal(a, b) for a, b in zip(before, block.gram().factors))

    @pytest.mark.parametrize("penalized", [True, False], ids=["penalized", "unpenalized"])
    def test_zero_column_coordinate_stays_exactly_zero(self, rng, penalized):
        # one step on a Gram with an exact zero row and column, from a start
        # and a linear term that both pull on that coordinate
        loc = np.random.default_rng(6)
        root = loc.standard_normal((9, 6))
        root[:, 2] = 0.0
        v = root.T @ root
        c = loc.standard_normal(6)
        c[2] = 5.0
        nu = np.full(6, 0.3)
        nu[2] = 0.3 if penalized else 0.0
        start = loc.standard_normal(6)
        x = start.copy()
        _, solved = solver_module._dense_lasso(v.copy(), c.copy(), x, np.sign(x), nu, 100)
        assert x[2] == 0.0
        assert_same_step(v, c, start, nu, x, solved)
        # and in a fit, through an x function that is zero on the grid
        _, basis, design = rank1_instance(rng)
        phi_x = design.blocks["stimulus"].factors[0]
        case = stimulus_only(design, np.c_[phi_x, np.zeros(len(phi_x))])
        weights = np.ones((basis.p_x + 1, basis.p_y, basis.p_t))
        if not penalized:
            weights[-1] = 0.0
        block = case.blocks["stimulus"]
        lam = 0.05 * float(np.abs(block.weighted_adjoint(case.target)).max())
        fit = fit_reduced_rank_stimulus(case, case.target, lam, weights,
                                        warm_zeta=np.ones(basis.p_t),
                                        warm_eta=np.ones((basis.p_x + 1, basis.p_y)))
        assert not fit.collapsed and fit.eta[:-1].any()
        assert not fit.eta[-1].any() and not fit.alpha[-1].any()
        assert fit.converged and fit.kkt_residual <= KKT_TOL_FACTOR * lam


class TestRank1Trace:
    """``Rank1Fit.trace`` is the Gram-form objective at the start and after
    each alternation."""

    @staticmethod
    def noise_free_instance():
        # criterion 9's geometry: a noise-free rank-one stimulus, whose
        # objective near lambda = 0 is tiny next to 1/2 |target|^2
        grid = Grid(n_x=4, n_y=4, n_steps=40, n_lags=2, dt=0.25,
                    x_range=(0.0, 4.0), y_range=(0.0, 4.0))
        basis = build_basis_set(
            grid,
            uniform_bspline_spec(1, 3, *grid.x_range),
            uniform_bspline_spec(1, 3, *grid.y_range),
            uniform_bspline_spec(2, 4, 0.0, grid.duration),
            uniform_bspline_spec(1, 2, -grid.tau, 0.0),
        )
        eta = np.abs(np.random.default_rng(7).standard_normal((3, 3))) + 0.2
        truth = DriftCoefficients.from_rank1(np.array([0.5, 2.0, -1.0, 0.8]), eta,
                                             np.zeros((3, 3, 3, 3, 2)), np.zeros((3, 3)))
        data = simulate_euler(SimConfig(grid=grid, seed=1), truth, basis)
        return build_design(data, basis)

    @pytest.mark.parametrize("case", ["plain", "omega", "noise-free"])
    def test_entries_are_objectives_of_shorter_fits_and_descend(self, rng, case):
        warm = {}
        if case == "noise-free":
            design = self.noise_free_instance()
            weights = np.ones(design.basis.coef_shapes["stimulus"])
            lam = 1e-7 * lambda_max(design)
            # warm-started from a larger penalty, as along a path, so each
            # alternation's change is small next to 1/2 |target|^2
            start = fit_reduced_rank_stimulus(design, design.target, 1e3 * lam, weights)
            warm = {"warm_zeta": start.zeta, "warm_eta": start.eta}
            half = 0.5 * float(np.vdot(design.target, design.target))
        else:
            grid, basis, design = rank1_instance(rng)
            if case == "omega":
                design = design.with_omega(random_precision(rng, grid.n_pixels))
            weights = 0.5 + rng.random((basis.p_x, basis.p_y, basis.p_t))
            lam = 0.02 * stimulus_lambda_max(design, weights)
        trace = None
        for k in (6, 1, 2, 3, 4, 5, 6):
            fit = fit_reduced_rank_stimulus(design, design.target, lam, weights, **warm,
                                            options=SolverOptions(tol_rank1=0.0, max_rank1=k))
            assert not fit.collapsed and fit.n_alternations == k
            if trace is None:
                trace = fit.trace
                assert len(trace) == 7
                if case == "noise-free":
                    assert trace[-1] <= 1e-4 * half
            assert abs(trace[k] - fit.objective) <= 1e-12 * fit.objective, k
        assert (np.diff(trace) <= 1e-12 * trace[:-1]).all(), np.diff(trace)


class TestBlockRelaxation:
    def test_zero_data_gives_zero_fit_in_one_sweep(self, rng):
        _, basis, data, _ = tiny_instance(rng)
        design = build_design(np.zeros_like(data), basis)
        fit = fit_penalized(design, 1.0)
        assert fit.n_sweeps == 1
        assert fit.n_nonzero == {"stimulus": 0, "network": 0, "memory": 0}

    def test_objective_not_above_truth_objective(self, rng):
        grid = Grid(n_x=3, n_y=3, n_steps=20, n_lags=2, dt=0.1,
                    x_range=(0.0, 3.0), y_range=(0.0, 3.0))
        basis = build_basis_set(
            grid,
            uniform_bspline_spec(0, 3, *grid.x_range),
            uniform_bspline_spec(0, 3, *grid.y_range),
            uniform_bspline_spec(1, 3, 0.0, grid.duration),
            uniform_bspline_spec(0, 2, -grid.tau, 0.0),
        )
        truth = DriftCoefficients.zeros(basis)
        truth.beta[0, 0, 1, 1, 0] = 1.0
        truth.gamma[...] = -0.5
        noise = build_noise_covariance(white_covariance(0.2), grid)
        data = simulate_euler(SimConfig(grid=grid, seed=5), truth, basis, noise)
        design = build_design(data, basis)
        lam = 0.1 * lambda_max(design)
        fit = fit_penalized(design, lam)

        scaled = DriftCoefficients(
            alpha=np.zeros_like(truth.alpha),
            beta=grid.dt * truth.beta,
            gamma=grid.cell_area * grid.dt * truth.gamma,
        )
        resid = design.target - linear_predictor(scaled, design)
        truth_obj = 0.5 * float(np.vdot(resid, resid)) + lam * (
            np.abs(scaled.beta).sum() + np.abs(scaled.gamma).sum()
        )
        assert fit.objective <= truth_obj

    def test_lambda_zero_matches_joint_least_squares(self, rng):
        grid = Grid(n_x=3, n_y=3, n_steps=10, n_lags=2, dt=0.1)
        # single temporal stimulus function: the rank-one constraint is vacuous
        basis = build_basis_set(
            grid,
            uniform_bspline_spec(1, 2, *grid.x_range),
            uniform_bspline_spec(1, 2, *grid.y_range),
            uniform_bspline_spec(0, 1, 0.0, grid.duration),
            uniform_bspline_spec(1, 2, -grid.tau, 0.0),
        )
        data = rng.standard_normal((3, 3, grid.n_frames))
        design = build_design(data, basis)
        opts = SolverOptions(tol_inner=1e-14, max_inner=50000, tol_outer=1e-13,
                             max_sweeps=500)
        fit = fit_penalized(design, 0.0, options=opts)
        x, _ = explicit_design(design)
        theta_ls, *_ = np.linalg.lstsq(x, vec(design.target), rcond=None)
        fitted_ls = x @ theta_ls
        fitted = vec(linear_predictor(fit.coeffs, design))
        assert np.abs(fitted - fitted_ls).max() < 1e-4

    def test_outer_convergence_needs_certified_sub_fits(self, rng):
        # one solve per sub-fit leaves the joint fits uncertified, so no
        # level may stop early or report converged_outer
        _, basis, _, design = tiny_instance(rng)
        opts = SolverOptions(max_inner=1, max_sweeps=3, tol_outer=1.0)
        penalty = PenaltySpec(default_lambda_path(lambda_max(design), 3, 1e-2))
        fits = fit_block_relaxation(design, penalty, opts).fits
        for fit in fits:
            if not all(fit.converged.values()):
                assert not fit.converged_outer and fit.n_sweeps == 3, fit.converged
            else:  # tol_outer = 1 makes every sweep's objective stall
                assert fit.converged_outer
        assert not all(f.converged_outer for f in fits)

    def test_full_objective_monotone_over_sweeps(self, rng):
        for seed in range(3):
            loc = np.random.default_rng(seed)
            _, basis, _, design = tiny_instance(loc)
            lam = 0.15 * lambda_max(design)
            fit = fit_penalized(design, lam)
            assert monotone(fit.objective_trace), fit.objective_trace

    def test_warm_starts_never_cost_more_than_cold(self, rng):
        grid = Grid(n_x=4, n_y=4, n_steps=30, n_lags=2, dt=0.1,
                    x_range=(0.0, 4.0), y_range=(0.0, 4.0))
        basis = build_basis_set(
            grid,
            uniform_bspline_spec(0, 2, *grid.x_range),
            uniform_bspline_spec(0, 2, *grid.y_range),
            uniform_bspline_spec(1, 3, 0.0, grid.duration),
            uniform_bspline_spec(0, 2, -grid.tau, 0.0),
        )
        truth = DriftCoefficients.zeros(basis)
        truth.gamma[...] = -0.8
        truth.beta[0, 0, 1, 1, 0] = 2.0
        noise = build_noise_covariance(white_covariance(0.3), grid)
        data = simulate_euler(SimConfig(grid=grid, seed=42), truth, basis, noise)
        design = build_design(data, basis)
        penalty = PenaltySpec(default_lambda_path(lambda_max(design), 6, 1e-2))
        warm = fit_block_relaxation(design, penalty)
        cold = [fit_penalized(design, lam, warm=None) for lam in penalty.lambda_path]
        warm_iters = sum(f.total_iterations for f in warm.fits)
        cold_iters = sum(f.total_iterations for f in cold)
        assert warm_iters <= cold_iters


class TestGramsBuiltOncePerDesign:
    def test_path_builds_each_gram_once_per_design(self, rng, monkeypatch):
        built = []
        for cls in (design_module._KronBlock, design_module._StackedBlock):
            def counting(self, build=cls._build_gram):
                built.append(self.name)
                return build(self)
            monkeypatch.setattr(cls, "_build_gram", counting)
        grid, basis, design = rank1_instance(rng)
        weighted = design.with_omega(random_precision(rng, grid.n_pixels))
        penalty = PenaltySpec(default_lambda_path(lambda_max(design), 5, 1e-2))
        once = ["memory", "network", "network+memory", "stimulus"]
        # a design keeps its Grams: a second path on it builds none
        for case, want in ((design, once), (weighted, once), (design, [])):
            built.clear()
            path = fit_block_relaxation(case, penalty)
            assert sum(f.n_sweeps for f in path.fits) > len(penalty.lambda_path)
            assert sorted(built) == want, built


def random_precision(rng, d):
    root = rng.standard_normal((d, d))
    return root @ root.T / d + 0.5 * np.eye(d)


class CountingBlock:
    """A design block that counts its forward, Omega and adjoint applies."""

    def __init__(self, block):
        self.block = block
        self.predicts = self.weighs = self.adjoints = 0

    def __getattr__(self, name):
        return getattr(self.block, name)

    def predict(self, coef):
        self.predicts += 1
        return self.block.predict(coef)

    def weigh(self, fieldarr):
        self.weighs += 1
        return self.block.weigh(fieldarr)

    def adjoint(self, fieldarr):
        self.adjoints += 1
        return self.block.adjoint(fieldarr)


class TestResidualBookkeeping:
    @pytest.mark.parametrize("case", ["network", "network-omega", "network+memory"])
    def test_gram_apply_per_iteration(self, rng, case, monkeypatch):
        # a round solves on G[W, W] only: the full Gram is applied once at
        # set-up and once per admission round, and the data are touched
        # only at set-up and at return (objective and exact gradient at
        # each end)
        _, _, _, design = tiny_instance(rng)
        if case == "network-omega":
            design = design.with_omega(random_precision(rng, design.grid.n_pixels))
        block = design.blocks["network+memory" if case == "network+memory" else "network"]
        gram = block.gram()
        full_applies, rounds = [], []

        def counting(self, coef, apply=type(gram).apply):
            if self is gram:
                full_applies.append(1)
            return apply(self, coef)

        def counting_lasso(v, *args, column_lasso=lasso_module._column_lasso):
            rounds.append(len(v))
            return column_lasso(v, *args)

        monkeypatch.setattr(type(gram), "apply", counting)
        monkeypatch.setattr(lasso_module, "_column_lasso", counting_lasso)
        # high enough that W stays small next to the block
        lam = 0.7 * float(np.abs(block.weighted_adjoint(design.target)).max())
        for n in (1, 30):
            full_applies.clear()
            rounds.clear()
            counted = CountingBlock(block)
            fit = fit_component(counted, design.target, lam, np.ones(block.coef_shape),
                                options=SolverOptions(max_inner=n))
            assert 1 <= fit.n_iter <= n and rounds
            assert fit.working_set == max(rounds) < np.prod(block.coef_shape)
            assert len(full_applies) == 1 + len(rounds)
            assert counted.omega is design.omega
            assert (counted.predicts, counted.weighs, counted.adjoints) == (2, 2, 2)
            if n > 1:
                assert fit.converged and fit.kkt_residual <= KKT_TOL_FACTOR * lam

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "omega"])
    def test_rank_one_reads_the_data_at_start_and_return_only(self, rng, weighted):
        # the alternations run on the stimulus Gram's factors: one rank-one
        # fit makes the same forward, Omega and adjoint applies whatever
        # its number of alternations
        grid, basis, design = rank1_instance(rng)
        if weighted:
            design = design.with_omega(random_precision(rng, grid.n_pixels))
        lam = 0.02 * stimulus_lambda_max(design, np.ones((basis.p_x, basis.p_y, basis.p_t)))
        counted = CountingBlock(design.blocks["stimulus"])
        design.blocks["stimulus"] = counted
        ledger = []
        for k in (1, 8):
            counted.predicts = counted.weighs = counted.adjoints = 0
            fit = fit_reduced_rank_stimulus(design, design.target, lam,
                                            options=SolverOptions(tol_rank1=0.0, max_rank1=k))
            assert fit.n_alternations == k and not fit.collapsed
            ledger.append((counted.predicts, counted.weighs, counted.adjoints))
        assert ledger[0] == ledger[1] == (2, 2, 2), ledger

    def test_lambda_zero_cancellation(self):
        # a large fitted part and a tiny residual: the objective is a small
        # difference of large quadratic terms, so candidates must be
        # compared by their objective difference
        loc = np.random.default_rng(11)
        a = loc.standard_normal((400, 12))
        theta = loc.standard_normal(12)
        fitted = a @ theta
        fitted *= 1e6 / np.linalg.norm(fitted)
        q, _ = np.linalg.qr(a)
        noise = loc.standard_normal(400)
        noise -= q @ (q.T @ noise)
        target = fitted + 1e-6 * noise / np.linalg.norm(noise)
        block = _KronBlock("toy", [a], (12,))
        warm = np.linalg.lstsq(a, fitted, rcond=None)[0] * (1 + 1e-9)
        fit = fit_component(block, target, 0.0, np.ones(12), warm=warm,
                            options=SolverOptions(tol_inner=0.0, max_inner=200))
        assert monotone(fit.trace)
        assert fit.objective <= fit.trace[0]
        # the solve reaches the optimum, half the squared residual, and the
        # trace ends at the residual-form objective
        assert fit.objective <= 0.5e-12 * (1 + 1e-4), fit.objective
        assert abs(fit.trace[-1] - fit.objective) <= 1e-6 * fit.trace[0], fit.trace[-1]
        # the certificate is the residual-form gradient at the returned point
        want = float(np.abs(a.T @ (target - a @ fit.coef)).max())
        assert abs(fit.kkt_residual - want) <= 1e-12 * want, (fit.kkt_residual, want)

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "omega"])
    def test_trace_ends_at_full_objective_of_returned_coefficients(self, weighted):
        for seed in range(3):
            loc = np.random.default_rng(seed)
            _, basis, _, design = tiny_instance(loc)
            d = design.grid.n_pixels
            omega = random_precision(loc, d) if weighted else np.eye(d)
            if weighted:
                design = design.with_omega(omega)
            weights = standardized_weights(design)
            lam = 0.1 * lambda_max(design, weights)
            fit = fit_penalized(design, lam, weights)
            flat = (design.target - linear_predictor(fit.coeffs, design)).reshape(d, -1, order="F")
            penalty = sum(float(np.sum(weights[name] * np.abs(arr)))
                          for name, arr in zip(basis.coef_shapes, fit.coeffs.arrays()))
            want = 0.5 * float(np.sum(flat * (omega @ flat))) + lam * penalty
            assert abs(fit.objective_trace[-1] - want) <= 1e-12 * abs(want), (seed, want)


class TestWorkingSetMatchesFullWidth:
    # the working-set fit reaches the optimum that the full-width proximal
    # gradient iteration reaches: the same objective and, with a penalty,
    # the same support
    CASES = ["network", "network+memory", "network+memory-omega", "stimulus", "stimulus-omega"]

    @pytest.mark.parametrize("case", CASES)
    def test_same_objective_and_support(self, case):
        loc = np.random.default_rng(8)
        _, _, _, design = tiny_instance(loc)
        if case.endswith("-omega"):
            design = design.with_omega(random_precision(loc, design.grid.n_pixels))
        block = design.blocks[case.removesuffix("-omega")]
        target = design.target
        top = float(np.abs(block.weighted_adjoint(target)).max())
        weights = np.ones(block.coef_shape)
        opts = SolverOptions(max_inner=1500)
        # the iteration converges at a sublinear rate: run it to a budget
        # that reaches the optimum within rounding of the exact fit
        full = SolverOptions(tol_inner=0.0, max_inner=10_000)
        warm = None
        for factor in (0.5, 0.1, 0.02, 0.0):
            # cold, and warm-started from the previous level's solution as
            # along a path, where coordinates join W as they violate
            for start in (None,) if warm is None else (None, warm):
                fit = fit_component(block, target, factor * top, weights, start, opts)
                want = full_width_fit_component(block, target, factor * top, weights, start,
                                                full)
                assert abs(fit.objective - want.objective) <= 1e-10 * abs(want.objective), \
                    (factor, start is None)
                if factor == 0.5:
                    assert fit.working_set < np.prod(block.coef_shape)
                if factor > 0:
                    assert np.array_equal(fit.coef != 0, want.coef != 0), (factor, start is None)
                    continue
                # no penalty: a rank-deficient block has many minimizers, and
                # they share their fitted values
                got, ref = block.predict(fit.coef), block.predict(want.coef)
                assert np.abs(got - ref).max() <= 1e-6 * max(1.0, np.abs(ref).max()), \
                    start is None
            warm = want.coef


class TestBruteForceJointBlock:
    # on a network+memory block small enough to enumerate every support and
    # sign pattern, the exact fit is the brute-force minimizer
    @pytest.mark.parametrize("n_lag_basis", [1, 2])
    def test_matches_brute_force(self, n_lag_basis):
        loc = np.random.default_rng(21)
        grid = Grid(n_x=3, n_y=2, n_steps=10, n_lags=2, dt=0.1,
                    x_range=(0.0, 3.0), y_range=(0.0, 2.0))
        basis = build_basis_set(
            grid,
            uniform_bspline_spec(0, 2, *grid.x_range),
            uniform_bspline_spec(0, 1, *grid.y_range),
            uniform_bspline_spec(1, 2, 0.0, grid.duration),
            uniform_bspline_spec(0, n_lag_basis, -grid.tau, 0.0),
        )
        plain = build_design(loc.standard_normal((3, 2, grid.n_frames)), basis)
        for design in (plain, plain.with_omega(random_precision(loc, grid.n_pixels))):
            block = design.blocks["network+memory"]
            n = block.coef_shape[0]
            assert n == 4 * n_lag_basis + 2
            normal = np.column_stack([block.weighted_adjoint(block.predict(e))
                                      for e in np.eye(n)])
            c = block.weighted_adjoint(design.target)
            weights = 0.5 + loc.random(n)
            top = float(np.abs(c / weights).max())
            previous = None
            for factor in (0.5, 0.2, 0.05):
                lam = factor * top
                want = brute_force_lasso(normal, c, lam * weights)
                f_want = _weighted_residual(block, design.target, want, lam, weights)[1]
                for warm in (None, previous, loc.standard_normal(n)):
                    fit = fit_component(block, design.target, lam, weights, warm)
                    assert abs(fit.objective - f_want) <= 1e-12 * abs(f_want), (factor, warm)
                    assert np.array_equal(fit.coef != 0, want != 0), (factor, warm)
                    assert type(fit.converged) is bool and fit.converged
                previous = want


class TestKktResidual:
    def test_pass_flag_is_a_python_bool(self):
        # the non-zero branch alone, the zero branch alone, and both; a
        # numpy penalty level must not leak numpy.bool_ into report.json
        for coef, grad, want in ((np.array([1.0]), np.array([-0.5]), True),
                                 (np.array([1.0]), np.array([0.5]), False),
                                 (np.array([0.0]), np.array([0.4]), True),
                                 (np.array([0.0]), np.array([0.6]), False),
                                 (np.array([1.0, 0.0]), np.array([-0.5, 0.4]), True)):
            ok = kkt_residual(grad, coef, np.float64(0.5), np.ones(coef.size))[1]
            assert type(ok) is bool and ok is want, (coef, grad)


class TestPenaltySpec:
    def test_path_validation(self):
        with pytest.raises(ValueError):
            PenaltySpec(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            PenaltySpec(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            PenaltySpec(np.array([1.0]), nu=-1.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            PenaltySpec(np.array([1.0]), weights_memory=np.array([-1.0]))

    def test_default_path_shape(self):
        path = default_lambda_path(10.0, 10, 1e-3)
        assert path.size == 10
        assert path[0] == pytest.approx(10.0)
        assert path[-1] == pytest.approx(0.01)
        assert (np.diff(path) < 0).all()

    def test_zero_lambda_max_fallback(self):
        path = default_lambda_path(0.0, 5, 1e-2)
        assert (path > 0).all()


class TestStimulusWeights:
    def test_onset_offset_windows(self):
        spec = uniform_bspline_spec(2, 10, 0.0, 1.0)
        w = stimulus_weight_profile(spec, 0.2, 0.7, window=0.2, low_weight=0.1)
        assert set(np.unique(w)) <= {0.1, 1.0}
        assert (w == 0.1).sum() >= 2

    def test_no_windows_means_all_ones(self):
        spec = uniform_bspline_spec(2, 8, 0.0, 1.0)
        w = stimulus_weight_profile(spec, None, None, window=0.1)
        assert np.array_equal(w, np.ones(8))


class TestStandardizedWeights:
    def test_matches_explicit_column_norms(self, rng):
        _, basis, _, design = tiny_instance(rng)
        x, slices = explicit_design(design)
        w = standardized_weights(design)
        got = np.concatenate([
            w["stimulus"].ravel(order="F"),
            w["network"].ravel(order="F"),
            w["memory"].ravel(order="F"),
        ])
        want = np.linalg.norm(x, axis=0)
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, want.max())

    def test_weighted_design_gives_omega_norms(self, rng):
        _, basis, _, design = tiny_instance(rng)
        omega = random_precision(rng, design.grid.n_pixels)
        x, _ = explicit_design(design)
        big = np.kron(np.eye(design.grid.n_steps), omega)
        w = standardized_weights(design.with_omega(omega))
        got = np.concatenate([w[name].ravel(order="F") for name in basis.coef_shapes])
        want = np.sqrt(np.einsum("ij,ij->j", x, big @ x))
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, want.max())


class TestMrce:
    def make_sim(self, het=False, seed=11, n_steps=60):
        grid = Grid(n_x=3, n_y=3, n_steps=n_steps, n_lags=2, dt=0.1,
                    x_range=(0.0, 3.0), y_range=(0.0, 3.0))
        basis = build_basis_set(
            grid,
            uniform_bspline_spec(0, 3, *grid.x_range),
            uniform_bspline_spec(0, 3, *grid.y_range),
            uniform_bspline_spec(1, 3, 0.0, grid.duration),
            uniform_bspline_spec(0, 2, -grid.tau, 0.0),
        )
        truth = DriftCoefficients.zeros(basis)
        truth.gamma[...] = -0.8
        truth.beta[0, 0, 2, 2, 0] = 1.5
        if het:
            def cov(u, v):
                return np.where((np.asarray(u) == 0) & (np.asarray(v) == 0), 1.0, 0.0)
            noise = build_noise_covariance(cov, grid)
            # heteroscedastic: inflate some pixel variances
            scale = np.ones(9)
            scale[:4] = 3.0
            noise.factor[...] = noise.factor * scale[None, :]
        else:
            noise = build_noise_covariance(white_covariance(0.3), grid)
        data = simulate_euler(SimConfig(grid=grid, seed=seed), truth, basis, noise)
        return grid, basis, build_design(data, basis)

    def test_mrce_runs_and_returns_both_rounds(self, rng):
        grid, basis, design = self.make_sim()
        penalty = PenaltySpec(default_lambda_path(lambda_max(design), 4, 1e-1), nu=0.05)
        res = mrce_loop(design, penalty)
        assert len(res.first.fits) == 4 and len(res.second.fits) == 4
        assert res.precision.omega.shape == (9, 9)
        # precision is symmetric positive definite
        assert np.array_equal(res.precision.omega, res.precision.omega.T)
        assert np.linalg.eigvalsh(res.precision.omega).min() > 0

    def test_path_rule_scales_to_the_weighted_design(self, rng):
        # the path keeps its length and ratio and starts at the weighted
        # design's zero-solution level under the penalty's own weights, and
        # the second round runs the rule on the first round's precision
        grid, basis, design = self.make_sim(het=True)
        penalty = PenaltySpec(default_lambda_path(lambda_max(design), 4, 1e-1),
                              weights_stimulus=np.linspace(0.5, 2.0, basis.p_t),
                              weights_memory=np.array(3.0), nu=0.05)
        weighted = design.with_omega(random_precision(rng, grid.n_pixels))
        scaled = penalty.scaled_to(weighted)
        path, weights = scaled.lambda_path, penalty.weights_for(basis)
        assert path.size == 4
        assert path[-1] / path[0] == pytest.approx(0.1, rel=1e-12)
        assert path[0] == lambda_max(weighted, weights) != lambda_max(weighted)
        assert scaled.nu == penalty.nu and scaled.weights_stimulus is penalty.weights_stimulus
        fit = fit_penalized(weighted, path[0], weights)
        assert not any(np.any(a) for a in fit.coeffs.arrays())
        res = mrce_loop(design, penalty)
        want = penalty.scaled_to(design.with_omega(res.precision.omega)).lambda_path
        assert np.array_equal(res.second.lambda_path, want)

    def test_huge_nu_gives_diagonal_precision(self, rng):
        grid, basis, design = self.make_sim()
        penalty = PenaltySpec(default_lambda_path(lambda_max(design), 3, 1e-1), nu=1e6)
        res = mrce_loop(design, penalty)
        off = res.precision.omega - np.diag(np.diag(res.precision.omega))
        assert np.abs(off).max() == 0.0

    def test_white_noise_refit_close_to_first_round(self, rng):
        # spherical noise, long record: the precision estimate is close to
        # a multiple of the identity, and rebuilding the path from the
        # weighted problem makes the two rounds correspond index by index
        grid, basis, design = self.make_sim(n_steps=400)
        penalty = PenaltySpec(default_lambda_path(lambda_max(design), 4, 1e-1), nu=0.005)
        res = mrce_loop(design, penalty)
        a = theta_vec(res.first.fits[-1].coeffs)
        b = theta_vec(res.second.fits[-1].coeffs)
        scale = max(np.abs(a).max(), 1e-12)
        diff = np.abs(a - b).max() / scale
        assert diff < 0.3, diff

    def test_weighted_round_improves_weighted_objective(self, rng):
        grid, basis, design = self.make_sim(het=True)
        penalty = PenaltySpec(default_lambda_path(lambda_max(design), 4, 1e-1), nu=0.05)
        res = mrce_loop(design, penalty)
        omega = res.precision.omega
        idx = res.lambda_index
        design_w = design.with_omega(omega)

        def weighted_loss(coeffs):
            r = design_w.target - linear_predictor(coeffs, design_w)
            d = grid.n_pixels
            flat = r.reshape(d, -1, order="F")
            return 0.5 * float(np.sum(flat * (omega @ flat)))

        first = weighted_loss(res.first.fits[idx].coeffs)
        # second-round path differs; compare at its own midpoint
        second = weighted_loss(res.second.fits[res.second.lambda_path.size // 2].coeffs)
        assert second <= first * (1 + 1e-9)


def test_support_scores_counts(rng):
    truth = np.zeros((4, 4))
    truth[0, 0] = 1.0
    truth[1, 1] = -2.0
    est = np.zeros((4, 4))
    est[0, 0] = 0.5
    est[2, 2] = 0.1
    scores = support_scores(est, truth)
    assert scores["n_true"] == 2
    assert scores["n_estimated"] == 2
    assert scores["recall"] == 0.5
    assert scores["false_positive_rate"] == 0.5
