"""Command-line entry point: ``simulate``, ``fit``, and ``summarize``.

Every command reads one configuration file and writes its artifacts under
the configured output directory together with a manifest (run id, seed,
config hash, versions).  Runs are deterministic: the same configuration
produces byte-identical artifacts.  Exit codes: 0 success, 2 usage or
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .arrays import read_dta1, write_dta1
from .bases import DriftCoefficients, stimulus_frames
from .config import load_config, make_basis, make_grid, make_solver_options, stimulus_weights
from .design import build_design, naive_var_parameter_count
from .errors import ConfigError, DivergenceError, FieldnetError, ShapeError
from .simulate import (
    SimConfig,
    build_noise_covariance,
    gaussian_covariance,
    simulate_euler,
    white_covariance,
)
from .solver import (
    PenaltySpec,
    default_lambda_path,
    fit_block_relaxation,
    mrce_loop,
    support_scores,
)
from .summary import (
    compute_degree_maps,
    compute_separation_profile,
    default_epsilon,
    weight_density,
)


def _write_manifest(out_dir, command, cfg, outputs):
    run_id = hashlib.sha256(cfg.raw + command.encode()).hexdigest()[:12]
    manifest = {
        "command": command,
        "run_id": run_id,
        "seed": cfg.seed,
        "config_sha256": cfg.sha256(),
        "fieldnet_version": __version__,
        "numpy_version": np.__version__,
        "outputs": sorted([*outputs, "manifest.json"]),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _generate_truth(cfg, basis, rng):
    sim = cfg.sections["simulate"]
    coeffs = DriftCoefficients.zeros(basis)
    zeta = eta = None
    if sim["stimulus"] == "rank1":
        zeta = np.abs(rng.standard_normal(basis.p_t))
        eta = np.zeros(basis.coef_shapes["stimulus"][:-1])
        k = min(sim["stimulus_nonzeros"], eta.size)
        pos = rng.choice(eta.size, size=k, replace=False)
        eta.ravel()[pos] = sim["stimulus_scale"] * (0.5 + rng.random(k))
        coeffs = DriftCoefficients.from_rank1(zeta, eta, coeffs.beta, coeffs.gamma)
    n_net = sim["network_nonzeros"]
    if n_net:
        flat = coeffs.beta.reshape(-1)
        pos = rng.choice(flat.size, size=min(n_net, flat.size), replace=False)
        signs = rng.choice([-1.0, 1.0], size=pos.size)
        flat[pos] = signs * sim["network_scale"] * (0.5 + rng.random(pos.size))
    if sim["memory_scale"]:
        coeffs.gamma[...] = -abs(sim["memory_scale"])
    return coeffs


def _noise_model(cfg, grid):
    sim = cfg.sections["simulate"]
    if sim["noise"] == "none" or sim["noise_scale"] == 0:
        return None
    cov = (white_covariance(sim["noise_scale"]) if sim["noise"] == "white"
           else gaussian_covariance(sim["noise_length"], sim["noise_scale"]))
    return build_noise_covariance(cov, grid)


def cmd_simulate(cfg, out_dir):
    if "simulate" not in cfg.explicit:
        raise ConfigError("missing required sections: simulate")
    grid = make_grid(cfg)
    basis = make_basis(cfg)
    rng = np.random.default_rng(cfg.seed)
    truth = _generate_truth(cfg, basis, rng)
    noise = _noise_model(cfg, grid)
    data = simulate_euler(SimConfig(grid=grid, seed=cfg.seed), truth, basis, noise)

    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {"data.dta1": data, "truth_alpha.dta1": truth.alpha,
               "truth_beta.dta1": truth.beta, "truth_gamma.dta1": truth.gamma}
    if truth.zeta is not None:
        outputs["truth_zeta.dta1"] = truth.zeta
        outputs["truth_eta.dta1"] = truth.eta
    for name, arr in outputs.items():
        write_dta1(out_dir / name, arr)
    _write_manifest(out_dir, "simulate", cfg, outputs)
    print(f"simulated {grid.n_x}x{grid.n_y}x{grid.n_frames} field -> {out_dir}")
    return 0


def _lambda_fit_payload(fit):
    return {
        "lambda": float(fit.lam),
        "objective_trace": [float(v) for v in fit.objective_trace],
        "n_nonzero": fit.n_nonzero,
        "iterations": fit.iterations,
        "kkt": {k: float(v) for k, v in fit.kkt.items()},
        "converged": fit.converged,
        "n_sweeps": fit.n_sweeps,
        "converged_outer": fit.converged_outer,
        "working_set": fit.working_set,
    }


def _warn_unconverged(result, opts, label="lambda index"):
    """Warn of each unconverged level with the last sweep's relative
    objective change and the blocks whose last sub-fit was not certified."""
    for i, fit in enumerate(result.fits):
        if not fit.converged_outer:
            start, end = fit.objective_trace[-3], fit.objective_trace[-1]
            change = abs(start - end) / max(1.0, abs(start))
            failed = ", ".join(name for name, ok in fit.converged.items() if not ok) or "none"
            print(f"warning: {label} {i} did not converge within max_sweeps = "
                  f"{opts.max_sweeps}: last sweep's relative objective change {change:.3g} "
                  f"(tol_outer = {opts.tol_outer:g}); uncertified sub-fits: {failed}",
                  file=sys.stderr)


def build_report(result, basis, grid):
    """Deterministic fit report: traces, sparsity, parameter counts."""
    return {
        "lambda_path": [float(v) for v in result.lambda_path],
        "fits": [_lambda_fit_payload(f) for f in result.fits],
        "parameter_count": basis.n_parameters,
        "naive_var_parameter_count": naive_var_parameter_count(grid.n_lags, grid.n_pixels),
        "best_index": result.best_index(),
    }


def _write_fit_artifacts(out_dir, result, suffix=""):
    outputs = []
    for i, fit in enumerate(result.fits):
        sub = out_dir / f"lambda{suffix}_{i:02d}"
        sub.mkdir(parents=True, exist_ok=True)
        blocks = dict(zip(("alpha", "beta", "gamma"), fit.coeffs.arrays()))
        if fit.coeffs.zeta is not None:
            blocks["zeta"] = fit.coeffs.zeta
            blocks["eta"] = fit.coeffs.eta
        for name, arr in blocks.items():
            write_dta1(sub / f"{name}.dta1", arr)
            outputs.append(f"{sub.name}/{name}.dta1")
    return outputs


def cmd_fit(cfg, data_path, out_dir, lambda_index=None, truth_beta=None):
    grid = make_grid(cfg)
    basis = make_basis(cfg)
    pen_cfg = cfg.sections["penalty"]
    n_lambdas = pen_cfg["n_lambdas"]
    if lambda_index is None:
        lambda_index = cfg.get("solver", "mrce_lambda_index")
    if lambda_index is not None and not 0 <= lambda_index < n_lambdas:
        raise ConfigError(
            f"lambda index {lambda_index} is outside the penalty path [0, {n_lambdas})"
        )
    if data_path is None:
        data_path = cfg.get("io", "data")
        if data_path is None:
            raise ConfigError("[io] data: no data file given (flag --data or config key)")
    data = read_dta1(data_path)
    if data.shape != (grid.n_x, grid.n_y, grid.n_frames):
        raise ConfigError(
            f"data shape {data.shape} does not match grid "
            f"({grid.n_x}, {grid.n_y}, {grid.n_frames})"
        )
    if not np.isfinite(data).all():
        raise ConfigError(f"{data_path}: data contain non-finite values (NaN or inf)")
    # a support score needs the truth: check it before the fit, not after
    truth = None if truth_beta is None else read_dta1(truth_beta)
    if truth is not None and truth.shape != basis.coef_shapes["network"]:
        raise ConfigError(f"{truth_beta}: network truth has shape {truth.shape}, "
                          f"expected {basis.coef_shapes['network']}")
    design = build_design(data, basis)
    opts = make_solver_options(cfg)
    stim_w = stimulus_weights(cfg, basis)
    unit_path = default_lambda_path(1.0, n_lambdas, pen_cfg["lambda_min_ratio"])
    penalty = PenaltySpec(unit_path, weights_stimulus=stim_w, nu=pen_cfg["nu"]).scaled_to(design)

    started = time.perf_counter()
    try:
        mrce = (mrce_loop(design, penalty, opts, lambda_index=lambda_index)
                if cfg.sections["solver"]["mrce"] else None)
        result = fit_block_relaxation(design, penalty, options=opts) if mrce is None else mrce.second
    except DivergenceError as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        note = {"status": "diverged", "error": str(exc)}
        (out_dir / "report.json").write_text(json.dumps(note, indent=2, sort_keys=True) + "\n")
        _write_manifest(out_dir, "fit", cfg, ["report.json"])
        raise
    elapsed = time.perf_counter() - started
    _warn_unconverged(result, opts)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = _write_fit_artifacts(out_dir, result)
    report = build_report(result, basis, grid)
    if mrce is not None:
        _warn_unconverged(mrce.first, opts, label="first-round lambda index")
        if not mrce.precision.converged:
            print(f"warning: graphical lasso did not converge within "
                  f"{mrce.precision.n_sweeps} sweeps (dual gap {mrce.precision.dual_gap:.3g})",
                  file=sys.stderr)
        outputs += _write_fit_artifacts(out_dir, mrce.first, suffix="_unweighted")
        write_dta1(out_dir / "omega.dta1", mrce.precision.omega)
        outputs.append("omega.dta1")
        report["mrce"] = {
            "lambda_index": mrce.lambda_index,
            "precision_nonzero": mrce.precision.n_nonzero,
            "precision_converged": mrce.precision.converged,
            "precision_dual_gap": float(mrce.precision.dual_gap),
            "precision_sweeps": int(mrce.precision.n_sweeps),
            "precision_solves": int(mrce.precision.n_solves),
            "first_round": build_report(mrce.first, basis, grid),
        }
    if truth is not None:
        scores = [support_scores(f.coeffs.beta, truth) for f in result.fits]
        report["support_scores"] = scores
        # the level that summarize uses by default
        best = report["best_index"]
        print(
            f"support recovery at lambda index {best}: "
            f"recall {scores[best]['recall']:.3f}, "
            f"false positive rate {scores[best]['false_positive_rate']:.3f}"
        )
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    outputs.append("report.json")
    _write_manifest(out_dir, "fit", cfg, outputs)
    print(f"fitted {len(result.fits)} penalty levels -> {out_dir}", file=sys.stderr)
    print(f"wall clock: {elapsed:.2f}s", file=sys.stderr)
    return 0


def _write_csv(path, header, columns):
    """One row per entry of the broadcast columns, in row-major order, with
    the bytes :mod:`csv` writes (numbers and plain header names need no
    quoting).  Each column is formatted once at its own shape (``str`` of
    its Python numbers) and then broadcast, so an index or coordinate
    column in ``np.ix_`` form costs one string per value."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    cells = []
    for column in columns:
        text = np.array(list(map(str, np.ravel(column).tolist())), dtype=object)
        cells.append(np.broadcast_to(text.reshape(np.shape(column)), shape).ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, zip(*cells)), ""]))


def cmd_summarize(cfg, fit_dir, out_dir, lambda_index=None):
    grid = make_grid(cfg)
    basis = make_basis(cfg)
    fit_dir = Path(fit_dir)
    report_path = fit_dir / "report.json"
    if not report_path.exists():
        raise ConfigError(f"missing fit report: {report_path}")
    try:
        report = json.loads(report_path.read_text())
        idx = report["best_index"] if lambda_index is None else int(lambda_index)
        sub = fit_dir / f"lambda_{idx:02d}"
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{report_path}: not a fit report ({exc!r})") from exc
    if not sub.exists():
        raise ConfigError(f"missing fit artifacts: {sub}")
    blocks = []
    for name, shape in zip(("alpha", "beta", "gamma"), basis.coef_shapes.values()):
        path = sub / f"{name}.dta1"
        block = read_dta1(path)
        if block.shape != shape:
            raise ConfigError(f"{path}: coefficients have shape {block.shape}, expected {shape}")
        if not np.isfinite(block).all():
            raise ConfigError(f"{path}: coefficients contain non-finite values (NaN or inf)")
        blocks.append(block)
    coeffs = DriftCoefficients(*blocks)
    beta = coeffs.beta

    eps = default_epsilon(beta, basis)  # one max pass, shared by both grid summaries
    maps = compute_degree_maps(beta, basis, eps)
    prof = compute_separation_profile(beta, basis)
    dens = weight_density(beta, basis, eps)
    stim = stimulus_frames(coeffs, basis).transpose(2, 0, 1)  # time-major rows
    i, j = np.ix_(range(grid.n_x), range(grid.n_y))
    si, ti = np.ix_(*map(range, prof.table.shape))
    di, vi = np.ix_(*map(range, dens.counts.shape))
    k, ki, kj = np.ix_(*map(range, stim.shape))
    map_columns = [i, j, grid.x_centers[i], grid.y_centers[j]]
    map_header = ["x_index", "y_index", "x", "y", "value"]
    tables = {
        "w_in.csv": (map_header, [*map_columns, maps.w_in]),
        "w_out.csv": (map_header, [*map_columns, maps.w_out]),
        "deg_in.csv": (map_header, [*map_columns, maps.deg_in]),
        "deg_out.csv": (map_header, [*map_columns, maps.deg_out]),
        "separation.csv": (["s_index", "t_index", "s", "delay", "value"],
                           [si, ti, prof.s_values[si], prof.t_values[ti], prof.table]),
        "density.csv": (["delay_bin", "value_bin", "delay_lo", "delay_hi",
                         "value_lo", "value_hi", "count"],
                        [di, vi, dens.delay_edges[di], dens.delay_edges[di + 1],
                         dens.value_edges[vi], dens.value_edges[vi + 1],
                         dens.counts]),
        "stimulus.csv": (["x_index", "y_index", "t", "value"],
                         [ki, kj, grid.model_times[k], stim]),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, columns) in tables.items():
        _write_csv(out_dir / name, header, columns)
    _write_manifest(out_dir, "summarize", cfg, tables)
    print(f"summaries for lambda index {idx} -> {out_dir}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fieldnet",
        description="Simulate and estimate sparse drift components of "
                    "dynamical spatio-temporal array data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="configuration file (INI or JSON)")
        p.add_argument("--out", help="output directory (overrides [io] out_dir)")

    p_sim = sub.add_parser("simulate", help="generate synthetic data and ground truth")
    common(p_sim)

    p_fit = sub.add_parser("fit", help="estimate drift components from a data tensor")
    common(p_fit)
    p_fit.add_argument("--data", help="input DTA1 tensor (overrides [io] data)")
    p_fit.add_argument("--lambda-index", type=int,
                       help="path index for the precision step "
                            "(overrides [solver] mrce_lambda_index)")
    p_fit.add_argument("--truth-beta", help="ground-truth network DTA1 for support scoring")

    p_sum = sub.add_parser(
        "summarize",
        help="write CSV summary tables: w_in/w_out/deg_in/deg_out "
             "(x_index, y_index, x, y, value), separation profile "
             "(s_index, t_index, s, delay, value), weight density "
             "(delay/value bin edges, count), stimulus time courses "
             "(x_index, y_index, t, value)",
    )
    common(p_sum)
    p_sum.add_argument("--fit", required=True, help="directory with fit artifacts")
    p_sum.add_argument("--lambda-index", type=int, help="which penalty level to summarize")
    return parser


# overflow, invalid operations and division by zero are failures, not warnings
@np.errstate(over="raise", invalid="raise", divide="raise")
def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out) if args.out else Path(cfg.get("io", "out_dir"))
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "fit":
            return cmd_fit(cfg, args.data, out_dir, lambda_index=args.lambda_index,
                           truth_beta=args.truth_beta)
        return cmd_summarize(cfg, args.fit, out_dir, lambda_index=args.lambda_index)
    except (ConfigError, ShapeError, OSError) as exc:
        code, message = 2, f"error: {exc}"
    except MemoryError as exc:  # an input too large to allocate
        code, message = 2, f"error: {exc}" if str(exc) else "error: out of memory"
    except (FieldnetError, np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        code, message = 3, f"numerical failure: {exc}"
    print(*message.splitlines(), file=sys.stderr)  # one line, whatever the message holds
    return code


if __name__ == "__main__":
    sys.exit(main())
