"""Command-line entry point: ``simulate``, ``fit``, and ``summarize``.

Every command reads one configuration file and writes its artifacts under
the configured output directory together with a manifest (run id, seed,
config hash, versions).  Runs are deterministic: the same configuration
produces byte-identical artifacts.  Exit codes: 0 success, 2 usage or
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
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
from .errors import ConfigError, DivergenceError, FieldnetError, InvalidCovarianceError, ShapeError
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
    lambda_max,
    mrce_loop,
    support_scores,
)
from .summary import compute_degree_maps, compute_separation_profile, weight_density


def _fmt(x):
    return repr(float(x))


def _write_manifest(out_dir, command, cfg, outputs):
    run_id = hashlib.sha256(cfg.raw + command.encode()).hexdigest()[:12]
    manifest = {
        "command": command,
        "run_id": run_id,
        "seed": cfg.seed,
        "config_sha256": cfg.sha256(),
        "fieldnet_version": __version__,
        "numpy_version": np.__version__,
        "outputs": sorted(outputs),
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
    _write_manifest(out_dir, "simulate", cfg, list(outputs) + ["manifest.json"])
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
    }


def _warn_unconverged(result, max_sweeps, label="lambda index"):
    for i, fit in enumerate(result.fits):
        if not fit.converged_outer:
            print(f"warning: {label} {i} did not converge within max_sweeps = {max_sweeps}",
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


# an overflow or invalid operation is a numerical failure, not a warning
@np.errstate(over="raise", invalid="raise")
def cmd_fit(cfg, data_path, out_dir, lambda_index=None, truth_beta=None):
    grid = make_grid(cfg)
    basis = make_basis(cfg)
    pen_cfg = cfg.sections["penalty"]
    n_lambdas = pen_cfg["n_lambdas"]
    use_mrce = cfg.get("solver", "mrce", False)
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
    probe = PenaltySpec(np.array([1.0]), weights_stimulus=stim_w)
    lam_max = lambda_max(design, probe.weights_for(basis))
    path = default_lambda_path(lam_max, n_lambdas, pen_cfg["lambda_min_ratio"])
    penalty = PenaltySpec(lambda_path=path, weights_stimulus=stim_w, nu=pen_cfg["nu"])

    started = time.perf_counter()
    try:
        if use_mrce:
            mrce = mrce_loop(design, penalty, opts, lambda_index=lambda_index)
            result = mrce.second
            omega = mrce.precision.omega
        else:
            result = fit_block_relaxation(design, penalty, options=opts)
            mrce = None
            omega = None
    except DivergenceError as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        note = {"status": "diverged", "error": str(exc)}
        (out_dir / "report.json").write_text(json.dumps(note, indent=2, sort_keys=True) + "\n")
        _write_manifest(out_dir, "fit", cfg, ["report.json", "manifest.json"])
        raise
    elapsed = time.perf_counter() - started
    _warn_unconverged(result, opts.max_sweeps)
    if mrce is not None:
        _warn_unconverged(mrce.first, opts.max_sweeps, label="first-round lambda index")
        if not mrce.precision.converged:
            print(f"warning: graphical lasso did not converge within "
                  f"{mrce.precision.n_sweeps} sweeps (dual gap {mrce.precision.dual_gap:.3g})",
                  file=sys.stderr)

    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = _write_fit_artifacts(out_dir, result)
    if mrce is not None:
        outputs += _write_fit_artifacts(out_dir, mrce.first, suffix="_unweighted")
        write_dta1(out_dir / "omega.dta1", omega)
        outputs.append("omega.dta1")
    report = build_report(result, basis, grid)
    if mrce is not None:
        report["mrce"] = {
            "lambda_index": mrce.lambda_index,
            "precision_nonzero": mrce.precision.n_nonzero,
            "precision_converged": mrce.precision.converged,
            "precision_dual_gap": float(mrce.precision.dual_gap),
            "precision_sweeps": int(mrce.precision.n_sweeps),
            "first_round": build_report(mrce.first, basis, grid),
        }
    if truth is not None:
        scores = [support_scores(f.coeffs.beta, truth) for f in result.fits]
        report["support_scores"] = scores
        best = max(range(len(scores)), key=lambda i: scores[i]["recall"] - scores[i]["false_positive_rate"])
        print(
            f"support recovery at lambda index {best}: "
            f"recall {scores[best]['recall']:.3f}, "
            f"false positive rate {scores[best]['false_positive_rate']:.3f}"
        )
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    outputs.append("report.json")
    _write_manifest(out_dir, "fit", cfg, outputs + ["manifest.json"])
    print(f"fitted {len(result.fits)} penalty levels -> {out_dir}", file=sys.stderr)
    print(f"wall clock: {elapsed:.2f}s", file=sys.stderr)
    return 0


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _map_rows(grid, values):
    for i, x in enumerate(grid.x_centers):
        for j, y in enumerate(grid.y_centers):
            yield (i, j, float(x), float(y), float(values[i, j]))


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
    coeffs = DriftCoefficients(*(read_dta1(sub / f"{name}.dta1")
                                 for name in ("alpha", "beta", "gamma")))
    beta = coeffs.beta

    out_dir.mkdir(parents=True, exist_ok=True)
    maps = compute_degree_maps(beta, basis)
    header = ["x_index", "y_index", "x", "y", "value"]
    for name, vals in (("w_in", maps.w_in), ("w_out", maps.w_out),
                       ("deg_in", maps.deg_in), ("deg_out", maps.deg_out)):
        _write_csv(out_dir / f"{name}.csv", header, _map_rows(grid, vals))

    prof = compute_separation_profile(beta, basis)
    rows = [
        (si, ti, float(s), float(t), float(prof.table[si, ti]))
        for si, s in enumerate(prof.s_values)
        for ti, t in enumerate(prof.t_values)
    ]
    _write_csv(out_dir / "separation.csv", ["s_index", "t_index", "s", "delay", "value"], rows)

    dens = weight_density(beta, basis)
    rows = [
        (di, vi, float(dens.delay_edges[di]), float(dens.delay_edges[di + 1]),
         float(dens.value_edges[vi]), float(dens.value_edges[vi + 1]),
         int(dens.counts[di, vi]))
        for di in range(dens.counts.shape[0])
        for vi in range(dens.counts.shape[1])
    ]
    _write_csv(
        out_dir / "density.csv",
        ["delay_bin", "value_bin", "delay_lo", "delay_hi", "value_lo", "value_hi", "count"],
        rows,
    )

    stim = stimulus_frames(coeffs, basis)
    rows = (
        (i, j, float(t), float(stim[i, j, k]))
        for k, t in enumerate(grid.model_times)
        for i in range(grid.n_x)
        for j in range(grid.n_y)
    )
    _write_csv(out_dir / "stimulus.csv", ["x_index", "y_index", "t", "value"], rows)

    names = ["w_in.csv", "w_out.csv", "deg_in.csv", "deg_out.csv",
             "separation.csv", "density.csv", "stimulus.csv"]
    _write_manifest(out_dir, "summarize", cfg, names + ["manifest.json"])
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
        if args.command == "summarize":
            return cmd_summarize(cfg, args.fit, out_dir, lambda_index=args.lambda_index)
        parser.error(f"unknown command {args.command}")
    except (ConfigError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, InvalidCovarianceError, FieldnetError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
