"""Microbenchmark of one design normal-operator apply, ``X^T Omega X v``.

Timed through the public functions ``gradient(linear_predictor(.))`` on a
workload's data, fitted coefficients and fitted precision matrix (none for
workloads without the precision round).  Its flop and byte counts are
computed from array shapes, not measured: bytes count every operand and
result of each matrix product once, so cache reuse and misses are ignored.
"""

from __future__ import annotations

import json
import statistics
import time
from math import prod
from pathlib import Path


def _chain_products(factors, shape):
    """(m, k, n) of each matrix product in a rotated mode-transform chain."""
    out = []
    for rows, cols in factors:
        rest = prod(shape[1:])
        out.append((rows, cols, rest))
        shape = tuple(shape[1:]) + (rows,)
    return out


def normal_apply_counts(basis, n_steps, with_omega):
    """Computed flops and bytes of one ``gradient(linear_predictor(.))``."""
    b = basis
    nx, ny = b.phi_x.shape[0], b.phi_y.shape[0]
    d = nx * ny
    q = b.p_x * b.p_y * b.p_l
    chains = [
        _chain_products([(nx, b.p_x), (ny, b.p_y), (n_steps, b.p_t)], (b.p_x, b.p_y, b.p_t)),
        _chain_products([(nx, b.p_x), (ny, b.p_y), (n_steps, q)], (b.p_x, b.p_y, q)),
        _chain_products([(nx, b.p_x), (ny, b.p_y)], (b.p_x, b.p_y)),
    ]
    # Each chain runs forward in the predictor and backward in the adjoint.
    products = [p for chain in chains for p in chain] * 2
    if with_omega:
        products.append((d, d, n_steps))
    flops = sum(2 * m * k * n for m, k, n in products)
    nbytes = sum(8 * (m * k + k * n + m * n) for m, k, n in products)
    # Elementwise work on (D, M) frames: memory predictor product, the three
    # block sums, and the memory adjoint's product and reduction.
    flops += 5 * d * n_steps
    nbytes += 8 * 3 * 5 * d * n_steps
    return flops, nbytes


def normal_apply(config, fit_dir, data_path, budget_s=0.5, min_repeats=5):
    """Median seconds, computed flops and computed bytes of one apply."""
    from fieldnet.arrays import read_dta1
    from fieldnet.bases import DriftCoefficients
    from fieldnet.config import load_config, make_basis
    from fieldnet.design import build_design, gradient, linear_predictor

    cfg = load_config(config)
    basis = make_basis(cfg)
    design = build_design(read_dta1(data_path), basis,
                          response=cfg.get("solver", "response", "levels"))
    fit_dir = Path(fit_dir)
    omega_path = fit_dir / "omega.dta1"
    if omega_path.is_file():
        design = design.with_omega(read_dta1(omega_path))
    report = json.loads((fit_dir / "report.json").read_text())
    level = fit_dir / f"lambda_{report['best_index']:02d}"
    coeffs = DriftCoefficients(alpha=read_dta1(level / "alpha.dta1"),
                               beta=read_dta1(level / "beta.dta1"),
                               gamma=read_dta1(level / "gamma.dta1"))
    times = []
    started = time.perf_counter()
    while len(times) < min_repeats or time.perf_counter() - started < budget_s:
        t0 = time.perf_counter()
        gradient(linear_predictor(coeffs, design), design)
        times.append(time.perf_counter() - t0)
    flops, nbytes = normal_apply_counts(basis, basis.grid.n_steps, design.omega is not None)
    return statistics.median(times), flops, nbytes
