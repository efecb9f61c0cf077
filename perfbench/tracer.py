"""Spans around the public functions of each fieldnet module.

The tracer never edits the package: it replaces a function object by a
timing wrapper in every ``fieldnet.*`` module namespace that binds it.
Modules import helpers by name (``from .arrays import rho_chain``), so a
function must be patched in each calling namespace, not only where it is
defined.  ``uninstall`` puts the original objects back.

Each span records a name, start, end and the id of the span that was open
when it started.  Self time (duration minus the time direct children
cover) is computed as spans close, so no second pass is needed.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np

# (module, function) pairs that get a span.  The span name is
# "<module>.<function>".
TRACED = (
    ("arrays", "rho"),
    ("arrays", "rho_transposed"),
    ("arrays", "read_dta1"),
    ("arrays", "write_dta1"),
    ("bases", "eval_bspline_basis"),
    ("bases", "build_basis_set"),
    ("bases", "stimulus_frames"),
    ("config", "load_config"),
    ("simulate", "build_noise_covariance"),
    ("simulate", "build_weight_matrices"),
    ("simulate", "simulate_euler"),
    ("design", "build_design"),
    ("design", "linear_predictor"),
    ("solver", "lambda_max"),
    ("solver", "power_lipschitz"),
    ("solver", "fit_component"),
    ("solver", "fit_reduced_rank_stimulus"),
    ("solver", "fit_penalized"),
    ("solver", "fit_block_relaxation"),
    ("solver", "residual_covariance"),
    ("solver", "mrce_loop"),
    ("precision", "graphical_lasso"),
    ("precision", "matrix_sqrt_psd"),
    ("summary", "evaluate_network_grid"),
    ("summary", "compute_degree_maps"),
    ("summary", "compute_separation_profile"),
    ("summary", "weight_density"),
)


def _dta1_bytes(args, result):
    return os.path.getsize(args[0])


def _points(args, result):
    return int(np.size(args[1]))


def _fit_iterations(args, result):
    return result.n_iter


def _alternations(args, result):
    return result.n_alternations


# Counters read from a call's arguments or result, after the span closes.
COUNTERS = {
    "arrays.read_dta1": {"arrays.dta1.bytes": _dta1_bytes},
    "arrays.write_dta1": {"arrays.dta1.bytes": _dta1_bytes},
    "bases.eval_bspline_basis": {"bases.eval_bspline_basis.points": _points},
    "solver.fit_component": {"solver.fit_component.iterations": _fit_iterations},
    "solver.fit_reduced_rank_stimulus": {
        "solver.fit_reduced_rank_stimulus.alternations": _alternations,
    },
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent_id, self_s)
        self.counters = {}
        self.results = []  # (name, result) for the solver/precision summaries
        self._stack = []  # [span_id, name, start, child_s]
        self._next_id = 0
        self._patched = []

    def reset(self):
        self.spans = []
        self.counters = {}
        self.results = []

    def open(self, name):
        """Start a span that the caller closes with :meth:`close`."""
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def close(self):
        end = time.perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((span_id, name, start, end, parent[0] if parent else None,
                           dur - child_s))

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name, {})
        keep_result = name in ("solver.fit_penalized", "precision.graphical_lasso")
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            for key, count in counters.items():
                tracer.counters[key] = tracer.counters.get(key, 0) + count(args, result)
            if keep_result:
                tracer.results.append((name, result))
            return result

        return traced

    def install(self):
        """Patch every fieldnet namespace that binds a traced function."""
        if self._patched:
            return
        # Importing the command module imports every module it calls into.
        importlib.import_module("fieldnet.cli")
        modules = [m for n, m in sys.modules.items()
                   if n == "fieldnet" or n.startswith("fieldnet.")]
        for mod_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"fieldnet.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self):
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched = []


def summarize_spans(tracer):
    """Per-name call counts, inclusive and self seconds, plus counters and
    the solver and precision results of one traced operation."""
    calls, total, self_s = {}, {}, {}
    for _, name, start, end, _, own in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own
    fits = [r for n, r in tracer.results if n == "solver.fit_penalized"]
    glasso = [r for n, r in tracer.results if n == "precision.graphical_lasso"]
    return {"calls": calls, "s": total, "self_s": self_s,
            "counters": dict(tracer.counters), "fits": fits, "glasso": glasso}


def layer_metrics(op):
    """Per-layer metrics of one traced operation from its span summary."""
    calls, s, own, cnt = op["calls"], op["s"], op["self_s"], op["counters"]
    fits, glasso = op["fits"], op["glasso"]

    def ratio(num, den):
        return num / den if den else 0.0

    iters = {b: sum(f.iterations[b] for f in fits) for b in ("stimulus", "network", "memory")}
    sweeps = sum(f.n_sweeps for f in fits)
    gl_sweeps = sum(g.n_sweeps for g in glasso)
    out = {
        "arrays.rho.calls": calls.get("arrays.rho", 0),
        "arrays.rho.self_s": own.get("arrays.rho", 0.0),
        "arrays.rho_transposed.calls": calls.get("arrays.rho_transposed", 0),
        "arrays.rho_transposed.self_s": own.get("arrays.rho_transposed", 0.0),
        "arrays.dta1.bytes": cnt.get("arrays.dta1.bytes", 0),
        "arrays.dta1.s": s.get("arrays.read_dta1", 0.0) + s.get("arrays.write_dta1", 0.0),
        "bases.eval_bspline_basis.points": cnt.get("bases.eval_bspline_basis.points", 0),
        "bases.eval_bspline_basis.self_s": own.get("bases.eval_bspline_basis", 0.0),
        "bases.build_basis_set.s": s.get("bases.build_basis_set", 0.0),
        "config.load_config.s": s.get("config.load_config", 0.0),
        "simulate.build_noise_covariance.s": s.get("simulate.build_noise_covariance", 0.0),
        "simulate.simulate_euler.self_s": own.get("simulate.simulate_euler", 0.0),
        "design.build_design.s": s.get("design.build_design", 0.0),
        "solver.lambda_max.s": s.get("solver.lambda_max", 0.0),
        "solver.power_lipschitz.calls": calls.get("solver.power_lipschitz", 0),
        "solver.power_lipschitz.s": s.get("solver.power_lipschitz", 0.0),
        "solver.fit_component.calls": calls.get("solver.fit_component", 0),
        "solver.fit_component.self_s": own.get("solver.fit_component", 0.0),
        "solver.fit_component.s_per_iter": ratio(
            s.get("solver.fit_component", 0.0), cnt.get("solver.fit_component.iterations", 0)),
        "solver.fit_reduced_rank_stimulus.calls": calls.get("solver.fit_reduced_rank_stimulus", 0),
        "solver.fit_reduced_rank_stimulus.s": s.get("solver.fit_reduced_rank_stimulus", 0.0),
        "solver.fit_reduced_rank_stimulus.alternations":
            cnt.get("solver.fit_reduced_rank_stimulus.alternations", 0),
        "solver.fit_penalized.calls": calls.get("solver.fit_penalized", 0),
        "solver.fit_penalized.s": s.get("solver.fit_penalized", 0.0),
        "solver.fit_penalized.s_per_sweep": ratio(s.get("solver.fit_penalized", 0.0), sweeps),
        "solver.iterations.stimulus": iters["stimulus"],
        "solver.iterations.network": iters["network"],
        "solver.iterations.memory": iters["memory"],
        "solver.sweeps": sweeps,
        "solver.converged_ratio": ratio(sum(f.converged_outer for f in fits), len(fits)),
        "solver.residual_covariance.s": s.get("solver.residual_covariance", 0.0),
        "precision.graphical_lasso.s": s.get("precision.graphical_lasso", 0.0),
        "precision.graphical_lasso.sweeps": gl_sweeps,
        "precision.graphical_lasso.converged": ratio(sum(g.converged for g in glasso), len(glasso)),
        "precision.graphical_lasso.dual_gap": max((float(g.dual_gap) for g in glasso), default=0.0),
        "precision.graphical_lasso.s_per_sweep":
            ratio(s.get("precision.graphical_lasso", 0.0), gl_sweeps),
        "summary.compute_separation_profile.s": s.get("summary.compute_separation_profile", 0.0),
        "summary.compute_degree_maps.s": s.get("summary.compute_degree_maps", 0.0),
        "summary.weight_density.s": s.get("summary.weight_density", 0.0),
        "summary.evaluate_network_grid.calls": calls.get("summary.evaluate_network_grid", 0),
    }
    for command in ("simulate", "fit", "summarize"):
        out[f"cli.{command}.self_s"] = own.get(f"cli.{command}", 0.0)
    return out
