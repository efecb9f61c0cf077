"""Output checks on the artifacts each fieldnet command writes.

A command passes when it exited 0, wrote every file its manifest lists,
every objective trace in its fit report is non-increasing (with the slack
of acceptance criterion 7), and every summary CSV starts with its
documented header.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

MAP_HEADER = ["x_index", "y_index", "x", "y", "value"]
CSV_HEADERS = {
    "w_in.csv": MAP_HEADER,
    "w_out.csv": MAP_HEADER,
    "deg_in.csv": MAP_HEADER,
    "deg_out.csv": MAP_HEADER,
    "separation.csv": ["s_index", "t_index", "s", "delay", "value"],
    "density.csv": ["delay_bin", "value_bin", "delay_lo", "delay_hi", "value_lo",
                    "value_hi", "count"],
    "stimulus.csv": ["x_index", "y_index", "t", "value"],
}


def _report_rounds(report):
    rounds = [report]
    if "mrce" in report:
        rounds.append(report["mrce"]["first_round"])
    return rounds


def check_output(command, exit_code, out_dir):
    """Problems found in one command's output directory (empty if none)."""
    out_dir = Path(out_dir)
    if exit_code != 0:
        return [f"{command} exited {exit_code}"]
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return [f"{command}: no manifest.json"]
    manifest = json.loads(manifest_path.read_text())
    problems = [f"{command}: listed output {name} missing"
                for name in manifest["outputs"] if not (out_dir / name).is_file()]
    if problems:
        return problems
    if command == "fit":
        report = json.loads((out_dir / "report.json").read_text())
        for rnd in _report_rounds(report):
            for i, fit in enumerate(rnd["fits"]):
                trace = fit["objective_trace"]
                for prev, cur in zip(trace, trace[1:]):
                    if cur - prev > 1e-12 * max(1.0, abs(prev)):
                        problems.append(f"fit: objective rises at level {i}: {prev!r} -> {cur!r}")
                        break
    if command == "summarize":
        for name, header in CSV_HEADERS.items():
            with open(out_dir / name, newline="") as fh:
                first = next(csv.reader(fh), None)
            if first != header:
                problems.append(f"summarize: {name} header {first} != {header}")
    return problems


def tree_digest(root):
    """SHA-256 of every file under ``root`` keyed by relative path."""
    root = Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def path_objective(report):
    """Sum of the final penalized objectives over the unweighted path (the
    first round when the precision round ran), over the objective at zero
    coefficients (the first entry of the first level's trace, which starts
    from zero)."""
    rnd = report["mrce"]["first_round"] if "mrce" in report else report
    fits = rnd["fits"]
    return sum(f["objective_trace"][-1] for f in fits) / fits[0]["objective_trace"][0]


def report_counts(report):
    """Deterministic solver counts of a fit report, for exact-repeat checks."""
    return {
        "iterations": [[f["iterations"][b] for b in ("stimulus", "network", "memory")]
                       for rnd in _report_rounds(report) for f in rnd["fits"]],
        "sweeps": [f["n_sweeps"] for rnd in _report_rounds(report) for f in rnd["fits"]],
        "path_objective": repr(path_objective(report)),
    }
