"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import fieldnet.arrays  # noqa: E402
import fieldnet.bases  # noqa: E402
import fieldnet.summary  # noqa: E402
from checks import check_output  # noqa: E402
from microbench import _chain_products  # noqa: E402
from tracer import Tracer, summarize_spans  # noqa: E402


def test_tracer_patches_every_binding_and_restores():
    original = fieldnet.bases.eval_bspline_basis
    assert fieldnet.summary.eval_bspline_basis is original
    tracer = Tracer()
    tracer.install()
    try:
        assert fieldnet.bases.eval_bspline_basis is not original
        assert fieldnet.summary.eval_bspline_basis is fieldnet.bases.eval_bspline_basis
        a = np.ones((3, 4))
        fieldnet.arrays.rho_chain([np.eye(2, 3), np.eye(5, 4)], a)
    finally:
        tracer.uninstall()
    assert fieldnet.bases.eval_bspline_basis is original
    assert fieldnet.summary.eval_bspline_basis is original
    op = summarize_spans(tracer)
    assert op["calls"]["arrays.rho"] == 2
    assert 0.0 <= op["self_s"]["arrays.rho"] <= op["s"]["arrays.rho"]


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.open("outer")
    tracer.open("inner")
    tracer.close()
    tracer.close()
    (inner_id, _, i0, i1, inner_parent, _), (outer_id, _, o0, o1, _, outer_self) = tracer.spans
    assert inner_parent == outer_id
    assert outer_self == pytest.approx((o1 - o0) - (i1 - i0))


def test_chain_products_follow_the_mode_rotation():
    # (2x3) onto mode 1 of a 3x4 array, then (5x4) onto the rotated 4x2 array.
    assert _chain_products([(2, 3), (5, 4)], (3, 4)) == [(2, 3, 4), (5, 4, 2)]


def _fit_dir(tmp_path, trace):
    report = {"fits": [{"objective_trace": trace, "iterations": {}, "n_sweeps": 1}]}
    (tmp_path / "report.json").write_text(json.dumps(report))
    (tmp_path / "manifest.json").write_text(json.dumps({"outputs": ["report.json"]}))
    return tmp_path


def test_checks_flag_a_rising_objective_and_missing_outputs(tmp_path):
    assert check_output("fit", 0, _fit_dir(tmp_path, [3.0, 2.0, 2.0])) == []
    assert check_output("fit", 0, _fit_dir(tmp_path, [3.0, 2.0, 2.5]))
    assert check_output("fit", 3, tmp_path) == ["fit exited 3"]
    (tmp_path / "report.json").unlink()
    assert check_output("fit", 0, tmp_path)


def test_checks_flag_a_wrong_csv_header(tmp_path):
    from checks import CSV_HEADERS

    for name, header in CSV_HEADERS.items():
        (tmp_path / name).write_text(",".join(header) + "\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"outputs": sorted(CSV_HEADERS)}))
    assert check_output("summarize", 0, tmp_path) == []
    (tmp_path / "density.csv").write_text("delay_bin,count\n")
    assert check_output("summarize", 0, tmp_path)


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quickstart", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_smoke_every_workload_matches_the_metric_schema():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
