"""The benchmark's workloads and the fieldnet commands each one runs.

Every workload is the pipeline ``simulate -> fit -> summarize`` on one
config under ``configs/``.  ``timed`` names the commands the closed loop
times; commands before the first timed one run once in set-up (the
fixture).  Instance ``i`` of a run with seed ``s`` uses ``[run] seed =
100 * s + i``, so a run's inputs follow from its seed alone.
"""

from __future__ import annotations

import configparser
import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
PIPELINE = ("simulate", "fit", "summarize")
INSTANCES_PER_SEED = 100


@dataclass(frozen=True)
class Workload:
    name: str
    timed: tuple
    # Config overrides for smoke mode: every workload at a tiny size.
    tiny: dict = field(default_factory=dict)

    @property
    def fixture(self):
        return PIPELINE[:PIPELINE.index(self.timed[0])]


WORKLOADS = {w.name: w for w in (
    Workload(
        "quickstart", ("simulate", "fit", "summarize"),
        {"grid": {"n_steps": 30}, "penalty": {"n_lambdas": 2}},
    ),
    Workload(
        "mrce_mid", ("simulate", "fit"),
        {"grid": {"n_x": 6, "n_y": 6, "x_hi": 6.0, "y_hi": 6.0, "n_steps": 30, "n_lags": 4},
         "basis": {"n_x_basis": 3, "n_y_basis": 3, "n_t_basis": 4, "n_l_basis": 2,
                   "degree_space": 1, "degree_time": 1}},
    ),
    Workload(
        "glasso_d100", ("simulate", "fit"),
        {"grid": {"n_x": 5, "n_y": 5, "x_hi": 5.0, "y_hi": 5.0, "n_steps": 30}},
    ),
    Workload(
        "summarize_lags", ("summarize",),
        {"grid": {"n_x": 4, "n_y": 4, "x_hi": 4.0, "y_hi": 4.0, "n_steps": 30, "n_lags": 3},
         "basis": {"n_x_basis": 3, "n_y_basis": 3}},
    ),
)}


def write_config(workload, seed, index, workdir, tiny=False):
    """Write instance ``index`` of ``workload`` for ``seed``; return its path."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(CONFIG_DIR / f"{workload.name}.ini")
    parser["run"]["seed"] = str(INSTANCES_PER_SEED * seed + index % INSTANCES_PER_SEED)
    for section, values in (workload.tiny if tiny else {}).items():
        for key, value in values.items():
            parser[section][key] = str(value)
    path = Path(workdir) / f"instance{index:02d}.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def command_argv(command, config, out_root, fit_dir=None):
    """Argument list and output directory of one command of the pipeline."""
    out_root = Path(out_root)
    sim, fit = out_root / "sim", fit_dir or out_root / "fit"
    if command == "simulate":
        return ["simulate", "--config", str(config), "--out", str(sim)], sim
    if command == "fit":
        return ["fit", "--config", str(config), "--data", str(sim / "data.dta1"),
                "--out", str(fit)], fit
    out = out_root / "summary"
    return ["summarize", "--config", str(config), "--fit", str(fit), "--out", str(out)], out


def run_command(argv):
    """Run one fieldnet command in this process; return (exit code, output)."""
    from fieldnet import cli

    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the benchmark counts the failure and keeps going
        code = -1
        buf.write(traceback.format_exc())
    return code, buf.getvalue()


def setup(workload, seed, workdir, tiny=False):
    """Everything before the first timed operation: imports, config load,
    basis build, input generation and one untimed warm-up command.

    Returns the fixture fit directory, or None when every pipeline command
    is timed.
    """
    from fieldnet.arrays import read_dta1
    from fieldnet.config import load_config, make_basis

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = write_config(workload, seed, 0, workdir, tiny)
    make_basis(load_config(config))
    # The fixture commands double as the warm-up; without a fixture the
    # warm-up is one simulate, which also takes the first LAPACK call.
    steps = workload.fixture or ("simulate",)
    root = workdir / ("fixture" if workload.fixture else "warmup")
    for command in steps:
        argv, out = command_argv(command, config, root)
        code, text = run_command(argv)
        if code != 0:
            raise RuntimeError(f"set-up {command} exited {code}:\n{text}")
    if "fit" not in workload.fixture:
        return None
    fit_dir = root / "fit"
    report = json.loads((fit_dir / "report.json").read_text())
    beta = read_dta1(fit_dir / f"lambda_{report['best_index']:02d}" / "beta.dta1")
    if not beta.any():
        raise RuntimeError("set-up fit has an all-zero network at the summarized level")
    return fit_dir
