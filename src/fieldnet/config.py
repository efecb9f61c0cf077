"""Run configuration: a sectioned key/value document (INI) or the same
schema as JSON.

Sections: ``run`` (seed), ``grid``, ``basis``, optional ``simulate``,
``solver``, ``penalty``, and ``io``.  Values are validated and turned
into the package's domain objects before any computation starts.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bases import Grid, build_basis_set, uniform_bspline_spec
from .errors import ConfigError
from .solver import SolverOptions, stimulus_weight_profile

_REQUIRED_SECTIONS = ("run", "grid", "basis", "io")

_SCHEMA = {
    "run": {"seed": int},
    "grid": {
        "n_x": int, "n_y": int, "n_steps": int, "n_lags": int, "dt": float,
        "x_lo": float, "x_hi": float, "y_lo": float, "y_hi": float,
    },
    "basis": {
        "n_x_basis": int, "n_y_basis": int, "n_t_basis": int, "n_l_basis": int,
        "degree_space": int, "degree_time": int, "degree_lag": int,
        "stim_onset": float,
    },
    "simulate": {
        "stimulus": str, "stimulus_scale": float, "stimulus_nonzeros": int,
        "network_nonzeros": int, "network_scale": float, "memory_scale": float,
        "noise": str, "noise_scale": float, "noise_length": float,
    },
    "solver": {
        "tol_inner": float, "max_inner": int, "tol_outer": float,
        "max_sweeps": int, "tol_rank1": float, "max_rank1": int,
        "kkt_tol_factor": float, "mrce": bool, "mrce_lambda_index": int,
        "response": str,
    },
    "penalty": {
        "n_lambdas": int, "lambda_min_ratio": float, "nu": float,
        "stim_start": float, "stim_stop": float, "stim_weight": float,
        "stim_window": float,
    },
    "io": {"out_dir": str, "data": str},
}

_DEFAULTS = {
    "grid": {"x_lo": 0.0, "x_hi": 1.0, "y_lo": 0.0, "y_hi": 1.0},
    "basis": {"n_x_basis": 8, "n_y_basis": 8, "n_t_basis": 27, "n_l_basis": 11,
              "degree_space": 2, "degree_time": 3},
    "simulate": {"stimulus": "none", "stimulus_scale": 1.0, "stimulus_nonzeros": 4,
                 "network_nonzeros": 0, "network_scale": 0.0, "memory_scale": 0.0,
                 "noise": "none", "noise_scale": 0.0, "noise_length": 0.3},
    "solver": {"mrce": False, "response": "levels"},
    "penalty": {"n_lambdas": 10, "lambda_min_ratio": 1e-3, "nu": 0.1,
                "stim_weight": 0.1, "stim_window": 0.1},
}


@dataclass
class RunConfig:
    """Validated configuration plus the raw bytes it was parsed from."""

    sections: dict
    raw: bytes = field(repr=False, default=b"")
    explicit: frozenset = frozenset()

    @property
    def seed(self):
        return self.sections["run"]["seed"]

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def sha256(self):
        return hashlib.sha256(self.raw).hexdigest()


def _coerce(section, key, text):
    kind = _SCHEMA[section].get(key)
    if kind is None:
        raise ConfigError(f"[{section}] {key}: unknown key")
    try:
        if kind is bool:
            if isinstance(text, bool):
                return text
            low = str(text).strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(text)
        return kind(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {text!r} as {kind.__name__}") from exc


def load_config(path):
    """Parse and validate a configuration file (INI or JSON)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    stripped = text.lstrip()
    sections = {}
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be an object of sections")
        for name, body in doc.items():
            if name not in _SCHEMA:
                raise ConfigError(f"[{name}]: unknown section")
            if not isinstance(body, dict):
                raise ConfigError(f"[{name}]: must be an object")
            sections[name] = {k: _coerce(name, k, v) for k, v in body.items()}
    else:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        for name in parser.sections():
            if name not in _SCHEMA:
                raise ConfigError(f"[{name}]: unknown section")
            body = {}
            for key, value in parser.items(name):
                if value.strip() == "":
                    continue
                body[key] = _coerce(name, key, value.strip())
            sections[name] = body
    explicit = frozenset(sections)
    for name, defaults in _DEFAULTS.items():
        body = sections.setdefault(name, {})
        for key, value in defaults.items():
            body.setdefault(key, value)
    missing = [s for s in _REQUIRED_SECTIONS if s not in explicit]
    if missing:
        raise ConfigError(f"missing required sections: {', '.join(missing)}")
    for section, keys in (("run", ("seed",)), ("grid", ("n_x", "n_y", "n_steps", "n_lags", "dt")),
                          ("io", ("out_dir",))):
        for key in keys:
            if key not in sections[section]:
                raise ConfigError(f"[{section}] {key}: required key missing")
    cfg = RunConfig(sections=sections, raw=raw, explicit=explicit)
    make_grid(cfg)  # validates dimensions early
    return cfg


def make_grid(cfg):
    g = cfg.sections["grid"]
    try:
        return Grid(
            n_x=g["n_x"], n_y=g["n_y"], n_steps=g["n_steps"], n_lags=g["n_lags"],
            dt=g["dt"], x_range=(g["x_lo"], g["x_hi"]), y_range=(g["y_lo"], g["y_hi"]),
        )
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from exc


def make_basis(cfg):
    grid = make_grid(cfg)
    b = cfg.sections["basis"]
    onset = b.get("stim_onset")
    try:
        lo_t = 0.0 if onset is None else float(onset)
        return build_basis_set(
            grid,
            spec_x=uniform_bspline_spec(b["degree_space"], b["n_x_basis"], *grid.x_range),
            spec_y=uniform_bspline_spec(b["degree_space"], b["n_y_basis"], *grid.y_range),
            spec_t=uniform_bspline_spec(b["degree_time"], b["n_t_basis"], lo_t, grid.duration),
            spec_l=uniform_bspline_spec(b.get("degree_lag", b["degree_time"]), b["n_l_basis"], -grid.tau, 0.0),
            stim_onset=onset,
        )
    except ValueError as exc:
        raise ConfigError(f"[basis]: {exc}") from exc


def make_solver_options(cfg):
    s = cfg.sections.get("solver", {})
    opts = SolverOptions()
    for key in ("tol_inner", "max_inner", "tol_outer", "max_sweeps", "tol_rank1",
                "max_rank1", "kkt_tol_factor"):
        if key in s:
            setattr(opts, key, s[key])
    return opts


def stimulus_weights(cfg, basis):
    """Per-coefficient stimulus weights from the onset/offset hook, or None."""
    p = cfg.sections.get("penalty", {})
    start, stop = p.get("stim_start"), p.get("stim_stop")
    if start is None and stop is None:
        return None
    profile = stimulus_weight_profile(
        basis.spec_t, start, stop, p.get("stim_window", 0.1), p.get("stim_weight", 0.1)
    )
    return np.broadcast_to(profile, (basis.p_x, basis.p_y, basis.p_t))
