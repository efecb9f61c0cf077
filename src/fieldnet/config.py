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
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .bases import Grid, default_basis_set
from .errors import ConfigError
from .solver import SolverOptions

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
        "mrce": bool, "mrce_lambda_index": int,
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
    "simulate": {"stimulus": "none", "stimulus_scale": 1.0, "stimulus_nonzeros": 4,
                 "network_nonzeros": 0, "network_scale": 0.0, "memory_scale": 0.0,
                 "noise": "none", "noise_scale": 0.0, "noise_length": 0.3},
    "solver": {"mrce": False, "response": "levels"},
    "penalty": {"n_lambdas": 10, "lambda_min_ratio": 1e-3, "nu": 0.1,
                "stim_weight": 0.1, "stim_window": 0.1},
}

_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be at least 1")


def _one_of(*choices):
    return (lambda v: v in choices), f"must be one of {', '.join(choices)}"


# Allowed values, checked once defaults are filled in: (test, message).
_RANGES = {
    "run": {"seed": _NON_NEGATIVE},
    "simulate": {
        "stimulus": _one_of("none", "rank1"), "stimulus_nonzeros": _NON_NEGATIVE,
        "network_nonzeros": _NON_NEGATIVE, "noise": _one_of("none", "white", "gaussian"),
        "noise_scale": _NON_NEGATIVE, "noise_length": (lambda v: v > 0, "must be positive"),
    },
    "solver": {
        "tol_inner": _NON_NEGATIVE, "max_inner": _AT_LEAST_ONE, "tol_outer": _NON_NEGATIVE,
        "max_sweeps": _AT_LEAST_ONE, "tol_rank1": _NON_NEGATIVE, "max_rank1": _AT_LEAST_ONE,
        "response": _one_of("levels"),
    },
    "penalty": {
        "n_lambdas": _AT_LEAST_ONE, "nu": _NON_NEGATIVE, "stim_weight": _NON_NEGATIVE,
        "lambda_min_ratio": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    },
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
        if isinstance(text, bool) or (kind is int and isinstance(text, float)
                                      and not text.is_integer()):
            raise ValueError(text)
        value = kind(text)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {text!r} as {kind.__name__}") from exc
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {text!r}")
    if kind is str and "\0" in value:
        raise ConfigError(f"[{section}] {key}: must not contain a NUL byte")
    return value


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
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be an object of sections")
    else:
        # no interpolation: INI values are read literally, as JSON's are
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                           interpolation=None)
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        doc = {name: {key: value.strip() for key, value in parser.items(name) if value.strip()}
               for name in parser.sections()}
    sections = {}
    for name, body in doc.items():
        if name not in _SCHEMA:
            raise ConfigError(f"[{name}]: unknown section")
        if not isinstance(body, dict):
            raise ConfigError(f"[{name}]: must be an object")
        sections[name] = {key: _coerce(name, key, value) for key, value in body.items()}
    explicit = frozenset(sections)
    for name, defaults in _DEFAULTS.items():
        body = sections.setdefault(name, {})
        for key, value in defaults.items():
            body.setdefault(key, value)
    missing = [s for s in _REQUIRED_SECTIONS if s not in explicit]
    if missing:
        raise ConfigError(f"missing required sections: {', '.join(missing)}")
    for section, rules in _RANGES.items():
        for key, (allowed, rule) in rules.items():
            value = sections[section].get(key)
            if value is not None and not allowed(value):
                raise ConfigError(f"[{section}] {key}: {rule}, got {value!r}")
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
    try:
        return default_basis_set(make_grid(cfg), **cfg.sections["basis"])
    except ValueError as exc:
        raise ConfigError(f"[basis]: {exc}") from exc


def make_solver_options(cfg):
    s = cfg.sections["solver"]
    return SolverOptions(**{f.name: s[f.name] for f in fields(SolverOptions) if f.name in s})


def stimulus_weight_profile(spec_t, onset, offset, window, low_weight=0.1):
    """Temporal penalty weights reproducing the onset/offset down-weighting.

    Functions whose Greville abscissa falls within ``window`` after the
    stimulus onset or offset get ``low_weight``; all others get one.
    """
    knots = np.asarray(spec_t.knots)
    p = spec_t.degree
    if p == 0:
        peaks = (knots[:-1] + knots[1:]) / 2.0
    else:
        peaks = np.array([knots[q + 1 : q + p + 1].mean() for q in range(spec_t.n_basis)])
    w = np.ones(spec_t.n_basis)
    for start in (onset, offset):
        if start is None:
            continue
        w[(peaks >= start) & (peaks <= start + window)] = low_weight
    return w


def stimulus_weights(cfg, basis):
    """Per-coefficient stimulus weights from the onset/offset hook, or None."""
    p = cfg.sections["penalty"]
    start, stop = p.get("stim_start"), p.get("stim_stop")
    if start is None and stop is None:
        return None
    profile = stimulus_weight_profile(basis.spec_t, start, stop, p["stim_window"],
                                      p["stim_weight"])
    return np.broadcast_to(profile, basis.coef_shapes["stimulus"])
