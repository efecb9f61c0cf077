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
_REQUIRED = object()  # default of a key that must be given
_INDEX = np.iinfo(np.intp)  # every integer key must fit numpy's index type

_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be at least 1")


def _one_of(*choices):
    return (lambda v: v in choices), f"must be one of {', '.join(choices)}"


# section -> key -> (type, default[, rule]).  A default of None leaves the
# key absent; a rule is a (test, message) pair checked on the final value.
_SCHEMA = {
    "run": {"seed": (int, _REQUIRED, _NON_NEGATIVE)},
    "grid": {
        "n_x": (int, _REQUIRED), "n_y": (int, _REQUIRED), "n_steps": (int, _REQUIRED),
        "n_lags": (int, _REQUIRED), "dt": (float, _REQUIRED),
        "x_lo": (float, 0.0), "x_hi": (float, 1.0), "y_lo": (float, 0.0), "y_hi": (float, 1.0),
    },
    "basis": {
        "n_x_basis": (int, None), "n_y_basis": (int, None), "n_t_basis": (int, None),
        "n_l_basis": (int, None), "degree_space": (int, None), "degree_time": (int, None),
        "degree_lag": (int, None), "stim_onset": (float, None),
    },
    "simulate": {
        "stimulus": (str, "none", _one_of("none", "rank1")), "stimulus_scale": (float, 1.0),
        "stimulus_nonzeros": (int, 4, _NON_NEGATIVE), "network_nonzeros": (int, 0, _NON_NEGATIVE),
        "network_scale": (float, 0.0), "memory_scale": (float, 0.0),
        "noise": (str, "none", _one_of("none", "white", "gaussian")),
        "noise_scale": (float, 0.0, _NON_NEGATIVE),
        "noise_length": (float, 0.3, (lambda v: v > 0, "must be positive")),
    },
    "solver": {
        "tol_inner": (float, None, _NON_NEGATIVE), "max_inner": (int, None, _AT_LEAST_ONE),
        "tol_outer": (float, None, _NON_NEGATIVE), "max_sweeps": (int, None, _AT_LEAST_ONE),
        "tol_rank1": (float, None, _NON_NEGATIVE), "max_rank1": (int, None, _AT_LEAST_ONE),
        "mrce": (bool, False), "mrce_lambda_index": (int, None),
        "response": (str, "levels", _one_of("levels")),
    },
    "penalty": {
        # numpy spaces the path in float64, which counts exactly up to 2**53
        "n_lambdas": (int, 10, (lambda v: 1 <= v <= 2**53, "must lie in [1, 2**53]")),
        "nu": (float, 0.1, _NON_NEGATIVE),
        "lambda_min_ratio": (float, 1e-3, (lambda v: 0 < v <= 1, "must lie in (0, 1]")),
        "stim_start": (float, None), "stim_stop": (float, None),
        "stim_weight": (float, 0.1, _NON_NEGATIVE), "stim_window": (float, 0.1),
    },
    "io": {"out_dir": (str, _REQUIRED), "data": (str, None)},
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
    if key not in _SCHEMA[section]:
        raise ConfigError(f"[{section}] {key}: unknown key")
    kind = _SCHEMA[section][key][0]
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
    if kind is int and not _INDEX.min <= value <= _INDEX.max:
        raise ConfigError(f"[{section}] {key}: does not fit numpy's index type, got {text!r}")
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
    missing = [s for s in _REQUIRED_SECTIONS if s not in sections]
    if missing:
        raise ConfigError(f"missing required sections: {', '.join(missing)}")
    explicit = frozenset(sections)
    for name, keys in _SCHEMA.items():
        body = sections.setdefault(name, {})
        for key, (_, default, *rule) in keys.items():
            if default is _REQUIRED and key not in body:
                raise ConfigError(f"[{name}] {key}: required key missing")
            if default is not None:
                body.setdefault(key, default)
            for allowed, message in rule:
                if key in body and not allowed(body[key]):
                    raise ConfigError(f"[{name}] {key}: {message}, got {body[key]!r}")
    cfg = RunConfig(sections=sections, raw=raw, explicit=explicit)
    make_grid(cfg)  # validates dimensions early
    return cfg


def make_grid(cfg):
    g = cfg.sections["grid"]
    try:
        grid = Grid(
            n_x=g["n_x"], n_y=g["n_y"], n_steps=g["n_steps"], n_lags=g["n_lags"],
            dt=g["dt"], x_range=(g["x_lo"], g["x_hi"]), y_range=(g["y_lo"], g["y_hi"]),
        )
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from exc
    # the stimulus and memory scale with the cell area, the noise covariance
    # with its square
    if not math.isfinite(grid.cell_area * grid.cell_area):
        raise ConfigError(f"[grid] x_lo, x_hi, y_lo, y_hi: cell area {grid.cell_area:g} is "
                          f"too large, its square overflows")
    return grid


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
