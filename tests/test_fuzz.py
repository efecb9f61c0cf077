"""Fuzz the command line with mutated inputs.

Every run must end with exit code 0, 2 (usage or configuration error) or
3 (numerical failure), and a failure must print exactly one line to
stderr besides warnings, never a traceback.  The draws are derandomized,
so the test is reproducible and needs no example database.
"""

import configparser
import contextlib
import io
import json
import os
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldnet.cli import main
from fieldnet.config import _SCHEMA

REPO = Path(__file__).resolve().parents[1]
QUICKSTART = REPO / "configs" / "quickstart.ini"
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# Grid and basis sizes set what every command allocates: the noise
# covariance alone holds (n_x * n_y)^2 doubles and the trajectory n_steps
# frames, so an unbounded draw would test the machine's memory rather than
# the program.  These keys take small values only, which keeps every example
# within a few MB; junk text still reaches them.
SIZE_KEYS = {"n_x", "n_y", "n_steps", "n_lags", "n_x_basis", "n_y_basis", "n_t_basis",
             "n_l_basis", "degree_space", "degree_time", "degree_lag"}
KEYS = sorted((section, key) for section, body in _SCHEMA.items() for key in body)

EXTREMES = [0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308]
JUNK = st.sampled_from(["", " ", "x", "nan", "-inf", "1e1", "0x4", "2.5", "%", "%%",
                        "%(seed)s", "\0", "true", "[1]", "#", ";"])
TEXT = st.text(st.characters(codec="utf-8"), max_size=12)
SIZES = st.one_of(st.integers(-1, 8), st.sampled_from([2.0, 2.5, None, True, [], {}]), JUNK)
VALUES = st.one_of(st.floats(), st.sampled_from(EXTREMES), st.integers(), st.booleans(),
                   st.none(), JUNK, TEXT)
# out_dir is where simulate writes: keep it inside the run's own directory
OUT_DIRS = TEXT.filter(lambda s: not s.strip().startswith("/") and ".." not in s)


def _value(section_key):
    _, key = section_key
    if key in SIZE_KEYS:
        return SIZES
    return OUT_DIRS if key == "out_dir" else VALUES


MUTATIONS = st.lists(st.sampled_from(KEYS).flatmap(
    lambda sk: st.tuples(st.just(sk), _value(sk))), max_size=3)


def _quickstart_sections():
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.read_string(QUICKSTART.read_text())
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _render(sections, fmt):
    """The config document as INI text or as JSON, values kept as drawn."""
    if fmt == "json":
        return json.dumps(sections)
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        for key, value in body.items():
            text = value if isinstance(value, str) else json.dumps(value)
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _run(argv, cwd):
    """Run one command in ``cwd``; return its exit code and stderr lines."""
    err = io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    return code, err.getvalue().splitlines()


def _assert_clean_exit(code, lines):
    assert code in (0, 2, 3), (code, lines)
    if code:
        errors = [ln for ln in lines if not ln.startswith("warning: ")]
        assert len(errors) == 1, errors
        assert errors[0].startswith("error: " if code == 2 else "numerical failure: "), errors


@FUZZ
@given(fmt=st.sampled_from(["ini", "json"]), mutations=MUTATIONS)
@example(fmt="ini", mutations=[(("io", "out_dir"), "runs/100%")])
@example(fmt="ini", mutations=[(("io", "out_dir"), "runs/%(seed)s")])
@example(fmt="ini", mutations=[(("grid", "x_hi"), 1e300)])
@example(fmt="ini", mutations=[(("simulate", "noise"), "gaussian"),
                               (("simulate", "noise_length"), 1e300)])
@example(fmt="ini", mutations=[(("simulate", "noise"), "gaussian"),
                               (("simulate", "noise_length"), 1e-300)])
@example(fmt="json", mutations=[(("io", "out_dir"), "runs/a\0b")])
@example(fmt="json", mutations=[(("grid", "n_steps"), 10**29)])
@example(fmt="ini", mutations=[(("grid", "x_hi"), "\n0")])
def test_simulate_on_mutated_config(fmt, mutations):
    sections = _quickstart_sections()
    for (section, key), value in mutations:
        sections.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"cfg.{fmt}"
        path.write_text(_render(sections, fmt), encoding="utf-8")
        # no --out: the drawn out_dir is where simulate writes, under tmp
        _assert_clean_exit(*_run(["simulate", "--config", str(path)], tmp))


@pytest.fixture(scope="module")
def quickstart_data(tmp_path_factory):
    """Quickstart data and a config that fits it on two penalty levels: the
    mutated file, not the length of the path, is under test."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["simulate", "--config", str(QUICKSTART), "--out", str(root / "sim")]) == 0
    config = root / "two_levels.ini"
    config.write_text(QUICKSTART.read_text().replace("n_lambdas = 5", "n_lambdas = 2"))
    return config, (root / "sim" / "data.dta1").read_bytes()


HEADER_TOKENS = st.one_of(st.integers(-2, 100).map(str), st.sampled_from(["DTA1", "DTA2"]),
                          JUNK, TEXT)
N_VALUES = 6 * 6 * 84  # entries of the quickstart data, (n_x, n_y, frames)
# (slot, double) writes one value, (byte offset, bytes) raw bytes
VALUE_EDITS = st.tuples(st.integers(0, N_VALUES - 1),
                        st.one_of(st.floats(), st.sampled_from(EXTREMES)))
BYTE_EDITS = st.tuples(st.integers(0, 14 + 8 * N_VALUES), st.binary(min_size=1, max_size=8))


@FUZZ
# most draws keep the header and the file size, so that a fit runs on them
@given(header=st.one_of(st.none(), st.none(), st.binary(max_size=20),
                        st.tuples(st.integers(0, 4), st.none() | HEADER_TOKENS)),
       values=st.lists(VALUE_EDITS, max_size=3), raw=st.lists(BYTE_EDITS, max_size=2),
       resize=st.sampled_from([0, 0, 0, -9, -1, 1, 8]))
@example(header=None, values=[(100, 1e300)], raw=[], resize=0)
def test_fit_on_mutated_data_file(quickstart_data, header, values, raw, resize):
    config, original = quickstart_data
    head, _, payload = original.partition(b"\n")
    payload = bytearray(payload)
    for slot, value in values:
        payload[8 * slot : 8 * slot + 8] = struct.pack("<d", value)
    if isinstance(header, bytes):
        head = header
    elif header is not None:
        # replace (or, for None, delete) one header token
        tokens = head.decode("ascii").split()
        position, token = header
        tokens[position : position + 1] = [] if token is None else [token]
        head = " ".join(tokens).encode("utf-8")
    data = bytearray(head + b"\n" + bytes(payload))
    for offset, chunk in raw:
        data[offset : offset + len(chunk)] = chunk
    data = data[: len(data) + resize] if resize < 0 else data + bytes(resize)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.dta1"
        path.write_bytes(bytes(data))
        argv = ["fit", "--config", str(config), "--data", str(path), "--out", f"{tmp}/fit"]
        _assert_clean_exit(*_run(argv, tmp))
