import csv
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from fieldnet import build_noise_covariance, cli, white_covariance
from fieldnet.arrays import read_dta1, write_dta1
from fieldnet.cli import main
from fieldnet.config import _REQUIRED, _SCHEMA, load_config, make_basis, make_grid
from fieldnet.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]
QUICKSTART = REPO / "configs" / "quickstart.ini"
SHIPPED_CONFIGS = [QUICKSTART, *sorted((REPO / "perfbench" / "configs").glob("*.ini"))]
RULES = [(section, key, spec[2]) for section, body in _SCHEMA.items()
         for key, spec in body.items() if len(spec) > 2]
REQUIRED_KEYS = [(section, key) for section, body in _SCHEMA.items()
                 for key, spec in body.items() if spec[1] is _REQUIRED]


def write_config(tmp_path, name="cfg.ini", **overrides):
    text = QUICKSTART.read_text()
    for key, value in overrides.items():
        text = text.replace(f"{key} = ", f"{key} = {value} #", 1)
    path = tmp_path / name
    path.write_text(text)
    return path


def quickstart_json(tmp_path, section, key, value=None):
    """Quickstart as a JSON file with one key set to ``value`` (or removed,
    for None)."""
    doc = {sec: dict(body) for sec, body in load_config(QUICKSTART).sections.items()}
    doc[section].pop(key, None)
    if value is not None:
        doc[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def tree_digest(root):
    root = Path(root)
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestConfig:
    @pytest.mark.parametrize("seed", [1.7, "1.7", True])
    def test_non_integral_int_rejected(self, tmp_path, seed):
        doc = {sec: dict(body) for sec, body in load_config(QUICKSTART).sections.items()}
        doc["run"]["seed"] = seed
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"\[run\] seed"):
            load_config(path)

    def test_integer_too_large_for_a_float_rejected(self, tmp_path):
        doc = {sec: dict(body) for sec, body in load_config(QUICKSTART).sections.items()}
        doc["grid"]["x_hi"] = 10**400
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"\[grid\] x_hi"):
            load_config(path)

    @staticmethod
    def assert_json_round_trip(tmp_path, config):
        cfg = load_config(config)
        doc = {sec: dict(body) for sec, body in cfg.sections.items()}
        jpath = tmp_path / "cfg.json"
        jpath.write_text(json.dumps(doc))
        cfg2 = load_config(jpath)
        assert cfg2.sections == cfg.sections

    def test_ini_and_json_equivalent(self, tmp_path):
        self.assert_json_round_trip(tmp_path, QUICKSTART)

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS,
                             ids=[f"{p.parent.name}/{p.name}" for p in SHIPPED_CONFIGS])
    def test_every_shipped_config_ini_and_json_equivalent(self, tmp_path, config):
        self.assert_json_round_trip(tmp_path, config)

    @pytest.mark.parametrize("section,key,rule", RULES,
                             ids=[f"{section}.{key}" for section, key, _ in RULES])
    def test_every_rule_names_its_key(self, tmp_path, section, key, rule):
        allowed, _ = rule
        candidates = {int: [-1, 0], float: [-1.0, 0.0, 2.0], str: ["bogus"]}
        bad = next(v for v in candidates[_SCHEMA[section][key][0]] if not allowed(v))
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: "):
            load_config(quickstart_json(tmp_path, section, key, bad))

    @pytest.mark.parametrize("section,key", REQUIRED_KEYS,
                             ids=[f"{section}.{key}" for section, key in REQUIRED_KEYS])
    def test_every_required_key_is_required(self, tmp_path, section, key):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: required key missing$"):
            load_config(quickstart_json(tmp_path, section, key))

    def test_missing_section_rejected(self, tmp_path):
        text = QUICKSTART.read_text().replace("[grid]", "[gird]")
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_names_key(self, tmp_path):
        text = QUICKSTART.read_text().replace("n_x = 6", "n_x = six")
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"\[grid\] n_x"):
            load_config(path)

    def test_inconsistent_dimensions_rejected(self, tmp_path):
        path = write_config(tmp_path, dt="-0.5")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_grid_and_basis_consistent(self):
        cfg = load_config(QUICKSTART)
        grid = make_grid(cfg)
        basis = make_basis(cfg)
        assert basis.grid == grid

    def test_stimulus_weight_hook(self, tmp_path):
        from fieldnet.config import stimulus_weights

        cfg = load_config(QUICKSTART)
        basis = make_basis(cfg)
        assert stimulus_weights(cfg, basis) is None  # no windows configured
        text = QUICKSTART.read_text().replace(
            "[penalty]", "[penalty]\nstim_start = 0.5\nstim_stop = 2.0\nstim_window = 1.0")
        path = tmp_path / "weighted.ini"
        path.write_text(text)
        cfg2 = load_config(path)
        w = stimulus_weights(cfg2, basis)
        assert w.shape == (basis.p_x, basis.p_y, basis.p_t)
        assert (w == cfg2.sections["penalty"]["stim_weight"]).any()
        assert (w == 1.0).any()


class TestSimulateCommand:
    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(QUICKSTART), "--out", str(out)]) == 0
        data = read_dta1(out / "data.dta1")
        cfg = load_config(QUICKSTART)
        grid = make_grid(cfg)
        assert data.shape == (grid.n_x, grid.n_y, grid.n_frames)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == cfg.seed
        assert manifest["config_sha256"] == cfg.sha256()
        for name in ("truth_alpha.dta1", "truth_beta.dta1", "truth_gamma.dta1"):
            assert (out / name).exists()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(QUICKSTART), "--out", str(out1)])
        main(["simulate", "--config", str(QUICKSTART), "--out", str(out2)])
        assert tree_digest(out1) == tree_digest(out2)

    def test_missing_simulate_section_exits_2(self, tmp_path):
        text = QUICKSTART.read_text().replace("[simulate]", "[solver2]")
        # removing the section header merges its keys into [basis]; build a
        # clean config without the simulate section instead
        lines = QUICKSTART.read_text().splitlines()
        keep, skip = [], False
        for ln in lines:
            if ln.strip() == "[simulate]":
                skip = True
                continue
            if skip and ln.startswith("["):
                skip = False
            if not skip:
                keep.append(ln)
        path = tmp_path / "nosim.ini"
        path.write_text("\n".join(keep))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_missing_grid_section_exits_2(self, tmp_path):
        lines = [ln for ln in QUICKSTART.read_text().splitlines()]
        out, skip = [], False
        for ln in lines:
            if ln.strip() == "[grid]":
                skip = True
                continue
            if skip and ln.startswith("["):
                skip = False
            if not skip:
                out.append(ln)
        path = tmp_path / "nogrid.ini"
        path.write_text("\n".join(out))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_divergent_dynamics_exit_3(self, tmp_path):
        path = write_config(tmp_path, name="boom.ini",
                            network_scale="4000.0", network_nonzeros="40")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("noise", ["none", "white", "gaussian"])
    def test_window_too_large_for_the_noise_names_its_keys(self, tmp_path, capsys, noise):
        # the cell area's square overflows; with no noise the stimulus alone
        # would blow up at step 0
        path = write_config(tmp_path, x_hi="1e300", noise=noise)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: [grid] x_lo, x_hi,"), lines

    def test_overflowing_noise_length_is_the_fully_correlated_limit(self, tmp_path):
        path = tmp_path / "noise.ini"
        path.write_text(QUICKSTART.read_text().replace(
            "noise = white", "noise = gaussian\nnoise_length = 1e300"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("length", ["1e-170", "1e-300", "1e-160"])
    def test_underflowing_noise_length_is_the_white_limit(self, tmp_path, monkeypatch, length):
        # 1e-170 and 1e-300 square to zero; 1e-160 squares to a subnormal
        # that overflows the exponent's ratio
        built = []

        def record(cov, grid):
            built.append(build_noise_covariance(cov, grid))
            return built[-1]

        monkeypatch.setattr(cli, "build_noise_covariance", record)
        path = tmp_path / "noise.ini"
        path.write_text(QUICKSTART.read_text().replace(
            "noise = white", f"noise = gaussian\nnoise_length = {length}"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        white = build_noise_covariance(white_covariance(0.3), make_grid(load_config(path)))
        assert np.array_equal(built[0].c_tilde, white.c_tilde)

    @pytest.mark.parametrize("noise", [
        "noise = white\nnoise_scale = -0.3",
        "noise = gaussian\nnoise_scale = 0.3\nnoise_length = 0",
        "noise = white\nnoise_scale = 0.3\nnoise_length = -1",
        "noise = white\nnoise_scale = nan",
        "noise = brown\nnoise_scale = 0.3",
    ], ids=["negative-scale", "gaussian-zero-length", "negative-length", "nan-scale",
            "unknown-kind"])
    def test_bad_noise_settings_exit_2(self, tmp_path, capsys, noise):
        path = tmp_path / "noise.ini"
        path.write_text(QUICKSTART.read_text().replace("noise = white\nnoise_scale = 0.3", noise))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert_single_error_line(capsys)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    sim = root / "sim"
    fit = root / "fit"
    summ = root / "summary"
    assert main(["simulate", "--config", str(QUICKSTART), "--out", str(sim)]) == 0
    assert main([
        "fit", "--config", str(QUICKSTART),
        "--data", str(sim / "data.dta1"), "--out", str(fit),
        "--truth-beta", str(sim / "truth_beta.dta1"),
    ]) == 0
    assert main([
        "summarize", "--config", str(QUICKSTART),
        "--fit", str(fit), "--out", str(summ),
    ]) == 0
    return sim, fit, summ


class TestFitAndSummarize:
    def test_fit_emits_one_directory_per_lambda(self, pipeline):
        _, fit, _ = pipeline
        report = json.loads((fit / "report.json").read_text())
        n = len(report["lambda_path"])
        cfg = load_config(QUICKSTART)
        assert n == cfg.sections["penalty"]["n_lambdas"]
        dirs = sorted(p.name for p in fit.glob("lambda_*"))
        assert len(dirs) == n
        for d in dirs:
            for block in ("alpha", "beta", "gamma"):
                assert (fit / d / f"{block}.dta1").exists()

    def test_report_contents(self, pipeline):
        _, fit, _ = pipeline
        report = json.loads((fit / "report.json").read_text())
        cfg = load_config(QUICKSTART)
        basis = make_basis(cfg)
        grid = make_grid(cfg)
        assert report["parameter_count"] == basis.n_parameters
        assert report["naive_var_parameter_count"] == grid.n_lags * grid.n_pixels**2
        assert "support_scores" in report
        for fitrec in report["fits"]:
            trace = np.asarray(fitrec["objective_trace"])
            assert (np.diff(trace) <= 1e-12 * np.maximum(1, np.abs(trace[:-1]))).all()

    def test_summaries_row_counts(self, pipeline):
        _, _, summ = pipeline
        cfg = load_config(QUICKSTART)
        grid = make_grid(cfg)
        for name in ("w_in", "w_out", "deg_in", "deg_out"):
            rows = (summ / f"{name}.csv").read_text().strip().splitlines()
            assert len(rows) == 1 + grid.n_pixels
        stim = (summ / "stimulus.csv").read_text().strip().splitlines()
        assert len(stim) == 1 + grid.n_pixels * grid.n_steps

    def test_summary_tables_read_back(self, pipeline):
        """Every summary CSV holds the summary arrays at the summarized level
        exactly, in the documented row order, with ``\\r\\n`` row ends."""
        from fieldnet.bases import DriftCoefficients, stimulus_frames
        from fieldnet.summary import (compute_degree_maps, compute_separation_profile,
                                      weight_density)

        _, fit, summ = pipeline
        cfg = load_config(QUICKSTART)
        grid, basis = make_grid(cfg), make_basis(cfg)
        best = json.loads((fit / "report.json").read_text())["best_index"]
        sub = fit / f"lambda_{best:02d}"
        coeffs = DriftCoefficients(*(read_dta1(sub / f"{name}.dta1")
                                     for name in ("alpha", "beta", "gamma")))
        maps = compute_degree_maps(coeffs.beta, basis)
        prof = compute_separation_profile(coeffs.beta, basis)
        dens = weight_density(coeffs.beta, basis)
        stim = stimulus_frames(coeffs, basis)
        assert np.abs(stim).max() > 0 and np.abs(maps.w_in).max() > 0

        map_header = ["x_index", "y_index", "x", "y", "value"]
        expected = {
            f"{name}.csv": (map_header, [(i, j, x, y, vals[i, j])
                                         for i, x in enumerate(grid.x_centers)
                                         for j, y in enumerate(grid.y_centers)])
            for name, vals in (("w_in", maps.w_in), ("w_out", maps.w_out),
                               ("deg_in", maps.deg_in), ("deg_out", maps.deg_out))
        }
        expected["separation.csv"] = (
            ["s_index", "t_index", "s", "delay", "value"],
            [(si, ti, s, t, prof.table[si, ti])
             for si, s in enumerate(prof.s_values) for ti, t in enumerate(prof.t_values)],
        )
        expected["density.csv"] = (
            ["delay_bin", "value_bin", "delay_lo", "delay_hi", "value_lo", "value_hi", "count"],
            [(di, vi, dens.delay_edges[di], dens.delay_edges[di + 1],
              dens.value_edges[vi], dens.value_edges[vi + 1], int(dens.counts[di, vi]))
             for di in range(dens.counts.shape[0]) for vi in range(dens.counts.shape[1])],
        )
        expected["stimulus.csv"] = (
            ["x_index", "y_index", "t", "value"],
            [(i, j, t, stim[i, j, k]) for k, t in enumerate(grid.model_times)
             for i in range(grid.n_x) for j in range(grid.n_y)],
        )

        def cell_matches(text, want):
            # integers print as integers; floats round-trip exactly
            return text == str(want) if isinstance(want, int) else float(text) == want

        for name, (header, rows) in expected.items():
            lines = (summ / name).read_bytes().split(b"\r\n")
            assert lines[-1] == b"" and len(lines) == len(rows) + 2, name
            assert not any(b"\r" in line or b"\n" in line for line in lines), name
            with open(summ / name, newline="") as fh:
                got_header, *got_rows = csv.reader(fh)
            assert got_header == header, name
            for r, (got, want) in enumerate(zip(got_rows, rows)):
                assert len(got) == len(want), (name, r)
                assert all(map(cell_matches, got, want)), (name, r, got, want)

    def test_recovery_line_reports_the_best_index(self, pipeline, tmp_path, capsys):
        sim, _, _ = pipeline
        capsys.readouterr()
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(QUICKSTART), "--data", str(sim / "data.dta1"),
                     "--out", str(out), "--truth-beta", str(sim / "truth_beta.dta1")]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("support recovery at lambda index ")]
        report = json.loads((out / "report.json").read_text())
        best = report["best_index"]
        scored = report["support_scores"][best]
        assert lines == [f"support recovery at lambda index {best}: "
                         f"recall {scored['recall']:.3f}, "
                         f"false positive rate {scored['false_positive_rate']:.3f}"]

    def test_reported_support_scores_match_artifacts(self, pipeline):
        from fieldnet.solver import support_scores

        sim, fit, _ = pipeline
        truth = read_dta1(sim / "truth_beta.dta1")
        report = json.loads((fit / "report.json").read_text())
        for i, scored in enumerate(report["support_scores"]):
            est = read_dta1(fit / f"lambda_{i:02d}" / "beta.dta1")
            again = support_scores(est, truth)
            assert again == scored

    def test_zero_data_fit_reports_zero_nonzeros(self, tmp_path):
        cfg = load_config(QUICKSTART)
        grid = make_grid(cfg)
        zero = np.zeros((grid.n_x, grid.n_y, grid.n_frames))
        zpath = tmp_path / "zero.dta1"
        write_dta1(zpath, zero)
        out = tmp_path / "fit0"
        assert main(["fit", "--config", str(QUICKSTART),
                     "--data", str(zpath), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for fitrec in report["fits"]:
            assert fitrec["n_nonzero"] == {"stimulus": 0, "network": 0, "memory": 0}

    def test_dimension_mismatch_exits_2(self, tmp_path):
        bad = tmp_path / "bad.dta1"
        write_dta1(bad, np.zeros((2, 2, 10)))
        assert main(["fit", "--config", str(QUICKSTART),
                     "--data", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_fit_artifacts_exit_2(self, tmp_path):
        assert main(["summarize", "--config", str(QUICKSTART),
                     "--fit", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "s")]) == 2


def stdlib_csv(path, header, columns):
    """The summary tables as the csv module writes them, from the columns
    broadcast to full size."""
    columns = np.broadcast_arrays(*columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(c.ravel().tolist() for c in columns)))


# values whose text is easy to get wrong: a signed zero, the smallest
# subnormal, exponent forms at both ends, a sum that needs 17 digits
AWKWARD_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2]


class TestCsvWriter:
    @pytest.mark.parametrize("shape", [(3, 5), (2, 3, 5), (0, 5)],
                             ids=["map", "stimulus-like", "no-rows"])
    def test_bytes_equal_the_csv_module(self, tmp_path, shape):
        loc = np.random.default_rng(11)
        full = loc.standard_normal(shape)
        full.ravel()[:len(AWKWARD_FLOATS)] = AWKWARD_FLOATS[:full.size]
        # np.ix_-style index and coordinate columns, one per axis, beside
        # full-size float and integer columns
        index = np.ix_(*map(range, shape))
        index[0][-1:] = 2**53 + 1  # an integer no float holds
        coords = [np.resize(AWKWARD_FLOATS, i.shape) for i in index]
        counts = (2**53 + 1) * (full > 0)
        header = [f"c{n}" for n in range(2 * len(shape) + 2)]
        columns = [*index, *coords, full, counts]
        cli._write_csv(tmp_path / "ours.csv", header, columns)
        stdlib_csv(tmp_path / "csv.csv", header, columns)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()
        assert (tmp_path / "ours.csv").read_bytes().count(b"\r\n") == 1 + full.size

    def test_summaries_equal_the_csv_module(self, pipeline, tmp_path, monkeypatch):
        _, fit, summ = pipeline
        monkeypatch.setattr(cli, "_write_csv", stdlib_csv)
        out = tmp_path / "summary"
        assert main(["summarize", "--config", str(QUICKSTART), "--fit", str(fit),
                     "--out", str(out)]) == 0
        assert tree_digest(out) == tree_digest(summ)


def mrce_config(tmp_path, lambda_index):
    text = QUICKSTART.read_text().replace(
        "mrce = false", f"mrce = true\nmrce_lambda_index = {lambda_index}")
    path = tmp_path / "mrce.ini"
    path.write_text(text)
    return path


def assert_single_error_line(capsys, prefix="error: "):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines


def quickstart_frames(value):
    """A DTA1 file of the quickstart data's shape, zero but for one entry."""
    frames = np.zeros((6, 6, 84))
    frames[1, 2, 3] = value
    return b"DTA1 3 6 6 84\n" + frames.astype("<f8").tobytes(order="F")


MALFORMED_DTA1 = {
    # well-formed files whose values no fit can use
    "nan-entry": quickstart_frames(np.nan),
    "inf-entry": quickstart_frames(np.inf),
    "wrong-magic": b"NOPE\n",
    "non-ascii-header": b"\xff\xfe 3\n",
    "missing-order": b"DTA1\n",
    "non-integer-order": b"DTA1 x 3\n",
    "non-integer-dimension": b"DTA1 3 6 six 84\n",
    "negative-dimension": b"DTA1 2 -1 -1\n" + b"\0" * 8,
    "dimension-count-differs-from-order": b"DTA1 3 6 6\n" + b"\0" * 8 * 36,
    "payload-too-short": b"DTA1 3 6 6 84\n" + b"\0" * 8,
    "payload-partial-value": b"DTA1 1 1\n" + b"\0" * 3,
}


BAD_CONFIG_VALUES = {
    "lambda-min-ratio-zero": ("fit", {"lambda_min_ratio": "0"}),
    "lambda-min-ratio-negative": ("fit", {"lambda_min_ratio": "-0.1"}),
    "lambda-min-ratio-above-one": ("fit", {"lambda_min_ratio": "2"}),
    "lambda-min-ratio-nan": ("fit", {"lambda_min_ratio": "nan"}),
    "nu-negative": ("fit", {"mrce": "true", "nu": "-1"}),
    "nu-nan": ("fit", {"mrce": "true", "nu": "nan"}),
    "response-increments": ("fit", {"response": "increments"}),
    "response-unknown": ("fit", {"response": "foo"}),
    "max-sweeps-zero": ("fit", {"max_sweeps": "0"}),
    "tol-inner-negative": ("fit", {"tol_inner": "-1e-6"}),
    "network-nonzeros-negative": ("simulate", {"network_nonzeros": "-1"}),
    "stimulus-nonzeros-negative": ("simulate", {"stimulus_nonzeros": "-2"}),
    "stimulus-unknown": ("simulate", {"stimulus": "rank2"}),
    "seed-negative": ("simulate", {"seed": "-1"}),
    "dt-nan": ("simulate", {"dt": "nan"}),
    "n-lambdas-beyond-index-type": ("fit", {"n_lambdas": str(10**29)}),
    "n-lambdas-2-to-the-61": ("fit", {"n_lambdas": str(2**61)}),
    "n-lambdas-index-type-max": ("fit", {"n_lambdas": str(2**63 - 1)}),
    "seed-beyond-index-type": ("simulate", {"seed": str(2**63)}),
}


class TestFitInputErrors:
    @pytest.mark.parametrize("command,overrides", list(BAD_CONFIG_VALUES.values()),
                             ids=list(BAD_CONFIG_VALUES))
    def test_bad_config_value_exits_2(self, pipeline, tmp_path, capsys, command, overrides):
        sim, _, _ = pipeline
        argv = [command, "--config", str(write_config(tmp_path, **overrides)),
                "--out", str(tmp_path / "o")]
        if command == "fit":
            argv += ["--data", str(sim / "data.dta1")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"] {list(overrides)[-1]}: " in err[0], err

    @pytest.mark.parametrize("report", ["not json", "{}", "[]"],
                             ids=["not-json", "no-best-index", "not-an-object"])
    def test_bad_fit_report_exits_2(self, tmp_path, capsys, report):
        fit = tmp_path / "fit"
        fit.mkdir()
        (fit / "report.json").write_text(report)
        code = main(["summarize", "--config", str(QUICKSTART), "--fit", str(fit),
                     "--out", str(tmp_path / "s")])
        assert code == 2
        assert_single_error_line(capsys)

    @pytest.mark.parametrize("name,fault", [("beta", "nan"), ("gamma", "inf"),
                                            ("beta", "shape"), ("alpha", "shape")])
    def test_unusable_coefficients_exit_2_naming_the_file(self, pipeline, tmp_path, capsys,
                                                          name, fault):
        _, fit, _ = pipeline
        copy = tmp_path / "fit"
        shutil.copytree(fit, copy)
        best = json.loads((fit / "report.json").read_text())["best_index"]
        path = copy / f"lambda_{best:02d}" / f"{name}.dta1"
        block = read_dta1(path)
        if fault == "shape":
            block = block[1:]
        else:
            block.flat[-1] = float(fault)
        write_dta1(path, block)
        out = tmp_path / "s"
        capsys.readouterr()
        code = main(["summarize", "--config", str(QUICKSTART), "--fit", str(copy),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err
        assert not out.exists()

    def test_wrongly_shaped_truth_exits_2_before_fitting(self, pipeline, tmp_path, capsys):
        sim, _, _ = pipeline
        truth = tmp_path / "truth.dta1"
        write_dta1(truth, np.zeros((3, 3, 3, 3)))
        out = tmp_path / "o"
        code = main(["fit", "--config", str(QUICKSTART), "--data", str(sim / "data.dta1"),
                     "--out", str(out), "--truth-beta", str(truth)])
        assert code == 2
        assert_single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("raw", list(MALFORMED_DTA1.values()), ids=list(MALFORMED_DTA1))
    def test_malformed_data_file_exits_2(self, tmp_path, capsys, raw):
        bad = tmp_path / "bad.dta1"
        bad.write_bytes(raw)
        code = main(["fit", "--config", str(QUICKSTART),
                     "--data", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert_single_error_line(capsys)
        assert not (tmp_path / "o").exists()

    def test_huge_finite_data_is_a_numerical_failure(self, tmp_path, capsys):
        bad = tmp_path / "huge.dta1"
        bad.write_bytes(quickstart_frames(1e200))
        code = main(["fit", "--config", str(QUICKSTART),
                     "--data", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        assert_single_error_line(capsys, prefix="numerical failure: ")

    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 7.28 TiB"), MemoryError()],
                             ids=["numpy-message", "bare"])
    def test_input_too_large_to_allocate_exits_2(self, pipeline, tmp_path, capsys,
                                                 monkeypatch, exc):
        # a stand-in for an allocation that fails: a test never allocates for real
        def fail(*args, **kwargs):
            raise exc

        sim, _, _ = pipeline
        monkeypatch.setattr(cli, "default_lambda_path", fail)
        code = main(["fit", "--config", str(QUICKSTART),
                     "--data", str(sim / "data.dta1"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert_single_error_line(capsys, prefix=f"error: {exc}" if str(exc) else "error: out of")

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"\xff\xfe[run]\nseed = 1\n")
        code = main(["fit", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert_single_error_line(capsys)

    @pytest.mark.parametrize("flag", ["--data", "--config"])
    def test_directory_given_as_file_exits_2(self, tmp_path, capsys, flag):
        paths = {"--config": str(QUICKSTART), "--data": str(tmp_path / "data.dta1")}
        paths[flag] = str(tmp_path)
        code = main(["fit", "--config", paths["--config"], "--data", paths["--data"],
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert_single_error_line(capsys)

    def test_empty_penalty_path_exits_2(self, pipeline, tmp_path, capsys):
        sim, _, _ = pipeline
        path = write_config(tmp_path, n_lambdas="0")
        code = main(["fit", "--config", str(path),
                     "--data", str(sim / "data.dta1"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert_single_error_line(capsys)

    @pytest.mark.parametrize("index", [-1, 5, 9])
    def test_mrce_lambda_index_outside_path_exits_2(self, pipeline, tmp_path, capsys, index):
        sim, _, _ = pipeline
        code = main(["fit", "--config", str(mrce_config(tmp_path, index)),
                     "--data", str(sim / "data.dta1"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert_single_error_line(capsys)

    def test_lambda_index_flag_overrides_config(self, pipeline, tmp_path):
        sim, _, _ = pipeline
        out = tmp_path / "o"
        code = main(["fit", "--config", str(mrce_config(tmp_path, 0)), "--lambda-index", "2",
                     "--data", str(sim / "data.dta1"), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mrce"]["lambda_index"] == 2


class TestConvergenceWarnings:
    def test_shipped_quickstart_converges_at_most_levels(self, pipeline, tmp_path, capsys):
        # the shipped sweep budget lets every level converge: no warning,
        # and every level's objective stalls over certified sub-fits
        sim, _, _ = pipeline
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["fit", "--config", str(QUICKSTART), "--data", str(sim / "data.dta1"),
                     "--out", str(out)]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: ")]
        assert not warnings, warnings
        report = json.loads((out / "report.json").read_text())
        for fit in report["fits"]:
            assert fit["converged_outer"], fit
            assert fit["iterations"]["network"] == fit["iterations"]["memory"]
            # the stimulus alternates until it is stationary
            assert fit["converged"]["stimulus"], fit
            assert fit["kkt"]["stimulus"] <= 1e-4 * fit["lambda"], fit
            # the joint working set holds the returned support
            assert fit["working_set"] >= fit["n_nonzero"]["network"] + fit["n_nonzero"]["memory"]
        assert any(f["kkt"]["stimulus"] > 0 for f in report["fits"])

    def test_unconverged_levels_warn_and_exit_0(self, pipeline, tmp_path, capsys):
        sim, _, _ = pipeline
        out = tmp_path / "o"
        capsys.readouterr()
        code = main(["fit", "--config", str(write_config(tmp_path, max_sweeps="1")),
                     "--data", str(sim / "data.dta1"), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        unconverged = [i for i, f in enumerate(report["fits"]) if not f["converged_outer"]]
        assert unconverged
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: ")]
        assert len(warnings) == len(unconverged), warnings
        for i, line in zip(unconverged, warnings):
            assert f"lambda index {i} " in line and "max_sweeps = 1" in line, line
            # the reason: the last sweep's relative objective change against
            # tol_outer, and the blocks whose last sub-fit was not certified
            fit = report["fits"][i]
            start, end = fit["objective_trace"][-3], fit["objective_trace"][-1]
            change = abs(start - end) / max(1.0, abs(start))
            assert f"relative objective change {change:.3g} (tol_outer = 0.0001)" in line, line
            failed = [name for name, ok in fit["converged"].items() if not ok]
            assert line.endswith(f"uncertified sub-fits: {', '.join(failed) or 'none'}"), line

    def test_mrce_warns_for_both_rounds_and_reports_glasso_certificate(
            self, pipeline, tmp_path, capsys):
        sim, _, _ = pipeline
        text = mrce_config(tmp_path, 2).read_text().replace("max_sweeps = ", "max_sweeps = 1 #", 1)
        path = tmp_path / "mrce1.ini"
        path.write_text(text)
        out = tmp_path / "o"
        capsys.readouterr()
        code = main(["fit", "--config", str(path), "--data", str(sim / "data.dta1"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        mrce = report["mrce"]
        assert mrce["precision_sweeps"] >= 1
        assert isinstance(mrce["precision_solves"], int) and mrce["precision_solves"] >= 0
        if mrce["precision_converged"]:
            assert 0 <= mrce["precision_dual_gap"] <= 1e-6
        rounds = {"lambda index": report, "first-round lambda index": mrce["first_round"]}
        err = capsys.readouterr().err
        for label, rnd in rounds.items():
            want = [i for i, f in enumerate(rnd["fits"]) if not f["converged_outer"]]
            got = [int(line.split(label + " ")[1].split()[0]) for line in err.splitlines()
                   if line.startswith(f"warning: {label} ")]
            assert got == want and want, (label, err)
        glasso = [line for line in err.splitlines() if "graphical lasso" in line]
        assert len(glasso) == (0 if mrce["precision_converged"] else 1)
