import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fieldnet.arrays import read_dta1, write_dta1
from fieldnet.cli import main
from fieldnet.config import load_config, make_basis, make_grid
from fieldnet.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]
QUICKSTART = REPO / "configs" / "quickstart.ini"


def write_config(tmp_path, name="cfg.ini", **overrides):
    text = QUICKSTART.read_text()
    for key, value in overrides.items():
        text = text.replace(f"{key} = ", f"{key} = {value} #", 1)
    path = tmp_path / name
    path.write_text(text)
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

    def test_ini_and_json_equivalent(self, tmp_path):
        cfg = load_config(QUICKSTART)
        doc = {sec: dict(body) for sec, body in cfg.sections.items()}
        jpath = tmp_path / "cfg.json"
        jpath.write_text(json.dumps(doc))
        cfg2 = load_config(jpath)
        assert cfg2.sections == cfg.sections

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
        # alternating separate network and memory fits left 3 of the 5
        # levels unconverged on this config; the joint solve must do better
        sim, _, _ = pipeline
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["fit", "--config", str(QUICKSTART), "--data", str(sim / "data.dta1"),
                     "--out", str(out)]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: ")]
        assert len(warnings) < 3, warnings
        report = json.loads((out / "report.json").read_text())
        for fit in report["fits"]:
            assert fit["iterations"]["network"] == fit["iterations"]["memory"]
            # a converged stimulus must also be stationary
            if fit["converged"]["stimulus"]:
                assert fit["kkt"]["stimulus"] <= 1e-4 * fit["lambda"], fit
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
