import csv
import io
import json
import math
import os
import shutil
import subprocess
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import densum.analysis
import densum.cli
import densum.climate
from conftest import GOLDEN_FIT, GOLDEN_FRAME, run_python
from densum.analysis import (
    AnalysisReport,
    CoefficientRow,
    SeriesDiagnostics,
    _load_table_csv,
    _series_diagnostics,
    fit_frame,
    load_table,
)
from densum.cli import _parse_range_flag, _write_plot_csvs, main
from densum.climate import write_climate_csv
from densum.concentration import bernstein_tail, ci_linear
from densum.estimators import acf_phi_hat, ols_fit
from densum.simulation import (
    RESULTS_VERSION,
    CoverageReport,
    read_results_csv,
    write_results_csv,
)

LOG40 = math.log(40.0)


def write_csv(path, columns):
    names = list(columns)
    length = len(next(iter(columns.values())))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for i in range(length):
            writer.writerow([repr(float(columns[c][i])) for c in names])
    return str(path)


@pytest.fixture
def unit_column(tmp_path):
    """101 values filling [0, 1] exactly; mean exactly 0.5."""
    y = np.arange(101) / 100.0
    return write_csv(tmp_path / "unit.csv", {"y": y})


@pytest.fixture
def unread(tmp_path):
    """An input that does not exist.  A command that read it before checking
    its settings would fail with [Errno 2], not with the setting's error."""
    return str(tmp_path / "never-written.csv")


@pytest.fixture
def regression_csv(tmp_path):
    rng = np.random.default_rng(42)
    x = np.linspace(-1.0, 2.0, 120)
    y = 2.0 + 3.0 * x + rng.uniform(-0.5, 0.5, size=120)
    return write_csv(tmp_path / "reg.csv", {"x": x, "y": y})


def sample_report(**overrides):
    row = dict(
        table=1, n=100, phi=0.06, mean_lower=0.41, mean_upper=0.58,
        ci_wald=0.5045, ci_u=0.995, ci_r=None, a_hat=1.41, av_star=1.4457,
        verdict="boundary", seed=3,
    )
    row.update(overrides)
    return CoverageReport(**row)


class TestResultsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_results_csv([sample_report(), sample_report(phi=0.1, verdict="violated")], path)
        lines = path.read_text().splitlines()
        assert lines[0] == RESULTS_VERSION
        assert lines[1].split(",") == [
            "table", "n", "phi", "alpha_shape", "threshold", "coefficient",
            "mean_lower", "mean_upper", "ci_wald", "ci_u", "ci_r",
            "a_hat", "av_star", "verdict", "seed", "repair_lambda",
        ]
        rows = read_results_csv(path)
        assert len(rows) == 2
        assert rows[0]["phi"] == "0.06"
        assert rows[0]["ci_r"] == ""  # None round-trips as an empty field
        assert rows[1]["verdict"] == "violated"
        assert rows[0]["seed"] == "3"

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_results_csv([sample_report(a_hat=1.234567891)], path)
        assert read_results_csv(path)[0]["a_hat"] == "1.23457"

    def test_version_line_required(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("table,n\n1,100\n")
        with pytest.raises(ValueError, match="version comment"):
            read_results_csv(path)


class TestSimulateCommand:
    def test_writes_versioned_csv(self, tmp_path, capsys):
        out = tmp_path / "t2.csv"
        rc = main(["simulate", "--table", "2", "--shape", "10", "--reps", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == RESULTS_VERSION
        rows = read_results_csv(out)
        assert len(rows) == 1
        # feasibility threshold for Beta(10,10) at n=500: 18/1497 = 0.0120240...
        assert rows[0]["threshold"] == "0.012024"
        assert rows[0]["verdict"] in ("holds", "boundary", "violated")
        stdout = capsys.readouterr().out
        assert "table 2 n=500" in stdout and "shape=10" in stdout
        assert f"wrote 1 rows to {out}" in stdout

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["simulate", "--table", "1", "--n", "100", "--phi", "0", "--reps", "2"])
        assert rc == 0
        assert (tmp_path / "table1_results.csv").exists()

    def test_infeasible_phi_fails_cleanly(self, tmp_path, capsys):
        rc = main(["simulate", "--table", "1", "--n", "100", "--phi", "-0.9",
                   "--reps", "2", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_phi_star_alias_reaches_table3(self, tmp_path):
        out = tmp_path / "t3.csv"
        rc = main(["simulate", "--table", "3", "--n", "100", "--phi-star", "0.1",
                   "--reps", "3", "--out", str(out)])
        assert rc == 0
        rows = read_results_csv(out)
        assert [r["coefficient"] for r in rows] == ["beta0", "beta1"]
        assert all(r["phi"] == "0.1" for r in rows)

    def test_repaired_cells_are_noted_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "t3.csv"
        flags = ["simulate", "--table", "3", "--n", "100", "--reps", "20", "--out", str(out)]
        assert main(flags + ["--phi", "-0.15"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "note: table 3 n=100 phi*=-0.15: the correlation was not positive definite; "
            "shrunk toward the identity with lambda=0.1\n"
        )
        assert "shrunk" not in captured.out
        assert {r["repair_lambda"] for r in read_results_csv(out)} == {"0.1"}
        assert main(flags) == 0  # no cell of the default grid is repaired at n = 100
        assert capsys.readouterr().err == ""

    def test_config_file_fills_in_missing_flags(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[table1]\nn = 100\nphi = 0.06\nreps = 2\nseed = 9\n")
        out = tmp_path / "t1.csv"
        assert main(["simulate", "--table", "1", "-c", str(cfg), "--out", str(out)]) == 0
        rows = read_results_csv(out)
        assert len(rows) == 1
        assert rows[0]["phi"] == "0.06"
        assert rows[0]["seed"] == "9"

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[table1]\nn = 100\nphi = 0.06\nreps = 2\n")
        out = tmp_path / "t1.csv"
        assert main(["simulate", "--table", "1", "-c", str(cfg), "--phi", "0.2",
                     "--out", str(out)]) == 0
        assert read_results_csv(out)[0]["phi"] == "0.2"

    def test_missing_output_directory_fails_before_the_work(self, tmp_path, no_work, capsys):
        missing = tmp_path / "missing" / "dir"
        rc = main(["simulate", "--table", "1", "--reps", "300", "--out", str(missing / "x.csv")])
        assert rc == 1
        assert f"output directory {missing} does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--table", "3", "--phi", "inf"], "phi must be finite, got inf"),
            (["--table", "3", "--phi-star", "nan"], "phi must be finite, got nan"),
            (["--table", "2", "--shape", "inf"], "shape must be finite, got inf"),
            (["--table", "1", "--shape", "5"], "shape sets table 2's Beta shapes; table 1 has none"),
            (["--table", "3", "--shape", "5"], "shape sets table 2's Beta shapes; table 3 has none"),
            (["--table", "1", "--seed", "-1"], "master_seed must be a nonnegative integer, got -1"),
            (["--table", "1", "--n", "200"], "table 1 is defined for n in (100, 500, 1500)"),
            (["--table", "2", "--shape", "-1"], "beta shape must be positive, got -1.0"),
            # positive and finite, but the Beta variance's terms under- or overflow
            (["--table", "2", "--shape", "1e-300"], "beta shape 1e-300 is too extreme: the "
                                                    "variance of Beta(1e-300, 1e-300) under-"),
            # subnormal terms: the variance comes out positive but 1e-8 off
            (["--table", "2", "--shape", "1e-158"], "beta shape 1e-158 is too extreme"),
            (["--table", "2", "--shape", "1e300"], "beta shape 1e+300 is too extreme: the "
                                                   "variance of Beta(1e+300, 1e+300) under-"),
            # -0.005 keeps table 1's n = 100 matrix positive definite, not n = 500's
            (["--table", "1", "--phi", "-0.005"], "phi = -0.005 needs -1/(n-1) = -0.002004 < "
                                                  "phi < 1 for an exchangeable correlation at n = 500"),
            (["--table", "2", "--n", "15"], "n must be at least 20 ("),
            (["--table", "2", "--n", "1"], "n must be at least 20 ("),
            (["--table", "3", "--n", "15"], "n must be at least 20 ("),
            (["--table", "3", "--n", "1"], "n must be at least 20 ("),
        ],
    )
    def test_bad_settings_fail_before_the_work(self, flags, message, tmp_path, no_work, capsys):
        out = tmp_path / "x.csv"
        rc = main(["simulate", *flags, "--reps", "2", "--out", str(out)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_env_seed_is_named(self, tmp_path, no_work, monkeypatch, capsys):
        monkeypatch.setenv("DENSUM_SEED", "abc")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--table", "1", "--reps", "2", "--out", str(out)]) == 1
        assert "error: DENSUM_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_value_is_named(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[table1]\nseed = abc\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", "-c", str(config), "--table", "1", "--out", str(out)]) == 1
        assert "error: [table1] seed must be int, got 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_shape_outside_table_2_is_refused(self, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text("[table3]\nshape = 5\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", "-c", str(config), "--table", "3", "--out", str(out)]) == 1
        assert "error: shape sets table 2's Beta shapes; table 3 has none" in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_beats_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DENSUM_SEED", "123")
        out = tmp_path / "t1.csv"
        assert main(["simulate", "--table", "1", "--n", "100", "--phi", "0",
                     "--reps", "2", "--seed", "7", "--out", str(out)]) == 0
        assert read_results_csv(out)[0]["seed"] == "123"


class TestCiCommand:
    def read_payload(self, path):
        return json.loads(path.read_text())

    def test_u_sharp_endpoints(self, unit_column, tmp_path):
        out = tmp_path / "ci.json"
        rc = main(["ci", unit_column, "--column", "y", "--method", "u", "--out", str(out)])
        assert rc == 0
        payload = self.read_payload(out)
        half = math.sqrt(LOG40 / (6.0 * 101.0))
        assert payload["method"] == "u_sharp"
        assert payload["level"] == 0.95
        assert payload["lower"] == pytest.approx(0.5 - half, abs=1e-12)
        assert payload["upper"] == pytest.approx(0.5 + half, abs=1e-12)

    def test_default_method_is_u_sharp(self, unit_column, tmp_path, capsys):
        out = tmp_path / "ci.json"
        assert main(["ci", unit_column, "--column", "y", "--out", str(out)]) == 0
        assert self.read_payload(out)["method"] == "u_sharp"
        assert "confidence set for mean(y)" in capsys.readouterr().out

    def test_hoeffding_is_wider(self, unit_column, tmp_path):
        out = tmp_path / "ci.json"
        main(["ci", unit_column, "--column", "y", "--method", "hoeffding", "--out", str(out)])
        payload = self.read_payload(out)
        half = math.sqrt(LOG40 / (2.0 * 101.0))
        assert payload["upper"] - payload["lower"] == pytest.approx(2 * half, abs=1e-12)
        assert payload["method"] == "hoeffding"

    def test_known_range_flag_overrides_the_data_range(self, unit_column, tmp_path):
        out = tmp_path / "ci.json"
        main(["ci", unit_column, "--column", "y", "--method", "u",
              "--range", "known=2", "--out", str(out)])
        payload = self.read_payload(out)
        half = 2.0 * math.sqrt(LOG40 / (6.0 * 101.0))
        assert payload["upper"] - payload["lower"] == pytest.approx(2 * half, abs=1e-12)

    def test_ratio_method(self, unit_column, tmp_path):
        out = tmp_path / "ci.json"
        assert main(["ci", unit_column, "--column", "y", "--method", "ratio",
                     "--out", str(out)]) == 0
        payload = self.read_payload(out)
        c = math.sqrt(2.0 * LOG40 / 101.0)
        assert payload["lower"] == pytest.approx(0.5 / (1 + c), abs=1e-12)
        assert payload["upper"] == pytest.approx(0.5 / (1 - c), abs=1e-12)
        assert payload["method"] == "hoeffding"
        assert payload["range_source"] == "two_mean"

    def test_ratio_needs_enough_observations(self, tmp_path, capsys):
        path = write_csv(tmp_path / "tiny.csv", {"y": [0.1, 0.4, 0.2, 0.9, 0.5]})
        rc = main(["ci", path, "--column", "y", "--method", "ratio"])
        assert rc == 1
        assert "7.378" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, config, given",
        [(["--method", "ratio", "--range", "known=3"], None, "known=3"),
         (["--method", "ratio", "--range", "residual"], None, "residual"),
         (["--method", "ratio"], "range = marginal=2", "marginal=2"),
         (["--range", "known=3"], "method = ratio", "known=3")],
        ids=["flags", "flag-residual", "config-range", "config-method"],
    )
    def test_ratio_rejects_a_range_before_the_load(self, unread, tmp_path, capsys, flags, config,
                                                   given):
        argv = ["ci", unread, "--column", "y", *flags]
        if config is not None:
            cfg = tmp_path / "an.ini"
            cfg.write_text(f"[analysis]\n{config}\n")
            argv += ["-c", str(cfg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--method ratio" in captured.err and f"--range {given}" in captured.err

    def test_ratio_accepts_the_two_mean_range(self, unit_column, tmp_path):
        out, bare = tmp_path / "ci.json", tmp_path / "bare.json"
        assert main(["ci", unit_column, "--column", "y", "--method", "ratio",
                     "--range", "two-mean", "--out", str(out)]) == 0
        assert main(["ci", unit_column, "--column", "y", "--method", "ratio",
                     "--out", str(bare)]) == 0
        assert out.read_text() == bare.read_text()

    def test_two_mean_range_rejects_negative_data(self, tmp_path, capsys):
        path = write_csv(tmp_path / "neg.csv", {"y": [-0.2, 0.5, 0.8, 0.1]})
        rc = main(["ci", path, "--column", "y", "--range", "two-mean"])
        assert rc == 1
        assert "nonnegative" in capsys.readouterr().err

    def test_bernstein_matches_tail_inversion(self, unit_column, tmp_path):
        # independent route: the half-width is the tau where the simple
        # variance-adaptive tail crosses alpha, found by bisection
        out = tmp_path / "ci.json"
        assert main(["ci", unit_column, "--column", "y", "--method", "bernstein",
                     "--out", str(out)]) == 0
        payload = self.read_payload(out)
        n = 101
        lo, hi = 1e-12, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            tail = bernstein_tail(
                mid, 1.0 / n, M=0.5, av_z2=n * 0.25 / 3.0, form="simple"
            ).value
            lo, hi = (lo, mid) if tail < 0.05 else (mid, hi)
        half = payload["upper"] - 0.5
        assert half == pytest.approx(0.5 * (lo + hi), rel=1e-8)
        assert payload["method"] == "bernstein"

    def test_constant_column_degenerates_with_warning(self, tmp_path):
        path = write_csv(tmp_path / "const.csv", {"y": [2.0, 2.0, 2.0, 2.0]})
        out = tmp_path / "ci.json"
        with pytest.warns(UserWarning, match="constant"):
            rc = main(["ci", path, "--column", "y", "--method", "u", "--out", str(out)])
        assert rc == 0
        payload = self.read_payload(out)
        assert payload["lower"] == payload["upper"] == 2.0

    def test_ratio_on_a_constant_column_is_not_degenerate(self, tmp_path):
        path = write_csv(tmp_path / "const.csv", {"y": [2.0] * 12})
        out = tmp_path / "ci.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["ci", path, "--column", "y", "--method", "ratio", "--out", str(out)])
        assert rc == 0
        payload = self.read_payload(out)
        c = math.sqrt(2.0 * LOG40 / 12.0)
        assert payload["lower"] == pytest.approx(2.0 / (1 + c), abs=1e-12)
        assert payload["upper"] == pytest.approx(2.0 / (1 - c), abs=1e-12)

    @pytest.mark.parametrize("given", ["known=0.01", "marginal=2.4"])
    def test_a_range_below_the_columns_own_is_refused(self, tmp_path, capsys, given):
        path = write_csv(tmp_path / "wide.csv", {"y": np.linspace(0.0, 2.49, 120)})
        assert main(["ci", path, "--column", "y", "--range", given]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        R = given.partition("=")[2]
        assert f"error: range R = {R} (" in captured.err
        assert "the column's observed range 2.49," in captured.err

    def test_column_required(self, unit_column, capsys):
        assert main(["ci", unit_column]) == 1
        assert "--column is required" in capsys.readouterr().err

    def test_missing_column_lists_available(self, unit_column, capsys):
        assert main(["ci", unit_column, "--column", "z"]) == 1
        err = capsys.readouterr().err
        assert "missing column(s) ['z']" in err and "'y'" in err

    def test_config_alpha_and_flag_priority(self, unit_column, tmp_path):
        cfg = tmp_path / "an.ini"
        cfg.write_text("[analysis]\nalpha = 0.2\nmethod = hoeffding\n")
        out = tmp_path / "ci.json"
        main(["ci", unit_column, "--column", "y", "-c", str(cfg), "--out", str(out)])
        payload = self.read_payload(out)
        assert payload["level"] == pytest.approx(0.8)
        assert payload["method"] == "hoeffding"
        main(["ci", unit_column, "--column", "y", "-c", str(cfg),
              "--alpha", "0.1", "--out", str(out)])
        assert self.read_payload(out)["level"] == pytest.approx(0.9)


class TestParseRangeFlag:
    @pytest.mark.parametrize(
        "text, expected",
        [
            (None, ("residual_range", None)),
            ("known=2.5", ("known", 2.5)),
            ("marginal=1", ("marginal_range", 1.0)),
            ("residual", ("residual_range", None)),
            ("two-mean", ("two_mean", None)),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert _parse_range_flag(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["known", "marginal=", "two-mean=3", "bogus",
         "known=abc", "known=inf", "known=nan", "known=0", "marginal=-1"],
    )
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError, match="--range"):
            _parse_range_flag(text)

    @pytest.mark.parametrize(
        "command",
        [["ci", "--column", "x"], ["fit", "--response", "y", "--covariates", "x"]],
        ids=["ci", "fit"],
    )
    def test_bad_range_fails_before_the_load(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        rc = main([command[0], str(missing), *command[1:], "--range", "known=nan"])
        assert rc == 1
        assert "error: --range known=R needs a finite positive number" in capsys.readouterr().err


class TestFitCommand:
    def test_report_json_round_trip(self, regression_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["fit", regression_csv, "--response", "y", "--covariates", "x",
                   "--out", str(out)])
        assert rc == 0
        report = AnalysisReport.from_json(out.read_text())
        assert AnalysisReport.from_json(report.to_json()) == report
        assert [c.name for c in report.coefficients] == ["intercept", "x"]
        stdout = capsys.readouterr().out
        assert "model: least squares: intercept + x" in stdout

    def test_residual_range_sets_bracket_the_truth(self, regression_csv, tmp_path):
        out = tmp_path / "report.json"
        main(["fit", regression_csv, "--response", "y", "--covariates", "x",
              "--out", str(out)])
        report = AnalysisReport.from_json(out.read_text())
        intercept, slope = report.coefficients
        assert intercept.range_source == "residual_range"
        assert intercept.ci_lower < 2.0 < intercept.ci_upper
        assert slope.ci_lower < 3.0 < slope.ci_upper
        assert abs(intercept.estimate - 2.0) < 0.2
        assert abs(slope.estimate - 3.0) < 0.2

    def test_an_alpha_whose_one_minus_half_rounds_to_1_gives_the_comparator_its_set(
        self, capsys
    ):
        # at alpha = 1e-16, 1 - alpha/2 rounds to 1; z = -Phi^{-1}(alpha/2) = 8.3048 is finite
        sets = []
        for alpha in (["--alpha", "1e-16"], []):
            assert main(["fit", GOLDEN_FRAME, *GOLDEN_FIT, "--partitions", "5,10", *alpha]) == 0
            line = capsys.readouterr().out.splitlines()[-1]
            assert line.startswith("  comparator Wald (x3, K=5): [")
            sets.append([float(end) for end in line.split("[")[1].rstrip("]").split(", ")])
        (lo, hi), (lo95, hi95) = sets
        assert (lo + hi) / 2 == pytest.approx((lo95 + hi95) / 2, rel=1e-5)
        assert (hi - lo) / (hi95 - lo95) == pytest.approx(8.3047854 / 1.9599640, rel=1e-5)

    def test_provenance_hashes_the_input(self, regression_csv, tmp_path):
        import hashlib

        out = tmp_path / "report.json"
        main(["fit", regression_csv, "--response", "y", "--covariates", "x",
              "--alpha", "0.1", "--out", str(out)])
        report = AnalysisReport.from_json(out.read_text())
        digest = hashlib.sha256(open(regression_csv, "rb").read()).hexdigest()
        assert report.provenance["input_sha256"] == digest
        assert report.provenance["config"]["alpha"] == 0.1
        assert report.provenance["config"]["n"] == 120

    @pytest.mark.parametrize("climate", [False, True], ids=["plain", "climate"])
    def test_an_input_changed_before_its_hash_is_refused(self, tmp_path, monkeypatch, capsys,
                                                         climate):
        path = tmp_path / "in.csv"
        if climate:
            write_climate_csv(
                [densum.climate.ClimateRow(1979 + i // 12, i % 12 + 1, 0.01 * (i % 7),
                                           340.0 + i) for i in range(48)],
                str(path),
            )
            model = ["--climate", "monthly"]
        else:
            shutil.copyfile(GOLDEN_FRAME, path)
            model = GOLDEN_FIT
        hash_file = densum.cli.file_sha256

        def grow_then_hash(name):  # a row appended after the load, before the hash
            with open(name, "a") as handle:
                handle.write(Path(name).read_text().splitlines()[-1] + "\n")
            return hash_file(name)

        monkeypatch.setattr(densum.cli, "file_sha256", grow_then_hash)
        out = tmp_path / "report.json"
        assert main(["fit", str(path), *model, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path} changed while fit read it, so the report's "
                                "input_sha256 would not be the data's\n")
        assert not out.exists()

    def test_known_range_flag(self, regression_csv, tmp_path):
        out = tmp_path / "report.json"
        main(["fit", regression_csv, "--response", "y", "--covariates", "x",
              "--range", "known=1", "--out", str(out)])
        report = AnalysisReport.from_json(out.read_text())
        assert all(c.range_source == "known" for c in report.coefficients)

    @pytest.mark.parametrize(
        "flag, source, ranges",
        [("residual", "residual_range", None), ("known=2", "known", 2.0),
         ("marginal=5", "marginal_range", 5.0), ("two-mean", "two_mean", None)],
    )
    def test_each_range_source_is_ci_linear_on_the_weight_rows(
        self, tmp_path, flag, source, ranges
    ):
        x = np.linspace(0.0, 1.0, 60)
        y = 1.0 + x + 0.5 * np.random.default_rng(3).uniform(size=60)  # nonnegative
        path = write_csv(tmp_path / "pos.csv", {"x": x, "y": y})
        out = tmp_path / "report.json"
        assert main(["fit", path, "--response", "y", "--covariates", "x",
                     "--range", flag, "--out", str(out)]) == 0
        report = AnalysisReport.from_json(out.read_text())
        fit = ols_fit(np.column_stack([np.ones(60), x]), y)
        assert np.all(fit.fitted >= 0.0)
        for s, row in enumerate(report.coefficients):
            w, R = fit.weight_rows[s], ranges
            if source == "two_mean":
                R = 2.0 * fit.fitted
            elif source == "residual_range":  # unit weights on the summands W_s e
                w, R = np.ones(60), float(np.ptp(w * fit.residuals))
            want = ci_linear(fit.coefficients[s], w, R, range_source=source)
            assert row.range_source == source
            assert (row.ci_lower, row.ci_upper) == (want.lower, want.upper)

    def test_two_mean_rejects_negative_fitted(self, regression_csv, capsys):
        # y = 2 + 3x on x in [-1, 2]: the fitted means near x = -1 are negative
        assert main(["fit", regression_csv, "--response", "y", "--covariates", "x",
                     "--range", "two-mean"]) == 1
        assert "nonnegative fitted" in capsys.readouterr().err

    def test_partition_and_comparator_output(self, regression_csv, capsys):
        rc = main(["fit", regression_csv, "--response", "y", "--covariates", "x",
                   "--partitions", "10,24"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "partition check intercept: recommend K=" in stdout
        assert "partition check x: recommend K=" in stdout
        assert "comparator Wald (x, K=10):" in stdout

    def test_screen_compares_with_and_without(self, regression_csv, capsys):
        main(["fit", regression_csv, "--response", "y", "--covariates", "x",
              "--screen", "x"])
        assert "retention screen for x" in capsys.readouterr().out

    @pytest.mark.parametrize("screen", ["z", "y"])
    def test_screen_outside_the_model_fails_before_the_load(self, unread, screen, capsys):
        rc = main(["fit", unread, "--response", "y", "--covariates", "x",
                   "--screen", screen])
        assert rc == 1
        assert (f"error: --screen {screen!r} is not a column of the model "
                "(intercept, x)") in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("model", [GOLDEN_FIT, ["--climate", "monthly"]],
                             ids=["plain", "climate"])
    def test_an_input_it_cannot_read_twice_is_refused(self, tmp_path, model):
        # fit hashes its input after the load; on a pipe with no writer it waited for ever
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        proc = run_python("-m", "densum.cli", "fit", str(pipe), *model, timeout=30, status=1)
        assert proc.stdout == ""
        assert proc.stderr == ("error: fit hashes its input for the report's provenance, so the "
                               f"input must be a regular file, which {pipe} is not\n")

    def test_duplicate_covariate_is_a_clean_error(self, regression_csv, capsys):
        rc = main(["fit", regression_csv, "--response", "y", "--covariates", "x,x"])
        assert rc == 1
        assert "rank deficient" in capsys.readouterr().err

    def test_screen_keeps_the_full_designs_rank_error(self, tmp_path, capsys):
        # x3 repeats x2, so the full design fails at its column 3.  The screen's
        # reduced design, without x1, would fail at its own column 2.
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(40, 2))
        path = write_csv(tmp_path / "dup.csv", {"y": rng.uniform(size=40), "x1": x[:, 0],
                                                "x2": x[:, 1], "x3": x[:, 1]})
        rc = main(["fit", path, "--response", "y", "--covariates", "x1,x2,x3", "--screen", "x1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "column 3 is linearly dependent" in captured.err and captured.out == ""

    def test_missing_model_spec(self, regression_csv, capsys):
        assert main(["fit", regression_csv]) == 1
        assert "--response and --covariates are required" in capsys.readouterr().err

    def test_zero_response_takes_the_degenerate_path(self, tmp_path):
        path = write_csv(
            tmp_path / "zero.csv",
            {"x": np.linspace(0, 1, 30), "y": np.zeros(30)},
        )
        out = tmp_path / "report.json"
        assert main(["fit", path, "--response", "y", "--covariates", "x",
                     "--out", str(out)]) == 0
        report = AnalysisReport.from_json(out.read_text())
        assert report.diagnostics[0].stationarity_note == "residuals are exactly zero"
        assert all(c.ci_lower == c.ci_upper == 0.0 for c in report.coefficients)

    def test_only_the_degenerate_spread_warning_is_silenced(
        self, regression_csv, tmp_path, monkeypatch
    ):
        zero = write_csv(tmp_path / "zero.csv", {"x": np.linspace(0, 1, 30), "y": np.zeros(30)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", zero, "--response", "y", "--covariates", "x"]) == 0

        def noisy_acf(*args, **kwargs):
            warnings.warn("acf trouble", RuntimeWarning)
            return acf_phi_hat(*args, **kwargs)

        monkeypatch.setattr(densum.analysis, "acf_phi_hat", noisy_acf)
        with pytest.warns(RuntimeWarning, match="acf trouble"):
            assert main(["fit", regression_csv, "--response", "y", "--covariates", "x"]) == 0

    @pytest.fixture
    def twelve_rows(self, tmp_path):
        x = np.linspace(0.0, 1.0, 12)
        return write_csv(tmp_path / "twelve.csv", {"x": x, "y": 1.0 + x + 0.1 * np.sin(7 * x)})

    @pytest.mark.parametrize("flag", ["0", "a", "5,0", "3,,4", ""])
    def test_partitions_must_be_positive_integers(self, twelve_rows, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", twelve_rows, "--response", "y", "--covariates", "x",
                  "--partitions", flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "positive cluster counts" in captured.err

    @pytest.mark.parametrize(
        "flag, message",
        [("50,5", "K=50 must satisfy 1 <= K <= n=12"), ("3,13", "K=13 must satisfy"),
         ("1,5", "first count sets the Wald comparator's clusters")],
    )
    def test_unusable_partitions_fail_before_the_report(self, twelve_rows, flag, message, capsys):
        rc = main(["fit", twelve_rows, "--response", "y", "--covariates", "x",
                   "--partitions", flag])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    def test_response_among_its_covariates_is_rejected(self, regression_csv, command, capsys):
        argv = [command, regression_csv, "--response", "y", "--covariates", "x,y"]
        if command == "diagnose":
            argv += ["--coefficient", "x"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "response 'y' is also listed among the covariates" in captured.err

    @pytest.mark.parametrize(
        "command, flags, config",
        [("fit", ["--response", "y", "--covariates", "x, x"], None),
         ("diagnose", ["--response", "y", "--covariates", "x,x", "--coefficient", "x"], None),
         ("fit", [], "response = y\ncovariates = x,x"),
         ("diagnose", ["--coefficient", "x"], "response = y\ncovariates = x,x")],
        ids=["fit-flags", "diagnose-flags", "fit-config", "diagnose-config"],
    )
    def test_a_repeated_covariate_is_rejected_before_the_load(
        self, unread, tmp_path, capsys, command, flags, config
    ):
        argv = [command, unread, *flags]
        if config is not None:
            cfg = tmp_path / "an.ini"
            cfg.write_text(f"[analysis]\n{config}\n")
            argv += ["-c", str(cfg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: covariate 'x' is listed twice" in captured.err

    @pytest.mark.parametrize("command", ["ci", "fit", "diagnose"])
    def test_missing_output_directory_fails_before_the_work(self, unread, tmp_path, capsys,
                                                            command):
        missing = tmp_path / "missing" / "dir"
        argv = {
            "ci": ["ci", unread, "--column", "y"],
            "fit": ["fit", unread, "--response", "y", "--covariates", "x"],
            "diagnose": ["diagnose", unread, "--column", "y"],
        }[command]
        assert main(argv + ["--out", str(missing / "p")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"output directory {missing} does not exist" in captured.err


class TestSettingsFailBeforeTheWork:
    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["ci", "--column", "y", "--alpha", "1.5"], None, "alpha must lie in (0, 1)"),
            (["ci", "--column", "y"], "method = bogus",
             "[analysis] method must be one of hoeffding, u, bernstein, ratio, got 'bogus'"),
            (["fit", "--response", "y", "--covariates", "x", "--alpha", "0"], None,
             "alpha must lie in (0, 1)"),
            (["fit", "--response", "y", "--covariates", "x"], "alpha = 1.5",
             "alpha must lie in (0, 1)"),
            (["ci", "--column", "y", "--alpha", "1e-320"], None,
             "alpha = 1e-320 is too small: its level 1 - alpha rounds to 1"),
            (["fit", "--response", "y", "--covariates", "x", "--alpha", "1e-17"], None,
             "alpha = 1e-17 is too small: its level 1 - alpha rounds to 1"),
            (["diagnose", "--response", "y", "--covariates", "x"], None,
             "--coefficient is required when diagnosing a fit"),
            (["fit", "--response", "y", "--covariates", "x", "--partitions", "1,5"], None,
             "--partitions: the first count sets the Wald comparator's clusters and "
             "must be at least 2"),
            (["fit", "--response", "y", "--covariates", "x", "--partitions", "5"], None,
             "--partitions needs at least two cluster counts to compare, got 5"),
            (["fit", "--response", "y", "--covariates", ","], None,
             "--covariates names no column, got ','"),
            (["fit", "--response", "y", "--covariates", ""], None,
             "--covariates names no column, got ''"),
            (["fit"], "response = y\ncovariates = ,", "--covariates names no column, got ','"),
            (["diagnose", "--response", "y", "--covariates", " , ", "--coefficient", "x"], None,
             "--covariates names no column, got ' , '"),
            (["diagnose", "--coefficient", "x"], "response = y\ncovariates = ,",
             "--covariates names no column, got ','"),
        ],
        ids=["ci-alpha", "ci-config-method", "fit-alpha", "fit-config-alpha", "ci-tiny-alpha",
             "fit-tiny-alpha", "diagnose-coefficient", "fit-partitions", "fit-single-partition",
             "fit-no-covariate", "fit-empty-covariates", "fit-config-no-covariate",
             "diagnose-no-covariate", "diagnose-config-no-covariate"],
    )
    def test_bad_setting_fails_before_the_input_is_read(
        self, unread, tmp_path, capsys, argv, config, message
    ):
        argv = argv[:1] + [unread] + argv[1:]
        if config is not None:
            cfg = tmp_path / "an.ini"
            cfg.write_text(f"[analysis]\n{config}\n")
            argv += ["-c", str(cfg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["ci", "--column", "y"], ["fit", *GOLDEN_FIT], ["diagnose", "--column", "y"]],
        ids=["ci", "fit", "diagnose"],
    )
    def test_a_well_formed_command_fails_on_the_unread_input(self, unread, capsys, argv):
        # what the tests above would print, had the command read its input first
        assert main(argv[:1] + [unread] + argv[1:]) == 1
        assert capsys.readouterr().err == (f"error: [Errno 2] No such file or directory: "
                                           f"{unread!r}\n")

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("simulate", "[table1]\nalpha = 0.5\nbogus = 3\n",
             "[table1] alpha is not a setting of simulate"),
            ("simulate", "[table3]\nc_star = 5\n", "[table3] c_star is not a setting of simulate"),
            ("fit", "[table2]\nmethod = u\n", "[table2] method is not a setting of simulate"),
            ("ci", "[analysis]\nseed = 3\n",
             "[analysis] seed is not a setting of ci, fit or diagnose"),
            ("ci", "[DEFAULT]\nalpha = 0.2\nbogus = 3\n",
             "[DEFAULT] bogus is not a setting of any command"),
            ("diagnose", "[notes]\nc_star = 5\n", "[notes] c_star is not a setting of any command"),
        ],
        ids=["table-alpha", "table-c-star", "table-from-fit", "analysis-seed", "default-bogus",
             "other-section"],
    )
    def test_config_keys_a_section_cannot_take_fail_before_the_input_is_read(
        self, unread, tmp_path, no_work, capsys, command, text, message
    ):
        cfg = tmp_path / "keys.ini"
        cfg.write_text(text)
        argv = {
            "simulate": ["simulate", "--table", "1", "--reps", "2",
                         "--out", str(tmp_path / "t.csv")],
            "ci": ["ci", unread, "--column", "y"],
            "fit": ["fit", unread, "--response", "y", "--covariates", "x"],
            "diagnose": ["diagnose", unread, "--column", "y"],
        }[command]
        assert main(argv + ["-c", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, text, message",
        [("simulate", "[DEFAULT]\nseed = abc\n", "[DEFAULT] seed must be int, got 'abc'"),
         ("simulate", "[table1]\nn = 100\n[DEFAULT]\nreps = many\n",
          "[DEFAULT] reps must be int, got 'many'"),
         ("ci", "[DEFAULT]\nalpha = x\n", "[DEFAULT] alpha must be float, got 'x'")],
        ids=["simulate-seed", "simulate-beside-its-section", "ci-alpha"],
    )
    def test_a_bad_config_value_names_the_section_it_came_from(
        self, unread, tmp_path, no_work, capsys, command, text, message
    ):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        argv = {
            "simulate": ["simulate", "--table", "1", "--out", str(tmp_path / "t.csv")],
            "ci": ["ci", unread, "--column", "y"],
        }[command]
        assert main(argv + ["-c", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, text, message",
        [("diagnose", "[analysis]\nalpha = x\n", "[analysis] alpha must be float, got 'x'"),
         ("ci", "[DEFAULT]\nreps = x\n", "[DEFAULT] reps must be int, got 'x'"),
         ("simulate", "[analysis]\nalpha = x\n", "[analysis] alpha must be float, got 'x'"),
         ("ci", "[analysis]\nalpha = x\n", "[analysis] alpha must be float, got 'x'"),
         ("fit", "[analysis]\nalpha = x\n", "[analysis] alpha must be float, got 'x'")],
        ids=["diagnose-analysis-alpha", "ci-default-reps", "simulate-analysis-alpha",
             "ci-analysis-alpha", "fit-analysis-alpha"],
    )
    def test_a_bad_config_value_fails_every_command_that_reads_the_file(
        self, unread, tmp_path, no_work, capsys, command, text, message
    ):
        # a value is checked when the file is read, not only by the commands that take its key
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        argv = {
            "simulate": ["simulate", "--table", "1", "--out", str(tmp_path / "t.csv")],
            "ci": ["ci", unread, "--column", "y"],
            "fit": ["fit", unread, "--response", "y", "--covariates", "x"],
            "diagnose": ["diagnose", unread, "--column", "y"],
        }[command]
        assert main(argv + ["-c", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, flags",
        [(["simulate", "--table", "2"], ["--seed", "3", "--reps", "20"]),
         (["fit", GOLDEN_FRAME], ["--alpha", "0.1", *GOLDEN_FIT]),
         (["ci", GOLDEN_FRAME], ["--alpha", "0.1", "--column", "y"])],
        ids=["simulate", "fit", "ci"],
    )
    def test_a_config_file_gives_the_output_its_flags_give(self, tmp_path, argv, flags):
        cfg = tmp_path / "densum.ini"
        cfg.write_text("[DEFAULT]\nseed = 3\n[table2]\nreps = 20\n[analysis]\nalpha = 0.1\n"
                       "response = y\ncovariates = x1,x2,x3\ncolumn = y\n")
        config, given = tmp_path / "config.out", tmp_path / "flags.out"
        assert main([*argv, "-c", str(cfg), "--out", str(config)]) == 0
        assert main([*argv, *flags, "--out", str(given)]) == 0
        assert config.read_bytes() == given.read_bytes()

    def test_one_config_file_serves_every_command(self, unit_column, tmp_path):
        # [DEFAULT] may hold any command's key; each command reads its own
        # section's keys over it
        cfg = tmp_path / "all.ini"
        cfg.write_text("[DEFAULT]\nseed = 4\nalpha = 0.2\n"
                       "[table1]\nn = 100\nphi = 0\nreps = 2\n[analysis]\nalpha = 0.1\n")
        out = tmp_path / "t1.csv"
        assert main(["simulate", "--table", "1", "-c", str(cfg), "--out", str(out)]) == 0
        assert [(r["n"], r["phi"], r["seed"]) for r in read_results_csv(out)] == [("100", "0", "4")]
        out = tmp_path / "ci.json"
        assert main(["ci", unit_column, "--column", "y", "-c", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["level"] == pytest.approx(0.9)

    def test_fetch_climate_checks_its_output_directory_before_the_download(
        self, tmp_path, no_work, capsys
    ):
        missing = tmp_path / "missing" / "dir"
        assert main(["fetch-climate", "--out", str(missing / "c.csv")]) == 1
        assert f"error: output directory {missing} does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--start", "abc"], "--start must be YYYY-M or YYYY-MM (month 1-12), got 'abc'"),
            (["--start", "1979-13"],
             "--start must be YYYY-M or YYYY-MM (month 1-12), got '1979-13'"),
            (["--end", "2022-0"], "--end must be YYYY-M or YYYY-MM (month 1-12), got '2022-0'"),
            (["--end", "22-12"], "--end must be YYYY-M or YYYY-MM (month 1-12), got '22-12'"),
            (["--end", "2022-012"], "--end must be YYYY-M or YYYY-MM (month 1-12)"),
            (["--start", "2000-1", "--end", "1999-12"], "--start must not come after --end"),
        ],
        ids=["start-text", "start-month-13", "end-month-0", "end-short-year", "end-long-month",
             "start-after-end"],
    )
    def test_fetch_climate_checks_its_window_before_the_download(self, no_work, capsys, flags,
                                                                  message):
        assert main(["fetch-climate", *flags]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_fetch_climate_hands_the_window_on_as_tuples(self, tmp_path, monkeypatch):
        seen = {}

        def fetch(*urls, start, end):
            seen.update(start=start, end=end)
            return []

        monkeypatch.setattr(densum.climate, "fetch_climate", fetch)
        out = tmp_path / "c.csv"
        assert main(["fetch-climate", "--start", "1980-02", "--end", "1980-2",
                     "--out", str(out)]) == 0
        assert seen == {"start": (1980, 2), "end": (1980, 2)}

    def test_config_value_may_hold_a_percent_sign(self, tmp_path, capsys):
        # configparser's interpolation is off: a value is read as written
        data = tmp_path / "pct.csv"
        data.write_text("y%,x\n0.25,1\n0.75,2\n")
        cfg = tmp_path / "an.ini"
        cfg.write_text("[analysis]\ncolumn = y%\n")
        assert main(["ci", str(data), "-c", str(cfg), "--range", "known=1"]) == 0
        assert "mean(y%)" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["[DEFAULT]\nalpha = 0.2\n",
                                      "[DEFAULT]\nalpha = 0.2\n[analysis]\nmethod = u\n"])
    def test_config_default_section_applies_without_a_command_section(
        self, unit_column, tmp_path, text
    ):
        cfg = tmp_path / "an.ini"
        cfg.write_text(text)
        out = tmp_path / "ci.json"
        assert main(["ci", unit_column, "--column", "y", "-c", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["level"] == pytest.approx(0.8)

    def test_phi_and_phi_star_are_one_setting_the_last_wins(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["simulate", "--table", "1", "--n", "100", "--phi", "0.2",
                     "--phi-star", "0.06", "--reps", "2", "--out", str(out)]) == 0
        assert read_results_csv(out)[0]["phi"] == "0.06"


class TestAnalysisReportValidation:
    def make_row(self, **overrides):
        row = dict(
            name="x", estimate=1.0, ci_lower=0.5, ci_upper=1.5,
            method="u_sharp", range_source="residual_range",
        )
        row.update(overrides)
        return CoefficientRow(**row)

    def make_diag(self):
        return SeriesDiagnostics(
            name="x", is_u=True, is_sub_u=True, expected_value=1.0,
            functional_average=1.0, tolerance=0.01, rule_of_thumb_bound=6.0,
            phi_hat_short=0.0, phi_hat_long=0.0, lags_short=5, lags_long=10,
            stationarity_note="no mean drift detected between sample halves",
        )

    def test_diagnostics_required(self):
        with pytest.raises(ValueError, match="diagnostics"):
            AnalysisReport(
                model="m", coefficients=(self.make_row(),), diagnostics=(), provenance={}
            )

    def test_range_source_required(self):
        with pytest.raises(ValueError, match="range_source"):
            AnalysisReport(
                model="m",
                coefficients=(self.make_row(range_source=""),),
                diagnostics=(self.make_diag(),),
                provenance={},
            )

    def test_json_round_trip_equality(self):
        report = AnalysisReport(
            model="least squares: intercept + x",
            coefficients=(self.make_row(),),
            diagnostics=(self.make_diag(),),
            provenance={"input_sha256": "00", "seed": None, "config": {"alpha": 0.05}},
        )
        assert AnalysisReport.from_json(report.to_json()) == report


class TestSeriesDiagnostics:
    def test_drift_note_fires_on_a_level_shift(self, rng):
        z = np.concatenate([rng.uniform(0, 1, 60), 10.0 + rng.uniform(0, 1, 60)])
        diag, _ = _series_diagnostics("shifted", z)
        assert "inspect for drift" in diag.stationarity_note

    def test_stationary_series_is_quiet(self, rng):
        diag, _ = _series_diagnostics("flat", rng.uniform(0, 1, 120))
        assert diag.stationarity_note == "no mean drift detected between sample halves"

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            _series_diagnostics("c", np.ones(50))

    def test_windows_are_prefixes_of_one_acf(self, rng):
        z = rng.standard_normal(200)
        diag, acf = _series_diagnostics("z", z)
        assert len(acf) == max(diag.lags_short, diag.lags_long)
        for lags, phi_hat in ((diag.lags_short, diag.phi_hat_short),
                              (diag.lags_long, diag.phi_hat_long)):
            assert phi_hat == acf_phi_hat(z, lags).phi_hat

    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    def test_short_series_names_the_minimum(self, tmp_path, capsys, command):
        x = np.arange(10.0)
        path = write_csv(tmp_path / "short.csv", {"x": x, "y": 1.0 + 2.0 * x + np.sin(x)})
        args = ["--response", "y", "--covariates", "x"]
        args += ["--coefficient", "x"] if command == "diagnose" else []
        assert main([command, path] + args) == 1
        err = capsys.readouterr().err
        assert "has 10 observations; diagnostics need n >= 11" in err


class TestDiagnoseCommand:
    def test_column_route(self, regression_csv, capsys):
        assert main(["diagnose", regression_csv, "--column", "y"]) == 0
        stdout = capsys.readouterr().out
        assert "series: y" in stdout
        assert "U-class:" in stdout
        assert "phi_hat:" in stdout
        assert "rule-of-thumb" in stdout

    def test_fit_route(self, regression_csv, capsys):
        rc = main(["diagnose", regression_csv, "--response", "y",
                   "--covariates", "x", "--coefficient", "x"])
        assert rc == 0
        assert "series: weighted residuals: x" in capsys.readouterr().out

    def test_fit_route_needs_coefficient(self, regression_csv, capsys):
        rc = main(["diagnose", regression_csv, "--response", "y", "--covariates", "x"])
        assert rc == 1
        assert "--coefficient is required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, config",
        [(["--column", "y", "--coefficient", "x"], None),
         (["--response", "y", "--covariates", "x", "--coefficient", "x"], "column = y")],
        ids=["flags", "config-column"],
    )
    def test_a_column_and_a_coefficient_are_rejected_before_the_load(
        self, unread, tmp_path, capsys, flags, config
    ):
        argv = ["diagnose", unread, *flags]
        if config is not None:
            cfg = tmp_path / "an.ini"
            cfg.write_text(f"[analysis]\n{config}\n")
            argv += ["-c", str(cfg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "column 'y' and --coefficient 'x'" in captured.err

    @pytest.mark.parametrize(
        "flags, config",
        [(["--column", "y", "--climate", "monthly"], None),
         (["--climate", "yearly"], "column = y")],
        ids=["flags", "config-column"],
    )
    def test_a_column_and_climate_are_rejected_before_the_load(
        self, unread, tmp_path, capsys, flags, config
    ):
        argv = ["diagnose", unread, *flags]
        if config is not None:
            cfg = tmp_path / "an.ini"
            cfg.write_text(f"[analysis]\n{config}\n")
            argv += ["-c", str(cfg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        climate = flags[flags.index("--climate") + 1]
        assert f"column 'y' and --climate '{climate}'" in captured.err

    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    @pytest.mark.parametrize(
        "flags, config, named",
        [(["--response", "zzz"], None, "--response 'zzz'"),
         (["--covariates", "nope1,nope2"], None, "--covariates 'nope1,nope2'"),
         (["--response", "zzz", "--covariates", "nope"], None,
          "--response 'zzz' or --covariates 'nope'"),
         ([], "covariates = x1", "--covariates 'x1'")],
        ids=["response", "covariates", "both", "config-covariates"],
    )
    def test_a_model_beside_climate_is_rejected_before_the_load(
        self, unread, tmp_path, capsys, command, flags, config, named
    ):
        # --climate builds its own model; a response or covariates named
        # beside it were ignored without a word
        argv = [command, unread, "--climate", "monthly", *flags, "--coefficient", "temp_lag1"][
            :None if command == "diagnose" else -2]
        if config is not None:
            cfg = tmp_path / "an.ini"
            cfg.write_text(f"[analysis]\n{config}\n")
            argv += ["-c", str(cfg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --climate builds its own model, so it takes no {named} "
                                f"(either may come from the config)\n")

    def test_unknown_coefficient(self, unread, capsys):
        rc = main(["diagnose", unread, "--response", "y",
                   "--covariates", "x", "--coefficient", "zzz"])
        assert rc == 1
        assert ("error: --coefficient 'zzz' is not a column of the model "
                "(intercept, x)") in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [("diagnose", "--coefficient"), ("fit", "--screen")])
    def test_a_climate_frames_columns_are_checked_once_it_is_built(self, tmp_path, capsys,
                                                                   command, flag):
        path = str(tmp_path / "climate.csv")
        write_climate_csv(
            [densum.climate.ClimateRow(1979 + i // 12, i % 12 + 1, 0.01 * (i % 7), 340.0 + i)
             for i in range(48)],
            path,
        )
        assert main([command, path, "--climate", "monthly", flag, "zzz"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {flag} 'zzz' is not a column of the model "
                                "(intercept, temp_lag1, log_co2_lag1, spring, summer, autumn)\n")

    def test_plot_csvs_written(self, regression_csv, tmp_path):
        prefix = str(tmp_path / "diag")
        assert main(["diagnose", regression_csv, "--column", "y",
                     "--out", prefix]) == 0
        with open(prefix + "_hist.csv") as handle:
            hist = list(csv.DictReader(handle))
        assert sum(int(r["count"]) for r in hist) == 120
        with open(prefix + "_ecdf.csv") as handle:
            ecdf = list(csv.DictReader(handle))
        assert len(ecdf) == 120
        assert float(ecdf[-1]["fraction"]) == 1.0
        values = [float(r["value"]) for r in ecdf]
        assert values == sorted(values)
        with open(prefix + "_acf.csv") as handle:
            acf = list(csv.DictReader(handle))
        assert {r["window"] for r in acf} == {"short", "long"}

    @pytest.mark.parametrize("block", [densum.cli.PLOT_CSV_BLOCK, 7])
    def test_plot_csvs_match_the_csv_writer_bytes(self, block, tmp_path, monkeypatch):
        # negatives, ties, tiny and large magnitudes, an integer-valued float;
        # a small block puts seams inside every file
        monkeypatch.setattr(densum.cli, "PLOT_CSV_BLOCK", block)
        rng = np.random.default_rng(8)
        series = np.concatenate([
            rng.normal(size=200), [-3.5, -3.5, 0.0, 0.0, 1e-7, -2.5e-9, 123456789.0, 7.0, 7.0],
        ])
        diag, acf = _series_diagnostics("z", series)
        _write_plot_csvs(str(tmp_path / "new"), series, diag, acf)
        _csv_writer_plot_csvs(str(tmp_path / "old"), series, diag, acf)
        for suffix in ("hist", "ecdf", "acf"):
            new = (tmp_path / f"new_{suffix}.csv").read_bytes()
            assert new == (tmp_path / f"old_{suffix}.csv").read_bytes(), suffix

    def test_constant_column_fails_cleanly(self, tmp_path, capsys):
        path = write_csv(tmp_path / "const.csv", {"y": [1.0] * 20})
        assert main(["diagnose", path, "--column", "y"]) == 1
        assert "constant" in capsys.readouterr().err


def _fmt6(value):
    return f"{value:.6g}"


def _csv_writer_plot_csvs(prefix, series, diag, acf):
    """The plot CSVs written one csv.writer row at a time: the byte oracle."""
    z = np.asarray(series, dtype=float)
    n = z.shape[0]
    counts, edges = np.histogram(z, bins="auto")
    with open(f"{prefix}_hist.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_left", "bin_right", "count"])
        for i, count in enumerate(counts):
            writer.writerow([_fmt6(float(edges[i])), _fmt6(float(edges[i + 1])), count])
    with open(f"{prefix}_ecdf.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["value", "fraction"])
        for i, value in enumerate(np.sort(z), start=1):
            writer.writerow([_fmt6(float(value)), _fmt6(i / n)])
    with open(f"{prefix}_acf.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lag", "r", "window"])
        for window, lags in (("short", diag.lags_short), ("long", diag.lags_long)):
            for lag, r in enumerate(acf[:lags], start=1):
                writer.writerow([lag, _fmt6(float(r)), window])


class TestLoadColumns:
    @pytest.mark.parametrize("first_x1", ["0.25", "0_25"], ids=["numpy-reader", "csv-module"])
    def test_fit_frame_turns_the_loaded_table_into_the_design(self, tmp_path, first_x1):
        # The response's column of the loaded table becomes the intercept: the
        # design has the bits and C order of the loaded columns stacked beside
        # ones.  "0_25" sends the file to the csv-module loader.
        rng = np.random.default_rng(30)
        rows = [f"{a!r},{b!r},{c!r}" for a, b, c in rng.standard_normal((50, 3)).tolist()]
        rows[0] = rows[0].rsplit(",", 1)[0] + "," + first_x1
        path = tmp_path / "frame.csv"
        path.write_text("x2,y,x1\n" + "\n".join(rows) + "\n")
        table = load_table(path, ["y", "x1", "x2"])[1]
        y, X, columns = fit_frame(path, "y", ["x1", "x2"], None)
        assert columns == ("intercept", "x1", "x2")
        assert X.flags.c_contiguous and y.flags.c_contiguous
        want = np.column_stack([np.ones(50), table[:, 1], table[:, 2]])
        assert X.tobytes() == want.tobytes() and y.tobytes() == table[:, 0].tobytes()

    def test_fit_frame_rejects_a_repeated_column(self, tmp_path):
        path = write_csv(tmp_path / "frame.csv", {"x": [1.0, 2.0, 4.0], "y": [0.0, 1.0, 3.0]})
        with pytest.raises(ValueError, match="distinct"):
            fit_frame(path, "y", ["x", "x"], None)

    def test_non_numeric_cell_is_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="column 'b' is not numeric \\(line 3\\)"):
            load_table(path, ["a", "b"])

    def test_non_finite_cell_is_located(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a,b\n1,2\n3,4\ninf,5\n")
        with pytest.raises(ValueError, match="column 'a' is not finite \\(line 4\\)"):
            load_table(path, ["a", "b"])

    def test_error_names_the_file_line_after_a_blank_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("a,b\n1,2\n\n3,oops\n")
        with pytest.raises(ValueError, match="column 'b' is not numeric \\(line 4\\)"):
            load_table(path, ["a", "b"])

    def test_non_finite_error_names_the_file_line_after_a_blank_line(self, tmp_path):
        path = tmp_path / "blank_inf.csv"
        path.write_text("a,b\n1,2\n\n3,inf\n")
        with pytest.raises(ValueError, match="column 'b' is not finite \\(line 4\\)"):
            load_table(path, ["a", "b"])

    # Accepted by np.loadtxt, so the fast path must return them without the
    # csv-module loader; every other case runs that loader exactly once.
    FALLBACK_FREE = {
        "quoted-cell", "whitespace-around-number", "crlf",
        "extra-trailing-fields-ignored", "repeated-name-read-once",
        "quoted-header-line-break", "no-trailing-newline", "trailing-commas",
        "cr-only", "quoted-comma-in-unused-column", "utf8-bom",
    }
    CASES = [
        pytest.param(b'a,b\n"1.5",2\n', ["a"], {"a": [1.5]}, id="quoted-cell"),
        pytest.param(b"a,b\n 1.5 ,2\n", ["a", "b"], {"a": [1.5], "b": [2.0]},
                     id="whitespace-around-number"),
        pytest.param(b"a,b\n1_000,2\n", ["a"], {"a": [1000.0]}, id="underscore-digits"),
        pytest.param(b"a,b\r\n1,2\r\n3,4\r\n", ["a", "b"],
                     {"a": [1.0, 3.0], "b": [2.0, 4.0]}, id="crlf"),
        pytest.param(b"a,b\n1,2\n3\n", ["a", "b"],
                     "column 'b' is not numeric \\(line 3\\)", id="short-row"),
        pytest.param(b"a,b\n1,2,9,x\n", ["a", "b"], {"a": [1.0], "b": [2.0]},
                     id="extra-trailing-fields-ignored"),
        pytest.param(b"a,b\n1,2\n3,4\n", ["a", "a"], {"a": [1.0, 3.0]},
                     id="repeated-name-read-once"),
        pytest.param(b"a,b\n1,2\n   \n3,4\n", ["a", "b"],
                     "column 'a' is not numeric \\(line 3\\)", id="whitespace-only-line"),
        pytest.param(b"a,b\n1,2\n#3,4\n", ["a", "b"],
                     "column 'a' is not numeric \\(line 3\\)", id="hash-prefixed-row"),
        pytest.param(b"a,b\n1,nan\n", ["a", "b"],
                     "column 'b' is not finite \\(line 2\\)", id="nan"),
        pytest.param(b"a,b\n1,2\n-inf,4\n", ["a", "b"],
                     "column 'a' is not finite \\(line 3\\)", id="inf"),
        pytest.param(b"a,b\n0x10,2\n", ["a"],
                     "column 'a' is not numeric \\(line 2\\)", id="hex"),
        pytest.param(b"a,b\n1,1.5e\n", ["a", "b"],
                     "column 'b' is not numeric \\(line 2\\)", id="bare-exponent"),
        pytest.param(b"a,b\n1,\n", ["a", "b"],
                     "column 'b' is not numeric \\(line 2\\)", id="empty-cell"),
        pytest.param("a,b\n\u0661\u0662,2\n".encode(), ["a", "b"],
                     {"a": [12.0], "b": [2.0]}, id="arabic-indic-digits"),
        pytest.param("a,b\n\uff13,2\n".encode(), ["a"], {"a": [3.0]},
                     id="fullwidth-digits"),
        pytest.param(b"a,b\n0.1e1_0,2\n", ["a"], {"a": [1e9]},
                     id="underscore-exponent"),
        pytest.param(b'"a\nx",b\n1,2\n', ["a\nx", "b"],
                     {"a\nx": [1.0], "b": [2.0]}, id="quoted-header-line-break"),
        pytest.param(b'"a\nx",b\n1,2\n3,oops\n', ["a\nx", "b"],
                     "column 'b' is not numeric \\(line 4\\)",
                     id="quoted-header-line-break-bad-cell"),
        pytest.param(b"a,b\n1,2\na,b\n3,4\n", ["a", "b"],
                     "column 'a' is not numeric \\(line 3\\)", id="header-repeated-mid-file"),
        pytest.param(b"a,b\n", ["a", "b"], {"a": [], "b": []}, id="header-only"),
        pytest.param(b"a,b\n1,2\n3,4", ["a", "b"], {"a": [1.0, 3.0], "b": [2.0, 4.0]},
                     id="no-trailing-newline"),
        pytest.param(b"a,b,\n1,2,\n3,4,,\n", ["a", "b"],
                     {"a": [1.0, 3.0], "b": [2.0, 4.0]}, id="trailing-commas"),
        pytest.param(b"a,b\r1,2\r3,4\r", ["a", "b"], {"a": [1.0, 3.0], "b": [2.0, 4.0]},
                     id="cr-only"),
        pytest.param(b'a,b,c\n1,"x,y",3\n', ["a", "c"], {"a": [1.0], "c": [3.0]},
                     id="quoted-comma-in-unused-column"),
        pytest.param(b"\xef\xbb\xbfa,b\n1,2\n", ["a", "b"], {"a": [1.0], "b": [2.0]},
                     id="utf8-bom"),
    ]

    @staticmethod
    def oracle(path, names):
        with open(path, newline="", encoding="utf-8-sig") as handle:
            return _load_table_csv(handle, names)

    @staticmethod
    def assert_same_table(got, want):
        """Same names, and n x k C-ordered float tables equal bit for bit
        (the sign of zero too)."""
        (names, table), (want_names, want_table) = got, want
        assert names == want_names
        for t in (table, want_table):
            assert t.dtype == np.float64 and t.flags.c_contiguous
            assert t.shape == (t.shape[0], len(names))
        np.testing.assert_array_equal(table.view(np.uint64), want_table.view(np.uint64))

    @pytest.mark.parametrize("content, names, expected", CASES)
    def test_accept_reject_set(self, tmp_path, content, names, expected):
        path = tmp_path / "cells.csv"
        path.write_bytes(content)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected) as got:
                load_table(path, names)
            with pytest.raises(ValueError) as want:
                self.oracle(path, names)
            assert str(got.value) == str(want.value)
            return
        got = load_table(path, names)
        assert got[0] == list(expected)
        for j, values in enumerate(expected.values()):
            np.testing.assert_array_equal(got[1][:, j], values)
        self.assert_same_table(got, self.oracle(path, names))

    @pytest.mark.parametrize("content, names, expected", CASES)
    def test_fast_path_is_taken(self, tmp_path, monkeypatch, request, content, names, expected):
        calls = []

        def counted(handle, names):
            calls.append(names)
            return _load_table_csv(handle, names)

        monkeypatch.setattr(densum.analysis, "_load_table_csv", counted)
        path = tmp_path / "cells.csv"
        path.write_bytes(content)
        try:
            load_table(path, names)
        except ValueError:
            pass
        assert len(calls) == (request.node.callspec.id not in self.FALLBACK_FREE)

    @pytest.mark.parametrize("as_path", [str, Path], ids=["str", "pathlib"])
    def test_numpy_reads_the_file_by_its_path(self, tmp_path, monkeypatch, as_path):
        # Given an open file, np.loadtxt iterates it one Python string per
        # line; given a path, its C reader reads the file in chunks.
        seen = []
        loadtxt = np.loadtxt

        def spy(fname, *args, **kwargs):
            seen.append(fname)
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(densum.analysis.np, "loadtxt", spy)
        path = tmp_path / "frame.csv"
        path.write_bytes(b'\xef\xbb\xbf"a\nx",b\n1,2\n3,4\n')
        got = load_table(as_path(path), ["b", "a\nx"])
        assert len(seen) == 1 and type(seen[0]) is str and seen[0] == str(path)
        self.assert_same_table(got, self.oracle(path, ["b", "a\nx"]))

    def test_fast_path_matches_the_csv_loader_on_generated_rows(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20)
        table = rng.standard_normal((20_000, 3)) * 10.0 ** rng.integers(-300, 300, (20_000, 3))
        table[:6] = [[0.0, -0.0, 5e-324], [-5e-324, 1e308, -1e308],
                     [-0.0, 0.0, 2.2250738585072014e-308], [1.0, -1.0, 0.1],
                     [np.nextafter(1.0, 2.0), 1e-320, -1e-310], [3.0, 4.0, 5.0]]
        path = tmp_path / "rows.csv"
        with open(path, "w") as handle:
            handle.write("a,b,c\n")
            handle.writelines("%.17g,%.17g,%.17g\n" % tuple(row) for row in table)

        def never(handle, names):
            raise AssertionError("the csv-module loader ran on a well-formed file")

        want = self.oracle(path, ["c", "a", "b"])
        monkeypatch.setattr(densum.analysis, "_load_table_csv", never)
        got = load_table(path, ["c", "a", "b"])
        self.assert_same_table(got, want)
        np.testing.assert_array_equal(got[1].view(np.uint64), table[:, [2, 0, 1]].view(np.uint64))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_read_in_one_csv_module_pass(self, tmp_path):
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(b"a,b\n1_000,2\n",), daemon=True)
        writer.start()
        try:
            names, table = load_table(path, ["a", "b"])
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert names == ["a", "b"] and table.tolist() == [[1000.0, 2.0]]

    @pytest.mark.parametrize(
        "argv",
        [["ci", "--column", "y", "--range", "known=100"],
         ["fit", "--response", "x", "--covariates", "y"],
         ["diagnose", "--column", "y"]],
        ids=["ci", "fit", "diagnose"],
    )
    def test_a_requested_name_the_header_repeats_is_refused(self, tmp_path, capsys, argv):
        # which of the two y columns is meant is unknown; the last one was once read
        path = tmp_path / "repeated.csv"
        path.write_text("y,x,y\n" + "".join(f"{i},{i * i % 7},{10 * i}\n" for i in range(1, 13)))
        assert main([argv[0], str(path), *argv[1:]]) == 1
        assert capsys.readouterr().err == "error: column 'y' appears 2 times in the header\n"

    def test_both_loaders_read_the_header_alike(self, tmp_path):
        with pytest.raises(ValueError, match="^column 'y' appears 2 times in the header$"):
            densum.analysis._load_table_csv(io.StringIO("y,x,y\n1,2,3\n"), ["x", "y"])
        path = tmp_path / "repeated.csv"
        path.write_text("y,x,y\n1,5,10\n2,6,20\n")  # a repeated name not asked for is legal
        assert load_table(path, ["x"])[1].tolist() == [[5.0], [6.0]]

    def test_header_only_file_raises_no_warning(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            names, table = load_table(path, ["a", "b"])
        assert names == ["a", "b"] and table.shape == (0, 2)

    def test_nan_response_fails_the_fit_at_load(self, regression_csv, tmp_path, capsys):
        lines = open(regression_csv).read().splitlines()
        x, _ = lines[5].split(",")
        lines[5] = f"{x},nan"  # the y cell on file line 6
        path = tmp_path / "nan.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(path), "--response", "y", "--covariates", "x"]) == 1
        assert "column 'y' is not finite (line 6)" in capsys.readouterr().err

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_table(path, ["a"])


def _modules_imported_by(argv, cwd):
    """Every module a fresh ``python -m densum.cli`` process imports, as
    ``-X importtime`` reports them."""
    proc = run_python("-X", "importtime", "-m", "densum.cli", *argv, cwd=cwd, timeout=120)
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize(
    "argv, loaded",
    [(["ci", "--column", "y"], set()),
     (["fit", "--response", "y", "--covariates", "x"], set()),
     (["diagnose", "--column", "y"], set()),
     (["fit", "--climate", "monthly"], {"densum.climate"}),
     (["fit", GOLDEN_FRAME, *GOLDEN_FIT, "--partitions", "5,10,25", "--screen", "x3",
       "--out", "fit.json"], set()),
     (["diagnose", GOLDEN_FRAME, *GOLDEN_FIT, "--coefficient", "x1", "--out", "diag"], set())],
    ids=["ci", "fit", "diagnose", "fit-climate", "fit-partitions-screen", "diagnose-coefficient"],
)
def test_each_command_imports_only_what_it_runs(regression_csv, tmp_path, argv, loaded):
    if "--climate" in argv:
        data = str(tmp_path / "climate.csv")
        write_climate_csv(
            [densum.climate.ClimateRow(1979 + i // 12, i % 12 + 1, 0.01 * (i % 7), 340.0 + i)
             for i in range(48)],
            data,
        )
        argv = [argv[0], data, *argv[1:]]
    elif GOLDEN_FRAME not in argv:
        argv = [argv[0], regression_csv, *argv[1:]]
    imported = _modules_imported_by(argv, tmp_path)
    assert "densum.analysis" in imported  # the probe sees densum's own imports
    unused = {"densum.simulation", "densum.climate", "urllib.request", "scipy"} - loaded
    assert imported & (unused | loaded) == loaded


class TestOneProcessManyCommands:
    """One process may run many commands through ``main`` on one parser."""

    def test_the_parser_is_built_once(self):
        assert densum.cli.build_parser() is densum.cli.build_parser()

    def test_fit_flags_do_not_reach_the_next_fit(self, capsys):
        assert main(["fit", GOLDEN_FRAME, *GOLDEN_FIT, "--partitions", "5,10",
                     "--screen", "x3"]) == 0
        first = capsys.readouterr().out
        assert "partition check" in first and "retention screen" in first
        assert main(["fit", GOLDEN_FRAME, *GOLDEN_FIT]) == 0
        second = capsys.readouterr().out
        assert "model:" in second
        for line in ("partition check", "comparator Wald", "retention screen"):
            assert line not in second

    def test_a_diagnosed_column_does_not_reach_the_next_diagnose(self, capsys):
        assert main(["diagnose", GOLDEN_FRAME, "--column", "y"]) == 0
        assert "series: y " in capsys.readouterr().out
        assert main(["diagnose", GOLDEN_FRAME, *GOLDEN_FIT, "--coefficient", "x1"]) == 0
        assert "series: weighted residuals: x1 " in capsys.readouterr().out

    def test_a_replaced_handler_runs(self, unit_column, monkeypatch):
        assert main(["ci", unit_column, "--column", "y"]) == 0  # the parser is built
        seen = []

        def handler(args):
            seen.append(args.column)
            return 7

        monkeypatch.setattr(densum.cli, "cmd_ci", handler)
        assert main(["ci", unit_column, "--column", "y"]) == 7
        assert seen == ["y"]


def test_fetch_climate_reports_network_failures(tmp_path, capsys):
    rc = main(["fetch-climate", "--temp-url", "http://127.0.0.1:9/none",
               "--co2-url", "http://127.0.0.1:9/none",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "network failure:" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("densum") is None, reason="entry point not on PATH")
def test_installed_entry_point(tmp_path):
    out = tmp_path / "t2.csv"
    proc = subprocess.run(
        ["densum", "simulate", "--table", "2", "--shape", "10", "--reps", "1",
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "wrote 1 rows" in proc.stdout
