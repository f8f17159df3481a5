import importlib.util
from pathlib import Path

import pytest

import densum.cli
from densum.cli import main, read_results_csv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def coverage_tables():
    """scripts/run_coverage_tables.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "run_coverage_tables", SCRIPTS / "run_coverage_tables.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_writes_what_simulate_writes(coverage_tables, tmp_path):
    prefix = tmp_path / "cov"
    assert coverage_tables.main(["--tables", "2", "--reps", "20", "--prefix", str(prefix)]) == 0
    direct = tmp_path / "direct.csv"
    assert main(["simulate", "--table", "2", "--reps", "20", "--out", str(direct)]) == 0
    assert Path(f"{prefix}_table2.csv").read_bytes() == direct.read_bytes()


def test_env_seed_reaches_the_seed_column(coverage_tables, tmp_path, monkeypatch):
    monkeypatch.setenv("DENSUM_SEED", "5")
    prefix = tmp_path / "cov"
    assert coverage_tables.main(["--tables", "2", "--reps", "2", "--prefix", str(prefix)]) == 0
    assert {r["seed"] for r in read_results_csv(f"{prefix}_table2.csv")} == {"5"}


def test_missing_prefix_directory_fails_before_the_work(
    coverage_tables, tmp_path, monkeypatch, capsys
):
    def never(config):
        raise AssertionError("run_table must not run")

    monkeypatch.setattr(densum.cli, "run_table", never)
    missing = tmp_path / "missing"
    assert coverage_tables.main(["--tables", "1", "--prefix", str(missing / "cov")]) == 1
    assert f"output directory {missing} does not exist" in capsys.readouterr().err
