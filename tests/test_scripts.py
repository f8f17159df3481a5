import importlib.util
from pathlib import Path

import pytest

import densum.simulation
from densum.cli import main
from densum.simulation import read_results_csv
from densum.climate import write_climate_csv
from test_climate import make_rows

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load_script(name):
    """scripts/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def coverage_tables():
    return _load_script("run_coverage_tables")


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

    monkeypatch.setattr(densum.simulation, "run_table", never)
    missing = tmp_path / "missing"
    assert coverage_tables.main(["--tables", "1", "--prefix", str(missing / "cov")]) == 1
    assert f"output directory {missing} does not exist" in capsys.readouterr().err


def test_climate_pipeline_writes_what_fit_and_diagnose_write(tmp_path):
    data = tmp_path / "climate.csv"
    write_climate_csv(make_rows(with_index=True), data)
    prefix = tmp_path / "pipe"
    pipeline = _load_script("climate_pipeline")
    assert pipeline.main(["--csv", str(data), "--out-prefix", str(prefix)]) == 0
    outputs = sorted(p.name for p in tmp_path.glob("pipe_*"))
    assert len(outputs) == 8
    for unit in ("monthly", "yearly"):
        direct = tmp_path / f"direct_{unit}"
        assert main(["fit", str(data), "--climate", unit, "--range", "residual",
                     "--screen", "log_index_lag1", "--out", f"{direct}.json"]) == 0
        assert main(["diagnose", str(data), "--climate", unit,
                     "--coefficient", "log_co2_lag1", "--out", str(direct)]) == 0
    for name in outputs:
        direct = tmp_path / name.replace("pipe_", "direct_", 1)
        assert (tmp_path / name).read_bytes() == direct.read_bytes(), name
