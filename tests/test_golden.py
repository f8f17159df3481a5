"""Golden outputs: the coverage tables at reps=2000 and 10000, seed 0.

``tests/golden/table{1,2,3}_reps{2000,10000}_seed0.csv`` are the results
CSVs of ``densum simulate --table T --reps R --seed 0``, and
``table3_phi3.1_reps2000_seed0.csv`` that of ``densum simulate --table 3
--phi 3.1 --reps 2000 --seed 0``, whose clipped mosaics take the dense
correlation product (repaired to lambda = 0.1 at n = 100, to the identity at
n = 500 and 1500).  A rerun must reproduce every coverage rate and verdict
exactly and every other cell at six significant digits.
"""

import math
from pathlib import Path

import pytest

import densum.simulation
from densum.cli import main
from densum.simulation import read_results_csv

GOLDEN = Path(__file__).parent / "golden"
EXACT = ("table", "n", "phi", "alpha_shape", "coefficient", "ci_wald", "ci_u", "ci_r",
         "verdict", "seed")


def agree6(ref, got):
    """True when ``got`` matches ``ref`` at six significant digits (one unit
    of the sixth digit of ``ref``); non-numeric cells must be equal."""
    try:
        a, b = float(ref), float(got)
    except ValueError:
        return ref == got
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)) or a == 0.0:
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(a))) - 5)
    return abs(a - b) <= unit * (1.0 + 1e-9)


# The reps=2000 cases keep their original ids.
@pytest.mark.parametrize(
    "table, reps, phi",
    [pytest.param(table, 2000, None, id=str(table)) for table in (1, 2, 3)]
    + [pytest.param(table, 10000, None, id=f"{table}-reps10000") for table in (1, 2, 3)]
    + [pytest.param(3, 2000, "3.1", id="3-phi3.1-dense")],
)
def test_simulate_reproduces_the_golden_table(table, reps, phi, tmp_path):
    out = tmp_path / f"table{table}.csv"
    restrict = ["--phi", phi] if phi else []
    assert main(["simulate", "--table", str(table), "--reps", str(reps), "--seed", "0",
                 *restrict, "--out", str(out)]) == 0
    name = f"table{table}_phi{phi}" if phi else f"table{table}"
    expected = read_results_csv(GOLDEN / f"{name}_reps{reps}_seed0.csv")
    got = read_results_csv(out)
    assert len(got) == len(expected)
    for i, (ref, row) in enumerate(zip(expected, got)):
        assert row.keys() == ref.keys()
        for key, value in ref.items():
            if key in EXACT:
                assert row[key] == value, (i, key)
            else:
                assert agree6(value, row[key]), (i, key, row[key], value)


@pytest.mark.parametrize("table", (1, 2, 3))
def test_golden_tables_do_not_depend_on_the_worker_count(table, tmp_path, monkeypatch):
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(densum.simulation, "WORKERS", workers)
        out = tmp_path / f"table{table}_workers{workers}.csv"
        assert main(["simulate", "--table", str(table), "--reps", "2000", "--seed", "0",
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
