"""Golden analysis outputs: ``ci``, ``fit`` and ``diagnose`` on one committed CSV.

``tests/golden/analysis_200.csv`` is perfbench's synthetic frame at seed 0
and 200 rows (``workloads.write_frame(path, workloads.synthetic_frame(0,
200))``: bounded covariates x1..x3, AR(1) errors).  Beside it:

* ``analysis_200_fit.json``, the report of ``densum fit analysis_200.csv
  --response y --covariates x1,x2,x3 --partitions 5,10,25 --screen x3
  --out ...``;
* ``analysis_200_diagnose_x1_{hist,ecdf,acf}.csv``, the plot CSVs of
  ``densum diagnose analysis_200.csv --response y --covariates x1,x2,x3
  --coefficient x1 --out ...``;
* ``analysis_200_ci_y.txt`` and ``analysis_200_ci_y_hoeffding_known40.txt``,
  the stdout of ``densum ci analysis_200.csv --column y``, plain and with
  ``--method hoeffding --range known=40``: the set's line, then its JSON.

A rerun must reproduce every label, flag, count and lag exactly and every
other number at six significant digits (``agree6``), as the coverage
goldens do.  The one exception is a diagnostic's ``expected_value``, the
mean of a least-squares fit's weighted residuals W_s e: it is zero up to
rounding (W e = 0), so it is checked to be below 1e-14 in magnitude.
"""

import csv
import json
import re
from pathlib import Path

import pytest

from conftest import GOLDEN_FIT, GOLDEN_FRAME
from densum.cli import main
from test_golden import GOLDEN, agree6

ZERO_UP_TO_ROUNDING = 1e-14


def _assert_agrees(ref, got, path):
    if isinstance(ref, dict):
        assert got.keys() == ref.keys(), path
        for key, value in ref.items():
            if key == "expected_value":
                assert abs(got[key]) < ZERO_UP_TO_ROUNDING, (path, got[key])
            else:
                _assert_agrees(value, got[key], path + (key,))
    elif isinstance(ref, list):
        assert len(got) == len(ref), path
        for i, (a, b) in enumerate(zip(ref, got)):
            _assert_agrees(a, b, path + (i,))
    elif isinstance(ref, float):
        assert isinstance(got, float) and agree6(ref, got), (path, got, ref)
    else:  # str, bool, int, None
        assert got == ref and type(got) is type(ref), (path, got, ref)


def test_fit_reproduces_the_golden_report(tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit", GOLDEN_FRAME, *GOLDEN_FIT, "--partitions", "5,10,25", "--screen", "x3",
                 "--out", str(out)]) == 0
    expected = json.loads((GOLDEN / "analysis_200_fit.json").read_text())
    _assert_agrees(expected, json.loads(out.read_text()), ())


# ci's stdout line: its numbers and the text between them
NUMBER = re.compile(r"(-?[0-9.]+(?:e[-+]?[0-9]+)?)")


@pytest.mark.parametrize(
    "flags, golden",
    [([], "analysis_200_ci_y.txt"),
     (["--method", "hoeffding", "--range", "known=40"], "analysis_200_ci_y_hoeffding_known40.txt")],
    ids=["u", "hoeffding-known40"],
)
def test_ci_reproduces_the_golden_stdout(capsys, flags, golden):
    assert main(["ci", GOLDEN_FRAME, "--column", "y", *flags]) == 0
    line, payload = capsys.readouterr().out.splitlines()
    ref_line, ref_payload = (GOLDEN / golden).read_text().splitlines()
    got, ref = NUMBER.split(line), NUMBER.split(ref_line)
    assert len(got) == len(ref), line
    assert got[0::2] == ref[0::2], line  # the text between the numbers
    assert all(agree6(a, b) for a, b in zip(ref[1::2], got[1::2])), (line, ref_line)
    _assert_agrees(json.loads(ref_payload), json.loads(payload), ())


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_diagnose_reproduces_the_golden_plot_csvs(tmp_path):
    prefix = tmp_path / "diag"
    assert main(["diagnose", GOLDEN_FRAME, *GOLDEN_FIT, "--coefficient", "x1",
                 "--out", str(prefix)]) == 0
    for part, exact in (("hist", {"count"}), ("ecdf", set()), ("acf", {"lag", "window"})):
        expected = _rows(GOLDEN / f"analysis_200_diagnose_x1_{part}.csv")
        got = _rows(f"{prefix}_{part}.csv")
        assert got[0] == expected[0], part
        assert len(got) == len(expected), part
        for i, (ref, row) in enumerate(zip(expected[1:], got[1:]), start=1):
            assert len(row) == len(ref), (part, i)
            for key, a, b in zip(expected[0], ref, row):
                assert (b == a) if key in exact else agree6(a, b), (part, i, key, b, a)
