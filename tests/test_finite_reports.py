"""No report of ci, fit or diagnose carries a non-finite number.

Each sum of squares on the analysis path, and the ACF's input, is scaled by
a power of two (``core.binary_scale``) and scaled back.  Binary scaling is
exact, so a frame whose response is multiplied by 2**530 (its largest |y|
is about 1.9e160, whose square overflows) gives estimates, set ends and
location figures exactly 2**530 times those of the plain frame, and the same
scale-free diagnostics.  Where an answer itself lies beyond double precision,
the command refuses with one error line.  Every run here turns warnings into
errors, so an overflow that is only warned about fails too.
"""

import csv
import json
import re
import warnings

import pytest

from conftest import GOLDEN_FIT, GOLDEN_FRAME
from densum.cli import main

SCALE = 2.0 ** 530
LOCATION = ("expected_value", "functional_average", "tolerance")  # these scale with the data


def run(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(argv)
    return status, capsys.readouterr()


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture(scope="module")
def scaled_frame(tmp_path_factory):
    """The golden frame with y multiplied by 2**530."""
    path = tmp_path_factory.mktemp("scaled") / "scaled.csv"
    with open(GOLDEN_FRAME, newline="") as source, open(path, "w", newline="") as target:
        rows, writer = csv.reader(source), csv.writer(target)
        writer.writerow(next(rows))
        for y, *x in rows:
            writer.writerow([repr(float(y) * SCALE), *x])
    return str(path)


def test_a_huge_known_range_gives_finite_fit_sets(tmp_path, capsys):
    widths = {}
    for R in ("1", "1e300"):
        out = tmp_path / f"{R}.json"
        status, captured = run(["fit", GOLDEN_FRAME, *GOLDEN_FIT, "--range", f"known={R}",
                                "--out", str(out)], capsys)
        assert status == 0 and "inf" not in captured.out
        rows = strict_json(out.read_text())["coefficients"]
        widths[R] = [row["ci_upper"] - row["ci_lower"] for row in rows]
    assert widths["1e300"] == pytest.approx([1e300 * w for w in widths["1"]], rel=1e-12)


def test_a_huge_known_range_gives_a_finite_bernstein_set(capsys):
    widths = {}
    for R in ("40", "1e300"):  # 40 bounds the column's own range
        status, captured = run(["ci", GOLDEN_FRAME, "--column", "y", "--method", "bernstein",
                                "--range", f"known={R}"], capsys)
        assert status == 0
        payload = strict_json(captured.out.splitlines()[-1])
        widths[R] = payload["upper"] - payload["lower"]
    assert widths["1e300"] == pytest.approx(1e300 / 40 * widths["40"], rel=1e-12)


def test_a_set_beyond_double_precision_is_refused(tmp_path, capsys):
    path = tmp_path / "three.csv"
    path.write_text("y\n0\n1\n2\n")
    status, captured = run(["ci", str(path), "--column", "y", "--method", "hoeffding",
                            "--range", "known=1e308", "--alpha", "1e-10"], capsys)
    assert status == 1 and captured.out == ""
    assert captured.err.startswith("error: the hoeffding set 1 +- ")
    assert captured.err.endswith(" overflows double precision: the range R = 1e+308 or the "
                                 "data's magnitude is too large\n")


def test_a_fit_on_a_scaled_frame_is_the_plain_fit_scaled(scaled_frame, tmp_path, capsys):
    reports = {}
    for name, frame in (("plain", GOLDEN_FRAME), ("scaled", scaled_frame)):
        out = tmp_path / f"{name}.json"
        status, _ = run(["fit", frame, *GOLDEN_FIT, "--out", str(out)], capsys)
        assert status == 0
        reports[name] = strict_json(out.read_text())
    plain, scaled = reports["plain"], reports["scaled"]
    for a, b in zip(plain["coefficients"], scaled["coefficients"], strict=True):
        assert [b[k] for k in ("estimate", "ci_lower", "ci_upper")] == \
            [a[k] * SCALE for k in ("estimate", "ci_lower", "ci_upper")]
    for a, b in zip(plain["diagnostics"], scaled["diagnostics"], strict=True):
        assert b == {k: v * SCALE if k in LOCATION else v for k, v in a.items()}


@pytest.mark.parametrize("series", [["--column", "y"], [*GOLDEN_FIT, "--coefficient", "x1"]],
                         ids=["column", "coefficient"])
def test_diagnose_on_a_scaled_frame_keeps_the_scale_free_outputs(scaled_frame, tmp_path, capsys,
                                                                 series):
    lines = {}
    for name, frame in (("plain", GOLDEN_FRAME), ("scaled", scaled_frame)):
        status, captured = run(["diagnose", frame, *series, "--out", str(tmp_path / name)],
                               capsys)
        assert status == 0
        lines[name] = captured.out.splitlines()
    assert lines["scaled"][2:5] == lines["plain"][2:5]  # phi_hat, the bound, the drift note
    assert (tmp_path / "scaled_acf.csv").read_bytes() == (tmp_path / "plain_acf.csv").read_bytes()


def test_partition_checks_on_a_scaled_frame_are_the_plain_ones(scaled_frame, capsys):
    checks, wald = {}, {}
    for name, frame in (("plain", GOLDEN_FRAME), ("scaled", scaled_frame)):
        status, captured = run(["fit", frame, *GOLDEN_FIT, "--partitions", "5,10,25"], capsys)
        assert status == 0
        lines = captured.out.splitlines()
        checks[name] = [line for line in lines if "partition check" in line]
        wald[name] = [float(v) for v in re.search(r"\[(\S+), (\S+)\]$", lines[-1]).groups()]
    assert len(checks["plain"]) == 4 and checks["scaled"] == checks["plain"]
    assert wald["scaled"] == pytest.approx([v * SCALE for v in wald["plain"]], rel=1e-5)
