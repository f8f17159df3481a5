"""fit and diagnose hold a bounded multiple of the design's bytes.

The traced peak (tracemalloc: numpy's arrays and Python's objects, not
LAPACK's or the FFT's internal buffers) of each command, run through
``cli.main`` on a 100k-row, p = 4 frame, is bounded by a multiple of the
design's n * p * 8 bytes, D.  With p = 4, an n-vector is D / 4.  The bounds
were fixed from what each command must hold at once:

* fit: the fit holds the design and the weight rows (D each) and the
  outcomes, fitted values and residuals (D / 4 each), 2.75 D.  On top of
  that come a series diagnostic's series, spectrum and inverse transform
  (about 1.5 D at this n), or the sandwich's [1, X] layout (1.25 D) and its
  index arrays.  The bound is 5 D.
* diagnose: the QR holds the design, the outcomes, numpy's copy of the
  design and Q, 3.25 D.  The bound is 4 D.

Holding the loaded table next to the design puts either command above its
bound; holding the three partitions through the fit, or the whole fit through
the screen's reduced fit, puts fit above its own.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import GOLDEN_FIT
from densum.cli import main

N, P = 100_000, 4
DESIGN_BYTES = N * P * 8


@pytest.fixture(scope="module")
def frame(tmp_path_factory):
    rng = np.random.default_rng(30)
    x = rng.uniform(0.0, 1.0, (N, P - 1))
    y = 1.0 + x @ [2.0, -1.0, 0.5] + rng.uniform(-1.0, 1.0, N)
    folder = tmp_path_factory.mktemp("memory")
    for rows, name in ((100, "warm.csv"), (N, "frame.csv")):
        np.savetxt(folder / name, np.column_stack([y, x])[:rows], fmt="%.10f", delimiter=",",
                   header="y,x1,x2,x3", comments="")
    # the lazy imports (numpy.fft) load before any trace
    warm = str(folder / "warm.csv")
    assert main(["fit", warm, *GOLDEN_FIT, "--partitions", "2,3", "--screen", "x3"]) == 0
    assert main(["diagnose", warm, *GOLDEN_FIT, "--coefficient", "x1",
                 "--out", str(folder / "warm")]) == 0
    return folder / "frame.csv"


def traced_peak_in_designs(argv, capsys):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    return peak / DESIGN_BYTES


def test_fit_holds_at_most_five_designs(frame, tmp_path, capsys):
    argv = ["fit", str(frame), *GOLDEN_FIT, "--partitions", "5,10,25", "--screen", "x3",
            "--out", str(tmp_path / "fit.json")]
    peak = traced_peak_in_designs(argv, capsys)
    assert peak <= 5.0, f"fit's traced peak is {peak:.2f} designs"


def test_diagnose_holds_at_most_four_designs(frame, tmp_path, capsys):
    argv = ["diagnose", str(frame), *GOLDEN_FIT, "--coefficient", "x1",
            "--out", str(tmp_path / "diagnose")]
    peak = traced_peak_in_designs(argv, capsys)
    assert peak <= 4.0, f"diagnose's traced peak is {peak:.2f} designs"
