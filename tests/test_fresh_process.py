"""Checks that need a fresh process: the worker count and OpenBLAS's thread count are
fixed at a process's start, and its peak RSS only grows.  The peak is the child's own
``VmHWM``, which exec starts afresh; ``ru_maxrss`` keeps the parent's peak across exec.
The coverage engine's forked workers report theirs in ``RUSAGE_CHILDREN``."""

import json
import os
import shutil
import sys

import numpy as np
import pytest

from conftest import GOLDEN_FIT, GOLDEN_FRAME, run_python

pytestmark = [pytest.mark.acceptance,
              pytest.mark.skipif(sys.platform != "linux", reason="taskset and /proc/self/status")]

GROWTH = """import json, resource, sys
from densum.cli import main
def peak():  # KiB
    return int(open("/proc/self/status").read().split("VmHWM:")[1].split()[0])
warm, run = json.loads(sys.argv[1])
assert main(warm) == 0
before = peak()
assert main(run) == 0
workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB, 0 if none forked
print((peak() - before) / 1024, (workers - before) / 1024)"""


def rss_growth_mb(warm, run, env=None):
    """Peak RSS growth (MB) of a fresh process that runs densum ``warm``, then ``run``:
    the caller's own, and its largest worker's peak less the caller's peak before ``run``."""
    return [float(mb) for mb in
            run_python("-c", GROWTH, json.dumps([warm, run]), env=env).stdout.split()[-2:]]


def written(directory, *argv, **kwargs):
    """Every file, by name, that densum ``argv`` writes in a new ``directory``."""
    directory.mkdir()
    run_python("-m", "densum.cli", *argv, cwd=directory, **kwargs)
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def blas_env(threads):
    """This environment with OpenBLAS on ``threads`` threads (None: its default)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}


# --phi 3.1 scores the dense product whole; table 1 splits rank-one blocks, table 2
# shares one factor by four cells, table 3 at n = 100 runs the p = 2 sandwich.
@pytest.mark.skipif(shutil.which("taskset") is None, reason="no taskset")
@pytest.mark.parametrize("cell", ["--table 3 --phi 3.1", "--table 1 --n 100", "--table 2",
                                  "--table 3 --n 100"])
def test_simulate_outputs_do_not_depend_on_the_worker_count(tmp_path, cell):
    from densum.simulation import block_rows
    # 1.3 times the largest block, block_rows(100), makes a full block and a
    # partial one at every n; under taskset -c 0 the derived worker count is 1.
    argv = ["simulate", *cell.split(), "--reps", str(block_rows(100) * 13 // 10), "--seed", "0",
            "--out", "out.csv"]
    assert written(tmp_path / "all", *argv) == written(tmp_path / "one", *argv,
                                                       prefix=("taskset", "-c", "0"))


@pytest.mark.parametrize("cell", ["--table 1", "--table 2", "--table 3 --n 1500"])
def test_a_reps_10000_runs_peak_rss_does_not_grow_with_n(cell):
    # A block holds BLOCK_VALUES values (4 MiB) at every n and is scored on two
    # such buffers; 1000-row blocks grew the peak by about 42 MB at n = 1500.
    warm = ["simulate", "--table", "3", "--n", "100", "--reps", "20", "--out", os.devnull]
    # The warm-up forks nothing, so a worker's peak is the run's; forked from
    # the caller, it shares the caller's pages until it writes them.
    growth, worker = rss_growth_mb(warm, ["simulate", *cell.split(), "--reps", "10000",
                                          "--out", os.devnull])
    assert growth <= 15.0, f"peak RSS grew {growth:.1f} MB"
    assert worker <= 15.0, (f"a worker's peak RSS exceeded the caller's pre-run peak by "
                            f"{worker:.1f} MB")


@pytest.mark.parametrize("argv", ["fit --partitions 5,10,25 --screen x3 --out fit.json",
                                  "diagnose --coefficient x1 --out diagnose"])
def test_analysis_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    argv = [*argv.split(), GOLDEN_FRAME, *GOLDEN_FIT]  # diagnose writes three plot CSVs
    assert written(tmp_path / "default", *argv, env=blas_env(None)) == written(
        tmp_path / "one", *argv, env=blas_env("1"))


@pytest.fixture(scope="module")
def frames(tmp_path_factory):
    """A generated 1M-row, p = 4 frame and its first 1000 rows, as CSV paths."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (1_000_000, 3))
    y = 1.0 + x @ [2.0, -1.0, 0.5] + rng.uniform(-1.0, 1.0, 1_000_000)
    paths = [str(tmp_path_factory.mktemp("frames") / name) for name in ("1m.csv", "1k.csv")]
    for path, rows in zip(paths, (1_000_000, 1000)):
        np.savetxt(path, np.column_stack([y, x])[:rows], fmt="%.10f", delimiter=",",
                   header="y,x1,x2,x3", comments="")
    return paths


@pytest.mark.parametrize("threads", [None, "1"], ids=["blas-default", "blas-1"])
@pytest.mark.parametrize("screen", [[], ["--screen", "x3"]], ids=["partitions", "screen"])
def test_a_1m_row_fit_grows_the_rss_by_at_most_six_designs(frames, tmp_path, threads, screen):
    # Warmed by a fit of the first 1000 rows; numpy's QR holds five designs (the
    # design, its copy, LAPACK's two work arrays and Q).  At 1M rows the JSON's
    # last digits follow the thread count, so it is not compared.
    model = [*GOLDEN_FIT, "--partitions", "5,10,25", *screen, "--out", str(tmp_path / "fit.json")]
    growth, _ = rss_growth_mb(["fit", frames[1], *model], ["fit", frames[0], *model],
                              env=blas_env(threads))
    design = 1_000_000 * 4 * 8 / 2**20
    assert growth <= 6 * design, f"peak RSS grew {growth / design:.2f} designs"
