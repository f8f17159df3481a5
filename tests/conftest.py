import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import densum
from densum.analysis import fit_frame
from densum.estimators import ols_fit

PACKAGE_ROOT = str(Path(densum.__file__).resolve().parents[1])  # children import this densum
GOLDEN_FRAME = str(Path(__file__).parent / "golden" / "analysis_200.csv")
GOLDEN_FIT = ["--response", "y", "--covariates", "x1,x2,x3"]


def golden_fit(k=0):
    """The least-squares fit of GOLDEN_FIT on GOLDEN_FRAME, its y times 2**k."""
    y, X, _ = fit_frame(GOLDEN_FRAME, "y", ["x1", "x2", "x3"], None)
    return ols_fit(X, y * 2.0 ** k)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def no_work(monkeypatch):
    """Refuse the work of the commands that read no input: simulate's grid and
    fetch-climate's download.  (ci, fit and diagnose are given an input that
    does not exist: reading it first would fail with its own error.)"""
    def never(*args, **kwargs):
        raise AssertionError("the work must not start")

    monkeypatch.setattr("densum.simulation.run_table", never)
    monkeypatch.setattr("densum.climate.fetch_climate", never)


def random_psd(rng, n, rank=None):
    """A random symmetric PSD matrix with nontrivial off-diagonal mass."""
    rank = rank if rank is not None else n
    G = rng.standard_normal((n, rank))
    A = G @ G.T / rank
    # Lift the diagonal a touch so extracted correlations stay finite.
    return A + 0.05 * np.eye(n)


def run_python(*args, prefix=(), env=None, cwd=None, timeout=300, status=0):
    """Run ``[*prefix, python, *args]`` with ``env`` (or this one's) and this densum first on
    PYTHONPATH; check its exit status and return it.  A child past ``timeout`` s fails."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([*prefix, sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, cwd=cwd, env=env)
    assert proc.returncode == status, proc.stderr
    return proc
