"""The benchmark's workloads: CLI commands, their inputs and their checks.

Every workload is a closed loop with one client: a pass runs its commands
one after another, each starting when the previous one has finished.  The
program receives only generated inputs: the master seed of the coverage
grids, or synthetic CSV files built from the benchmark seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

GRID_MEAN_REPS = 2000
GRID_REGRESSION_REPS = 5000
FIT_SIZES = (5000, 20000, 40000)
ALPHA = 0.05  # the CLI's default level


@dataclass
class Op:
    """One CLI command.  ``outputs`` maps a reference name to the file the
    command writes; ``verify`` returns the problems found by the checks that
    hold for every seed."""

    label: str
    argv: list
    outputs: dict
    verify: Callable[[], list]


@dataclass
class Workload:
    name: str
    ops: list
    work_per_pass: float  # cell-replications, or CSV rows read
    work_name: str  # the throughput's name and unit in the printed summary
    work_unit: str
    simulates: bool  # runs the copula sampler (enables the allocation pass)
    reference: bool  # compare outputs against the committed references

    def check(self, op):
        problems = op.verify()
        if self.reference:
            for name, path in op.outputs.items():
                problems += checks.compare_reference(self.name, name, path)
        return problems


def _kilo(n):
    return f"{n // 1000}k" if n % 1000 == 0 else str(n)


def _simulate(table, reps, seed, out, expected_rows):
    return Op(
        label=f"simulate_table{table}",
        argv=["simulate", "--table", str(table), "--reps", str(reps), "--seed", str(seed),
              "--out", str(out)],
        outputs={f"table{table}.csv": out},
        verify=lambda: checks.check_results_csv(out, expected_rows),
    )


def grid_mean(seed, workdir, reps=GRID_MEAN_REPS):
    """Tables 1 and 2: 16 Beta-marginal cells, exchangeable correlation."""
    ops = [
        _simulate(1, reps, seed, workdir / "table1.csv", 12),
        _simulate(2, reps, seed, workdir / "table2.csv", 4),
    ]
    return Workload("grid-mean", ops, 16 * reps, "reps_per_s", "cell-replications/s", True,
                    seed == 0 and reps == GRID_MEAN_REPS)


def grid_regression(seed, workdir, reps=GRID_REGRESSION_REPS):
    """Table 3: 12 truncated-normal regression cells, two rows per cell."""
    ops = [_simulate(3, reps, seed, workdir / "table3.csv", 24)]
    return Workload("grid-regression", ops, 12 * reps, "reps_per_s", "cell-replications/s", True,
                    seed == 0 and reps == GRID_REGRESSION_REPS)


# ---------------------------------------------------------------------------
# fit-csv
# ---------------------------------------------------------------------------


def synthetic_frame(seed, n):
    """Bounded covariates and AR(1) errors with uniform innovations."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(n,))))
    x1 = rng.uniform(0.0, 1.0, n)
    x2 = rng.uniform(-1.0, 1.0, n)
    x3 = rng.uniform(0.0, 2.0, n)
    u = rng.uniform(-1.0, 1.0, n)
    e = np.empty(n)
    prev = 0.0
    for t in range(n):
        prev = 0.5 * prev + u[t]
        e[t] = prev
    y = 1.0 + 2.0 * x1 - x2 + 0.5 * x3 + e
    return np.column_stack([y, x1, x2, x3])


def write_frame(path, frame):
    np.savetxt(path, frame, fmt="%.10f", delimiter=",", header="y,x1,x2,x3", comments="")


class FitOracle:
    """Expected values for one synthetic CSV, computed without densum."""

    def __init__(self, path):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        self.n = data.shape[0]
        self.y = data[:, 0]
        self.X = np.column_stack([np.ones(self.n), data[:, 1:]])
        self.coefficients = np.linalg.lstsq(self.X, self.y, rcond=None)[0]
        W = checks.weight_rows(self.X)
        residuals = self.y - self.X @ (W @ self.y)
        self.acf_x1 = checks.direct_acf(W[1] * residuals, (self.n - 1) // 2)

    def check_ci(self, path):
        got = json.loads(Path(path).read_text())
        half = (self.y.max() - self.y.min()) * math.sqrt(math.log(2.0 / ALPHA) / (6.0 * self.n))
        mean = float(np.mean(self.y))
        problems = []
        for key, expected in (("lower", mean - half), ("upper", mean + half)):
            if not checks.close(got[key], expected, rtol=1e-9):
                problems.append(f"ci {key}={got[key]} != {expected}")
        return problems

    def check_fit(self, path):
        report = json.loads(Path(path).read_text())
        rows = report["coefficients"]
        if len(rows) != self.coefficients.shape[0]:
            return [f"fit reports {len(rows)} coefficients"]
        problems = []
        scale = float(np.max(np.abs(self.coefficients)))
        for row, expected in zip(rows, self.coefficients):
            if not checks.close(row["estimate"], expected, rtol=1e-8, atol=1e-10 * scale):
                problems.append(f"fit {row['name']}={row['estimate']} != lstsq {expected}")
            if not row["ci_lower"] <= row["estimate"] <= row["ci_upper"]:
                problems.append(f"fit {row['name']}: estimate outside its confidence set")
        if not report["diagnostics"]:
            problems.append("fit report has no diagnostics")
        return problems

    def check_diagnose(self, prefix):
        problems = checks.check_acf_csv(f"{prefix}_acf.csv", self.acf_x1)
        ecdf_rows = sum(1 for _ in checks.csv_rows(Path(f"{prefix}_ecdf.csv").read_text()))
        if ecdf_rows != self.n:
            problems.append(f"ECDF has {ecdf_rows} rows, expected {self.n}")
        hist = checks.csv_rows(Path(f"{prefix}_hist.csv").read_text())
        if sum(int(row["count"]) for row in hist) != self.n:
            problems.append("histogram counts do not sum to n")
        return problems


def fit_csv(seed, workdir, sizes=FIT_SIZES):
    """ci, fit and diagnose on one synthetic CSV per size."""
    ops = []
    for n in sizes:
        k = _kilo(n)
        data = workdir / f"frame_{k}.csv"
        write_frame(data, synthetic_frame(seed, n))
        oracle = FitOracle(data)
        ci_out, fit_out = workdir / f"ci_{k}.json", workdir / f"fit_{k}.json"
        diag_out = workdir / f"diag_{k}"
        model = ["--response", "y", "--covariates", "x1,x2,x3"]
        ops += [
            Op(f"ci_{k}", ["ci", str(data), "--column", "y", "--out", str(ci_out)],
               {f"ci_{k}.json": ci_out},
               lambda o=oracle, p=ci_out: o.check_ci(p)),
            Op(f"fit_{k}",
               ["fit", str(data), *model, "--partitions", "5,10,25", "--screen", "x3",
                "--out", str(fit_out)],
               {f"fit_{k}.json": fit_out},
               lambda o=oracle, p=fit_out: o.check_fit(p)),
            Op(f"diagnose_{k}",
               ["diagnose", str(data), *model, "--coefficient", "x1", "--out", str(diag_out)],
               {f"diagnose_{k}_{part}.csv": Path(f"{diag_out}_{part}.csv")
                for part in ("hist", "ecdf", "acf")},
               lambda o=oracle, p=diag_out: o.check_diagnose(p)),
        ]
    return Workload("fit-csv", ops, 3 * sum(sizes), "rows_per_s", "rows/s", False,
                    seed == 0 and tuple(sizes) == FIT_SIZES)


WORKLOADS = {"grid-mean": grid_mean, "grid-regression": grid_regression, "fit-csv": fit_csv}


def warm_up_commands(workdir):
    """Small commands that pull in the program's lazy imports."""
    frame = workdir / "warm.csv"
    write_frame(frame, synthetic_frame(0, 50))
    return [
        ["simulate", "--table", "1", "--n", "100", "--phi", "0.06", "--reps", "4",
         "--out", str(workdir / "warm_table1.csv")],
        ["fit", str(frame), "--response", "y", "--covariates", "x1",
         "--out", str(workdir / "warm_fit.json")],
    ]
