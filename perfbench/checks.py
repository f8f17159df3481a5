"""Output checks: committed reference outputs and the oracles already in use.

Numbers are compared at the 6-significant-digit format of the results CSV:
two values agree when they are equal or differ by at most one unit in the
sixth significant digit of the reference, so a change that moves a value
across a rounding boundary by a few ulps still agrees.  Columns and keys
that the reference lacks are ignored, so outputs may grow new fields.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import lzma
import math
from pathlib import Path

import numpy as np

VERDICTS = ("holds", "boundary", "violated")
RATE_COLUMNS = ("ci_wald", "ci_u", "ci_r")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def agree6(ref, got):
    """True when ``got`` matches ``ref`` at six significant digits."""
    a, b = _number(ref), _number(got)
    if a is None or b is None:
        return ref == got
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)) or a == 0.0:
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(a))) - 5)
    return abs(a - b) <= unit * (1.0 + 1e-9)


def csv_rows(text):
    """Rows of a CSV as dicts, one at a time, skipping ``#`` comment lines.

    Rows are streamed so that checking an output never holds more memory
    than the program that wrote it; ``peak_rss_mb`` measures the program.
    """
    return csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#"))


def compare_csv(ref_text, got_text, label):
    problems = []
    rows = itertools.zip_longest(csv_rows(ref_text), csv_rows(got_text))
    for i, (r, g) in enumerate(rows, start=1):
        if r is None or g is None:
            return problems + [f"{label}: row count differs from the reference"]
        for key, value in r.items():
            if key not in g:
                return problems + [f"{label}: column {key!r} missing"]
            if not agree6(value, g[key]):
                problems.append(f"{label} row {i} {key}: {g[key]!r} != reference {value!r}")
        if len(problems) >= 10:
            break
    return problems


def compare_json(ref, got, label):
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{label}: expected an object"]
        problems = []
        for key, value in ref.items():
            if key not in got:
                problems.append(f"{label}.{key}: missing")
            else:
                problems += compare_json(value, got[key], f"{label}.{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{label}: expected a list of {len(ref)}"]
        problems = []
        for i, (r, g) in enumerate(zip(ref, got)):
            problems += compare_json(r, g, f"{label}[{i}]")
        return problems
    return [] if agree6(ref, got) else [f"{label}: {got!r} != reference {ref!r}"]


def reference_path(workload, name):
    return REFERENCE_DIR / workload / f"{name}.xz"


def compare_reference(workload, name, path):
    """Compare one output file against its committed reference."""
    ref_text = lzma.decompress(reference_path(workload, name).read_bytes()).decode()
    got_text = Path(path).read_text()
    if name.endswith(".json"):
        return compare_json(json.loads(ref_text), json.loads(got_text), name)
    return compare_csv(ref_text, got_text, name)


# ---------------------------------------------------------------------------
# checks that hold for every seed
# ---------------------------------------------------------------------------


def check_results_csv(path, expected_rows):
    """Coverage rates in [0, 1], known verdicts, ordered endpoints."""
    rows = list(csv_rows(Path(path).read_text()))
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} result rows, expected {expected_rows}")
    for i, row in enumerate(rows, start=1):
        for key in RATE_COLUMNS:
            if row.get(key):
                rate = float(row[key])
                if not 0.0 <= rate <= 1.0:
                    problems.append(f"row {i}: {key}={rate} outside [0, 1]")
        if row.get("verdict") not in VERDICTS:
            problems.append(f"row {i}: verdict {row.get('verdict')!r}")
        if float(row["mean_lower"]) > float(row["mean_upper"]):
            problems.append(f"row {i}: mean_lower > mean_upper")
    return problems


def close(a, b, rtol=1e-8, atol=0.0):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def weight_rows(X):
    """(X'X)^{-1} X' by the normal equations, independent of the program's QR."""
    return np.linalg.solve(X.T @ X, X.T)


def direct_acf(series, lags):
    """r_1..r_lags by direct per-lag sums (the loop ACF)."""
    c = np.asarray(series, dtype=float) - np.mean(series)
    denom = float(c @ c)
    n = c.shape[0]
    return np.array([float(c[: n - l] @ c[l:]) / denom for l in range(1, lags + 1)])


def check_acf_csv(path, oracle):
    """Every (lag, r) row of a diagnose ACF CSV against the direct sums."""
    problems, count = [], 0
    for count, row in enumerate(csv_rows(Path(path).read_text()), start=1):
        lag = int(row["lag"])
        if not 1 <= lag <= oracle.shape[0]:
            return [f"ACF lag {lag} out of range"]
        expected = oracle[lag - 1]
        got = float(row["r"])
        if not (agree6(f"{expected:.6g}", got) or abs(got - expected) <= 1e-9):
            problems.append(f"ACF lag {lag} ({row['window']}): {got} != direct sum {expected:.6g}")
    return problems[:10] if count else ["ACF CSV is empty"]
