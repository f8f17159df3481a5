"""Monthly climate-series ingestion and model-frame preparation.

The applied analysis regresses the global temperature anomaly on its own
lag, lagged log CO2, optionally a lagged log industrial-production index,
and (monthly unit only) season dummies with Winter (Dec-Feb) as the
reference.  This module turns raw public series into tidy rows, checks the
dates are gap-free, and builds the lagged design.

Fetching is strictly optional plumbing: the analysis commands accept any
CSV with columns ``date`` (ISO year-month), ``temp_anomaly``, ``co2`` and
optionally ``index``.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

# Public monthly series: global-mean temperature anomaly (GISS) and
# global-mean CO2 (NOAA Global Monitoring Laboratory).
DEFAULT_TEMP_URL = "https://data.giss.nasa.gov/gistemp/tabledata_v4/GLB.Ts+dSST.csv"
DEFAULT_CO2_URL = "https://gml.noaa.gov/webdata/ccgg/trends/co2/co2_mm_gl.txt"

MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

# Season of a month, Winter = Dec-Feb as the reference category.
SEASONS = {
    12: "winter", 1: "winter", 2: "winter",
    3: "spring", 4: "spring", 5: "spring",
    6: "summer", 7: "summer", 8: "summer",
    9: "autumn", 10: "autumn", 11: "autumn",
}


def parse_year_month(text, what="date"):
    """(year, month) of a YYYY-M or YYYY-MM date, month 1-12: the one date
    rule of the climate CSV, the index series and fetch's window."""
    match = re.fullmatch(r"([0-9]{4})-(0?[1-9]|1[0-2])", text)
    if not match:
        raise ValueError(f"{what} must be YYYY-M or YYYY-MM (month 1-12), got {text!r}")
    return int(match[1]), int(match[2])


@dataclass(frozen=True)
class ClimateRow:
    """One month of the merged series; ``index`` is optional."""

    year: int
    month: int
    temp_anomaly: float
    co2: float
    index: float | None = None

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValueError("month must lie in 1..12")


@dataclass(frozen=True)
class ModelFrame:
    """A ready-to-fit design: response, design matrix, column names."""

    response: np.ndarray
    design: np.ndarray
    columns: tuple

    @property
    def n(self):
        return self.response.shape[0]


def _check_contiguous(rows):
    for prev, cur in zip(rows, rows[1:]):
        expected = (prev.year + (prev.month == 12), prev.month % 12 + 1)
        if (cur.year, cur.month) != expected:
            raise ValueError(
                f"gap in dates after {prev.year}-{prev.month:02d}: "
                f"expected {expected[0]}-{expected[1]:02d}, got {cur.year}-{cur.month:02d}"
            )


def climate_prepare(rows, unit="monthly"):
    """Build the lagged model frame from contiguous monthly rows.

    unit="monthly": response Temp_t; covariates intercept, Temp_{t-1},
    log CO2_{t-1}, log Index_{t-1} (when present), and spring/summer/autumn
    dummies keyed to the response month.  One row is lost to the lag.

    unit="yearly": calendar-year means of every series, then the same
    one-lag structure without seasons.
    """
    rows = sorted(rows, key=lambda r: (r.year, r.month))
    if len(rows) < 3:
        raise ValueError("need at least three rows to lag")
    _check_contiguous(rows)
    has_index = all(r.index is not None for r in rows)

    if unit == "yearly":
        years = sorted({r.year for r in rows})
        def year_mean(attr):
            return np.array(
                [np.mean([getattr(r, attr) for r in rows if r.year == y]) for y in years]
            )
        temp = year_mean("temp_anomaly")
        co2 = year_mean("co2")
        index = year_mean("index") if has_index else None
        months = None
    elif unit == "monthly":
        temp = np.array([r.temp_anomaly for r in rows])
        co2 = np.array([r.co2 for r in rows])
        index = np.array([r.index for r in rows], dtype=float) if has_index else None
        months = [r.month for r in rows]
    else:
        raise ValueError("unit must be 'monthly' or 'yearly'")

    if np.any(co2 <= 0):
        raise ValueError("co2 must be positive to log-transform")
    if index is not None and np.any(index <= 0):
        raise ValueError("index must be positive to log-transform")

    response = temp[1:]
    cols = [np.ones(response.shape[0]), temp[:-1], np.log(co2[:-1])]
    names = ["intercept", "temp_lag1", "log_co2_lag1"]
    if index is not None:
        cols.append(np.log(index[:-1]))
        names.append("log_index_lag1")
    if months is not None:
        season = [SEASONS[m] for m in months[1:]]  # season of the response month
        for name in ("spring", "summer", "autumn"):
            cols.append(np.array([1.0 if s == name else 0.0 for s in season]))
            names.append(name)
    return ModelFrame(
        response=response, design=np.column_stack(cols), columns=tuple(names)
    )


# ---------------------------------------------------------------------------
# raw-file ingestion
# ---------------------------------------------------------------------------


def _finite(record, column):
    value = float(record[column])
    if not math.isfinite(value):
        raise ValueError(f"column {column!r} is not finite")
    return value


def load_climate_csv(path):
    """Read a normalized climate CSV: date (YYYY-MM), temp_anomaly, co2[, index].

    UTF-8, a byte-order mark accepted; a bad or non-finite cell is an error
    that names its file line.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "date" not in reader.fieldnames:
            raise ValueError("climate CSV needs a 'date' column")
        rows = []
        for record in reader:
            try:
                idx = record.get("index")
                rows.append(
                    ClimateRow(
                        *parse_year_month(record["date"]),
                        temp_anomaly=_finite(record, "temp_anomaly"),
                        co2=_finite(record, "co2"),
                        index=_finite(record, "index") if idx not in (None, "") else None,
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row
                raise ValueError(
                    f"line {reader.line_num}: cannot parse climate row ({exc})"
                ) from exc
    return rows


def write_climate_csv(rows, path):
    has_index = all(r.index is not None for r in rows)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "temp_anomaly", "co2"] + (["index"] if has_index else []))
        for r in sorted(rows, key=lambda r: (r.year, r.month)):
            record = [f"{r.year:04d}-{r.month:02d}", f"{r.temp_anomaly:.6g}", f"{r.co2:.6g}"]
            if has_index:
                record.append(f"{r.index:.6g}")
            writer.writerow(record)


def parse_gistemp_monthly(text):
    """Parse the GISTEMP global-mean CSV (wide: Year, Jan..Dec, ...).

    Returns {(year, month): anomaly}.  Missing cells are marked '***' in the
    source and are skipped.
    """
    reader = csv.reader(io.StringIO(text))
    out = {}
    header = None
    for i, row in enumerate(reader, start=1):
        if not row:
            continue
        if header is None:
            if row[0].strip() == "Year":
                header = row
            continue
        if not row[0].strip().isdigit():
            continue
        year = int(row[0])
        for m, name in enumerate(MONTH_NAMES, start=1):
            try:
                cell = row[header.index(name)].strip()
            except (ValueError, IndexError) as exc:
                raise ValueError(f"line {i}: missing column {name}") from exc
            if cell in ("***", "****", ""):
                continue
            try:
                out[(year, m)] = float(cell)
            except ValueError as exc:
                raise ValueError(f"line {i}: bad anomaly value {cell!r}") from exc
    if header is None:
        raise ValueError("no 'Year' header line found in temperature file")
    if not out:
        raise ValueError("no data rows found in temperature file")
    return out


def parse_gml_monthly(text):
    """Parse the GML global CO2 text file (columns: year month decimal average ...).

    Returns {(year, month): ppm}.  Comment lines start with '#'.
    """
    out = {}
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) < 4:
            raise ValueError(f"line {i}: expected at least 4 columns, got {len(parts)}")
        try:
            year, month, value = int(parts[0]), int(parts[1]), float(parts[3])
        except ValueError as exc:
            raise ValueError(f"line {i}: cannot parse co2 row ({exc})") from exc
        if value > 0:  # the source flags missing months with negative sentinels
            out[(year, month)] = value
    if not out:
        raise ValueError("no data rows found in co2 file")
    return out


def parse_index_csv(text):
    """Parse a pre-built index series: CSV with date (YYYY-MM) and value columns."""
    reader = csv.DictReader(io.StringIO(text))
    out = {}
    for record in reader:
        try:
            out[parse_year_month(record["date"])] = float(record["value"])
        except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row
            raise ValueError(f"line {reader.line_num}: cannot parse index row ({exc})") from exc
    if not out:
        raise ValueError("no data rows found in index file")
    return out


def merge_series(temp, co2, index=None, start=None, end=None):
    """Inner-join the monthly dictionaries into ClimateRows, optionally windowed.

    ``start``/``end`` are (year, month) tuples, inclusive.
    """
    keys = sorted(set(temp) & set(co2) & (set(index) if index is not None else set(temp)))
    if start is not None:
        keys = [k for k in keys if k >= tuple(start)]
    if end is not None:
        keys = [k for k in keys if k <= tuple(end)]
    if not keys:
        raise ValueError("series do not overlap in the requested window")
    return [
        ClimateRow(
            year=y,
            month=m,
            temp_anomaly=temp[(y, m)],
            co2=co2[(y, m)],
            index=index[(y, m)] if index is not None else None,
        )
        for (y, m) in keys
    ]


def fetch_text(url, timeout=30):
    """Download a small text resource; network errors raise URLError."""
    import urllib.request  # only downloads need it

    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8", errors="replace")


def fetch_climate(temp_url, co2_url, index_url=None, start=(1979, 1), end=(2022, 12)):
    """Fetch, parse and merge the public series into ClimateRows."""
    temp = parse_gistemp_monthly(fetch_text(temp_url))
    co2 = parse_gml_monthly(fetch_text(co2_url))
    index = parse_index_csv(fetch_text(index_url)) if index_url else None
    return merge_series(temp, co2, index, start=start, end=end)
