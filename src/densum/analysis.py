"""The analysis path behind ``densum ci``, ``fit`` and ``diagnose``: CSV
columns, the least-squares frame, range-based confidence sets, series
diagnostics and the fit report.

A set's range R comes from its range source (``core.RANGE_SOURCES``): a
given R for ``known`` and ``marginal_range``, the observed range (of the
column, or of the weighted residuals W_s e) for ``residual_range``, twice
the (fitted) mean of nonnegative data for ``two_mean``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import warnings
from array import array
from dataclasses import asdict, dataclass

import numpy as np

from densum.concentration import ci_linear, ci_mean, rule_of_thumb
from densum.core import SupportSpec, binary_scale
from densum.estimators import acf_phi_hat, residual_range, weighted_residuals
from densum.uclass import check_u_class

# The short lag window, floor(10 log10 n), must stay below n.
MIN_SERIES_LENGTH = 11


@dataclass(frozen=True)
class CoefficientRow:
    name: str
    estimate: float
    ci_lower: float
    ci_upper: float
    method: str
    range_source: str


@dataclass(frozen=True)
class SeriesDiagnostics:
    """U-class and autocorrelation diagnostics for one weighted-residual series."""

    name: str
    is_u: bool
    is_sub_u: bool
    expected_value: float
    functional_average: float
    tolerance: float
    rule_of_thumb_bound: float
    phi_hat_short: float
    phi_hat_long: float
    lags_short: int
    lags_long: int
    stationarity_note: str


@dataclass(frozen=True)
class AnalysisReport:
    """Full output of the fit command: model, coefficient table, diagnostics,
    provenance.  Serializes to JSON and re-parses to an equal value."""

    model: str
    coefficients: tuple
    diagnostics: tuple
    provenance: dict

    def __post_init__(self):
        if not self.diagnostics:
            raise ValueError("diagnostics block must be present")
        for row in self.coefficients:
            if not row.range_source:
                raise ValueError(f"coefficient {row.name} is missing its range_source")

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        raw = json.loads(text)
        return cls(
            model=raw["model"],
            coefficients=tuple(CoefficientRow(**c) for c in raw["coefficients"]),
            diagnostics=tuple(SeriesDiagnostics(**d) for d in raw["diagnostics"]),
            provenance=raw["provenance"],
        )


def lag_windows(n):
    """The two autocorrelation windows used by the diagnostics."""
    return int(math.floor(10.0 * math.log10(n))), (n - 1) // 2


def _series_diagnostics(name, series):
    """Diagnostics for one weighted-residual (or raw) series.

    Returns the SeriesDiagnostics and the sample autocorrelations up to the
    longer of the two lag windows; each window's r_l are a prefix of them.
    """
    z = np.asarray(series, dtype=float)
    n = z.shape[0]
    if n < MIN_SERIES_LENGTH:
        raise ValueError(
            f"series {name} has {n} observations; diagnostics need n >= {MIN_SERIES_LENGTH}"
        )
    if float(np.min(z)) == float(np.max(z)):
        raise ValueError(f"series {name} is constant; diagnostics are undefined")
    u_report = check_u_class(z, SupportSpec(float(np.min(z)), float(np.max(z))))
    zs = z * binary_scale(z)  # exact; the variance's squares neither over- nor underflow
    variance = float(np.var(zs))
    bound = rule_of_thumb(np.ones(n), variance, float(np.max(zs) - np.min(zs)))
    half = n // 2
    drift = abs(float(np.mean(zs[:half]) - np.mean(zs[half:])))
    del zs  # freed before the ACF's FFT buffers
    drift_se = math.sqrt(variance * (1.0 / half + 1.0 / (n - half)))
    short, long_ = lag_windows(n)
    acf = acf_phi_hat(z, max(short, long_)).acf
    note = (
        "halves differ by more than 3 standard errors; inspect for drift"
        if drift > 3.0 * drift_se
        else "no mean drift detected between sample halves"
    )
    return SeriesDiagnostics(
        name=name,
        is_u=u_report.is_u,
        is_sub_u=u_report.is_sub_u,
        expected_value=u_report.expected_value,
        functional_average=u_report.functional_average,
        tolerance=u_report.tolerance,
        rule_of_thumb_bound=bound,
        phi_hat_short=float(np.mean(acf[:short])),
        phi_hat_long=float(np.mean(acf[:long_])),
        lags_short=short,
        lags_long=long_,
        stationarity_note=note,
    ), acf


def _read_header(reader, names):
    """Read the header record; return each column's position.  A requested
    name that the header repeats is refused: which column it means is unknown."""
    header = next(reader, None)
    if header is None:
        raise ValueError("input file is empty")
    missing = [c for c in names if c not in header]
    if missing:
        raise ValueError(f"missing column(s) {missing}; available: {header}")
    for c in names:
        if header.count(c) > 1:
            raise ValueError(f"column '{c}' appears {header.count(c)} times in the header")
    return {c: j for j, c in enumerate(header)}


def _load_table_csv(handle, names):
    """The csv-module loader: one ``float()`` per cell, returning
    ``load_table``'s (names, table).

    It takes every input ``float()`` takes and names the column and file
    line (``line_num``) of the first bad or non-finite cell, so blank lines
    and quoted line breaks are counted as the file has them.
    """
    reader = csv.reader(handle)
    position = _read_header(reader, names)
    data = {c: array("d") for c in names}  # repeated names collapse to one read
    fields = [(c, data[c].append, position[c]) for c in data]
    lines = array("q")  # file line of each record
    for record in reader:
        if not record:  # blank line
            continue
        for c, append, j in fields:
            try:
                append(float(record[j]))
            except (IndexError, ValueError) as exc:  # short row or bad cell
                raise ValueError(
                    f"column '{c}' is not numeric (line {reader.line_num})"
                ) from exc
        lines.append(reader.line_num)
    table = np.column_stack(list(data.values()))  # n x k, C-ordered
    rows, cols = np.nonzero(~np.isfinite(table))
    if rows.size:
        c = list(data)[cols[0]]
        raise ValueError(f"column '{c}' is not finite (line {lines[rows[0]]})")
    return list(data), table


def load_table(path, names):
    """Read the named numeric columns from a UTF-8 CSV with a header row, as
    (names, table): the distinct names in order, and an n x k C-ordered
    table whose column j holds names[j].

    The data rows go to numpy's C reader (``np.loadtxt``), which reads only
    the named columns.  It is given the file's path and skips the header's
    lines: given an open file, numpy iterates it one Python string per
    line, and given a path it reads the file in chunks.  When it rejects
    the file, finds no data row or reads a non-finite value, the csv-module
    loader ``_load_table_csv`` reads the file again: it accepts what
    ``float()`` accepts (``1_000``, non-ASCII digits) and otherwise raises
    the error that names the column and file line.  The two agree bit for
    bit wherever both accept.  A UTF-8 byte-order mark before the header is
    dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        if not handle.seekable():  # a pipe cannot be reread: one csv-module pass
            return _load_table_csv(handle, names)
        reader = csv.reader(handle)
        position = _read_header(reader, names)
        names = list(dict.fromkeys(names))  # repeated names collapse to one read
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                table = np.loadtxt(
                    os.fsdecode(path), dtype=float, comments=None, delimiter=",",
                    quotechar='"', usecols=[position[c] for c in names], ndmin=2,
                    skiprows=reader.line_num, encoding="utf-8-sig",
                )
        except (IndexError, ValueError):  # a bad cell, a short row
            table = None
        if table is None or not len(table) or not np.isfinite(table).all():
            handle.seek(0)
            return _load_table_csv(handle, names)
    return names, table


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def fit_frame(path, response, covariates, climate_unit, named=None):
    """(response, design, column names): ``response`` on an intercept and the
    ``covariates``, or with ``climate_unit`` a climate CSV's lagged frame.
    ``named``, a (flag, column) pair such as ("--screen", "x3"), is refused
    unless its column, when not None, is one of the model's: a plain frame's
    before the load, a climate frame's once it is built."""
    if climate_unit:
        from densum import climate  # only climate frames need it

        frame = climate.climate_prepare(climate.load_climate_csv(path), unit=climate_unit)
        _check_named(named, frame.columns)
        return frame.response, frame.design, frame.columns
    columns = ("intercept", *covariates)
    if columns[0] in covariates:
        raise ValueError(f"covariate {columns[0]!r} has the name of the model's constant column; "
                         "rename it in the CSV")
    _check_named(named, columns)
    names = [response] + covariates
    if len(set(names)) < len(names):
        raise ValueError(f"the response and covariates must be distinct columns, got {names}")
    design = load_table(path, names)[1]
    y = design[:, 0].copy()
    design[:, 0] = 1.0  # the loaded table becomes the design: no second copy of the data
    return y, design, columns


def _check_named(named, columns):
    """Refuse the column of ``named``, a (flag, column) pair, outside ``columns``."""
    flag, name = named or (None, None)
    if name is not None and name not in columns:
        raise ValueError(f"{flag} {name!r} is not a column of the model ({', '.join(columns)})")


def mean_set(summary, alpha, method, source, given):
    """The confidence set for a column mean, ``ci_mean``'s ``method`` with R
    resolved from the range source (``given``, R for known and marginal_range,
    bounds the column's range).  ``ci_mean`` labels every R-based set "known"."""
    R = given
    if given is not None and given < summary.range:
        raise ValueError(f"range R = {given:g} ({source}) is smaller than the column's "
                         f"observed range {summary.range:.6g}, which contradicts it")
    if source == "two_mean":
        if summary.minimum < 0:
            raise ValueError("two-mean range needs nonnegative data")
        R = 2.0 * summary.mean
    elif source == "residual_range" and method != "ratio":  # ratio bounds R itself
        R = summary.range
        if R == 0.0:
            warnings.warn("column is constant; the confidence set is degenerate")
    return ci_mean(summary, R=R, alpha=alpha, method=method)


def _weights_and_ranges(fit, s, z, source, given):
    """Coefficient s's weights and ranges R_i for ``ci_linear``, by range
    source: the weight row with the given R (known, marginal_range) or with
    twice the fitted means (two_mean); for residual_range, unit weights with
    the range of z = W_s e, since those weighted residuals are the summands
    the plug-in bounds."""
    if source == "residual_range":
        return np.ones(fit.n), residual_range(z)
    if source == "two_mean":
        if np.any(fit.fitted < 0):
            raise ValueError("two_mean ranges need nonnegative fitted means")
        return fit.weight_rows[s], 2.0 * fit.fitted
    return fit.weight_rows[s], given


def fit_report(fit, columns, alpha, source, given, provenance):
    """The fit command's report: each coefficient's confidence set, with R
    from the range source, and each weighted-residual series' diagnostics."""
    rows, diagnostics = [], []
    with warnings.catch_warnings():
        # a zero-noise fit's weighted residuals have zero spread
        warnings.filterwarnings("ignore", "weighted residuals have degenerate", UserWarning)
        for s, name in enumerate(columns):
            z = weighted_residuals(fit, s)  # read by the range and the diagnostics
            w, ranges = _weights_and_ranges(fit, s, z, source, given)
            cs = ci_linear(fit.coefficients[s], w, ranges, alpha, source)
            del w, ranges  # unit weights or 2 * fitted: freed before the diagnostics' FFTs
            rows.append(CoefficientRow(name, float(fit.coefficients[s]), cs.lower, cs.upper,
                                       cs.method, cs.range_source))
            if float(np.ptp(z)) > 0.0:
                diagnostics.append(_series_diagnostics(name, z)[0])
    if not diagnostics:  # a zero-residual fit still reports a diagnostics block
        diagnostics.append(SeriesDiagnostics(columns[0], True, True, 0.0, 0.0, 0.0, 0.0, 0.0,
                                             0.0, 0, 0, "residuals are exactly zero"))
    return AnalysisReport(
        model=f"least squares: {columns[0]} + " + " + ".join(columns[1:]),
        coefficients=tuple(rows), diagnostics=tuple(diagnostics), provenance=provenance,
    )
