"""Command-line surface: simulate, ci, fit, diagnose, fetch-climate.

Settings resolve in priority order: built-in defaults, then the config file
(``-c/--config``, accepted by simulate, ci, fit and diagnose; INI sections
[table1]/[table2]/[table3]/[analysis]), then command-line flags, then the
DENSUM_SEED environment variable (which overrides any seed).  ``main`` fills
and checks every setting in ``resolve_settings`` before any input is read,
grid run or download made.  Exit codes: 0 success, 1 setting, config or data
error, 2 network failure or a usage error that argparse rejects (an unknown
flag, a bad --table or --partitions).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import itertools
import json
import math
import os
import re
import sys
import warnings
from array import array
from dataclasses import asdict, dataclass

import numpy as np

from densum import climate
from densum.concentration import ci_linear, ci_mean, rule_of_thumb
from densum.core import SupportSpec, sequential_partition, summarize
from densum.estimators import (
    acf_phi_hat,
    gee_exchangeable_wald,
    ols_fit,
    partition_compare,
    residual_range,
)
from densum.simulation import ExperimentConfig, run_table
from densum.uclass import check_u_class

RESULTS_VERSION = "# densum-results v1"
RESULTS_HEADER = (
    "table", "n", "phi", "alpha_shape", "threshold", "coefficient",
    "mean_lower", "mean_upper", "ci_wald", "ci_u", "ci_r",
    "a_hat", "av_star", "verdict", "seed", "repair_lambda",
)
# The CoverageReport field of each results column, where the names differ.
RESULTS_FIELDS = {"verdict": "a5_verdict"}
# The short lag window, floor(10 log10 n), must stay below n.
MIN_SERIES_LENGTH = 11


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_results_csv(rows, path):
    """Write CoverageReports in the fixed table-result schema (6 significant
    digits, version-stamped header)."""
    with open(path, "w", newline="") as handle:
        handle.write(RESULTS_VERSION + "\n")
        writer = csv.writer(handle)
        writer.writerow(RESULTS_HEADER)
        for row in rows:
            writer.writerow(
                [_fmt(getattr(row, RESULTS_FIELDS.get(name, name))) for name in RESULTS_HEADER]
            )


def read_results_csv(path):
    """Read a results CSV back into a list of plain dicts (strings preserved)."""
    with open(path, newline="") as handle:
        first = handle.readline().rstrip("\n")
        if not first.startswith("#"):
            raise ValueError("missing version comment line")
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# analysis report
# ---------------------------------------------------------------------------


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
    support = SupportSpec(float(np.min(z)), float(np.max(z)))
    u_report = check_u_class(z, support)
    bound = rule_of_thumb(np.ones(n), float(np.var(z)), support.length)
    short, long_ = climate.lag_windows(n)
    acf = acf_phi_hat(z, max(short, long_)).acf
    half = n // 2
    drift = abs(float(np.mean(z[:half]) - np.mean(z[half:])))
    drift_se = math.sqrt(np.var(z) * (1.0 / half + 1.0 / (n - half)))
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


# ---------------------------------------------------------------------------
# tabular input
# ---------------------------------------------------------------------------


def _read_header(reader, names):
    """Read the header record; return each column's position (a repeated
    header name: the last one wins)."""
    header = next(reader, None)
    if header is None:
        raise ValueError("input file is empty")
    missing = [c for c in names if c not in header]
    if missing:
        raise ValueError(f"missing column(s) {missing}; available: {header}")
    return {c: j for j, c in enumerate(header)}


def _load_columns_csv(handle, names):
    """The csv-module loader: one ``float()`` per cell.

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
    table = np.array(list(data.values()), dtype=float)  # one row per column
    rows, cols = np.nonzero(~np.isfinite(table.T))
    if rows.size:
        c = list(data)[cols[0]]
        raise ValueError(f"column '{c}' is not finite (line {lines[rows[0]]})")
    return dict(zip(data, table))


def load_columns(path, names):
    """Read the named numeric columns from a UTF-8 CSV with a header row.

    The data rows go to numpy's C reader (``np.loadtxt``), which reads only
    the named columns.  When it rejects the file, finds no data row or
    reads a non-finite value, the csv-module loader ``_load_columns_csv``
    reads the file again: it accepts what ``float()`` accepts (``1_000``,
    non-ASCII digits) and otherwise raises the error that names the column
    and file line.  The two agree bit for bit wherever both accept.  A
    UTF-8 byte-order mark before the header is dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        if not handle.seekable():  # a pipe cannot be reread: one csv-module pass
            return _load_columns_csv(handle, names)
        position = _read_header(csv.reader(handle), names)
        names = list(dict.fromkeys(names))  # repeated names collapse to one read
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                table = np.loadtxt(
                    handle, dtype=float, comments=None, delimiter=",",
                    quotechar='"', usecols=[position[c] for c in names], ndmin=2,
                )
        except (IndexError, ValueError):  # a bad cell, a short row
            table = None
        if table is None or not len(table) or not np.isfinite(table).all():
            handle.seek(0)
            return _load_columns_csv(handle, names)
    return dict(zip(names, np.ascontiguousarray(table.T)))


def _file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# settings resolution
# ---------------------------------------------------------------------------


# Config keys and their casts.  A command reads only the keys it has flags
# for: simulate from [table1]..[table3], the others from [analysis].
CONFIG_CASTS = {
    "n": int, "phi": float, "shape": float, "reps": int, "alpha": float, "c_star": float,
    "seed": int, "method": str, "range": str, "column": str, "response": str,
    "covariates": str,
}
# Defaults of the analysis commands' settings; simulate's are ExperimentConfig's.
ANALYSIS_DEFAULTS = {"alpha": 0.05, "method": "u", "range": "residual"}
SIMULATE_SETTINGS = ("n", "phi", "shape", "reps", "alpha", "c_star")


def resolve_settings(args):
    """Fill every setting the command line left unset, in place, and check
    them all before any input is read, grid run or download made.

    A setting comes from its flag, else from the config file, else from its
    default; DENSUM_SEED overrides any seed.
    """
    env = os.environ.get("DENSUM_SEED")
    if env is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env)
        except ValueError:
            raise ValueError(f"DENSUM_SEED must be an integer, got {env!r}") from None
    config = configparser.ConfigParser(interpolation=None)
    if getattr(args, "config", None):
        with open(args.config) as handle:
            config.read_file(handle)
    section = f"table{args.table}" if args.command == "simulate" else "analysis"
    # Without its own section a command still reads the file's [DEFAULT] keys.
    values = config[section if config.has_section(section) else config.default_section]
    for key, cast in CONFIG_CASTS.items():
        if getattr(args, key, False) is None and key in values:
            text = values[key]
            try:
                setattr(args, key, cast(text))
            except ValueError:
                raise ValueError(f"[{section}] {key} must be {cast.__name__}, got {text!r}") from None
    for key, default in ANALYSIS_DEFAULTS.items():
        if args.command != "simulate" and getattr(args, key, False) is None:
            setattr(args, key, default)

    if args.command == "simulate":
        settings = {k: getattr(args, k) for k in SIMULATE_SETTINGS if getattr(args, k) is not None}
        if args.seed is not None:
            settings["master_seed"] = args.seed
        args.experiment = ExperimentConfig(table=args.table, **settings)
        args.out = args.out or f"table{args.table}_results.csv"
    if args.command == "ci" and args.column is None:
        raise ValueError("--column is required")
    if args.command in ("fit", "diagnose") and getattr(args, "column", None) is None:
        if not args.climate:
            if args.response is None or args.covariates is None:
                raise ValueError("--response and --covariates are required (or use --climate)")
            args.covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
            if args.response in args.covariates:
                raise ValueError(
                    f"response {args.response!r} is also listed among the covariates"
                )
        if args.command == "diagnose" and args.coefficient is None:
            raise ValueError("--coefficient is required when diagnosing a fit")
    if args.command == "ci" and args.method not in CI_MEAN_METHODS:
        raise ValueError("--method must be hoeffding, u, bernstein or ratio")
    if hasattr(args, "range"):
        args.source, args.given = _parse_range_flag(args.range)
    if getattr(args, "partitions", None):
        if len(args.partitions) < 2:
            raise ValueError(f"--partitions needs at least two cluster counts to compare, "
                             f"got {args.partitions[0]}")
        if args.partitions[0] < 2:
            raise ValueError("--partitions: the first count sets the Wald comparator's "
                             "clusters and must be at least 2")
    if args.command in ("ci", "fit") and not 0.0 < args.alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if args.command == "fetch-climate":
        for flag in ("start", "end"):  # YYYY-M or YYYY-MM, kept as (year, month)
            text = getattr(args, flag)
            match = re.fullmatch(r"([0-9]{4})-(0?[1-9]|1[0-2])", text)
            if not match:
                raise ValueError(f"--{flag} must be YYYY-M or YYYY-MM (month 1-12), got {text!r}")
            setattr(args, flag, (int(match[1]), int(match[2])))
        if args.start > args.end:
            raise ValueError("--start must not come after --end")
    out_dir = os.path.dirname(args.out or "")
    if out_dir and not os.path.isdir(out_dir):
        raise ValueError(f"output directory {out_dir} does not exist")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cluster_counts(text):
    """argparse type of --partitions: comma-separated positive integers."""
    try:
        counts = [int(k) for k in text.split(",")]
    except ValueError:
        counts = []
    if not counts or min(counts) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive cluster counts, got {text!r}"
        )
    return counts


def cmd_simulate(args):
    rows = []
    for row in run_table(args.experiment):
        rows.append(row)
        if row.coefficient:
            label = f" {row.coefficient}"
        elif row.alpha_shape is not None:
            label = f" shape={row.alpha_shape:g}"
        else:
            label = ""
        print(
            f"table {row.table} n={row.n} phi={_fmt(row.phi)}{label}"
            + f": ci_u={_fmt(row.ci_u)} ci_wald={_fmt(row.ci_wald)} verdict={row.a5_verdict}"
        )
    repaired = {(r.table, r.n, r.phi): r.repair_lambda for r in rows if r.repair_lambda > 0}
    for (table, n, phi), lam in repaired.items():
        print(f"note: table {table} n={n} phi*={_fmt(phi)}: the correlation was not positive "
              f"definite; shrunk toward the identity with lambda={_fmt(lam)}", file=sys.stderr)
    write_results_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _parse_range_flag(text):
    """--range known=R | marginal=R | residual | two-mean."""
    if text is None:
        return ("residual", None)
    head, _, tail = text.partition("=")
    if head in ("known", "marginal"):
        try:
            R = float(tail)
        except ValueError:
            R = math.nan
        if not 0.0 < R < math.inf:
            raise ValueError(f"--range {head}=R needs a finite positive number, got {tail!r}")
        return (head, R)
    if head in ("residual", "two-mean") and not tail:
        return (head, None)
    raise ValueError("--range must be known=R, marginal=R, residual or two-mean")


# --method value -> ci_mean method
CI_MEAN_METHODS = {
    "hoeffding": "hoeffding", "u": "u_sharp", "bernstein": "bernstein", "ratio": "ratio",
}


def cmd_ci(args):
    alpha, column = args.alpha, args.column
    summary = summarize(load_columns(args.file, [column])[column])

    if args.source == "known" or args.source == "marginal":
        R = args.given
    elif args.source == "two-mean":
        if summary.minimum < 0:
            raise ValueError("two-mean range needs nonnegative data")
        R = 2.0 * summary.mean
    else:
        R = summary.range
        if R == 0.0:
            warnings.warn("column is constant; the confidence set is degenerate")

    result = ci_mean(summary, R=R, alpha=alpha, method=CI_MEAN_METHODS[args.method])

    print(
        f"{result.level:.0%} confidence set for mean({column}): "
        f"[{result.lower:.6g}, {result.upper:.6g}] "
        f"(method={result.method}, range_source={result.range_source}, n={summary.n})"
    )
    payload = json.dumps(asdict(result), sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)
    return 0


def _fit_frame(args):
    """Read the (response, design, columns) triple for fit/diagnose."""
    if args.climate:
        rows = climate.load_climate_csv(args.file)
        frame = climate.climate_prepare(rows, unit=args.climate)
        return frame.response, frame.design, frame.columns
    response, names = args.response, args.covariates
    data = load_columns(args.file, [response] + names)
    design = np.column_stack([np.ones(data[response].shape[0])] + [data[c] for c in names])
    return data[response], design, tuple(["intercept"] + names)


# --range source -> ci_linear keyword arguments for coefficient s of a fit
RANGE_KWARGS = {
    "residual": lambda fit, s, given: {"range_source": "residual_range",
                                       "rhat": residual_range(fit, s)},
    "known": lambda fit, s, given: {"range_source": "known", "ranges": given},
    "marginal": lambda fit, s, given: {"range_source": "marginal_range", "ranges": given},
    "two-mean": lambda fit, s, given: {"range_source": "two_mean", "fitted": fit.fitted},
}


def _coefficient_sets(fit, columns, alpha, source, given):
    rows = []
    for s, name in enumerate(columns):
        cs = ci_linear(
            fit.coefficients[s], fit.weight_rows[s], alpha=alpha,
            **RANGE_KWARGS[source](fit, s, given),
        )
        rows.append(
            CoefficientRow(
                name=name,
                estimate=float(fit.coefficients[s]),
                ci_lower=cs.lower,
                ci_upper=cs.upper,
                method=cs.method,
                range_source=cs.range_source,
            )
        )
    return tuple(rows)


def cmd_fit(args):
    y, X, columns = _fit_frame(args)
    parts = [sequential_partition(y.shape[0], k) for k in args.partitions or ()]
    fit = ols_fit(X, y)
    with warnings.catch_warnings():
        # a zero-noise fit's weighted residuals have zero spread
        warnings.filterwarnings("ignore", "weighted residuals have degenerate", UserWarning)
        coef_rows = _coefficient_sets(fit, columns, args.alpha, args.source, args.given)
        diagnostics = tuple(
            _series_diagnostics(name, fit.weight_rows[s] * fit.residuals)[0]
            for s, name in enumerate(columns)
            if float(np.ptp(fit.weight_rows[s] * fit.residuals)) > 0.0
        )
    if not diagnostics:
        # Degenerate (zero-residual) fits still need a diagnostics block.
        diagnostics = tuple([_zero_residual_diagnostics(columns[0], fit.n)])

    report = AnalysisReport(
        model=f"least squares: {columns[0]} + " + " + ".join(columns[1:]),
        coefficients=coef_rows,
        diagnostics=diagnostics,
        provenance={
            "input_sha256": _file_sha256(args.file),
            "seed": None,
            "config": {"alpha": args.alpha, "range": args.range, "n": fit.n},
        },
    )

    print(f"model: {report.model}  (n={fit.n})")
    for row in report.coefficients:
        print(
            f"  {row.name:>16}: {row.estimate: .6g}  "
            f"[{row.ci_lower:.6g}, {row.ci_upper:.6g}]  ({row.range_source})"
        )
    for diag in report.diagnostics:
        print(
            f"  {diag.name:>16}: U={'yes' if diag.is_u else 'NO'} "
            f"phi_hat={diag.phi_hat_short:.4f}@{diag.lags_short} / "
            f"{diag.phi_hat_long:.4f}@{diag.lags_long}  "
            f"mu*phi bound={diag.rule_of_thumb_bound:.3g}"
        )

    if parts:
        counts = args.partitions
        for s, name in enumerate(columns):
            comparison = partition_compare(fit, parts, s)
            chosen = counts[comparison.recommended]
            tie = " (tie)" if comparison.is_tie else ""
            print(f"  partition check {name}: recommend K={chosen}{tie}")
        wald = gee_exchangeable_wald(fit, parts[0], alpha=args.alpha, s=len(columns) - 1)
        print(
            f"  comparator Wald ({columns[-1]}, K={counts[0]}): "
            f"[{wald.lower:.6g}, {wald.upper:.6g}]"
        )

    if args.screen:
        _print_screen(args.screen, fit, columns)

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote report to {args.out}")
    return 0


def _zero_residual_diagnostics(name, n):
    return SeriesDiagnostics(
        name=name,
        is_u=True,
        is_sub_u=True,
        expected_value=0.0,
        functional_average=0.0,
        tolerance=0.0,
        rule_of_thumb_bound=0.0,
        phi_hat_short=0.0,
        phi_hat_long=0.0,
        lags_short=0,
        lags_long=0,
        stationarity_note="residuals are exactly zero",
    )


def _print_screen(screen_column, full, columns):
    """The with/without covariate-retention comparison (reported, not automated)."""
    if screen_column not in columns:
        print(f"  retention screen skipped: {screen_column!r} is not in the model")
        return
    drop = columns.index(screen_column)
    keep = [j for j in range(len(columns)) if j != drop]
    reduced = ols_fit(full.design[:, keep], full.outcomes)
    print(f"  retention screen for {screen_column}:")
    for pos, j in enumerate(keep):
        if columns[j] == "intercept":
            continue
        with_ = full.coefficients[j]
        without = reduced.coefficients[pos]
        change = abs(with_ - without)
        rel = change / abs(with_) if with_ != 0 else float("inf")
        print(
            f"    {columns[j]:>16}: with={with_: .6g} without={without: .6g} "
            f"|change|={change:.3g} ({rel:.1%})"
        )


def cmd_diagnose(args):
    if args.column is not None:
        series = load_columns(args.file, [args.column])[args.column]
        name = args.column
    else:
        y, X, columns = _fit_frame(args)
        if args.coefficient not in columns:
            raise ValueError(f"unknown coefficient {args.coefficient!r}")
        fit = ols_fit(X, y)
        s = columns.index(args.coefficient)
        series = fit.weight_rows[s] * fit.residuals
        name = f"weighted residuals: {args.coefficient}"

    diag, acf = _series_diagnostics(name, series)
    print(f"series: {name}  (n={series.shape[0]})")
    print(
        f"  U-class: is_u={diag.is_u} is_sub_u={diag.is_sub_u} "
        f"(E={diag.expected_value:.6g}, Av={diag.functional_average:.6g}, "
        f"tol={diag.tolerance:.3g})"
    )
    print(f"  phi_hat: {diag.phi_hat_short:.4f} at L={diag.lags_short}, "
          f"{diag.phi_hat_long:.4f} at L={diag.lags_long}")
    print(f"  rule-of-thumb mu*phi bound: {diag.rule_of_thumb_bound:.4g}")
    print(f"  stationarity: {diag.stationarity_note}")

    if args.out:
        _write_plot_csvs(args.out, series, diag, acf)
        print(f"wrote plot-ready CSVs with prefix {args.out}")
    return 0


# Rows formatted per join when writing plot CSVs: one join per block is as
# fast as one per file, and memory stays bounded whatever the series length.
PLOT_CSV_BLOCK = 1 << 12


def _write_rows(handle, fmt, *columns):
    """Write row i as fmt.format(column_1[i], ...) plus CRLF: the bytes
    csv.writer writes when no field needs quoting."""
    line = (fmt + "\r\n").format
    for start in range(0, len(columns[0]), PLOT_CSV_BLOCK):
        block = [column[start:start + PLOT_CSV_BLOCK].tolist() for column in columns]
        handle.write("".join(itertools.starmap(line, zip(*block))))


def _write_plot_csvs(prefix, series, diag, acf):
    z = np.asarray(series, dtype=float)
    n = z.shape[0]
    counts, edges = np.histogram(z, bins="auto")
    with open(f"{prefix}_hist.csv", "w", newline="") as handle:
        handle.write("bin_left,bin_right,count\r\n")
        _write_rows(handle, "{:.6g},{:.6g},{}", edges[:-1], edges[1:], counts)
    with open(f"{prefix}_ecdf.csv", "w", newline="") as handle:
        handle.write("value,fraction\r\n")
        _write_rows(handle, "{:.6g},{:.6g}", np.sort(z), np.arange(1, n + 1) / n)
    with open(f"{prefix}_acf.csv", "w", newline="") as handle:
        handle.write("lag,r,window\r\n")
        for window, lags in (("short", diag.lags_short), ("long", diag.lags_long)):
            _write_rows(handle, "{},{:.6g}," + window, np.arange(1, lags + 1), acf[:lags])


def cmd_fetch_climate(args):
    try:
        rows = climate.fetch_climate(
            args.temp_url, args.co2_url, args.index_url,
            start=args.start, end=args.end,
        )
    except OSError as exc:  # urllib's URLError is an OSError
        print(f"network failure: {exc}", file=sys.stderr)
        return 2
    climate.write_climate_csv(rows, args.out)
    print(f"wrote {len(rows)} monthly rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="densum",
        description="Dependence-robust confidence sets for bounded data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    model = argparse.ArgumentParser(add_help=False)  # the flags fit and diagnose share
    model.add_argument("file")
    model.add_argument("--response")
    model.add_argument("--covariates", help="comma-separated column names")
    model.add_argument("--climate", choices=("monthly", "yearly"),
                       help="treat the input as a climate CSV and build the lagged frame")

    sim = sub.add_parser("simulate", help="run a coverage experiment grid")
    sim.add_argument("--table", type=int, choices=(1, 2, 3), required=True)
    sim.add_argument("--n", type=int)
    sim.add_argument("--phi", "--phi-star", type=float)
    sim.add_argument("--shape", type=float)
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--c-star", dest="c_star", type=float)
    sim.add_argument("--out")
    sim.add_argument("-c", "--config")
    sim.set_defaults(func=cmd_simulate)

    ci = sub.add_parser("ci", help="confidence set for a column mean")
    ci.add_argument("file")
    ci.add_argument("--column")
    ci.add_argument("--alpha", type=float)
    ci.add_argument("--method", choices=("hoeffding", "u", "bernstein", "ratio"))
    ci.add_argument("--range", help="known=R | marginal=R | residual | two-mean")
    ci.add_argument("--out")
    ci.add_argument("-c", "--config")
    ci.set_defaults(func=cmd_ci)

    fit = sub.add_parser("fit", parents=[model],
                         help="least squares with dependence-robust sets")
    fit.add_argument("--alpha", type=float)
    fit.add_argument("--range", help="known=R | marginal=R | residual | two-mean")
    fit.add_argument("--partitions", type=_cluster_counts,
                     help="comma-separated cluster counts to compare")
    fit.add_argument("--screen", help="covariate to evaluate for retention")
    fit.add_argument("--out", help="write the JSON report here")
    fit.add_argument("-c", "--config")
    fit.set_defaults(func=cmd_fit)

    diag = sub.add_parser("diagnose", parents=[model],
                          help="U-class and dependence diagnostics")
    diag.add_argument("--column")
    diag.add_argument("--coefficient", help="diagnose this coefficient's weighted residuals")
    diag.add_argument("--out", help="prefix for plot-ready CSVs")
    diag.add_argument("-c", "--config")
    diag.set_defaults(func=cmd_diagnose)

    fetch = sub.add_parser("fetch-climate", help="download and normalize the public series")
    fetch.add_argument("--temp-url", default=climate.DEFAULT_TEMP_URL)
    fetch.add_argument("--co2-url", default=climate.DEFAULT_CO2_URL)
    fetch.add_argument("--index-url")
    fetch.add_argument("--start", default="1979-1")
    fetch.add_argument("--end", default="2022-12")
    fetch.add_argument("--out", default="climate.csv")
    fetch.set_defaults(func=cmd_fetch_climate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        resolve_settings(args)
        return args.func(args)
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
