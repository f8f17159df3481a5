"""Command-line surface: simulate, ci, fit, diagnose, fetch-climate.

Settings resolve in priority order: built-in defaults, then the config file
(``-c/--config``, accepted by simulate, ci, fit and diagnose; INI sections
[table1]/[table2]/[table3]/[analysis]), then command-line flags, then the
DENSUM_SEED environment variable (which overrides any seed).  Each command
calls ``resolve_settings`` for the steps all share (DENSUM_SEED, the config
file, the output directory), then checks its own settings, before any input
is read, grid run or download made.  Exit codes: 0 success, 1 setting, config
or data error, 2 network failure or a usage error that argparse rejects (an
unknown flag, a bad --table or --partitions).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from densum.analysis import (
    _series_diagnostics, file_sha256, fit_frame, fit_report, load_table, mean_set,
)
from densum.core import check_alpha, check_cluster_count, sequential_partition, summarize
from densum.estimators import (
    gee_exchangeable_wald, ols_fit, partition_compare, weighted_residuals,
)

# ---------------------------------------------------------------------------
# settings resolution
# ---------------------------------------------------------------------------


# The keys of each config section, with their casts: [table1]-[table3] hold
# simulate's, [analysis] those of ci, fit and diagnose, and [DEFAULT] or any
# other section any command's.
TABLE_KEYS = {"n": int, "phi": float, "shape": float, "reps": int, "seed": int}
ANALYSIS_KEYS = {"alpha": float, "method": str, "range": str,
                 "column": str, "response": str, "covariates": str}


def resolve_settings(args, section=None):
    """Fill, in place, each setting of config ``section`` that no flag set
    (from the section, else from [DEFAULT]; DENSUM_SEED overrides any seed),
    and make the checks every command shares.  Every key and value of the
    config file is checked when it is read, whichever command reads it, a bad
    value named under its section.  Without a section no config file is read."""
    readers = {"analysis": ("ci, fit or diagnose", ANALYSIS_KEYS),
               **dict.fromkeys(("table1", "table2", "table3"), ("simulate", TABLE_KEYS))}
    keys = readers[section][1] if section else {}
    env = os.environ.get("DENSUM_SEED")
    if env is not None and "seed" in keys:
        try:
            args.seed = int(env)
        except ValueError:
            raise ValueError(f"DENSUM_SEED must be an integer, got {env!r}") from None
    if section and args.config:
        # [DEFAULT] is read as a plain section (no name is empty) to check its own keys.
        config = configparser.ConfigParser(interpolation=None, default_section="")
        with open(args.config) as handle:
            config.read_file(handle)
        values = {}  # (section, key) -> the cast value, every section's checked
        for name in config.sections():
            takers, takes = readers.get(name, ("any command", {**TABLE_KEYS, **ANALYSIS_KEYS}))
            for key, text in config[name].items():
                if key not in takes:
                    raise ValueError(f"[{name}] {key} is not a setting of {takers}")
                try:
                    values[name, key] = takes[key](text)
                except ValueError:
                    raise ValueError(f"[{name}] {key} must be {takes[key].__name__}, "
                                     f"got {text!r}") from None
        for key in keys:
            found = [values[name, key] for name in (section, "DEFAULT") if (name, key) in values]
            # A flag's value stays, as does a key only another reader of the section takes.
            if found and key in vars(args) and getattr(args, key) is None:
                setattr(args, key, found[0])
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
    resolve_settings(args, f"table{args.table}")
    from densum.simulation import ExperimentConfig, _fmt, run_table, write_results_csv

    settings = {("master_seed" if key == "seed" else key): getattr(args, key)
                for key in TABLE_KEYS if getattr(args, key) is not None}
    experiment = ExperimentConfig(table=args.table, **settings)
    out = args.out or f"table{args.table}_results.csv"
    rows = []
    for row in run_table(experiment):
        rows.append(row)
        if row.coefficient:
            label = f" {row.coefficient}"
        elif row.alpha_shape is not None:
            label = f" shape={row.alpha_shape:g}"
        else:
            label = ""
        print(
            f"table {row.table} n={row.n} phi={_fmt(row.phi)}{label}"
            + f": ci_u={_fmt(row.ci_u)} ci_wald={_fmt(row.ci_wald)} verdict={row.verdict}"
        )
    repaired = {(r.table, r.n, r.phi): r.repair_lambda for r in rows if r.repair_lambda > 0}
    for (table, n, phi), lam in repaired.items():
        print(f"note: table {table} n={n} phi*={_fmt(phi)}: the correlation was not positive "
              f"definite; shrunk toward the identity with lambda={_fmt(lam)}", file=sys.stderr)
    write_results_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# --range word -> its range source, in the library's labels (core.RANGE_SOURCES)
RANGE_FLAG_SOURCES = {"known": "known", "marginal": "marginal_range",
                      "residual": "residual_range", "two-mean": "two_mean"}


def _parse_range_flag(text):
    """--range known=R | marginal=R | residual | two-mean, as the pair
    (range source, R); R is None unless the flag gives it.  Unset is residual."""
    head, _, tail = ("residual" if text is None else text).partition("=")
    source = RANGE_FLAG_SOURCES.get(head)
    if head in ("known", "marginal"):
        try:
            R = float(tail)
        except ValueError:
            R = math.nan
        if not 0.0 < R < math.inf:
            raise ValueError(f"--range {head}=R needs a finite positive number, got {tail!r}")
        return (source, R)
    if source and not tail:
        return (source, None)
    raise ValueError("--range must be known=R, marginal=R, residual or two-mean")


def _level(alpha):
    """ci's and fit's alpha: 0.05 unless set, and checked by ``check_alpha``."""
    return 0.05 if alpha is None else check_alpha(alpha)


# --method value -> ci_mean method
CI_MEAN_METHODS = {"hoeffding": "hoeffding", "u": "u_sharp",
                   "bernstein": "bernstein", "ratio": "ratio"}


def cmd_ci(args):
    resolve_settings(args, "analysis")
    if args.method == "ratio" and args.range not in (None, "two-mean"):
        raise ValueError(f"--method ratio bounds the range by twice the mean (two-mean); "
                         f"it cannot take --range {args.range}")
    if args.column is None:
        raise ValueError("--column is required")
    method = "u" if args.method is None else args.method
    if method not in CI_MEAN_METHODS:
        raise ValueError("--method must be hoeffding, u, bernstein or ratio")
    source, given = _parse_range_flag(args.range)
    alpha = _level(args.alpha)

    summary = summarize(load_table(args.file, [args.column])[1][:, 0])
    result = mean_set(summary, alpha, CI_MEAN_METHODS[method], source, given)
    print(
        f"{result.level:.0%} confidence set for mean({args.column}): "
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


def _covariates(args):
    """fit's and diagnose's checked covariate list; None for --climate's frame."""
    if args.climate:
        return None
    if args.response is None or args.covariates is None:
        raise ValueError("--response and --covariates are required (or use --climate)")
    covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
    if args.response in covariates:
        raise ValueError(f"response {args.response!r} is also listed among the covariates")
    for i, c in enumerate(covariates):
        if c in covariates[:i]:
            raise ValueError(f"covariate {c!r} is listed twice, making the design rank deficient")
    return covariates


def cmd_fit(args):
    resolve_settings(args, "analysis")
    covariates = _covariates(args)
    source, given = _parse_range_flag(args.range)
    counts = args.partitions or []
    if len(counts) == 1:
        raise ValueError(f"--partitions needs at least two cluster counts to compare, "
                         f"got {counts[0]}")
    if counts and counts[0] < 2:
        raise ValueError("--partitions: the first count sets the Wald comparator's "
                         "clusters and must be at least 2")
    alpha = _level(args.alpha)
    if os.path.exists(args.file) and not os.path.isfile(args.file):  # stat opens nothing
        raise ValueError(f"fit hashes its input for the report's provenance, so the input "
                         f"must be a regular file, which {args.file} is not")

    y, X, columns = _model_frame(args, covariates, "--screen", args.screen)
    for k in counts:  # the partitions themselves are built when they are compared
        check_cluster_count(y.shape[0], k)
    fit = ols_fit(X, y)
    report = fit_report(fit, columns, alpha, source, given, provenance={
        "input_sha256": file_sha256(args.file),
        "seed": None,
        "config": {"alpha": alpha, "range": args.range or "residual", "n": fit.n},
    })

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

    if counts:
        _print_partition_checks(fit, counts, columns, alpha)

    if args.screen:
        coefficients = fit.coefficients
        del fit  # the screen reads only the design, the outcomes and the coefficients
        _print_screen(args.screen, X, y, coefficients, columns)

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote report to {args.out}")
    return 0


def _model_frame(args, covariates, flag, name):
    """fit's and diagnose's (y, X, columns), once ``flag``'s column ``name``, when
    given, is found among the model's: a plain frame's (the intercept and the
    covariates) before the load, a climate frame's once it is built."""
    if covariates is None:  # a climate frame's columns are known once it is built
        frame = fit_frame(args.file, None, None, args.climate)
        columns = frame[2]
    else:
        columns = ("intercept", *covariates)
    if name is not None and name not in columns:
        raise ValueError(f"{flag} {name!r} is not a column of the model "
                         f"({', '.join(columns)})")
    if covariates is None:
        return frame
    return fit_frame(args.file, args.response, covariates, None)


def _print_partition_checks(fit, counts, columns, alpha):
    """Each coefficient's recommended cluster count, and the Wald comparator
    clustered by the first count."""
    parts = [sequential_partition(fit.n, k) for k in counts]
    for s, name in enumerate(columns):
        comparison = partition_compare(fit, parts, s)
        chosen = counts[comparison.recommended]
        tie = " (tie)" if comparison.is_tie else ""
        print(f"  partition check {name}: recommend K={chosen}{tie}")
    del parts[1:]  # the comparator reads the first partition only
    wald = gee_exchangeable_wald(fit, parts[0], alpha=alpha, s=len(columns) - 1)
    print(
        f"  comparator Wald ({columns[-1]}, K={counts[0]}): "
        f"[{wald.lower:.6g}, {wald.upper:.6g}]"
    )


def _print_screen(screen_column, X, y, coefficients, columns):
    """The with/without covariate-retention comparison (reported, not automated)."""
    drop = columns.index(screen_column)
    keep = [j for j in range(len(columns)) if j != drop]
    reduced = ols_fit(X[:, keep], y).coefficients
    print(f"  retention screen for {screen_column}:")
    for pos, j in enumerate(keep):
        if columns[j] == "intercept":
            continue
        with_ = coefficients[j]
        without = reduced[pos]
        change = abs(with_ - without)
        rel = change / abs(with_) if with_ != 0 else float("inf")
        print(
            f"    {columns[j]:>16}: with={with_: .6g} without={without: .6g} "
            f"|change|={change:.3g} ({rel:.1%})"
        )


def _diagnosed_series(args):
    """(name, series): diagnose's column, or its coefficient's weighted
    residuals (the fit behind them is freed on return)."""
    if args.column is not None:
        for flag, value in (("--coefficient", args.coefficient), ("--climate", args.climate)):
            if value is not None:
                raise ValueError(f"column {args.column!r} and {flag} {value!r} name two series "
                                 f"to diagnose; give one (a column may come from the config)")
        return args.column, load_table(args.file, [args.column])[1][:, 0]
    covariates = _covariates(args)
    if args.coefficient is None:
        raise ValueError("--coefficient is required when diagnosing a fit")
    y, X, columns = _model_frame(args, covariates, "--coefficient", args.coefficient)
    fit = ols_fit(X, y)
    return (f"weighted residuals: {args.coefficient}",
            weighted_residuals(fit, columns.index(args.coefficient)))


def cmd_diagnose(args):
    resolve_settings(args, "analysis")
    name, series = _diagnosed_series(args)
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


# Rows formatted per %-format when writing plot CSVs: one format per block is
# as fast as one per file, and memory stays bounded whatever the series length.
PLOT_CSV_BLOCK = 1 << 12


def _write_rows(handle, fmt, *columns):
    """Write row i as fmt % (column_1[i], ...) plus CRLF: the bytes
    csv.writer writes when no field needs quoting.  Each block of rows is
    one %-format over the block's values, row by row."""
    line = fmt + "\r\n"
    for start in range(0, len(columns[0]), PLOT_CSV_BLOCK):
        block = [column[start:start + PLOT_CSV_BLOCK].tolist() for column in columns]
        handle.write(line * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*block))))


def _write_plot_csvs(prefix, series, diag, acf):
    z = np.asarray(series, dtype=float)
    n = z.shape[0]
    counts, edges = np.histogram(z, bins="auto")
    with open(f"{prefix}_hist.csv", "w", newline="") as handle:
        handle.write("bin_left,bin_right,count\r\n")
        _write_rows(handle, "%.6g,%.6g,%d", edges[:-1], edges[1:], counts)
    with open(f"{prefix}_ecdf.csv", "w", newline="") as handle:
        handle.write("value,fraction\r\n")
        _write_rows(handle, "%.6g,%.6g", np.sort(z), np.arange(1, n + 1) / n)
    with open(f"{prefix}_acf.csv", "w", newline="") as handle:
        handle.write("lag,r,window\r\n")
        for window, lags in (("short", diag.lags_short), ("long", diag.lags_long)):
            _write_rows(handle, "%d,%.6g," + window.replace("%", "%%"),
                        np.arange(1, lags + 1), acf[:lags])


def cmd_fetch_climate(args):
    resolve_settings(args)
    window = {}
    for flag in ("start", "end"):  # YYYY-M or YYYY-MM, kept as (year, month)
        text = getattr(args, flag)
        match = re.fullmatch(r"([0-9]{4})-(0?[1-9]|1[0-2])", text)
        if not match:
            raise ValueError(f"--{flag} must be YYYY-M or YYYY-MM (month 1-12), got {text!r}")
        window[flag] = (int(match[1]), int(match[2]))
    if window["start"] > window["end"]:
        raise ValueError("--start must not come after --end")
    from densum import climate

    try:
        rows = climate.fetch_climate(
            climate.DEFAULT_TEMP_URL if args.temp_url is None else args.temp_url,
            climate.DEFAULT_CO2_URL if args.co2_url is None else args.co2_url,
            args.index_url,
            **window,
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


@functools.cache
def build_parser():
    """The command-line parser, built once per process; ``main`` looks each
    command's handler up when it runs."""
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
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out")
    sim.add_argument("-c", "--config")

    ci = sub.add_parser("ci", help="confidence set for a column mean")
    ci.add_argument("file")
    ci.add_argument("--column")
    ci.add_argument("--alpha", type=float)
    ci.add_argument("--method", choices=CI_MEAN_METHODS)
    ci.add_argument("--range", help="known=R | marginal=R | residual | two-mean")
    ci.add_argument("--out")
    ci.add_argument("-c", "--config")

    fit = sub.add_parser("fit", parents=[model],
                         help="least squares with dependence-robust sets")
    fit.add_argument("--alpha", type=float)
    fit.add_argument("--range", help="known=R | marginal=R | residual | two-mean")
    fit.add_argument("--partitions", type=_cluster_counts,
                     help="comma-separated cluster counts to compare")
    fit.add_argument("--screen", help="covariate to evaluate for retention")
    fit.add_argument("--out", help="write the JSON report here")
    fit.add_argument("-c", "--config")

    diag = sub.add_parser("diagnose", parents=[model],
                          help="U-class and dependence diagnostics")
    diag.add_argument("--column")
    diag.add_argument("--coefficient", help="diagnose this coefficient's weighted residuals")
    diag.add_argument("--out", help="prefix for plot-ready CSVs")
    diag.add_argument("-c", "--config")

    fetch = sub.add_parser("fetch-climate", help="download and normalize the public series")
    fetch.add_argument("--temp-url")  # default climate.DEFAULT_TEMP_URL
    fetch.add_argument("--co2-url")  # default climate.DEFAULT_CO2_URL
    fetch.add_argument("--index-url")
    fetch.add_argument("--start", default="1979-1")
    fetch.add_argument("--end", default="2022-12")
    fetch.add_argument("--out", default="climate.csv")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # Looked up per call, not bound into the cached parser, so a handler
    # replaced after the parser was built is the one that runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
