"""Command-line surface: simulate, ci, fit, diagnose, fetch-climate.

Each setting is one row of ``SETTINGS``, which the parser and
``resolve_settings`` both read.  Settings resolve in priority order: built-in
defaults, then the config file (``-c/--config``; INI sections
[table1]/[table2]/[table3]/[analysis]), then flags, then the DENSUM_SEED
environment variable (which overrides any seed).  Each command calls
``resolve_settings`` for the steps all share, then checks its own settings,
before any input is read, grid run or download made.  Exit codes: 0 success,
1 setting, config or data error, 2 network failure or a usage error that
argparse rejects (an unknown flag, or a bad --table, --method, --climate or
--partitions).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import json
import math
import os
import stat
import sys
from collections import namedtuple
from dataclasses import asdict

import numpy as np

from densum.analysis import (
    _series_diagnostics, file_sha256, fit_frame, fit_report, load_table, mean_set,
)
from densum.core import check_alpha, check_cluster_count, sequential_partition, summarize
from densum.estimators import (
    gee_exchangeable_wald, ols_fit, partition_compare, weighted_residuals,
)


def _cluster_counts(text):
    """argparse type of --partitions: comma-separated positive integers."""
    try:
        counts = [int(k) for k in text.split(",")]
    except ValueError:
        counts = []
    if not counts or min(counts) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive cluster counts, got {text!r}")
    return counts


# --method value -> ci_mean method
CI_MEAN_METHODS = {"hoeffding": "hoeffding", "u": "u_sharp",
                   "bernstein": "bernstein", "ratio": "ratio"}
# Each command and its help, in the order a message lists the commands.
COMMANDS = {"simulate": "run a coverage experiment grid",
            "ci": "confidence set for a column mean",
            "fit": "least squares with dependence-robust sets",
            "diagnose": "U-class and dependence diagnostics",
            "fetch-climate": "download and normalize the public series"}

Setting = namedtuple("Setting", "name flags commands sections cast choices default help required",
                     defaults=((), None, None, None, None, False))
TABLES, ANALYSIS, MODEL = ("table1", "table2", "table3"), ("analysis",), ("fit", "diagnose")
SECTIONS, ANALYSES, CONFIGURED = TABLES + ANALYSIS, ("ci", *MODEL), ("simulate", "ci", *MODEL)
# Every setting, in each command's flag order: its ``args`` name and config key,
# flags, commands, config sections (none: no config key; [DEFAULT] and sections not
# in SECTIONS give any key some section gives), cast (None keeps the text), choices,
# default (argparse's where no section gives the setting) and help.  Kept elsewhere:
# simulate's (ExperimentConfig; --out names its table), --range's (_parse_range_flag,
# as --method ratio tells unset from residual) and the climate URLs (densum.climate).
SETTINGS = (
    Setting("table", ("--table",), ("simulate",), cast=int, choices=(1, 2, 3), required=True),
    Setting("n", ("--n",), ("simulate",), TABLES, int),
    Setting("phi", ("--phi", "--phi-star"), ("simulate",), TABLES, float),
    Setting("shape", ("--shape",), ("simulate",), TABLES, float),
    Setting("reps", ("--reps",), ("simulate",), TABLES, int),
    Setting("seed", ("--seed",), ("simulate",), TABLES, int),
    Setting("file", ("file",), ANALYSES),
    Setting("response", ("--response",), MODEL, ANALYSIS),
    Setting("covariates", ("--covariates",), MODEL, ANALYSIS,
            help="comma-separated column names"),
    Setting("climate", ("--climate",), MODEL, choices=("monthly", "yearly"),
            help="treat the input as a climate CSV and build the lagged frame"),
    Setting("column", ("--column",), ("ci", "diagnose"), ANALYSIS),
    Setting("alpha", ("--alpha",), ("ci", "fit"), ANALYSIS, float, default=0.05),
    Setting("method", ("--method",), ("ci",), ANALYSIS, choices=tuple(CI_MEAN_METHODS),
            default="u"),
    Setting("range", ("--range",), ("ci", "fit"), ANALYSIS,
            help="known=R | marginal=R | residual | two-mean"),
    Setting("partitions", ("--partitions",), ("fit",), cast=_cluster_counts,
            help="comma-separated cluster counts to compare"),
    Setting("screen", ("--screen",), ("fit",), help="covariate to evaluate for retention"),
    Setting("coefficient", ("--coefficient",), ("diagnose",),
            help="diagnose this coefficient's weighted residuals"),
    Setting("temp_url", ("--temp-url",), ("fetch-climate",)),
    Setting("co2_url", ("--co2-url",), ("fetch-climate",)),
    Setting("index_url", ("--index-url",), ("fetch-climate",)),
    Setting("start", ("--start",), ("fetch-climate",), default="1979-1"),
    Setting("end", ("--end",), ("fetch-climate",), default="2022-12"),
    Setting("out", ("--out",), CONFIGURED,
            help="write the output here (for diagnose, the prefix of its plot-ready CSVs)"),
    Setting("out", ("--out",), ("fetch-climate",), default="climate.csv"),
    Setting("config", ("-c", "--config"), CONFIGURED),
)


def _config_value(section, key, text):
    """A config file's ``[section] key = text``, cast and checked, a bad key or
    value named under its section."""
    takes = [row for row in SETTINGS if section in row.sections
             or (row.sections and section not in SECTIONS)]
    row = next((row for row in takes if row.name == key), None)
    if row is None:
        *rest, last = [c for c in COMMANDS if any(c in t.commands for t in takes)]
        takers = f"{', '.join(rest)} or {last}" if rest else last
        raise ValueError(f"[{section}] {key} is not a setting of "
                         f"{takers if section in SECTIONS else 'any command'}")
    try:
        value = text if row.cast is None else row.cast(text)
    except ValueError:
        raise ValueError(f"[{section}] {key} must be {row.cast.__name__}, got {text!r}") from None
    if row.choices is not None and value not in row.choices:
        raise ValueError(f"[{section}] {key} must be one of {', '.join(map(str, row.choices))}, "
                         f"got {text!r}")
    return value


def resolve_settings(args, section=None):
    """Fill, in place, each setting of config ``section`` that no flag set
    (from the section, else from [DEFAULT]; DENSUM_SEED overrides any seed),
    then each default, and make the checks every command shares.  Every key
    and value of the config file is checked when it is read, whichever command
    reads it.  Without a section no config file is read."""
    rows = [row for row in SETTINGS if args.command in row.commands]
    given = [row for row in rows if section in row.sections]  # the config file may give
    env = os.environ.get("DENSUM_SEED")
    if env is not None and any(row.name == "seed" for row in given):
        try:
            args.seed = int(env)
        except ValueError:
            raise ValueError(f"DENSUM_SEED must be an integer, got {env!r}") from None
    if section and args.config:
        # [DEFAULT] is read as a plain section (no name is empty) to check its own keys.
        config = configparser.ConfigParser(interpolation=None, default_section="")
        with open(args.config) as handle:
            config.read_file(handle)
        values = {(name, key): _config_value(name, key, text)
                  for name in config.sections() for key, text in config[name].items()}
        for row in given:
            found = [values[name, row.name] for name in (section, "DEFAULT")
                     if (name, row.name) in values]
            if found and getattr(args, row.name) is None:  # a flag's value stays
                setattr(args, row.name, found[0])
    for row in rows:
        if getattr(args, row.name) is None:
            setattr(args, row.name, row.default)
    out_dir = os.path.dirname(args.out or "")
    if out_dir and not os.path.isdir(out_dir):
        raise ValueError(f"output directory {out_dir} does not exist")


def cmd_simulate(args):
    section = f"table{args.table}"
    resolve_settings(args, section)
    from densum.simulation import ExperimentConfig, _fmt, run_table, write_results_csv

    settings = {("master_seed" if row.name == "seed" else row.name): getattr(args, row.name)
                for row in SETTINGS
                if section in row.sections and getattr(args, row.name) is not None}
    experiment = ExperimentConfig(table=args.table, **settings)
    out = args.out or f"table{args.table}_results.csv"
    rows = []
    for row in run_table(experiment):
        rows.append(row)
        label = (f" {row.coefficient}" if row.coefficient else
                 "" if row.alpha_shape is None else f" shape={row.alpha_shape:g}")
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


def cmd_ci(args):
    resolve_settings(args, "analysis")
    if args.method == "ratio" and args.range not in (None, "two-mean"):
        raise ValueError(f"--method ratio bounds the range by twice the mean (two-mean); "
                         f"it cannot take --range {args.range}")
    if args.column is None:
        raise ValueError("--column is required")
    source, given = _parse_range_flag(args.range)
    alpha = check_alpha(args.alpha)

    summary = summarize(load_table(args.file, [args.column])[1][:, 0])
    result = mean_set(summary, alpha, CI_MEAN_METHODS[args.method], source, given)
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
    if not covariates:
        raise ValueError(f"--covariates names no column, got {args.covariates!r}")
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
    alpha = check_alpha(args.alpha)
    loaded = _file_identity(args.file) if os.path.exists(args.file) else None  # stat opens nothing
    if loaded and not stat.S_ISREG(loaded[0]):
        raise ValueError(f"fit hashes its input for the report's provenance, so the input "
                         f"must be a regular file, which {args.file} is not")

    y, X, columns = fit_frame(args.file, args.response, covariates, args.climate,
                              ("--screen", args.screen))
    for k in counts:  # the partitions themselves are built when they are compared
        check_cluster_count(y.shape[0], k)
    fit = ols_fit(X, y)
    digest = file_sha256(args.file)
    # The hash must be of the file loaded.  A file replaced, or written with a new
    # size or mtime, between the stat above and this one is refused; a rewrite in
    # place that keeps the size and the mtime cannot be seen here.
    if _file_identity(args.file) != loaded:
        raise ValueError(f"{args.file} changed while fit read it, so the report's "
                         f"input_sha256 would not be the data's")
    report = fit_report(fit, columns, alpha, source, given, provenance={
        "input_sha256": digest, "seed": None,
        "config": {"alpha": alpha, "range": args.range or "residual", "n": fit.n},
    })

    print(f"model: {report.model}  (n={fit.n})")
    for row in report.coefficients:
        print(f"  {row.name:>16}: {row.estimate: .6g}  "
              f"[{row.ci_lower:.6g}, {row.ci_upper:.6g}]  ({row.range_source})")
    for diag in report.diagnostics:
        print(f"  {diag.name:>16}: U={'yes' if diag.is_u else 'NO'} "
              f"phi_hat={diag.phi_hat_short:.4f}@{diag.lags_short} / "
              f"{diag.phi_hat_long:.4f}@{diag.lags_long}  "
              f"mu*phi bound={diag.rule_of_thumb_bound:.3g}")

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


def _file_identity(path):
    """(mode, device, inode, size, mtime in ns) of ``path``."""
    st = os.stat(path)
    return st.st_mode, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


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
        with_, without = coefficients[j], reduced[pos]
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
    y, X, columns = fit_frame(args.file, args.response, covariates, args.climate,
                              ("--coefficient", args.coefficient))
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
    from densum import climate

    window = {flag: climate.parse_year_month(getattr(args, flag), f"--{flag}")
              for flag in ("start", "end")}  # each a (year, month)
    if window["start"] > window["end"]:
        raise ValueError("--start must not come after --end")
    try:
        rows = climate.fetch_climate(
            climate.DEFAULT_TEMP_URL if args.temp_url is None else args.temp_url,
            climate.DEFAULT_CO2_URL if args.co2_url is None else args.co2_url,
            args.index_url, **window)
    except OSError as exc:  # urllib's URLError is an OSError
        print(f"network failure: {exc}", file=sys.stderr)
        return 2
    climate.write_climate_csv(rows, args.out)
    print(f"wrote {len(rows)} monthly rows to {args.out}")
    return 0


@functools.cache
def build_parser():
    """The command-line parser, built once per process; ``main`` looks each
    command's handler up when it runs."""
    parser = argparse.ArgumentParser(
        prog="densum", description="Dependence-robust confidence sets for bounded data")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in COMMANDS.items()}
    for row in SETTINGS:
        for command in row.commands:
            commands[command].add_argument(
                *row.flags, type=row.cast, choices=row.choices,
                default=None if row.sections else row.default, help=row.help,
                **({"required": True} if row.required else {}),  # a positional takes none
            )
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
