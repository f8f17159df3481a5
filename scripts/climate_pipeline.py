#!/usr/bin/env python
"""End-to-end applied pipeline: fetch the public series (network required),
then fit the monthly and yearly models with residual-range confidence sets.

Skip the fetch by passing --csv with an already-normalized climate CSV.
"""

import argparse
import sys

from densum.cli import main as densum_main
from densum.climate import climate_prepare, load_climate_csv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", help="existing normalized climate CSV (skips the fetch)")
    parser.add_argument("--out-prefix", default="climate_analysis")
    args = parser.parse_args(argv)

    csv_path = args.csv
    if csv_path is None:
        csv_path = "climate.csv"
        code = densum_main(["fetch-climate", "--out", csv_path])
        if code != 0:
            return code

    # The index is screened when the model has it: fetch-climate writes an index
    # column only when given --index-url.  fit reports an input it cannot read.
    try:
        columns = climate_prepare(load_climate_csv(csv_path)).columns
    except (OSError, ValueError):
        columns = ()
    screen = ["--screen", "log_index_lag1"] if "log_index_lag1" in columns else []
    for unit in ("monthly", "yearly"):
        code = densum_main(
            [
                "fit", csv_path, "--climate", unit,
                "--range", "residual",
                *screen,
                "--out", f"{args.out_prefix}_{unit}.json",
            ]
        )
        if code != 0:
            return code
        code = densum_main(
            [
                "diagnose", csv_path, "--climate", unit,
                "--coefficient", "log_co2_lag1",
                "--out", f"{args.out_prefix}_{unit}",
            ]
        )
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
