#!/usr/bin/env python
"""Run the full coverage grids and write one CSV per table.

Each table is one ``densum simulate`` run, with simulate's defaults,
DENSUM_SEED override and output-directory check.  Desk scale (reps=2000) by
default; pass --reps 10000 for publication scale.  Deterministic in --seed.
"""

import argparse
import sys

from densum.cli import main as densum_main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tables", default="1,2,3", help="comma-separated table numbers")
    parser.add_argument("--reps")
    parser.add_argument("--seed")
    parser.add_argument("--prefix", default="coverage")
    args = parser.parse_args(argv)

    for table in (t.strip() for t in args.tables.split(",")):
        argv = ["simulate", "--table", table, "--out", f"{args.prefix}_table{table}.csv"]
        for flag, value in (("--reps", args.reps), ("--seed", args.seed)):
            argv += [flag, value] if value is not None else []
        code = densum_main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
