"""Regenerate the committed reference outputs for seed 0.

    python3 perfbench/make_reference.py

Runs every workload's commands once at seed 0 and stores each output file,
xz-compressed, under perfbench/reference/<workload>/.  The references must
come from a commit whose outputs are known good; a change that is meant to
keep its outputs is checked against them, not used to rewrite them.
"""

from __future__ import annotations

import contextlib
import lzma
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads


def main():
    cli = run.import_program()
    workdir = run.ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name, build in workloads.WORKLOADS.items():
            workload = build(0, workdir)
            workload.reference = False
            result = run.run_pass(cli, workload)
            if result.failures:
                sys.exit(f"{name}: checks failed: {result.failures}")
            for op in workload.ops:
                for ref_name, path in op.outputs.items():
                    target = checks.reference_path(name, ref_name)
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_bytes(lzma.compress(Path(path).read_bytes()))
                    print(f"wrote {target.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    main()
