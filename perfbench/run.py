"""densum benchmark: coverage grids and the CSV analysis path, end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid-mean --seed 0 --seconds 30 --trace 0

It drives ``densum.cli.main`` in this one process, from the checkout's
``src`` directory.  ``--trace 0`` prints the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` wraps each layer's functions with span and
counter recorders and prints the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it are a readable
summary.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import CellAllocProbe, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

# Baseline from the ROADMAP (ad-hoc timers and cProfile, 2-core host,
# OpenBLAS), per command of each workload.
BASELINE = {
    "grid-mean": [
        {"op": "simulate_table1", "wall_s": 9.5, "share": {"kernels.beta_quantile": 0.69},
         "self_s": {"simulation.copula_sample": 1.3, "kernels.seeded_stream": 0.67,
                    "kernels.cholesky": 0.53, "simulation.sandwich": 0.27}},
        {"op": "simulate_table2", "wall_s": 2.5},
    ],
    "grid-regression": [
        {"op": "simulate_table3", "wall_s": 3.6,
         "note": "the baseline is at reps 2000; this workload runs reps 5000"},
    ],
    "fit-csv": [
        {"op": "fit_5k", "wall_s": 0.44},
        {"op": "fit_20k", "wall_s": 1.0},
        {"op": "fit_40k", "share": {"estimators.acf_phi_hat": 0.91},
         "note": "the baseline share is at 80k rows; the ACF is quadratic in n"},
    ],
}

SETUP_CODE = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import densum.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [densum.cli.main(command.split("\\n")) for command in sys.argv[2:]]
sys.exit(max(codes))
"""


def import_program():
    """Import densum.cli from this checkout's sources, never from elsewhere."""
    if not (SRC / "densum" / "cli.py").is_file():
        sys.exit(f"perfbench: no densum sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import densum.cli

    if Path(densum.cli.__file__).resolve().parent != SRC / "densum":
        sys.exit(f"perfbench: imported densum from {densum.cli.__file__}, not {SRC}")
    return densum.cli


def blas_threads():
    """(library, thread count) of each OpenBLAS that numpy or scipy bundles."""
    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    getter = getattr(handle, symbol)
                    getter.restype = ctypes.c_int
                    found[f"{package.__name__}: {lib.name}"] = getter()
                    break
    return found


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": blas_threads(),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# one pass: the workload's commands, in order
# ---------------------------------------------------------------------------


class Pass:
    def __init__(self):
        self.latency = {}
        self.failures = {}  # op label -> problems found

    @property
    def wall_s(self):
        return sum(self.latency.values())


def tally(passes):
    """(operations attempted, operations failed, problem messages)."""
    attempted = sum(len(p.latency) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    messages = [f"{label}: {m}" for p in passes for label, ms in p.failures.items() for m in ms]
    return attempted, failed, messages


def run_pass(cli, workload, tracer=None, probe=None):
    """Run every command once; time each, then check its outputs untimed."""
    result = Pass()
    for op in workload.ops:
        for path in op.outputs.values():
            Path(path).unlink(missing_ok=True)
        if tracer is not None:
            tracer.op = op.label
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(op.argv)
        except Exception as exc:  # a crashing command is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        result.latency[op.label] = time.perf_counter() - start
        if probe is not None:
            probe.end_operation()
        if code != 0:
            problems = [f"exit {code}; {sink.getvalue()[-300:].strip()}"]
        else:
            try:
                problems = workload.check(op)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            result.failures[op.label] = problems
    return result


def measure_setup(workdir, commands):
    """Fresh interpreter -> import densum.cli -> warm-up commands, timed from
    outside; the median of several."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)] + ["\n".join(c) for c in commands]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=workdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up failed: {done.stderr.strip()[-500:]}")
    return statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def timed_run(cli, workload, seconds, workdir, commands):
    setup_s = measure_setup(workdir, commands)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, workload))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    walls = [p.wall_s for p in passes]
    wall_s = statistics.median(walls)
    values = {
        "wall_s": wall_s,
        "work_per_s": workload.work_per_pass / wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    attempted, failed, messages = tally(passes)

    q1, q3 = quartiles(walls)
    lines = [f"passes: {len(passes)} (closed loop, one client); wall_s per pass "
             f"median {wall_s:.4f} s, quartiles {q1:.4f}-{q3:.4f} s"]
    lines.append(f"{workload.work_name}: {values['work_per_s']:.6g} {workload.work_unit} "
                 f"({workload.work_per_pass:g} per pass / wall_s)")
    for op in workload.ops:
        latency = [p.latency[op.label] for p in passes]
        q1, q3 = quartiles(latency)
        lines.append(f"{op.label}_s: median {statistics.median(latency):.4f} s, "
                     f"quartiles {q1:.4f}-{q3:.4f} s")
    lines.append(f"failed_frac: {failed / attempted:.4g} ratio ({failed} of {attempted} operations)")
    return values, attempted, failed, messages, lines


def traced_run(cli, workload, spec):
    plain = run_pass(cli, workload)
    with Tracer() as tracer:
        traced = run_pass(cli, workload, tracer=tracer)
    passes = [plain, traced]
    probe = None
    if workload.simulates:
        with CellAllocProbe() as probe:
            passes.append(run_pass(cli, workload, probe=probe))

    self_s = tracer.self_times()
    counts = tracer.counts
    values, absent = {}, []
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            value = traced.wall_s - plain.wall_s
        elif name == "simulation.cell_alloc_peak_mb":
            value = probe.peak_mb if probe is not None else 0.0
        elif name == "kernels.ensure_pd.attempts":
            calls = counts.get("kernels.ensure_pd.calls", 0)
            value = counts.get("kernels.ensure_pd.attempts", 0) / calls if calls else 0.0
        elif name.endswith(".self_s"):
            value = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            value = counts.get(name, 0)
        if not value and name != "trace.overhead_s":
            absent.append(name)
        values[name] = value

    lines = [f"untraced pass {plain.wall_s:.4f} s, traced pass {traced.wall_s:.4f} s"]
    lines.append(f"functions not found: {', '.join(tracer.absent) or 'none'}")
    lines.append(f"absent (never called): {', '.join(absent) or 'none'}")
    reconciliation = reconcile(workload.name, tracer, traced, plain)
    lines += [f"baseline: {line}" for line in reconciliation]

    origin = tracer.spans[0][3] if tracer.spans else 0.0
    record = {
        "workload": workload.name,
        "metrics": values,
        "absent": absent,
        "functions_not_found": tracer.absent,
        "counts": dict(counts),
        "op_wall_s": {"untraced": plain.latency, "traced": traced.latency},
        "baseline_reconciliation": reconciliation,
        "spans": [[layer, op, parent, round(s - origin, 7), round(e - origin, 7)]
                  for layer, op, parent, s, e in tracer.spans],
    }
    attempted, failed, messages = tally(passes)
    lines.append(f"failed_frac: {failed / attempted:.4g} ratio ({failed} of {attempted} operations)")
    return values, attempted, failed, messages, lines, record


def reconcile(name, tracer, traced, plain):
    """The traced shares of each command next to the ROADMAP baseline."""
    lines = []
    for base in BASELINE.get(name, []):
        op = base["op"]
        if op not in traced.latency:
            continue
        own = tracer.self_times(op)
        if "wall_s" in base:
            lines.append(f"{op} wall {plain.latency[op]:.3f} s untraced (baseline {base['wall_s']} s)")
        for layer, share in base.get("share", {}).items():
            lines.append(f"{layer} {own.get(layer, 0.0) / traced.latency[op]:.1%} of {op} "
                         f"(baseline {share:.0%})")
        for layer, seconds in base.get("self_s", {}).items():
            lines.append(f"{layer} self {own.get(layer, 0.0):.3f} s in {op} (baseline {seconds} s)")
        if "note" in base:
            lines.append(f"{op}: {base['note']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    os.environ.pop("DENSUM_SEED", None)  # the benchmark, not the environment, seeds the program

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        commands = workloads.warm_up_commands(workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            if any(cli.main(c) != 0 for c in commands):
                sys.exit("perfbench: warm-up command failed")
        if args.trace:
            values, attempted, failed, failures, lines, record = traced_run(cli, workload, spec)
            metrics = spec["per_layer"]
        else:
            values, attempted, failed, failures, lines = timed_run(
                cli, workload, args.seconds, workdir, commands)
            metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in lines:
        print("  " + line)
    for metric in metrics:
        print(f"  {metric['name']} = {values[metric['name']]:.6g} {metric['unit']}")
    for failure in failures[:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    if args.trace:
        record["seed"], record["environment"] = args.seed, env
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(record))
        print(f"  spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
