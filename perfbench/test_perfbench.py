"""Tests of the benchmark itself: exact counts, tracing and output checks.

    python3 -m pytest -q perfbench

The workloads run here at a small scale (few replications, short CSVs);
the counting and checking code is the same as at full scale.
"""

import json

import pytest

import checks
import run
import tracing
import workloads

cli = run.import_program()

COUNT_SUFFIXES = (".calls", ".values", ".lags", ".attempts", ".rows", ".bytes")
SMALL = {
    "grid-mean": lambda seed, d: workloads.grid_mean(seed, d, reps=20),
    "grid-regression": lambda seed, d: workloads.grid_regression(seed, d, reps=20),
    "fit-csv": lambda seed, d: workloads.fit_csv(seed, d, sizes=(300, 700)),
}


def traced_counts(name, seed, workdir):
    workdir.mkdir()
    workload = SMALL[name](seed, workdir)
    with tracing.Tracer() as tracer:
        result = run.run_pass(cli, workload, tracer=tracer)
    assert not result.failures
    assert not tracer.absent
    return {k: v for k, v in tracer.counts.items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly(name, tmp_path):
    first = traced_counts(name, 7, tmp_path / "a")
    second = traced_counts(name, 7, tmp_path / "b")
    assert first == second


def test_counts_match_the_workload_shape(tmp_path):
    mean = traced_counts("grid-mean", 1, tmp_path / "m")
    assert mean["kernels.seeded_stream.calls"] == 16 * 20  # one per cell-replication
    assert mean["concentration.a5_empirical.calls"] == 16
    assert "kernels.truncnorm_quantile.calls" not in mean  # the beta path bypasses it

    regression = traced_counts("grid-regression", 1, tmp_path / "r")
    assert regression["kernels.seeded_stream.calls"] == 12 * 20 + 3  # plus one design draw per n
    assert regression["concentration.a5_empirical.calls"] == 24
    assert regression["kernels.ensure_pd.calls"] == 12
    assert "kernels.beta_quantile.calls" not in regression

    fit = traced_counts("fit-csv", 1, tmp_path / "f")
    assert fit["estimators.ols_fit.calls"] == 2 * (4 + 1)  # 4 per fit, 1 per diagnose
    assert fit["cli.load_columns.rows"] == 3 * (300 + 700)
    assert "kernels.seeded_stream.calls" not in fit


def test_wrappers_reach_caller_namespaces_and_come_off():
    import densum.kernels
    import densum.simulation

    original = densum.kernels.beta_quantile
    with tracing.Tracer():
        assert densum.simulation.beta_quantile is not original
        assert densum.kernels.beta_quantile is densum.simulation.beta_quantile
    assert densum.simulation.beta_quantile is original
    assert densum.kernels.beta_quantile is original


def test_missing_function_is_absent_not_an_error():
    tracer = tracing.Tracer().install(layers=[("kernels.gone", "kernels", "no_such_function", None)])
    tracer.uninstall()
    assert tracer.absent == ["kernels.no_such_function"]
    assert tracer.self_times() == {}


def test_self_time_subtracts_child_spans():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()  # clock 1 -> 2
        inner()  # clock 3 -> 4

    outer = tracer.wrap("outer", body)
    outer()  # clock 0 -> 5
    assert tracer.self_times() == {"inner": 2.0, "outer": 3.0}


def test_agree6_tolerates_rounding_boundaries_only():
    assert checks.agree6("0.123456", 0.1234565)
    assert checks.agree6("1.23456e-07", 1.23457e-07)
    assert not checks.agree6("0.123456", 0.123458)
    assert not checks.agree6("holds", "violated")
    assert checks.compare_json({"a": [1.0, "x"]}, {"a": [1.0000001, "x"], "new": 3}, "r") == []
    assert checks.compare_json({"a": 1.0}, {}, "r") == ["r.a: missing"]


def test_a_failed_check_counts_and_the_pass_goes_on(tmp_path):
    workload = workloads.fit_csv(2, tmp_path, sizes=(300,))
    fit = next(op for op in workload.ops if op.label == "fit_300")
    fit.verify = lambda: ["deliberate mismatch"]
    result = run.run_pass(cli, workload)
    assert result.failures == {"fit_300": ["deliberate mismatch"]}
    assert len(result.latency) == len(workload.ops)


def test_reference_comparison_flags_a_changed_value():
    ref = "# densum-results v1\ntable,ci_u,verdict\n1,0.95,holds\n"
    assert checks.compare_csv(ref, ref.replace("0.95", "0.950001"), "t") == []
    assert checks.compare_csv(ref, ref.replace("0.95", "0.951"), "t")
    assert checks.compare_csv(ref, ref.replace("holds", "boundary"), "t")


def test_every_self_time_metric_has_a_traced_layer():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = {layer for layer, *_ in tracing.LAYERS}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.endswith(".self_s"):
            assert name[: -len(".self_s")] in layers, name
