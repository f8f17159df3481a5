"""End-to-end acceptance checks.

One test per headline guarantee, in a fixed order, each printing its own
pass/fail line under ``pytest -v``.  The coverage grids run at 2000
replications with the default master seed; the two grid fixtures below are
shared across tests so the suite pays for each grid once.
"""

import csv
import json
import math
import time

import numpy as np
import pytest
from scipy.special import betainc, ndtr

from densum.cli import main
from densum.concentration import bernstein_tail, ci_mean, hoeffding_tail, u_tail
from densum.core import SampleSummary, sequential_partition
from densum.estimators import cluster_robust, irwls_fit, meat_estimator, ols_fit
from densum.kernels import (
    beta_quantile,
    seeded_stream,
    std_normal_quantile,
    truncnorm_quantile,
)
from densum.simulation import ExperimentConfig, MarginalSpec, copula_sample, exchangeable_corr, run_table1, run_table2, run_table3
from densum.uclass import av_exp, eq1_identity_check, eq2_identity_check, u_mgf_bound

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def mean_grid_rows():
    """The full mean-coverage grid at 2000 replications, keyed by (n, phi)."""
    rows = run_table1(ExperimentConfig(table=1, reps=2000, master_seed=0))
    return {(row.n, row.phi): row for row in rows}


@pytest.fixture(scope="module")
def regression_reference_cells():
    """Two regression-coverage cells at 2000 replications, keyed by (n, phi)."""
    cells = {}
    for n, phi in ((100, 0.0), (500, 0.15)):
        rows = run_table3(ExperimentConfig(table=3, n=n, phi=phi, reps=2000, master_seed=0))
        cells[(n, phi)] = {row.coefficient: row for row in rows}
    return cells


@pytest.fixture(scope="module")
def uniform_mean_draws():
    """10^5 equal-weight means of 50 independent symmetric uniforms on [-1/2, 1/2]."""
    rng = seeded_stream(20240819, 0)
    sums = np.zeros(100_000)
    for start in range(0, 100_000, 20_000):  # chunked to keep memory flat
        block = rng.uniform(-0.5, 0.5, size=(20_000, 50))
        sums[start : start + 20_000] = block.mean(axis=1)
    return sums


def mc_excess(sums, taus, bound_fn):
    """Max of (tail frequency - bound - 3 SE) over the tau grid; <= 0 is valid."""
    n = sums.shape[0]
    worst = -np.inf
    for tau in taus:
        freq = float(np.mean(np.abs(sums) >= tau))
        se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / n)
        worst = max(worst, freq - bound_fn(tau) - 3.0 * se)
    return worst


def test_additive_variance_reconstruction_matches_quadratic_form():
    from conftest import random_psd
    from densum.variance import additive_variance, summaries_from_covariance

    rng = np.random.default_rng(987)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        cov = random_psd(rng, n)
        w = rng.standard_normal(n)
        dep = summaries_from_covariance(cov, w)
        decomp = additive_variance(w, np.diag(cov), dep)
        direct = float(w @ cov @ w)
        worst = max(worst, abs(decomp.total - direct) / abs(direct))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_feasibility_thresholds_match_published_values():
    rows = run_table2(ExperimentConfig(table=2, reps=2))
    thresholds = [round(row.threshold, 3) for row in rows]
    assert thresholds == [0.012, 0.032, 0.065, 0.132]


def test_mean_coverage_rates_at_reference_cells(mean_grid_rows):
    independent = mean_grid_rows[(100, 0.0)]
    assert independent.ci_u >= 0.99
    assert abs(independent.ci_wald - 0.92) <= 0.03

    strong = mean_grid_rows[(100, 0.2)]
    assert abs(strong.ci_u - 0.88) <= 0.04

    large_n = mean_grid_rows[(500, 0.1)]
    assert abs(large_n.ci_u - 0.68) <= 0.04


def test_sharpened_mean_interval_half_width_value():
    summary = SampleSummary(
        n=100, mean=0.5, variance=1.0 / 84.0, minimum=0.0, maximum=1.0, range=1.0
    )
    cs = ci_mean(summary, R=1.0, alpha=0.05, method="u_sharp")
    half = 0.5 * cs.width
    assert half == pytest.approx(0.0784100275699685, abs=1e-9)
    assert half == pytest.approx(math.sqrt(math.log(40.0) / 600.0), abs=1e-15)
    # endpoints as published, to the five digits they are quoted at
    assert f"{cs.lower:.5f}" == "0.42159"
    assert f"{cs.upper:.5f}" == "0.57841"


def test_regression_coverage_rates_at_reference_cells(regression_reference_cells):
    independent = regression_reference_cells[(100, 0.0)]
    assert independent["beta0"].ci_u >= 0.99
    assert independent["beta1"].ci_u >= 0.99
    assert abs(independent["beta0"].ci_wald - 0.884) <= 0.04

    dependent = regression_reference_cells[(500, 0.15)]
    assert abs(dependent["beta0"].ci_u - 0.978) <= 0.025
    assert abs(dependent["beta0"].ci_r - 0.914) <= 0.035


def test_mgf_diagnostic_verdict_direction_tracks_dependence(mean_grid_rows):
    expected = {
        (100, 0.0): "holds", (100, 0.06): "boundary",
        (100, 0.1): "violated", (100, 0.2): "violated",
        (500, 0.0): "holds", (500, 0.01): "holds",
        (500, 0.05): "violated", (500, 0.1): "violated",
        (1500, 0.0): "holds", (1500, 0.004): "holds",
        (1500, 0.01): "violated", (1500, 0.02): "violated",
    }
    hits = sum(
        mean_grid_rows[cell].verdict == verdict for cell, verdict in expected.items()
    )
    assert hits >= 10


def test_tail_bounds_valid_for_independent_uniform_means(uniform_mean_draws):
    w = np.full(50, 1.0 / 50.0)
    taus = np.linspace(0.01, 0.15, 15)
    assert mc_excess(uniform_mean_draws, taus, lambda t: u_tail(t, w, 1.0).value) <= 0.0
    assert (
        mc_excess(uniform_mean_draws, taus, lambda t: hoeffding_tail(t, w, 1.0).value)
        <= 0.0
    )


def test_sinc_hyperbolic_grid_inequality():
    x = np.linspace(0.0, 10.0, 10_001)[1:]
    assert np.all(np.sinh(x) / x < np.exp(x * x / 6.0))
    # and through the package surfaces that rely on it
    for s in (0.05, 0.7, 3.0, 9.5):
        assert av_exp(s, 1.0, 1.0) < u_mgf_bound(s, 1.0, 2.0)


def test_variance_adaptive_tail_ordering_and_validity(uniform_mean_draws):
    for n in (20, 50, 200):
        for M in (0.25, 0.5, 1.0):
            av_z2 = n * M * M / 3.0
            for tau in np.linspace(0.01, 0.4, 12):
                h_form = bernstein_tail(tau, 1.0 / n, M=M, av_z2=av_z2, form="h").value
                simple = bernstein_tail(tau, 1.0 / n, M=M, av_z2=av_z2, form="simple").value
                assert h_form <= simple + 1e-15

    taus = np.linspace(0.01, 0.15, 15)
    for form in ("h", "simple"):
        excess = mc_excess(
            uniform_mean_draws,
            taus,
            lambda t: bernstein_tail(t, 1.0 / 50.0, M=0.5, av_z2=50.0 / 12.0, form=form).value,
        )
        assert excess <= 0.0


def test_quantile_kernels_agree_with_bisection_oracles():
    def bisect(cdf, p, lo, hi, iters=90):
        lo = np.full_like(p, float(lo)) if np.isscalar(lo) else lo.copy()
        hi = np.full_like(p, float(hi)) if np.isscalar(hi) else hi.copy()
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            below = cdf(mid) < p
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    rng = np.random.default_rng(321)

    a = np.exp(rng.uniform(np.log(0.2), np.log(20.0), 400))
    b = np.exp(rng.uniform(np.log(0.2), np.log(20.0), 400))
    p = rng.uniform(0.001, 0.999, 400)
    got = beta_quantile(a, b, p)
    oracle = bisect(lambda x: betainc(a, b, x), p, 0.0, 1.0)
    assert np.max(np.abs(got - oracle)) <= 1e-8

    mu = rng.uniform(-3.0, 3.0, 400)
    sigma = rng.uniform(0.3, 4.0, 400)
    lo = mu - rng.uniform(0.5, 5.0, 400) * sigma
    hi = mu + rng.uniform(0.5, 5.0, 400) * sigma
    p = rng.uniform(0.001, 0.999, 400)
    za, zb = ndtr((lo - mu) / sigma), ndtr((hi - mu) / sigma)
    got = np.array(
        [truncnorm_quantile(mu[i], sigma[i], lo[i], hi[i], p[i]) for i in range(400)]
    )
    oracle = bisect(lambda x: (ndtr((x - mu) / sigma) - za) / (zb - za), p, lo, hi)
    assert np.max(np.abs(got - oracle)) <= 1e-8

    p = rng.uniform(1e-6, 1.0 - 1e-6, 200)
    got = std_normal_quantile(p)
    oracle = bisect(ndtr, p, -9.0, 9.0)
    assert np.max(np.abs(got - oracle)) <= 1e-8


def test_estimator_identities():
    rng = np.random.default_rng(654)
    for _ in range(30):
        p = int(rng.integers(1, 7))
        n = int(rng.integers(p + 2, 300))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))]) if p > 1 else np.ones((n, 1))
        beta = rng.uniform(-3.0, 3.0, p)
        eps = rng.uniform(-1.0, 1.0, n)
        fit = ols_fit(X, X @ beta + eps)

        gap = np.max(np.abs((fit.coefficients - beta) - fit.weight_rows @ eps))
        assert gap <= 1e-12

        singletons = sequential_partition(n, n)
        for s in range(p):
            assert cluster_robust(fit, singletons, s).value == meat_estimator(fit, s)

        irwls = irwls_fit(X, fit.outcomes, link="identity")
        assert np.max(np.abs(irwls.coefficients - fit.coefficients)) <= 1e-10


def test_enumerated_support_average_identities():
    rng = np.random.default_rng(135)
    for _ in range(60):
        k = int(rng.integers(2, 21))
        values = np.sort(rng.standard_normal(k)) * float(rng.uniform(0.5, 10.0))
        probs = rng.dirichlet(np.full(k, 0.8))
        assert eq1_identity_check(values, probs).gap <= 1e-12

    for _ in range(40):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        grid_a = np.sort(rng.standard_normal(shape[0]))
        grid_b = np.sort(rng.standard_normal(shape[1]))
        points = [(za, zb) for za in grid_a for zb in grid_b]
        probs = rng.dirichlet(np.full(len(points), 0.7))
        c0, c1 = rng.uniform(-1.0, 1.0, 2)

        def g(row, c0=c0, c1=c1):
            return math.exp(0.3 * row[0]) + c0 * row[0] * row[1] + c1 * row[1] ** 2

        assert eq2_identity_check(points, probs, g).gap <= 1e-12


def test_fit_pipeline_covers_known_coefficients(tmp_path):
    n, fixtures = 180, 500
    beta = {"intercept": 1.5, "x1": -2.0, "x2": 0.75}
    x1 = np.linspace(0.0, 1.0, n)
    x2 = np.sin(np.arange(n) * (2.0 * math.pi / 12.0))
    base = beta["intercept"] + beta["x1"] * x1 + beta["x2"] * x2

    marginal = MarginalSpec.truncnormal(0.0, 1.0, -4.0, 4.0)
    eps = copula_sample(exchangeable_corr(n, 0.01), marginal, fixtures, seed=77)

    csv_path = tmp_path / "fixture.csv"
    out_path = tmp_path / "report.json"
    covered = {name: 0 for name in beta}
    for r in range(fixtures):
        y = base + eps[r]
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x1", "x2", "y"])
            writer.writerows(zip(x1, x2, y))
        rc = main(
            ["fit", str(csv_path), "--response", "y", "--covariates", "x1,x2",
             "--range", "residual", "--out", str(out_path)]
        )
        assert rc == 0
        report = json.loads(out_path.read_text())
        for row in report["coefficients"]:
            if row["ci_lower"] <= beta[row["name"]] <= row["ci_upper"]:
                covered[row["name"]] += 1

    for name, hits in covered.items():
        assert hits / fixtures >= 0.95, f"{name} covered in only {hits}/{fixtures}"
