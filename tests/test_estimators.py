import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from densum.analysis import load_table
from densum.core import Partition, sequential_partition
from densum.estimators import (
    ConvergenceError,
    RegressionFit,
    _ExchangeableSandwich,
    _qr_weight_rows,
    acf_phi_hat,
    cluster_robust,
    gee_exchangeable_vcov,
    gee_exchangeable_wald,
    irwls_fit,
    meat_estimator,
    ols_fit,
    partition_compare,
    residual_range,
    weighted_residuals,
)
from densum.simulation import block_rows, table3_design

# Worked example used throughout: three points, one slope.
#   X = [[1,0],[1,1],[1,2]], y = [0,1,1]
#   B = (1/6, 1/2); residuals (-1/6, 1/3, -1/6)
#   W = [[5/6, 1/3, -1/6], [-1/2, 0, 1/2]]
X3 = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
Y3 = np.array([0.0, 1.0, 1.0])


@pytest.fixture
def fit3():
    return ols_fit(X3, Y3)


class TestOlsFit:
    def test_worked_example(self, fit3):
        np.testing.assert_allclose(fit3.coefficients, [1.0 / 6.0, 0.5], atol=1e-14)
        np.testing.assert_allclose(fit3.residuals, [-1.0 / 6.0, 1.0 / 3.0, -1.0 / 6.0], atol=1e-14)
        np.testing.assert_allclose(
            fit3.weight_rows,
            [[5.0 / 6.0, 1.0 / 3.0, -1.0 / 6.0], [-0.5, 0.0, 0.5]],
            atol=1e-14,
        )

    def test_coefficients_are_weighted_sums(self, fit3):
        np.testing.assert_allclose(fit3.weight_rows @ fit3.outcomes, fit3.coefficients, atol=1e-15)

    def test_estimation_error_is_weighted_noise(self, rng):
        # y = X beta + eps  =>  B - beta = W eps, to float precision
        X = np.column_stack([np.ones(40), rng.standard_normal((40, 3))])
        beta = np.array([2.0, -1.0, 0.5, 3.0])
        eps = rng.uniform(-1, 1, size=40)
        fit = ols_fit(X, X @ beta + eps)
        np.testing.assert_allclose(
            fit.coefficients - beta, fit.weight_rows @ eps, atol=1e-12
        )

    def test_residuals_orthogonal_to_design(self, rng):
        X = np.column_stack([np.ones(25), rng.standard_normal(25)])
        fit = ols_fit(X, rng.standard_normal(25))
        np.testing.assert_allclose(X.T @ fit.residuals, 0.0, atol=1e-12)

    def test_exact_fit_has_zero_residuals(self):
        fit = ols_fit(X3, X3 @ np.array([2.0, -1.0]))
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-13)

    def test_duplicate_column_reported_by_index(self):
        X = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0)])
        with pytest.raises(ValueError, match="column 2 is linearly dependent"):
            ols_fit(X, np.zeros(5))

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(ValueError, match="at least as many observations"):
            ols_fit(np.ones((2, 3)), np.zeros(2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            ols_fit(X3, np.zeros(4))


def _golden_design(covariates):
    table = load_table(Path(__file__).parent / "golden" / "analysis_200.csv", ["y", *covariates])[1]
    return np.column_stack([np.ones(table.shape[0]), table[:, 1:]])


def _random_design(seed):
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(20, 3000)), 2 + seed % 5
    scales = rng.uniform(0.1, 100.0, p - 1)
    return np.column_stack([np.ones(n), rng.standard_normal((n, p - 1)) * scales])


# Fixed in advance: the golden fit's design and its model without x3, table
# 3's designs, and ten seeded designs with p = 2..6 and column scales from
# 0.1 to 100.
ORACLE_DESIGNS = {
    "analysis_200_p4": lambda: _golden_design(["x1", "x2", "x3"]),
    "analysis_200_p3": lambda: _golden_design(["x1", "x2"]),
    **{f"table3_n{n}": (lambda n=n: table3_design(n, master_seed=0)) for n in (100, 500, 1500)},
    **{f"random_{seed}": (lambda seed=seed: _random_design(seed)) for seed in range(10)},
}


@pytest.mark.parametrize("design", ORACLE_DESIGNS.values(), ids=ORACLE_DESIGNS.keys())
def test_weight_rows_match_scipy_solve_triangular_bit_for_bit(design):
    # The numpy solve must give scipy's bits and layout: W @ y sums in
    # layout order, so a C-ordered W would move the coefficients.
    X = design()
    Q, R = np.linalg.qr(X)
    oracle = scipy.linalg.solve_triangular(R, Q.T, lower=False)
    W = _qr_weight_rows(X)
    assert W.flags.f_contiguous == oracle.flags.f_contiguous
    np.testing.assert_array_equal(W.view(np.uint64), oracle.view(np.uint64))
    y = np.random.default_rng(X.shape[0]).standard_normal(X.shape[0])
    np.testing.assert_array_equal(ols_fit(X, y).coefficients.view(np.uint64),
                                  (oracle @ y).view(np.uint64))


class TestMeat:
    def test_worked_values(self, fit3):
        assert meat_estimator(fit3, 0) == pytest.approx(7.0 / 216.0, rel=1e-14)
        assert meat_estimator(fit3, 1) == pytest.approx(1.0 / 72.0, rel=1e-14)
        assert meat_estimator(fit3, 0, 1) == pytest.approx(-1.0 / 72.0, rel=1e-14)

    def test_symmetric_in_the_pair(self, fit3):
        assert meat_estimator(fit3, 0, 1) == meat_estimator(fit3, 1, 0)

    def test_zero_for_exact_fit(self):
        fit = ols_fit(X3, X3 @ np.array([1.0, 1.0]))
        assert meat_estimator(fit, 0) == pytest.approx(0.0, abs=1e-25)


class TestClusterRobust:
    def test_worked_values(self, fit3):
        first_two = cluster_robust(fit3, Partition([1, 1, 2]), s=0)
        assert first_two.value == pytest.approx(1.0 / 648.0, rel=1e-12)
        last_two = cluster_robust(fit3, Partition([1, 2, 2]), s=0)
        assert last_two.value == pytest.approx(25.0 / 648.0, rel=1e-12)

    def test_singletons_reproduce_meat_exactly(self, rng):
        X = np.column_stack([np.ones(30), rng.standard_normal(30)])
        fit = ols_fit(X, rng.standard_normal(30))
        singletons = sequential_partition(30, 30)
        for s in (0, 1):
            assert cluster_robust(fit, singletons, s).value == meat_estimator(fit, s)

    def test_per_cluster_contributions_sum(self, fit3):
        est = cluster_robust(fit3, Partition([1, 2, 2]), s=1)
        assert est.per_cluster.shape == (2,)
        assert est.value == pytest.approx(float(est.per_cluster.sum()))

    def test_partition_length_checked(self, fit3):
        with pytest.raises(ValueError, match="does not match"):
            cluster_robust(fit3, Partition([1, 2]), s=0)

    def test_block_estimate_recovers_dependence_inflation(self):
        # within-block equicorrelation 1/3 in blocks of 10 inflates the
        # variance of the mean by 1 + 9 * (1/3) = 4 over the independent baseline;
        # the block-sum estimate sees it, the singleton estimate cannot
        rng = np.random.default_rng(7)
        n, m, rho = 20000, 10, 1.0 / 3.0
        g = np.repeat(rng.standard_normal(n // m), m)
        e = np.sqrt(rho) * g + np.sqrt(1 - rho) * rng.standard_normal(n)
        fit = ols_fit(np.ones((n, 1)), e)
        blocks = sequential_partition(n, n // m)
        ratio = cluster_robust(fit, blocks, 0).value / meat_estimator(fit, 0)
        assert 3.5 < ratio < 4.5


class TestPartitionCompare:
    def test_recommends_largest_estimate(self, fit3):
        parts = [Partition([1, 1, 2]), Partition([1, 2, 2]), Partition([1, 2, 3])]
        out = partition_compare(fit3, parts, s=0)
        assert out.recommended == 1  # 25/648 beats 1/648 and the singletons
        assert not out.is_tie
        assert out.values.shape == (3,)

    def test_ranking_is_descending(self, fit3):
        parts = [Partition([1, 1, 2]), Partition([1, 2, 2]), Partition([1, 2, 3])]
        out = partition_compare(fit3, parts, s=0)
        ranked = out.values[out.ranking]
        assert np.all(np.diff(ranked) <= 0)

    def test_duplicate_partitions_tie(self, fit3):
        out = partition_compare(fit3, [Partition([1, 1, 2]), Partition([1, 1, 2])], s=0)
        assert out.is_tie
        assert out.recommended == 0  # ties break toward the first candidate

    def test_needs_two_candidates(self, fit3):
        with pytest.raises(ValueError, match="at least two"):
            partition_compare(fit3, [Partition([1, 2, 3])], s=0)


class TestResidualRange:
    def test_worked_values(self, fit3):
        # weighted residuals for s=0: (-5/36, 1/9, 1/36) -> range 1/4
        assert residual_range(weighted_residuals(fit3, 0)) == pytest.approx(0.25, rel=1e-13)
        assert residual_range(weighted_residuals(fit3, 1)) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_zero_spread_warns(self, fit3):
        exact = RegressionFit(
            design=fit3.design,
            outcomes=fit3.fitted,
            coefficients=fit3.coefficients,
            weight_rows=fit3.weight_rows,
            fitted=fit3.fitted,
            residuals=np.zeros_like(fit3.residuals),
        )
        with pytest.warns(UserWarning, match="degenerate"):
            assert residual_range(weighted_residuals(exact, 0)) == 0.0

    def test_needs_two_observations(self):
        fit = ols_fit(np.array([[1.0]]), np.array([2.0]))
        with pytest.raises(ValueError, match="at least two"):
            residual_range(weighted_residuals(fit, 0))


def newton_logit(X, y, iters=200):
    """Independent oracle: damped Newton on the Bernoulli log-likelihood."""
    beta = np.zeros(X.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = X.T @ (y - p)
        hess = (X * (p * (1 - p))[:, None]).T @ X
        step = np.linalg.solve(hess, grad)
        # halve until the log-likelihood stops decreasing
        def loglik(b):
            eta = X @ b
            return float(y @ eta - np.logaddexp(0.0, eta).sum())
        scale = 1.0
        while loglik(beta + scale * step) < loglik(beta) and scale > 1e-8:
            scale *= 0.5
        beta = beta + scale * step
        if np.max(np.abs(scale * step)) < 1e-14:
            break
    return beta


def newton_log_link(X, y, iters=200):
    """Independent oracle: Newton on the Poisson log-likelihood."""
    beta = np.zeros(X.shape[1])
    beta[0] = np.log(max(np.mean(y), 1e-8))
    for _ in range(iters):
        mu = np.exp(X @ beta)
        grad = X.T @ (y - mu)
        hess = (X * mu[:, None]).T @ X
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < 1e-14:
            break
    return beta


class TestIrwls:
    def test_identity_link_equals_ols(self, rng):
        X = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        y = rng.standard_normal(30)
        ols = ols_fit(X, y)
        irwls = irwls_fit(X, y, link="identity")
        np.testing.assert_allclose(irwls.coefficients, ols.coefficients, atol=1e-10)
        np.testing.assert_allclose(irwls.weight_rows, ols.weight_rows, atol=1e-10)

    def test_logit_matches_newton_oracle(self, rng):
        X = np.column_stack([np.ones(200), rng.standard_normal((200, 2))])
        eta = X @ np.array([0.3, -0.8, 0.5])
        y = (rng.uniform(size=200) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        fit = irwls_fit(X, y, link="logit")
        oracle = newton_logit(X, y)
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-8)

    def test_log_link_matches_newton_oracle(self, rng):
        X = np.column_stack([np.ones(300), rng.uniform(-1, 1, size=300)])
        mu = np.exp(X @ np.array([1.0, 0.7]))
        y = rng.poisson(mu).astype(float)
        fit = irwls_fit(X, y, link="log")
        oracle = newton_log_link(X, y)
        np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-8)

    def test_weight_rows_invert_the_mean_jacobian(self, rng):
        # W = (d'V^{-1}d)^{-1} d'V^{-1} must satisfy W d = I at the solution
        X = np.column_stack([np.ones(100), rng.standard_normal(100)])
        y = (rng.uniform(size=100) < 0.4).astype(float)
        fit = irwls_fit(X, y, link="logit")
        p = fit.fitted
        d = X * (p * (1 - p))[:, None]
        np.testing.assert_allclose(fit.weight_rows @ d, np.eye(2), atol=1e-9)

    def test_weight_rows_match_direct_formula(self, rng):
        X = np.column_stack([np.ones(80), rng.standard_normal(80)])
        y = (rng.uniform(size=80) < 0.5).astype(float)
        fit = irwls_fit(X, y, link="logit")
        p = fit.fitted
        d = X * (p * (1 - p))[:, None]
        vinv = 1.0 / (p * (1 - p))
        direct = np.linalg.solve(d.T @ (d * vinv[:, None]), d.T * vinv[None, :])
        np.testing.assert_allclose(fit.weight_rows, direct, atol=1e-9)

    def test_trace_records_iterates(self, rng):
        X = np.column_stack([np.ones(50), rng.standard_normal(50)])
        y = (rng.uniform(size=50) < 0.5).astype(float)
        fit = irwls_fit(X, y, link="logit")
        assert fit.n_iter == len(fit.trace)
        assert fit.n_iter >= 2
        np.testing.assert_array_equal(fit.trace[-1], fit.coefficients)

    def test_separated_data_raises(self):
        x = np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
        X = np.column_stack([np.ones(6), x])
        y = (x > 0).astype(float)
        with pytest.raises(ConvergenceError):
            irwls_fit(X, y, link="logit")

    def test_logit_domain_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            irwls_fit(X3, np.array([0.0, 2.0, 1.0]), link="logit")

    def test_log_domain_check(self):
        with pytest.raises(ValueError, match="nonnegative"):
            irwls_fit(X3, np.array([1.0, -1.0, 2.0]), link="log")

    def test_unknown_link(self):
        with pytest.raises(ValueError, match="link"):
            irwls_fit(X3, Y3, link="probit")


def sandwich_oracle(X, y, partition):
    """Independent route: build each cluster's exchangeable working
    correlation explicitly and invert it, instead of the pair-sum algebra."""
    fit = ols_fit(X, y)
    e = fit.residuals
    labels = partition.assignment
    sizes = partition.cluster_sizes

    sigma2 = float(np.mean(e * e))
    cross = pairs = 0.0
    for k in range(1, partition.n_clusters + 1):
        ek = e[labels == k]
        cross += 0.5 * (ek.sum() ** 2 - (ek**2).sum())
        pairs += len(ek) * (len(ek) - 1) / 2.0
    rho = cross / (pairs * sigma2) if pairs > 0 and sigma2 > 0 else 0.0
    m = float(sizes.max())
    rho = float(np.clip(rho, (-1.0 / (m - 1.0) + 1e-6) if m > 1 else -1.0 + 1e-6, 1.0 - 1e-6))

    bread = np.zeros((X.shape[1],) * 2)
    meat = np.zeros_like(bread)
    for k in range(1, partition.n_clusters + 1):
        idx = labels == k
        Xk, ek = X[idx], e[idx]
        nk = Xk.shape[0]
        Rinv = np.linalg.inv((1 - rho) * np.eye(nk) + rho * np.ones((nk, nk)))
        bread += Xk.T @ Rinv @ Xk
        u = Xk.T @ Rinv @ ek
        meat += np.outer(u, u)
    binv = np.linalg.inv(bread)
    return fit.coefficients, binv @ meat @ binv, rho


class TestGeeExchangeable:
    def test_matches_block_inverse_oracle(self, rng):
        X = np.column_stack([np.ones(37), rng.standard_normal(37)])
        y = X @ np.array([1.0, 2.0]) + rng.standard_normal(37)
        partition = sequential_partition(37, 7)  # unequal cluster sizes
        fit = ols_fit(X, y)
        vcov, rho = gee_exchangeable_vcov(fit, partition)
        coef_o, vcov_o, rho_o = sandwich_oracle(X, y, partition)
        assert rho == pytest.approx(rho_o, abs=1e-12)
        np.testing.assert_allclose(fit.coefficients, coef_o, atol=1e-12)
        np.testing.assert_allclose(vcov, vcov_o, rtol=1e-9, atol=1e-14)

    def test_non_contiguous_partition_matches_oracle(self, rng):
        # clusters interleave across the sample, so no cluster is one
        # contiguous block in the original observation order
        X = np.column_stack([np.ones(37), rng.standard_normal(37)])
        y = X @ np.array([1.0, 2.0]) + rng.standard_normal(37)
        partition = Partition(rng.permutation(sequential_partition(37, 7).assignment))
        vcov, rho = gee_exchangeable_vcov(ols_fit(X, y), partition)
        _, vcov_o, rho_o = sandwich_oracle(X, y, partition)
        assert rho == pytest.approx(rho_o, abs=1e-12)
        np.testing.assert_allclose(vcov, vcov_o, rtol=1e-9, atol=1e-14)

    def test_singletons_reduce_to_hc0(self, rng):
        X = np.column_stack([np.ones(40), rng.standard_normal(40)])
        y = rng.standard_normal(40)
        fit = ols_fit(X, y)
        vcov, rho = gee_exchangeable_vcov(fit, sequential_partition(40, 40))
        assert rho == 0.0
        xtx_inv = np.linalg.inv(X.T @ X)
        hc0 = xtx_inv @ (X * fit.residuals[:, None] ** 2).T @ X @ xtx_inv
        np.testing.assert_allclose(vcov, hc0, rtol=1e-10, atol=1e-15)

    def test_rho_is_clipped_to_the_feasible_interval(self):
        # strongly negative within-pair products push the moment estimate
        # below -1/(m-1); the working correlation must stay PD
        e_pattern = np.tile([1.0, -1.0], 10)
        X = np.ones((20, 1))
        y = e_pattern  # mean zero, so residuals equal the pattern
        _, rho = gee_exchangeable_vcov(ols_fit(X, y), sequential_partition(20, 10))
        assert rho == pytest.approx(-1.0 + 1e-6)

    def test_needs_two_clusters(self):
        with pytest.raises(ValueError, match="two clusters"):
            gee_exchangeable_vcov(ols_fit(X3, Y3), Partition([1, 1, 1]))

    def test_wald_interval_covers_independent_data(self, rng):
        hits = 0
        reps = 300
        for _ in range(reps):
            y = rng.uniform(0, 1, size=150)
            cs = gee_exchangeable_wald(
                ols_fit(np.ones((150, 1)), y), sequential_partition(150, 50), alpha=0.05
            )
            hits += cs.contains(0.5)
        assert 0.90 <= hits / reps <= 0.99

    def test_wald_set_shape(self, rng):
        X = np.column_stack([np.ones(60), rng.standard_normal(60)])
        y = X @ np.array([0.0, 1.0]) + rng.standard_normal(60)
        cs = gee_exchangeable_wald(ols_fit(X, y), sequential_partition(60, 6), s=1)
        assert cs.method == "wald"
        assert cs.range_source is None
        assert cs.lower < cs.upper


def lopsided_partition(n):
    """One cluster of n - 999 observations, then 999 singletons."""
    return Partition(np.concatenate([np.ones(n - 999, dtype=int), np.arange(2, 1001)]))


SANDWICH_PARTITIONS = {
    "equal": sequential_partition(100, 10),
    "unequal": sequential_partition(37, 7),
    "shuffled": Partition(
        np.random.default_rng(3).permutation(sequential_partition(37, 7).assignment)
    ),
    "lopsided": lopsided_partition(2000),
}


class TestSandwichLayout:
    # The padded cluster layout: the identity for equal sequential clusters, a
    # gather for any other partition, several rows per cluster when one is large.

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("name", SANDWICH_PARTITIONS)
    def test_each_replication_is_independent_of_the_batch(self, name, p):
        partition = SANDWICH_PARTITIONS[name]
        rng = np.random.default_rng(p)
        X = np.column_stack([np.ones(partition.n), rng.standard_normal((partition.n, p - 1))])
        rows = block_rows(partition.n)  # the coverage engine's block at this n
        E = rng.standard_normal((rows + 5, partition.n))
        vcov, rho = _ExchangeableSandwich(X, partition)(E)
        for reps in (1, 2, 3, 7, rows - 1, rows, rows + 1):
            vcov_r, rho_r = _ExchangeableSandwich(X, partition)(E[:reps])
            np.testing.assert_array_equal(vcov_r, vcov[:reps])
            np.testing.assert_array_equal(rho_r, rho[:reps])

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("name", SANDWICH_PARTITIONS)
    def test_cluster_sums_equal_the_gathered_form(self, name, layout):
        # labels already in order reduce X itself, with no gathered copy; the
        # sums must equal those of X taken in stable label order, to the bit
        partition = SANDWICH_PARTITIONS[name]
        rng = np.random.default_rng(4)
        X = np.asarray(
            np.column_stack([np.ones(partition.n), rng.standard_normal((partition.n, 2))]),
            order=layout,
        )
        sandwich = _ExchangeableSandwich(X, partition)
        order = np.argsort(partition.assignment, kind="stable")
        first = np.concatenate(([0], np.cumsum(partition.cluster_sizes)[:-1]))
        Sx = np.add.reduceat(X[order], first, axis=0)
        np.testing.assert_array_equal(sandwich.Sx, Sx)
        np.testing.assert_array_equal(
            sandwich.SxSx, (Sx[:, :, None] * Sx[:, None, :]).reshape(first.size, 9)
        )

    @pytest.mark.parametrize("name", ["equal", "shuffled", "lopsided"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_each_distinct_layout_row_is_summed_once(self, name, p, monkeypatch):
        # X = 1 and [1, t] repeat the ones row; its sums are copied, to the
        # bit what the einsum recomputing them gives
        partition = SANDWICH_PARTITIONS[name]
        rng = np.random.default_rng(p)
        X = np.column_stack([np.ones(partition.n), rng.standard_normal((partition.n, p - 1))])
        E = rng.standard_normal((9, partition.n))
        sums = []
        einsum = np.einsum

        def counting_einsum(subscripts, *operands, **kwargs):
            if subscripts == "rkm,km->rk":
                sums.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counting_einsum)
        sandwich = _ExchangeableSandwich(X, partition)
        assert sandwich.source == (0, 0) + tuple(range(2, p + 1))
        vcov, rho = sandwich(E)
        assert len(sums) == p
        sums.clear()
        monkeypatch.setattr(sandwich, "source", tuple(range(p + 1)))
        vcov_all, rho_all = sandwich(E)
        assert len(sums) == p + 1
        np.testing.assert_array_equal(vcov.view(np.uint64), vcov_all.view(np.uint64))
        np.testing.assert_array_equal(rho.view(np.uint64), rho_all.view(np.uint64))

    def test_lopsided_partition_matches_oracle(self, rng):
        partition = SANDWICH_PARTITIONS["lopsided"]
        X = np.column_stack([np.ones(partition.n), rng.standard_normal(partition.n)])
        y = X @ np.array([1.0, 2.0]) + rng.standard_normal(partition.n)
        vcov, rho = gee_exchangeable_vcov(ols_fit(X, y), partition)
        _, vcov_o, rho_o = sandwich_oracle(X, y, partition)
        assert rho == pytest.approx(rho_o, abs=1e-12)
        np.testing.assert_allclose(vcov, vcov_o, rtol=1e-9, atol=1e-14)

    def test_lopsided_partition_memory_is_linear_in_n(self):
        # Padding every cluster to the largest one would take K x max size =
        # 1000 x 199 001 slots, 1.6 GB per replication.  The layout holds at
        # most 2n + K slots (3.2 MB here), and set-up plus one call must stay
        # within 64 MB of traced allocations.
        n = 200_000
        partition = lopsided_partition(n)
        X = np.column_stack([np.ones(n), np.linspace(0.0, 1.0, n)])
        E = np.random.default_rng(0).standard_normal((1, n))
        tracemalloc.start()
        try:
            vcov, _ = _ExchangeableSandwich(X, partition)(E)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(vcov))
        assert peak <= 64 * 2**20


def _loop_acf(series, lags):
    """r_1..r_lags by one O(n) sum per lag: the oracle for the FFT ACF."""
    y = np.asarray(series, dtype=float)
    centered = y - np.mean(y)
    denom = float(np.sum(centered * centered))
    n = y.shape[0]
    return np.array(
        [float(np.sum(centered[: n - l] * centered[l:])) / denom for l in range(1, lags + 1)]
    )


class TestAcf:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1), walk=st.booleans(),
           data=st.data())
    def test_fft_matches_loop_oracle(self, n, seed, walk, data):
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(n)
        z = 5.0 + (np.cumsum(noise) if walk else noise)
        lags = data.draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)), label="lags")
        short = data.draw(st.integers(1, lags), label="short")
        report = acf_phi_hat(z, lags)
        np.testing.assert_allclose(report.acf, _loop_acf(z, lags), rtol=0, atol=1e-12)
        # the padded length depends on n only, so windows share their prefix exactly
        assert np.array_equal(acf_phi_hat(z, short).acf, report.acf[:short])

    def test_alternating_series_closed_form(self):
        # centered alternating +-1 of even length: r_l = (-1)^l (n-l)/n
        report = acf_phi_hat(np.tile([1.0, -1.0], 5), lags=3)
        np.testing.assert_allclose(report.acf, [-0.9, 0.8, -0.7], atol=1e-14)
        assert report.phi_hat == pytest.approx((-0.9 + 0.8 - 0.7) / 3.0)

    def test_matches_correlate_oracle(self, rng):
        y = rng.standard_normal(200)
        c = y - y.mean()
        full = np.correlate(c, c, mode="full")[len(c) - 1 :]
        report = acf_phi_hat(y, lags=12)
        np.testing.assert_allclose(report.acf, full[1:13] / full[0], atol=1e-12)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_scaling_by_a_power_of_two_keeps_every_bit(self, rng, k):
        # the squares of y * 2**600 overflow and those of y * 2**-600 underflow
        y = rng.standard_normal(300)
        assert np.array_equal(acf_phi_hat(y * 2.0 ** k, 40).acf, acf_phi_hat(y, 40).acf)

    def test_white_noise_is_small(self, rng):
        report = acf_phi_hat(rng.standard_normal(4000), lags=10)
        assert abs(report.phi_hat) < 0.05

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            acf_phi_hat(np.full(10, 3.3), lags=2)

    @pytest.mark.parametrize("lags", [0, 10, 11])
    def test_lag_window_bounds(self, lags):
        with pytest.raises(ValueError, match="lags"):
            acf_phi_hat(np.arange(10.0), lags=lags)
