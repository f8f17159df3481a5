import contextlib
import copy
import cProfile
import math
import os
import pstats
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

import densum.simulation
from densum import kernels
from densum.concentration import a5_from_sums, diagnostic_s
from densum.estimators import (
    _ExchangeableSandwich,
    _qr_weight_rows,
    gee_exchangeable_vcov,
    ols_fit,
    wald_z,
)
from densum.kernels import (
    NORMAL_MAP_BLOCK,
    cholesky,
    ensure_pd,
    seeded_normals,
    seeded_stream,
    truncnorm_quantile,
)
from densum.simulation import (
    BLOCK_VALUES,
    TABLE1_GRID,
    TABLE2_SHAPES,
    TABLE3_BETA,
    TABLE3_SIGMA,
    CoverageReport,
    ExperimentConfig,
    MarginalSpec,
    _Cell,
    _copula_factor,
    _exchangeable_copula,
    _parts,
    _row_chunks,
    _table3_copula,
    block_rows,
    copula_sample,
    exchangeable_corr,
    run_table,
    run_table1,
    run_table2,
    run_table3,
    table3_corr,
    table3_design,
)
from densum.core import sequential_partition

# Worker counts the determinism tests run at: 3 splits most runs unevenly
# (5242 replications into 1748/1747/1747).  Forking 3 processes on fewer
# CPUs is harmless.
WORKER_COUNTS = (1, 2, 3)


@contextlib.contextmanager
def _workers(count):
    """The coverage engine's worker count set to ``count`` for the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(densum.simulation, "WORKERS", count)
        yield


class TestMarginalSpec:
    def test_beta_moments(self):
        m = MarginalSpec.beta(10, 10)
        assert m.mean == pytest.approx(0.5)
        assert m.variance == pytest.approx(1.0 / 84.0)
        assert m.support.lower == 0.0 and m.support.upper == 1.0
        assert m.is_symmetric_u

    def test_asymmetric_beta(self):
        m = MarginalSpec.beta(2, 5)
        assert m.mean == pytest.approx(2.0 / 7.0)
        assert m.variance == pytest.approx(10.0 / (49.0 * 8.0))
        assert not m.is_symmetric_u

    def test_uniform_moments(self):
        m = MarginalSpec.uniform(-1.0, 3.0)
        assert m.mean == pytest.approx(1.0)
        assert m.variance == pytest.approx(16.0 / 12.0)
        assert m.support.range == pytest.approx(4.0)
        assert m.is_symmetric_u

    @pytest.mark.parametrize(
        "mu, sigma, lo, hi",
        [(0.0, 5.0, -20.0, 20.0), (1.0, 1.0, -5.0, 5.0), (2.0, 3.0, -1.0, 4.0)],
    )
    def test_truncnormal_moments_against_scipy(self, mu, sigma, lo, hi):
        m = MarginalSpec.truncnormal(mu, sigma, lo, hi)
        a, b = (lo - mu) / sigma, (hi - mu) / sigma
        dist = stats.truncnorm(a, b, loc=mu, scale=sigma)
        assert m.mean == pytest.approx(dist.mean(), rel=1e-10)
        assert m.variance == pytest.approx(dist.var(), rel=1e-10)

    def test_truncnormal_symmetry_flag(self):
        assert MarginalSpec.truncnormal(0, 5, -20, 20).is_symmetric_u
        assert not MarginalSpec.truncnormal(1, 1, -5, 5).is_symmetric_u

    def test_quantiles_match_scipy(self):
        u = np.linspace(0.01, 0.99, 23)
        np.testing.assert_allclose(
            MarginalSpec.beta(10, 10).quantile(u), stats.beta(10, 10).ppf(u), atol=1e-10
        )
        np.testing.assert_allclose(
            MarginalSpec.truncnormal(1, 2, -3, 7).quantile(u),
            stats.truncnorm(-2, 3, loc=1, scale=2).ppf(u),
            atol=1e-9,
        )
        np.testing.assert_allclose(
            MarginalSpec.uniform(-1, 3).quantile(u), -1 + 4 * u, atol=1e-12
        )

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: MarginalSpec.beta(0, 1),
            lambda: MarginalSpec.beta(2, -1),
            lambda: MarginalSpec.truncnormal(0, 0, -1, 1),
            lambda: MarginalSpec.truncnormal(0, 1, 2, 2),
            lambda: MarginalSpec.uniform(1, 1),
            lambda: MarginalSpec(family="cauchy", params=(0.0, 1.0)),
        ],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            bad()

    @pytest.mark.parametrize(
        "bad, family",
        [
            (lambda: MarginalSpec.uniform(math.nan, 1.0), "uniform"),
            (lambda: MarginalSpec.uniform(0.0, math.inf), "uniform"),
            (lambda: MarginalSpec.beta(math.nan, 2.0), "beta"),
            (lambda: MarginalSpec.beta(2.0, math.inf), "beta"),
            (lambda: MarginalSpec.truncnormal(0, math.nan, -1, 1), "truncnormal"),
            (lambda: MarginalSpec.truncnormal(0, 1, -math.inf, 1), "truncnormal"),
        ],
    )
    def test_non_finite_parameters_name_the_family(self, bad, family):
        with pytest.raises(ValueError, match=f"^{family} parameters must be finite"):
            bad()

    @pytest.mark.parametrize(
        "m",
        [
            MarginalSpec.beta(10, 10),
            MarginalSpec.beta(0.3, 0.3),
            MarginalSpec.truncnormal(0, 5, -20, 20),
            MarginalSpec.uniform(-1, 3),
        ],
    )
    def test_extreme_normal_draws_map_inside_the_support(self, m):
        # Phi rounds to 1 from x = 8.3 and to 0 below about -38
        y = m.normal_map()(np.array([-40.0, -9.0, 9.0, 40.0]))
        assert np.all(np.isfinite(y))
        assert np.all(y >= m.support.lower) and np.all(y <= m.support.upper)
        assert np.all(np.diff(y) >= 0.0)


    @pytest.mark.parametrize(
        "m, quantile",
        [
            (
                MarginalSpec.truncnormal(0, 5, -20, 20),
                lambda u, a=special.ndtr(-4.0), b=special.ndtr(4.0): np.clip(
                    0.0 + 5.0 * special.ndtri(a + u * (b - a)), -20.0, 20.0
                ),
            ),
            (MarginalSpec.uniform(-1, 2.5), lambda u: -1.0 + u * 3.5),
        ],
    )
    def test_in_place_transform_matches_the_quantile_of_phi(self, m, quantile):
        # bit for bit, over more than one evaluation block; a truncated normal
        # is checked through its exact map, the table's fallback and oracle
        x = np.random.default_rng(3).normal(scale=3.0, size=(3, NORMAL_MAP_BLOCK))
        x[0, :4] = (-40.0, -9.0, 9.0, 40.0)
        expected = quantile(np.clip(special.ndtr(x), np.finfo(float).tiny, np.nextafter(1.0, 0.0)))
        if m.family == "truncnormal":
            got = kernels._truncnorm_from_normal_exact(*m.params, x)
        else:
            got = m.normal_map()(x)
        assert got is x
        np.testing.assert_array_equal(got, expected)

    def test_truncnorm_quantile_out_matches_the_new_array(self):
        p = np.linspace(0.001, 0.999, 101)
        expected = truncnorm_quantile(0.0, 5.0, -20.0, 20.0, p)
        got = truncnorm_quantile(0.0, 5.0, -20.0, 20.0, p, out=p)
        assert got is p
        np.testing.assert_array_equal(got, expected)


class TestCorrelationBuilders:
    def test_exchangeable_structure(self):
        corr = exchangeable_corr(4, 0.3)
        assert corr.shape == (4, 4)
        np.testing.assert_array_equal(np.diag(corr), 1.0)
        off = corr[~np.eye(4, dtype=bool)]
        np.testing.assert_array_equal(off, 0.3)

    def test_exchangeable_near_lower_edge_is_pd(self):
        corr = exchangeable_corr(3, -0.49)
        assert np.linalg.eigvalsh(corr).min() > 0

    @pytest.mark.parametrize("rho", [-0.6, -0.5, 1.0, 1.4])
    def test_exchangeable_infeasible(self, rho):
        with pytest.raises(ValueError, match="-1/"):
            exchangeable_corr(3, rho)

    def test_exchangeable_degenerate_size(self):
        np.testing.assert_array_equal(exchangeable_corr(1, 0.9), [[1.0]])
        with pytest.raises(ValueError):
            exchangeable_corr(0, 0.0)

    @pytest.mark.parametrize("n", [10.7, 10.0, "10", None])
    def test_a_non_integral_size_is_refused_not_truncated(self, n):
        message = re.escape(f"n must be an integer, got {n!r}")
        with pytest.raises(ValueError, match=message):
            exchangeable_corr(n, 0.1)
        with pytest.raises(ValueError, match=message):
            table3_design(n, 0)
        # numpy integers are integers
        assert exchangeable_corr(np.int64(3), 0.1).shape == (3, 3)

    def test_table3_zero_scale_is_identity(self):
        corr, repair = table3_corr(0.0, [0.1, -0.2, 0.3])
        np.testing.assert_array_equal(corr, np.eye(3))
        assert repair.lam == 0.0

    def test_table3_entries_follow_the_weight_products(self):
        w1 = np.array([0.1, 0.2, 0.3])
        corr, repair = table3_corr(0.5, w1)
        assert repair.lam == 0.0
        scale = 0.5 * 9.0 / 25.0
        assert corr[0, 1] == pytest.approx(scale * 0.1 * 0.2)
        assert corr[1, 2] == pytest.approx(scale * 0.2 * 0.3)
        np.testing.assert_array_equal(np.diag(corr), 1.0)

    def test_table3_clipping_can_force_a_repair(self):
        # uneven clipping of the rank-one mosaic makes it indefinite;
        # the builder must hand back a usable (repaired) matrix
        corr, repair = table3_corr(25.0 / 18.0, [3.0, 1.0, 1.0])
        assert repair.lam > 0.0
        assert repair.changed
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
        cholesky(corr)  # must not raise


class TestCopulaSample:
    def test_deterministic_and_schedule_independent(self):
        corr = exchangeable_corr(6, 0.2)
        m = MarginalSpec.beta(10, 10)
        once = copula_sample(corr, m, 12, seed=5)
        again = copula_sample(corr, m, 12, seed=5)
        np.testing.assert_array_equal(once, again)
        # each replication has its own stream, so a shorter run is a prefix
        np.testing.assert_array_equal(copula_sample(corr, m, 4, seed=5), once[:4])

    def test_seed_changes_the_draw(self):
        corr = exchangeable_corr(4, 0.0)
        m = MarginalSpec.uniform(0, 1)
        assert not np.array_equal(
            copula_sample(corr, m, 3, seed=1), copula_sample(corr, m, 3, seed=2)
        )

    @pytest.mark.parametrize("marginal", [
        MarginalSpec.beta(10, 10), MarginalSpec.truncnormal(0, 5, -20, 20),
        MarginalSpec.uniform(-1, 2),
    ])
    def test_a_zero_loading_vector_maps_the_normals_alone(self, marginal):
        # phi = 0 takes the copying factor: each row is the map of its own
        # stream's normals, bit for bit, over a full block and a partial one
        n = 30
        reps = block_rows(n) + 300
        for sign in (1, -1):
            assert _copula_factor(np.zeros(n), sign) is densum.simulation._identity_block
        Y = copula_sample(np.zeros(n), marginal, reps, seed=4)
        expected = marginal.normal_map()(seeded_normals(4, 0, np.empty((reps, n))))
        np.testing.assert_array_equal(Y.view(np.uint64), expected.view(np.uint64))

    def test_comonotone_columns_are_identical(self):
        m = MarginalSpec.beta(10, 10)
        Y = copula_sample(np.ones((5, 5)), m, 40, seed=9)
        for j in range(1, 5):
            np.testing.assert_array_equal(Y[:, j], Y[:, 0])

    def test_independent_columns_are_uncorrelated(self):
        m = MarginalSpec.uniform(0, 1)
        Y = copula_sample(np.eye(2), m, 4000, seed=3)
        r = np.corrcoef(Y[:, 0], Y[:, 1])[0, 1]
        assert abs(r) < 0.05

    def test_dependent_uniforms_match_the_closed_form_correlation(self):
        # grades of a bivariate normal have Pearson correlation
        # (6/pi) arcsin(rho/2); for rho = 1/2 that is about 0.4826
        m = MarginalSpec.uniform(0, 1)
        Y = copula_sample(exchangeable_corr(2, 0.5), m, 4000, seed=11)
        r = np.corrcoef(Y[:, 0], Y[:, 1])[0, 1]
        assert r == pytest.approx(6.0 / math.pi * math.asin(0.25), abs=0.05)

    def test_marginal_fidelity(self):
        m = MarginalSpec.beta(10, 10)
        Y = copula_sample(exchangeable_corr(5, 0.3), m, 3000, seed=7)
        assert float(Y.mean()) == pytest.approx(0.5, abs=0.005)
        assert float(Y.var()) == pytest.approx(1.0 / 84.0, abs=0.001)
        assert Y.min() >= 0.0 and Y.max() <= 1.0

    def test_beta_cell_matches_betaincinv(self):
        n, reps, seed = 30, 50, 4
        corr = exchangeable_corr(n, 0.1)
        Z = np.stack([seeded_stream(seed, r).standard_normal(n) for r in range(reps)])
        expected = special.betaincinv(10.0, 10.0, special.ndtr(Z @ cholesky(corr).T))
        got = copula_sample(corr, MarginalSpec.beta(10, 10), reps, seed)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-11)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="square"):
            copula_sample(np.ones((2, 3)), MarginalSpec.uniform(0, 1), 2, seed=0)
        with pytest.raises(ValueError, match="at least one variable"):
            copula_sample(np.empty((0, 0)), MarginalSpec.uniform(0, 1), 2, seed=0)

    def test_asymmetric_matrix_rejected(self):
        # Cholesky reads only the lower triangle, so this must fail up front
        corr = np.array([[1.0, 0.2], [0.7, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            copula_sample(corr, MarginalSpec.uniform(0, 1), 2, seed=0)

    def test_non_unit_diagonal_rejected(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            copula_sample(2.0 * np.eye(2), MarginalSpec.uniform(0, 1), 2, seed=0)


def _dense(v, sign=1):
    corr = sign * np.outer(v, v)
    np.fill_diagonal(corr, 1.0)
    return corr


def _rank_one_normals(v, Z, sign=1):
    """Rows of Z times the semiseparable factor, through the copula's block step."""
    out = np.empty(Z.shape)
    _copula_factor(v, sign)(Z, out)
    return out


def _mosaic(n, phi_star=0.15):
    """(loading vector, sign, PDRepair, w1) of the seed-0 design's mosaic."""
    w1 = _qr_weight_rows(table3_design(n, master_seed=0))[0]
    return (*_table3_copula(phi_star, w1), w1)


class TestStructuredSampler:
    # Every grid correlation is diag(1 - sign v^2) + sign v v^T.  Its
    # semiseparable factor is checked against the dense Cholesky product, and
    # each row's arithmetic uses only that row's draws, so the determinism contract
    # holds bit for bit: a shorter run is a prefix of a longer one, and a
    # replication can be reproduced in a run of its own.  The dense product
    # keeps both as well, since it always runs on a fixed-shape block.

    CELLS = {
        "beta-exchangeable": lambda n: (
            _exchangeable_copula(n, 0.01)[0], MarginalSpec.beta(10, 10)
        ),
        "truncnormal-mosaic": lambda n: (_mosaic(n)[0], MarginalSpec.truncnormal(0, 5, -20, 20)),
        # a matrix passed to copula_sample takes the dense product
        "truncnormal-dense": lambda n: (
            exchangeable_corr(n, -0.0005), MarginalSpec.truncnormal(0, 5, -20, 20)
        ),
    }

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @settings(max_examples=6, deadline=None)
    @given(
        cell=st.sampled_from(sorted(CELLS)),
        n=st.sampled_from([500, 1500]),
        k=st.integers(1, 600),
        seed=st.integers(0, 2**16),
    )
    @example(cell="beta-exchangeable", n=1500, k=block_rows(1500), seed=0)
    @example(cell="truncnormal-mosaic", n=500, k=block_rows(500), seed=0)
    @example(cell="truncnormal-dense", n=500, k=block_rows(500) + 1, seed=0)
    def test_shorter_run_is_a_bitwise_prefix(self, workers, cell, n, k, seed):
        corr, m = self.CELLS[cell](n)
        with _workers(workers):
            short = copula_sample(corr, m, k, seed)
            np.testing.assert_array_equal(short, copula_sample(corr, m, 2 * k, seed)[:k])

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @settings(max_examples=6, deadline=None)
    @given(
        cell=st.sampled_from(sorted(CELLS)),
        n=st.sampled_from([500, 1500]),
        r=st.integers(0, 299),
        seed=st.integers(0, 2**16),
    )
    @example(cell="beta-exchangeable", n=1500, r=0, seed=0)
    @example(cell="truncnormal-mosaic", n=1500, r=0, seed=0)
    @example(cell="truncnormal-dense", n=500, r=0, seed=0)
    def test_replication_reproduces_in_isolation(self, workers, cell, n, r, seed):
        corr, m = self.CELLS[cell](n)
        with _workers(workers):
            alone = copula_sample(corr, m, r + 1, seed)[r]
            np.testing.assert_array_equal(alone, copula_sample(corr, m, 300, seed)[r])

    @pytest.mark.parametrize("n", sorted(TABLE1_GRID))
    def test_exchangeable_factor_matches_the_dense_cholesky(self, n):
        Z = seeded_normals(2, 0, np.empty((40, n)))
        negative = tuple(rho for rho in (-0.005, -0.001, -0.0005) if rho > -1.0 / (n - 1))
        for rho in TABLE1_GRID[n] + (0.5,) + negative:
            expected = Z @ cholesky(exchangeable_corr(n, rho)).T
            v, sign = _exchangeable_copula(n, rho)
            got = _rank_one_normals(v, Z, sign)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("phi_star", [0.15, -0.05, -0.15])
    @pytest.mark.parametrize("n", [100, 500, 1500])
    def test_mosaic_factor_matches_the_dense_cholesky(self, n, phi_star):
        v, sign, repair, w1 = _mosaic(n, phi_star)
        assert sign == (1 if phi_star > 0 else -1)
        corr, dense_repair = table3_corr(phi_star, w1)
        assert repair == dense_repair
        Z = seeded_normals(2, 0, np.empty((40, n)))
        np.testing.assert_allclose(
            _rank_one_normals(v, Z, sign), Z @ cholesky(corr).T, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "v, sign",
        [
            (np.full(10, 1.00003), 1),
            (np.full(40, 1.0005), 1),
            (np.full(25, 1.02), 1),
            (np.array([2.0, 0.5, 0.5]), 1),
            (np.r_[1.004, np.full(30, 0.8)], 1),  # one loading above 1, still PD
            # sign -1: (n - 1) v^2 = 1 + 5e-7, 1.005 and 1.05 need lam 1e-6, 0.01, 0.1
            (np.full(11, math.sqrt(0.10000005)), -1),
            (np.full(11, math.sqrt(0.1005)), -1),
            (np.full(21, math.sqrt(0.0525)), -1),
            (np.r_[0.5, np.full(30, 0.15)], -1),  # already PD
            (np.r_[0.9, np.full(5, 0.45)], -1),  # only the identity
        ],
    )
    def test_repair_matches_ensure_pd(self, v, sign):
        shrunk, repair = ensure_pd(v, sign)
        fixed, dense_repair = ensure_pd(_dense(v, sign))
        assert repair == dense_repair
        np.testing.assert_allclose(_dense(shrunk, sign), fixed, rtol=0, atol=1e-14)

    def test_unclipped_mosaics_are_structured_others_dense(self):
        for phi_star in (0.1, -0.1):
            v, sign, repair = _table3_copula(phi_star, [0.1, 0.2, 0.3])
            assert v.ndim == 1 and sign == math.copysign(1, phi_star)
            assert repair == table3_corr(phi_star, [0.1, 0.2, 0.3])[1]
        for phi_star in (25.0 / 18.0, -25.0 / 18.0):
            corr, sign, repair = _table3_copula(phi_star, [3.0, 1.0, 1.0])
            expected, expected_repair = table3_corr(phi_star, [3.0, 1.0, 1.0])
            np.testing.assert_array_equal(corr, expected)
            assert (sign, repair) == (1, expected_repair)
        v, sign = _exchangeable_copula(4, -0.2)
        np.testing.assert_array_equal(v, np.full(4, math.sqrt(0.2)))
        assert sign == -1
        with pytest.raises(ValueError, match="-1/"):
            _exchangeable_copula(3, 1.0)

    def test_only_clipped_mosaics_and_user_matrices_take_the_dense_product(self, monkeypatch):
        class DenseProduct(Exception):
            pass

        def dense(*args):
            raise DenseProduct

        monkeypatch.setattr(densum.simulation, "_dense_block", dense)
        monkeypatch.setattr(densum.simulation, "cholesky", dense)
        run_table1(ExperimentConfig(table=1, n=1500, phi=-0.0005, reps=20))
        run_table2(ExperimentConfig(table=2, phi=-0.001, reps=20))
        run_table3(ExperimentConfig(table=3, phi=-0.05, reps=20))
        # a clipped mosaic repaired all the way to the identity takes the copy
        corr, sign, repair = _table3_copula(25.0 / 18.0, [3.0, 1.0, 1.0])
        assert repair.lam == 1.0
        assert _copula_factor(corr, sign) is densum.simulation._identity_block
        # the seed-0 n = 100 mosaic at phi* = 3.1 clips and is repaired with lambda = 0.1
        corr, sign, repair = _table3_copula(3.1, _qr_weight_rows(table3_design(100, 0))[0])
        assert corr.ndim == 2 and repair.lam == 0.1
        with pytest.raises(DenseProduct):
            _copula_factor(corr, sign)
        with pytest.raises(DenseProduct):
            copula_sample(exchangeable_corr(5, -0.2), MarginalSpec.uniform(0, 1), 3, seed=0)

    def test_loading_vector_is_validated(self):
        m = MarginalSpec.uniform(0, 1)
        with pytest.raises(ValueError, match="finite"):
            copula_sample(np.array([0.1, np.nan]), m, 2, seed=0)
        with pytest.raises(ValueError, match="at least one variable"):
            copula_sample(np.array([]), m, 2, seed=0)
        with pytest.raises(ValueError, match="sign must be 1 or -1, got 0"):
            kernels.rank_one_cholesky(np.full(2, 0.1), 0)

    @pytest.mark.parametrize("reps", [-1, 2.5, 2.0, "2"])
    def test_reps_must_be_a_nonnegative_integer(self, reps):
        with pytest.raises(ValueError, match=r"reps must be a nonnegative integer, got"):
            copula_sample(np.full(2, 0.1), MarginalSpec.uniform(0, 1), reps, seed=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_reps_is_an_empty_sample(self, workers):
        m = MarginalSpec.uniform(0, 1)
        with _workers(workers):
            for corr in (np.full(3, 0.1), exchangeable_corr(3, 0.1)):
                assert copula_sample(corr, m, 0, seed=0).shape == (0, 3)
            assert copula_sample(np.full(3, 0.1), m, np.int64(2), seed=0).shape == (2, 3)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_dense_path_keeps_the_prefix(self, workers):
        # a matrix passed to copula_sample takes the dense product
        n, m = 500, MarginalSpec.truncnormal(0, 5, -20, 20)
        corr = exchangeable_corr(n, -0.001)
        with _workers(workers):
            short = copula_sample(corr, m, 300, seed=1)
            np.testing.assert_array_equal(short, copula_sample(corr, m, 600, seed=1)[:300])

    def test_drivers_draw_each_replication_once_per_n(self, monkeypatch):
        calls = []

        def counting_stream(seed, index):
            calls.append(index)
            return seeded_stream(seed, index)

        def counting_normals(seed, start, out):
            calls.extend(range(start, start + out.shape[0]))
            return seeded_normals(seed, start, out)

        monkeypatch.setattr(densum.simulation, "seeded_stream", counting_stream)
        monkeypatch.setattr(densum.simulation, "seeded_normals", counting_normals)
        run_table1(ExperimentConfig(table=1, n=100, reps=3))
        assert sorted(calls) == [0, 1, 2]  # four phi cells share one draw
        calls.clear()
        run_table3(ExperimentConfig(table=3, n=100, reps=3))
        assert sorted(calls) == [0, 1, 2, 2**32 + 100]  # plus the design draw


def _run_capturing_cells(config):
    """run_table(config) plus each cell it reduced to report rows, in order."""
    cells = []
    rows_of = _Cell.rows

    def capture(cell):
        cells.append(cell)
        return rows_of(cell)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Cell, "rows", capture)
        rows = run_table(config)
    return rows, cells


def _statistics(cell):
    """A cell's per-replication statistics: errors, Wald cover flags, residual range."""
    return cell.err, cell.covered_wald, cell.rhat


class TestBlockedEngine:
    # The drivers score replications in blocks of at most block_rows(n), and
    # every step computes a replication's values from its own row alone, so
    # a replication's statistics depend neither on reps nor on the block
    # size: a reps=k report is the reduction of the first k rows of a
    # reps=2k run's statistics, bit for bit, and a cell's memory does not
    # grow with reps (nor exceed what reps itself needs).

    CELLS = {
        "table1": dict(table=1, phi=0.06),
        "table2": dict(table=2, phi=0.1, shape=25.0),
        "table3": dict(table=3, phi=0.15),
        "table1-negative": dict(table=1, phi=-0.001),
        "table3-negative": dict(table=3, phi=-0.05),
    }

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @settings(max_examples=5, deadline=None)
    @given(
        cell=st.sampled_from(sorted(CELLS)),
        n_k=st.sampled_from([100, 500]).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, 2 * block_rows(n) + 1))
        ),
        seed=st.integers(0, 2**16),
    )
    @example(cell="table3", n_k=(100, block_rows(100) - 1), seed=0)
    @example(cell="table1", n_k=(100, block_rows(100)), seed=1)
    @example(cell="table3", n_k=(500, block_rows(500) + 1), seed=2)
    @example(cell="table2", n_k=(100, 2 * block_rows(100) + 1), seed=3)
    @example(cell="table1-negative", n_k=(500, block_rows(500) + 1), seed=4)
    @example(cell="table3-negative", n_k=(100, block_rows(100) - 1), seed=5)
    def test_report_is_the_reduction_of_a_longer_runs_prefix(self, workers, cell, n_k, seed):
        n, k = n_k
        settings_ = dict(self.CELLS[cell], n=n, master_seed=seed)
        with _workers(workers):
            short_rows, short_cells = _run_capturing_cells(ExperimentConfig(reps=k, **settings_))
            _, long_cells = _run_capturing_cells(ExperimentConfig(reps=2 * k, **settings_))
        assert len(short_cells) == len(long_cells) >= 1
        rows = []
        for short, long in zip(short_cells, long_cells):
            # a mean cell keeps no residual range: its rows report no plug-in
            assert (short.rhat is None) == (long.rhat is None) == (settings_["table"] != 3)
            for got, longer in zip(_statistics(short), _statistics(long)):
                if got is None:
                    continue
                assert got.shape[0] == k
                np.testing.assert_array_equal(got, longer[:k])
            head = copy.copy(long)
            head.err, head.covered_wald, head.rhat = (
                None if values is None else values[:k] for values in _statistics(long))
            rows += head.rows()
        assert rows == short_rows

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("table", [1, 2, 3])
    def test_statistics_do_not_depend_on_the_block_size(self, table, workers, monkeypatch):
        # ... nor on the worker count: every run is compared with one
        # block on one thread.  The budgets make blocks of 7, 100 and 1000 rows.
        n = 100
        config = ExperimentConfig(table=table, n=n, reps=250, master_seed=5)
        with _workers(1):
            reference_rows, reference_cells = _run_capturing_cells(config)
        runs = {}
        monkeypatch.setattr(densum.simulation, "WORKERS", workers)
        for rows in (7, 100, 1000):
            monkeypatch.setattr(densum.simulation, "BLOCK_VALUES", rows * n)
            runs[rows] = _run_capturing_cells(config)
        for report_rows, cells in runs.values():
            assert report_rows == reference_rows
            assert len(cells) == len(reference_cells) >= 1
            for got, expected in zip(cells, reference_cells):
                for values, expected_values in zip(_statistics(got), _statistics(expected)):
                    np.testing.assert_array_equal(values, expected_values)

    MEMORY_CELLS = [
        dict(table=3, n=1500, phi=0.15),
        dict(table=1, n=1500, phi=0.02),
        dict(table=1, n=1500, phi=-0.0005),
        dict(table=3, n=1500, phi=-0.05),
    ]

    @pytest.mark.parametrize("settings_", MEMORY_CELLS)
    def test_cell_memory_does_not_grow_with_reps(self, settings_, monkeypatch):
        # One worker, so the caller scores every replication and tracemalloc
        # sees it all; test_two_workers_cost_no_memory bounds the caller's
        # share of a two-worker run.
        monkeypatch.setattr(densum.simulation, "WORKERS", 1)
        peaks = {reps: _traced_peak_mb(ExperimentConfig(reps=reps, **settings_))
                 for reps in (20, 1000, 10000)}
        assert peaks[10000] <= peaks[1000] + 4.0, peaks
        assert peaks[10000] < 64.0, peaks
        assert peaks[20] < 8.0, peaks

    @pytest.mark.parametrize("settings_", MEMORY_CELLS)
    def test_two_workers_cost_no_memory(self, settings_, monkeypatch):
        # With two workers the caller scores the first range on its own two
        # block buffers and a forked worker the second on two of its own,
        # which tracemalloc here cannot see: these bounds hold the caller's
        # traced peak, and tests/test_fresh_process.py bounds the worker's
        # peak RSS.
        peaks = {}
        for workers in (1, 2):
            monkeypatch.setattr(densum.simulation, "WORKERS", workers)
            for reps in (20, 1000, 10000):
                peaks[workers, reps] = _traced_peak_mb(ExperimentConfig(reps=reps, **settings_))
        for reps in (20, 1000, 10000):
            assert peaks[2, reps] <= peaks[1, reps] + 1.0, peaks
        assert peaks[2, 10000] < 64.0, peaks
        assert peaks[2, 20] < 8.0, peaks
        # A block holds BLOCK_VALUES values whatever n is, so two block
        # buffers bound the peak at every n.
        assert max(peaks[1, 10000], peaks[2, 10000]) <= BLOCK_MEMORY_MB, peaks

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("settings_", [dict(table=2), dict(table=3, n=100, phi=0.15)])
    def test_block_memory_does_not_grow_with_n(self, settings_, workers, monkeypatch):
        # The same bound on table 2, whose four shapes share one factor and
        # copy its output into the draw, and at n = 100.
        monkeypatch.setattr(densum.simulation, "WORKERS", workers)
        peak = _traced_peak_mb(ExperimentConfig(reps=10000, **settings_))
        assert peak <= BLOCK_MEMORY_MB, peak

    @pytest.mark.parametrize("rows, n",
                             [(1, 3), (1000, 100), (350, 1500), (3, NORMAL_MAP_BLOCK + 1)])
    def test_row_chunks_cover_a_block_in_small_temporaries(self, rows, n):
        # the factor's d * z and the cell's fitted values go through these:
        # at most NORMAL_MAP_BLOCK values, but at least one row
        chunks = list(_row_chunks(rows, n))
        assert chunks[0][0].start == 0 and chunks[-1][0].stop == rows
        assert all(a.stop == b.start for (a, _), (b, _) in zip(chunks, chunks[1:]))
        for chunk, temporary in chunks:
            assert temporary.shape == (chunk.stop - chunk.start, n)
            assert temporary.size <= max(NORMAL_MAP_BLOCK, n)

    def test_only_the_last_group_may_share_its_factor(self):
        # a shared factor's extra consumers take their copies in the draw,
        # which a later group's factor would read
        identity = _copula_factor(np.zeros(3))

        def consume(start, x):
            pass

        with pytest.raises(ValueError, match="only the last group"):
            densum.simulation._score_blocks(3, 5, 0, [(identity, [consume, consume]),
                                                     (identity, [consume])])


# Two block buffers of BLOCK_VALUES float64 values, the draw and the
# factor's output, plus 5.5 MiB of the rest.
BLOCK_MEMORY_MB = 2 * 8 * BLOCK_VALUES / 2**20 + 5.5


def _traced_peak_mb(config):
    """tracemalloc's peak, in MB, over run_table(config)."""
    tracemalloc.start()
    try:
        run_table(config)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestWorkerProcesses:
    # _score_blocks splits a call's replications into WORKERS ranges: the
    # caller scores the first, a forked worker process each of the rest, and
    # the cells' statistics live in shared memory.  A worker's failure or
    # warning reaches the caller, three kinds of call fork nothing, and no
    # worker outlives the call.  The runs are at n = 100 on REPS replications,
    # one more than a block, which split into two ranges at SPLIT; what a
    # worker does is recorded in shared memory, which the caller can read.

    ROWS = block_rows(100)
    REPS = ROWS + 1
    SPLIT = REPS - REPS // 2

    @staticmethod
    def assert_no_child_is_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_workers_follow_the_cpus_this_process_may_use(self):
        if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
            assert densum.simulation.WORKERS == min(2, len(os.sched_getaffinity(0)))
        else:
            assert densum.simulation.WORKERS == 1

    def test_parts_split_the_replications_evenly(self):
        with _workers(3):
            assert [p.stop - p.start for p in _parts(1000)] == [334, 333, 333]
            assert _parts(2) == [slice(0, 1), slice(1, 2)]
        with _workers(2):
            assert _parts(7) == [slice(0, 4), slice(4, 7)]
            assert _parts(1) == [slice(0, 1)]

    def test_ranges_share_no_writes(self, monkeypatch):
        # table 2's four shapes share each block, three through a copy in the
        # draw; three processes on 7-row blocks must write exactly what one
        # worker does
        config = ExperimentConfig(table=2, n=100, reps=250, master_seed=5)
        with _workers(1):
            expected_rows, expected_cells = _run_capturing_cells(config)
        monkeypatch.setattr(densum.simulation, "WORKERS", 3)
        monkeypatch.setattr(densum.simulation, "BLOCK_VALUES", 7 * config.n)
        rows, cells = _run_capturing_cells(config)
        assert rows == expected_rows
        assert len(cells) == len(expected_cells) == 4
        for got, expected in zip(cells, expected_cells):
            for values, expected_values in zip(_statistics(got), _statistics(expected)):
                np.testing.assert_array_equal(values, expected_values)

    @pytest.mark.parametrize("failing, raised", [("worker", ROWS + 1), ("both", ROWS)],
                             ids=["worker", "caller-and-worker"])
    def test_a_failure_in_a_worker_reaches_the_caller(self, failing, raised, monkeypatch):
        # 2 ROWS + 1 replications: the caller's range holds blocks at 0 and
        # ROWS, the worker's one at ROWS + 1, which it fails on first; when
        # both fail, the caller's own failure is the one raised
        add = densum.simulation._Cell.add
        fails = {self.ROWS + 1} | ({self.ROWS} if failing == "both" else set())

        def failing_add(cell, start, eps):
            if start in fails:
                raise ArithmeticError(f"replication {start} failed")
            return add(cell, start, eps)

        monkeypatch.setattr(densum.simulation, "WORKERS", 2)
        monkeypatch.setattr(densum.simulation._Cell, "add", failing_add)
        config = ExperimentConfig(table=1, n=100, phi=0.06, reps=2 * self.ROWS + 1)
        with pytest.raises(ArithmeticError, match=rf"^replication {raised} failed$"):
            run_table1(config)
        self.assert_no_child_is_left()
        monkeypatch.setattr(densum.simulation._Cell, "add", add)
        run_table1(config)
        self.assert_no_child_is_left()

    def test_an_interrupted_caller_kills_its_worker(self, monkeypatch):
        # the worker would sleep for a minute; the caller's KeyboardInterrupt
        # kills and reaps it at once
        add = densum.simulation._Cell.add

        def interrupted_add(cell, start, eps):
            if start == self.ROWS + 1:
                time.sleep(60)
            if start == self.ROWS:
                raise KeyboardInterrupt
            return add(cell, start, eps)

        monkeypatch.setattr(densum.simulation, "WORKERS", 2)
        monkeypatch.setattr(densum.simulation._Cell, "add", interrupted_add)
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_table1(ExperimentConfig(table=1, n=100, phi=0.06, reps=2 * self.ROWS + 1))
        assert time.monotonic() - began < 30.0
        self.assert_no_child_is_left()

    def test_a_worker_that_dies_is_reported(self, monkeypatch):
        add = densum.simulation._Cell.add

        def dying_add(cell, start, eps):
            if start == self.SPLIT:
                os._exit(3)
            return add(cell, start, eps)

        monkeypatch.setattr(densum.simulation, "WORKERS", 2)
        monkeypatch.setattr(densum.simulation._Cell, "add", dying_add)
        with pytest.raises(ChildProcessError, match=rf"replications {self.SPLIT} to "
                                                    rf"{self.REPS - 1} exited with status 3"):
            run_table1(ExperimentConfig(table=1, n=100, phi=0.06, reps=self.REPS))
        self.assert_no_child_is_left()

    def test_a_warning_in_a_worker_reaches_the_caller(self, monkeypatch):
        add = densum.simulation._Cell.add
        pids = densum.simulation._shared(self.REPS, np.int64)

        def warning_add(cell, start, eps):
            pids[start] = os.getpid()
            warnings.warn(f"replication {start} warned", RuntimeWarning)
            return add(cell, start, eps)

        monkeypatch.setattr(densum.simulation, "WORKERS", 2)
        monkeypatch.setattr(densum.simulation._Cell, "add", warning_add)
        with pytest.warns(RuntimeWarning, match=r"^replication \d+ warned$") as record:
            run_table1(ExperimentConfig(table=1, n=100, phi=0.06, reps=self.REPS))
        assert {str(w.message) for w in record} == {"replication 0 warned",
                                                    f"replication {self.SPLIT} warned"}
        # the caller scores the first range, a worker process the second
        assert pids[0] == os.getpid()
        assert pids[self.SPLIT] not in (0, os.getpid())

    @pytest.mark.skipif(np.__version__.startswith("1."),
                        reason="numpy 1.x keeps the error state per thread, not per context")
    def test_the_callers_numpy_error_state_reaches_the_workers(self, monkeypatch):
        add = densum.simulation._Cell.add

        def dividing_add(cell, start, eps):
            if start == self.SPLIT:  # the worker's range
                np.divide(eps[:, :1], 0.0)
            return add(cell, start, eps)

        monkeypatch.setattr(densum.simulation, "WORKERS", 2)
        monkeypatch.setattr(densum.simulation._Cell, "add", dividing_add)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            run_table1(ExperimentConfig(table=1, n=100, phi=0.06, reps=self.REPS))
        self.assert_no_child_is_left()

    @pytest.mark.parametrize(
        "workers, config, count",
        [
            (1, ExperimentConfig(table=1, n=100, reps=REPS), 8),  # 4 cells x 2 blocks
            # phi* = 3.1 clips the seed-0 n = 100 mosaic: a dense factor, whole blocks
            (2, ExperimentConfig(table=3, n=100, phi=3.1, reps=REPS), 2),
            # the draw fits in one block: reps * n <= BLOCK_VALUES
            (2, ExperimentConfig(table=1, n=100, reps=ROWS), 4),
        ],
        ids=["one-worker", "dense", "one-block"],
    )
    def test_calls_that_fork_nothing(self, workers, config, count, monkeypatch):
        add, fork = densum.simulation._Cell.add, os.fork
        calls, forks = [], []

        def recording_add(cell, start, eps):
            calls.append(os.getpid())
            return add(cell, start, eps)

        def spy_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(densum.simulation, "WORKERS", workers)
        monkeypatch.setattr(densum.simulation._Cell, "add", recording_add)
        monkeypatch.setattr(os, "fork", spy_fork)
        run_table(config)
        assert forks == []
        assert calls == [os.getpid()] * count

    def test_a_one_worker_run_is_seen_by_cprofile(self, monkeypatch):
        monkeypatch.setattr(densum.simulation, "WORKERS", 1)
        profile = cProfile.Profile()
        profile.runcall(run_table1, ExperimentConfig(table=1, n=100, reps=self.REPS))
        code = densum.simulation._Cell.add.__code__
        calls = pstats.Stats(profile).stats[code.co_filename, code.co_firstlineno, code.co_name][1]
        assert calls == 8  # 4 cells x 2 blocks

    @pytest.mark.parametrize(
        "corr, split",
        [
            # a dense factor's bits fix its rows' positions: whole blocks, in the caller
            (exchangeable_corr(50, 0.1), False),
            # a loading vector's replications split into two ranges
            (np.full(50, math.sqrt(0.1)), True),
        ],
        ids=["dense", "loading-vector"],
    )
    def test_dense_blocks_are_scored_whole(self, corr, split, monkeypatch):
        # two full blocks and a half one; split, the second range starts
        # halfway through them, the longer range first, and each range's
        # blocks start at its own start
        rows = block_rows(50)
        reps = 2 * rows + rows // 2
        half = reps - reps // 2
        ranges = [(0, half), (half, reps)] if split else [(0, reps)]
        starts = {start for a, b in ranges for start in range(a, b, rows)}
        seen = densum.simulation._shared(reps, bool)
        score_blocks = densum.simulation._score_blocks

        def recording(consume):
            def record(start, x):
                seen[start] = True
                return consume(start, x)
            return record

        def recording_score_blocks(n, reps, seed, groups):
            groups = [(factor, [recording(c) for c in consumers]) for factor, consumers in groups]
            return score_blocks(n, reps, seed, groups)

        monkeypatch.setattr(densum.simulation, "WORKERS", 2)
        monkeypatch.setattr(densum.simulation, "_score_blocks", recording_score_blocks)
        copula_sample(corr, MarginalSpec.uniform(0, 1), reps, seed=0)
        assert set(np.flatnonzero(seen).tolist()) == starts


class TestVectorizedSandwich:
    # the experiment drivers call the batched sandwich; each replication must
    # equal the one-fit-at-a-time estimator and make the same cover/miss call

    @staticmethod
    def assert_batch_equals_single_fits(X, ys, beta, partition):
        z = wald_z(0.05)
        fits = [ols_fit(X, y) for y in ys]
        B = np.array([fit.coefficients for fit in fits])
        vcov, rho = _ExchangeableSandwich(X, partition)(np.array([fit.residuals for fit in fits]))
        covered = np.abs(B - beta) <= z * np.sqrt(np.diagonal(vcov, axis1=1, axis2=2))
        for r, fit in enumerate(fits):
            vcov_r, rho_r = gee_exchangeable_vcov(fit, partition)
            np.testing.assert_array_equal(vcov[r], vcov_r)
            assert rho[r] == rho_r
            np.testing.assert_array_equal(
                covered[r], np.abs(fit.coefficients - beta) <= z * np.sqrt(np.diag(vcov_r))
            )

    def test_agrees_with_the_reference_route_per_replication(self, rng):
        n, reps = 40, 25
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        beta = np.array([1.0, -2.0])
        ys = X @ beta + rng.standard_normal((reps, n))
        # sizes 5 and 6: uneven on purpose
        self.assert_batch_equals_single_fits(X, ys, beta, sequential_partition(n, 7))

    def test_intercept_only_agreement(self, rng):
        n, reps = 30, 15
        ys = 0.3 + rng.standard_normal((reps, n))
        self.assert_batch_equals_single_fits(
            np.ones((n, 1)), ys, np.array([0.3]), sequential_partition(n, 3)
        )


class TestConfigAndReport:
    @pytest.mark.parametrize(
        "kwargs",
        [{"table": 4}, {"table": 1, "reps": 0}],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"table": 3, "n": 100.5, "phi": 0.05, "reps": 20}, "n"),
            ({"table": 2, "n": 100.5, "reps": 20}, "n"),
            ({"table": 1, "n": 100.0}, "n"),
            ({"table": 1, "n": 100, "reps": 2.5}, "reps"),
            ({"table": 1, "reps": 20.0}, "reps"),
            ({"table": 1, "reps": None}, "reps"),
        ],
    )
    def test_non_integral_sizes_name_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"table": 3, "phi": math.inf}, "phi"),
            ({"table": 1, "phi": math.nan}, "phi"),
            ({"table": 2, "shape": -math.inf}, "shape"),
        ],
    )
    def test_non_finite_or_non_positive_settings_name_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, n",
        [
            ({"table": 1, "phi": -0.005}, 500),  # n = 100 admits it, n = 500 does not
            ({"table": 1, "phi": -0.001}, 1500),
            ({"table": 1, "n": 100, "phi": 1.0}, 100),
            ({"table": 2, "phi": -0.0021}, 500),
            ({"table": 2, "n": 100, "phi": -0.0102}, 100),
        ],
    )
    def test_an_exchangeable_phi_is_checked_at_every_n_the_table_runs(self, kwargs, n):
        with pytest.raises(ValueError, match=rf"^phi = {kwargs['phi']} needs -1/\(n-1\) = .* "
                                             rf"at n = {n}$"):
            ExperimentConfig(**kwargs)
        ExperimentConfig(**{**kwargs, "table": 3})  # a mosaic's phi* is repaired, not refused

    @pytest.mark.parametrize("seed", [-1, 1.5, "0"])
    def test_master_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="^master_seed must be a nonnegative integer"):
            ExperimentConfig(table=1, master_seed=seed)

    def test_report_rate_validation(self):
        with pytest.raises(ValueError, match="coverage rates"):
            CoverageReport(
                table=1, n=10, phi=0.0, mean_lower=0.0, mean_upper=1.0,
                ci_wald=1.2, ci_u=0.5, ci_r=None,
                a_hat=1.0, av_star=1.0, verdict="holds",
            )

    def test_report_endpoint_ordering(self):
        with pytest.raises(ValueError, match="mean_lower"):
            CoverageReport(
                table=1, n=10, phi=0.0, mean_lower=1.0, mean_upper=0.0,
                ci_wald=0.5, ci_u=0.5, ci_r=None,
                a_hat=1.0, av_star=1.0, verdict="holds",
            )


class TestTable1:
    def test_single_cell_shape(self):
        config = ExperimentConfig(table=1, n=100, phi=0.1, reps=40)
        rows = run_table1(config)
        assert len(rows) == 1
        row = rows[0]
        assert (row.table, row.n, row.phi) == (1, 100, 0.1)
        assert 0.0 <= row.ci_u <= 1.0 and 0.0 <= row.ci_wald <= 1.0
        assert row.ci_r is None and row.coefficient is None and row.alpha_shape is None
        assert row.verdict in ("holds", "boundary", "violated")
        # Beta(10,10): R^2/(12 sigma^2) - 1 = 6, spread over the n-1 neighbours
        assert row.threshold == pytest.approx(6.0 / 99.0, rel=1e-12)

    def test_full_grid_without_restrictions(self):
        rows = run_table1(ExperimentConfig(table=1, reps=2))
        assert len(rows) == sum(len(v) for v in TABLE1_GRID.values())
        assert [(r.n, r.phi) for r in rows] == [
            (n, phi) for n in sorted(TABLE1_GRID) for phi in TABLE1_GRID[n]
        ]

    def test_unsupported_n_rejected(self):
        with pytest.raises(ValueError, match="table 1 is defined"):
            run_table1(ExperimentConfig(table=1, n=200, reps=2))

    def test_phi_override_runs_off_grid(self):
        rows = run_table1(ExperimentConfig(table=1, n=100, phi=0.3, reps=5))
        assert rows[0].phi == 0.3

    def test_infeasible_phi_override_rejected(self):
        with pytest.raises(ValueError, match="-1/"):
            run_table1(ExperimentConfig(table=1, n=100, phi=-0.9, reps=2))

    def test_deterministic_rows(self):
        config = ExperimentConfig(table=1, n=100, phi=0.06, reps=25, master_seed=4)
        assert run_table1(config) == run_table1(config)


class TestTable2:
    def test_thresholds_follow_the_feasibility_formula(self):
        rows = run_table2(ExperimentConfig(table=2, reps=3))
        assert [r.alpha_shape for r in rows] == list(TABLE2_SHAPES)
        for row, shape in zip(rows, TABLE2_SHAPES):
            assert row.threshold == pytest.approx((2 * shape - 2) / (3 * 499), rel=1e-12)
            assert row.n == 500 and row.phi == 0.1

    def test_shape_restriction(self):
        rows = run_table2(ExperimentConfig(table=2, shape=25.0, reps=3))
        assert len(rows) == 1 and rows[0].alpha_shape == 25.0

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="shape must be positive"):
            run_table2(ExperimentConfig(table=2, shape=-1.0, reps=2))


def _mean_cell_oracle(n, phi, marginal, reps, seed, alpha=0.05, c_star=10.0):
    """A table 1-2 cell by direct mean arithmetic: the oracle for the coverage
    engine's intercept-only case."""
    Y = copula_sample(exchangeable_corr(n, phi), marginal, reps, seed)
    mu, R = marginal.mean, marginal.support.range
    M = marginal.support.length / 2.0
    ybar = np.mean(Y, axis=1)
    half_u = R * math.sqrt(math.log(2.0 / alpha) / (6.0 * n))
    partition = sequential_partition(n, n // 10)
    vcov, _ = _ExchangeableSandwich(np.ones((n, 1)), partition)(Y - ybar[:, None])
    half_wald = wald_z(alpha) * np.sqrt(vcov[:, 0, 0])
    s = diagnostic_s(M, c_star, 1.0 / n, alpha)
    w = np.full(n, 1.0 / n)
    report = a5_from_sums((Y - mu) @ w, w, s, M)
    return {
        "mean_lower": float(np.mean(ybar) - half_u),
        "mean_upper": float(np.mean(ybar) + half_u),
        "ci_wald": float(np.mean(np.abs(ybar - mu) <= half_wald)),
        "ci_u": float(np.mean(np.abs(ybar - mu) <= half_u)),
        "a_hat": report.a_hat,
        "av_star": report.av_star,
        "verdict": report.verdict,
    }


@pytest.mark.parametrize(
    "table, n, phi, shape, reps, seed",
    [
        (1, 100, 0.06, 10.0, 300, 0),
        (1, 100, 0.2, 10.0, 200, 7),
        (1, 500, 0.01, 10.0, 120, 3),
        (2, 100, 0.1, 25.0, 200, 1),
        (2, 500, 0.1, 100.0, 100, 2),
    ],
)
def test_mean_rows_match_the_direct_mean_oracle(table, n, phi, shape, reps, seed):
    config = ExperimentConfig(table=table, n=n, phi=phi, shape=shape if table == 2 else None,
                              reps=reps, master_seed=seed)  # table 1's Beta(10, 10) has no shape
    (row,) = run_table1(config) if table == 1 else run_table2(config)
    expected = _mean_cell_oracle(n, phi, MarginalSpec.beta(shape, shape), reps, seed)
    for key in ("ci_wald", "ci_u", "verdict"):
        assert getattr(row, key) == expected[key], key
    for key in ("mean_lower", "mean_upper", "a_hat", "av_star"):
        assert getattr(row, key) == pytest.approx(expected[key], rel=1e-12, abs=0), key
    assert row.ci_r is None and row.coefficient is None


def _regression_cell_oracle(n, phi_star, reps, seed, alpha=0.05, c_star=5.0):
    """A table-3 cell by direct regression arithmetic: errors drawn by
    ``copula_sample`` through table3_corr's dense matrix, one
    ``np.linalg.lstsq`` per replication, the exchangeable sandwich over
    n // 10 sequential clusters, the pooled residual range (max - min of a
    replication's residuals) and ``a5_from_sums``.  The oracle for the
    coverage engine's regression cells; returns (rows, repair lambda)."""
    X = table3_design(n, seed)
    W = np.linalg.pinv(X)
    marginal = MarginalSpec.truncnormal(0.0, TABLE3_SIGMA, -20.0, 20.0)
    R, M = marginal.support.range, marginal.support.length / 2.0
    corr, repair = table3_corr(phi_star, W[0])
    eps = copula_sample(corr, marginal, reps, seed)
    Y = X @ TABLE3_BETA + eps
    B = np.array([np.linalg.lstsq(X, y, rcond=None)[0] for y in Y])
    resid = Y - B @ X.T
    vcov, _ = _ExchangeableSandwich(X, sequential_partition(n, n // 10))(resid)
    z = wald_z(alpha)
    rhat = np.max(resid, axis=1) - np.min(resid, axis=1)
    root_log = math.sqrt(math.log(2.0 / alpha) / 6.0)
    rows = []
    for s in range(2):
        err = B[:, s] - TABLE3_BETA[s]
        sum_w2 = float(W[s] @ W[s])
        half_u = R * math.sqrt(sum_w2) * root_log
        s_diag = diagnostic_s(M, c_star, sum_w2, alpha)
        report = a5_from_sums(eps @ W[s], W[s], s_diag, M)
        rows.append({
            "mean_lower": float(np.mean(B[:, s]) - half_u),
            "mean_upper": float(np.mean(B[:, s]) + half_u),
            "ci_wald": float(np.mean(np.abs(err) <= z * np.sqrt(vcov[:, s, s]))),
            "ci_u": float(np.mean(np.abs(err) <= half_u)),
            "ci_r": float(np.mean(np.abs(err) <= rhat * math.sqrt(sum_w2) * root_log)),
            "a_hat": report.a_hat,
            "av_star": report.av_star,
            "verdict": report.verdict,
        })
    return rows, repair.lam


@pytest.mark.parametrize(
    "phi_star, reps, seed",
    # 3.1: a clipped mosaic, repaired to lam = 0.1 and run on the dense factor
    [(0.0, 200, 0), (0.1, 200, 3), (-0.05, 150, 1), (3.1, 200, 0)],
)
def test_regression_rows_match_the_direct_regression_oracle(phi_star, reps, seed):
    config = ExperimentConfig(table=3, n=100, phi=phi_star, reps=reps, master_seed=seed)
    rows = run_table3(config)
    expected, lam = _regression_cell_oracle(100, phi_star, reps, seed)
    assert [row.coefficient for row in rows] == ["beta0", "beta1"]
    for row, want in zip(rows, expected):
        assert row.repair_lambda == lam
        for key in ("ci_wald", "ci_u", "ci_r", "verdict"):
            assert getattr(row, key) == want[key], (row.coefficient, key)
        for key in ("mean_lower", "mean_upper", "a_hat", "av_star"):
            assert getattr(row, key) == pytest.approx(want[key], rel=1e-12, abs=0), (
                row.coefficient, key)


class TestTable3:
    def test_design_is_fixed_and_bounded(self):
        X = table3_design(100, master_seed=0)
        np.testing.assert_array_equal(X, table3_design(100, master_seed=0))
        assert X.shape == (100, 2)
        np.testing.assert_array_equal(X[:, 0], 1.0)
        assert X[:, 1].min() >= -5.0 and X[:, 1].max() <= 5.0
        assert not np.array_equal(X, table3_design(100, master_seed=1))

    def test_single_cell_rows(self):
        rows = run_table3(ExperimentConfig(table=3, n=100, phi=0.1, reps=30))
        assert [r.coefficient for r in rows] == ["beta0", "beta1"]
        for row in rows:
            assert row.table == 3 and row.n == 100 and row.phi == 0.1
            assert row.ci_r is not None and 0.0 <= row.ci_r <= 1.0
            assert row.threshold is None and row.alpha_shape is None
            assert row.repair_lambda >= 0.0

    def test_zero_mosaic_reports_no_repair(self):
        rows = run_table3(ExperimentConfig(table=3, n=100, phi=0.0, reps=10))
        assert all(r.repair_lambda == 0.0 for r in rows)

    def test_intercept_interval_brackets_the_truth_at_independence(self):
        rows = run_table3(ExperimentConfig(table=3, n=100, phi=0.0, reps=40))
        beta0 = rows[0]
        assert beta0.mean_lower < 20.0 < beta0.mean_upper


def test_run_table_dispatch():
    assert run_table(ExperimentConfig(table=1, n=100, phi=0.0, reps=2))[0].table == 1
    assert run_table(ExperimentConfig(table=2, shape=10.0, reps=2))[0].table == 2
    assert run_table(ExperimentConfig(table=3, n=100, phi=0.0, reps=2))[0].table == 3
