import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from conftest import random_psd
from densum import kernels
from densum.kernels import (
    SHRINKAGE_GRID,
    NotPositiveDefiniteError,
    beta_normal_map,
    beta_quantile,
    cholesky,
    ensure_pd,
    seeded_normals,
    seeded_stream,
    std_normal_quantile,
    truncnorm_normal_map,
    truncnorm_quantile,
    validate_correlation,
)


def bisect_inverse(cdf, p, lo, hi, iters=80):
    """Invert a monotone CDF by plain interval bisection (vectorized)."""
    p = np.asarray(p, dtype=float)
    lo = np.full_like(p, lo, dtype=float)
    hi = np.full_like(p, hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_normal_cdf_quantile_roundtrip():
    p = np.linspace(0.001, 0.999, 97)
    np.testing.assert_allclose(special.ndtr(std_normal_quantile(p)), p, atol=1e-12)


def test_normal_quantile_against_bisection(rng):
    p = rng.uniform(0.01, 0.99, size=200)
    oracle = bisect_inverse(special.ndtr, p, -10.0, 10.0)
    np.testing.assert_allclose(std_normal_quantile(p), oracle, atol=1e-10)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
def test_normal_quantile_domain(p):
    with pytest.raises(ValueError, match="strictly inside"):
        std_normal_quantile(p)


class TestBetaQuantile:
    def test_symmetric_median(self):
        # Beta(a, a) is symmetric about 1/2.
        assert beta_quantile(7.0, 7.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_against_bisection(self, rng):
        a = rng.uniform(0.5, 20.0, size=50)
        b = rng.uniform(0.5, 20.0, size=50)
        p = rng.uniform(0.01, 0.99, size=50)
        oracle = np.array(
            [bisect_inverse(lambda x: special.betainc(ai, bi, x), pi, 0.0, 1.0)
             for ai, bi, pi in zip(a, b, p)]
        )
        np.testing.assert_allclose(beta_quantile(a, b, p), oracle, atol=1e-10)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="positive"):
            beta_quantile(0.0, 1.0, 0.5)

    @given(
        a=st.floats(0.2, 50.0),
        b=st.floats(0.2, 50.0),
        p=st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_output_in_unit_interval_and_monotone(self, a, b, p):
        x = float(beta_quantile(a, b, p))
        assert 0.0 <= x <= 1.0
        if p < 0.5:
            assert x <= float(beta_quantile(a, b, min(1 - 1e-7, p + 0.4)))


def exact_beta_map(a, b, x):
    """F^{-1}(Phi(x)) for Beta(a, b) by betaincinv; the upper half mirrored,
    since Phi(x) rounds to 1 for x >= 8.3."""
    x = np.asarray(x, dtype=float)
    return np.where(
        x <= 0.0,
        special.betaincinv(a, b, special.ndtr(x)),
        1.0 - special.betaincinv(b, a, special.ndtr(-x)),
    )


class TestBetaFromNormal:
    # Dense enough to land inside every knot interval, and past the knots'
    # edge at |x| = 8 into the tails that take the exact map.
    GRID = np.linspace(-8.5, 8.5, 100_003)

    @pytest.mark.parametrize("shape", [10.0, 25.0, 50.0, 100.0])
    def test_matches_the_exact_map(self, shape, monkeypatch):
        exact_values = []

        def counting_quantile(a, b, p):
            exact_values.append(np.size(p))
            return beta_quantile(a, b, p)

        monkeypatch.setattr(kernels, "beta_quantile", counting_quantile)
        got = beta_normal_map(shape, shape)(self.GRID.copy())
        err = np.abs(got - exact_beta_map(shape, shape, self.GRID))
        assert err.max() <= 1e-11
        # the table serves every value inside the knots: the exact map only
        # builds and checks it (knots plus midpoints) and covers the tails
        tails = np.count_nonzero(np.abs(self.GRID) > kernels.NORMAL_MAP_EDGE)
        assert sum(exact_values) == 2 * kernels.NORMAL_MAP_KNOTS - 1 + tails

    def test_small_shapes_take_the_exact_map(self):
        got = beta_normal_map(0.3, 0.3)(self.GRID.copy())
        np.testing.assert_array_equal(got, exact_beta_map(0.3, 0.3, self.GRID))

    def test_overwrites_its_argument(self):
        x = np.array([[-1.0, 0.0], [0.5, 9.0]])
        assert beta_normal_map(10.0, 10.0)(x) is x
        np.testing.assert_allclose(x, exact_beta_map(10.0, 10.0, [[-1.0, 0.0], [0.5, 9.0]]),
                                   atol=1e-11)

    def test_rejects_arrays_it_cannot_overwrite(self):
        with pytest.raises(ValueError, match="float64"):
            beta_normal_map(10.0, 10.0)(np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            beta_normal_map(10.0, 10.0)(np.zeros((3, 3))[:, 0])
        with pytest.raises(ValueError, match="positive"):
            beta_normal_map(0.0, 1.0)(np.zeros(3))


class TestTruncnormFromNormal:
    # Table 3's error marginal, truncated at four sigma either side.
    PARAMS = (0.0, 5.0, -20.0, 20.0)
    GRID = TestBetaFromNormal.GRID
    # A table on the outcome scale carries an absolute error that grows with
    # sigma: about 1.4e-9 for this one, which fails the midpoint check.
    WIDE = (0.0, 1000.0, -4000.0, 4000.0)

    def oracle(self, x):
        a, b = special.ndtr(-4.0), special.ndtr(4.0)
        return np.clip(5.0 * special.ndtri(a + special.ndtr(x) * (b - a)), -20.0, 20.0)

    def test_matches_the_independent_oracle(self, monkeypatch):
        exact_values = []

        def counting_quantile(mu, sigma, lo, hi, p, out=None):
            exact_values.append(np.size(p))
            return truncnorm_quantile(mu, sigma, lo, hi, p, out=out)

        monkeypatch.setattr(kernels, "truncnorm_quantile", counting_quantile)
        got = truncnorm_normal_map(*self.PARAMS)(self.GRID.copy())
        assert np.abs(got - self.oracle(self.GRID)).max() <= 1e-11
        # the exact map sees the knots, the midpoints and the tails only
        tails = np.count_nonzero(np.abs(self.GRID) > kernels.NORMAL_MAP_EDGE)
        assert sum(exact_values) == 2 * kernels.TRUNCNORM_MAP_KNOTS - 1 + tails

    def test_table_is_built_for_the_regression_marginal(self):
        # on every supported numpy and scipy, so the fast path cannot be lost
        _, table = truncnorm_normal_map(*self.PARAMS).args
        assert table is not None

    def test_failed_table_takes_the_exact_map(self):
        to_outcome = truncnorm_normal_map(*self.WIDE)
        _, table = to_outcome.args
        assert table is None
        got = to_outcome(self.GRID.copy())
        expected = kernels._truncnorm_from_normal_exact(*self.WIDE, self.GRID.copy())
        np.testing.assert_array_equal(got, expected)

    def test_rejects_arrays_it_cannot_overwrite(self):
        to_outcome = truncnorm_normal_map(*self.PARAMS)
        read_only = np.zeros(3)
        read_only.flags.writeable = False
        for bad in (np.zeros(3, dtype=np.float32), np.zeros((3, 3))[:, 0], read_only, [0.0]):
            with pytest.raises(ValueError, match="writable C-contiguous float64"):
                to_outcome(bad)


class TestNormalMapEvaluation:
    # Beta and truncated normal, each with its table and without one.
    MAPS = {
        "beta": (beta_normal_map, (10.0, 10.0), True),
        "beta-exact": (beta_normal_map, (0.3, 0.3), False),
        "truncnormal": (truncnorm_normal_map, TestTruncnormFromNormal.PARAMS, True),
        "truncnormal-exact": (truncnorm_normal_map, TestTruncnormFromNormal.WIDE, False),
    }

    @pytest.mark.parametrize("name, quantile", [
        ("beta", "beta_quantile"), ("truncnormal", "truncnorm_quantile"),
    ])
    def test_values_inside_the_knots_never_reach_the_exact_map(self, name, quantile,
                                                               monkeypatch):
        family, params, _ = self.MAPS[name]
        to_outcome = family(*params)
        calls = []
        monkeypatch.setattr(kernels, quantile, lambda *args, **kw: calls.append(args))
        # several evaluation blocks, every value inside the knots
        to_outcome(np.linspace(-8.0, 8.0, 3 * kernels.NORMAL_MAP_BLOCK + 5))
        assert calls == []

    @pytest.mark.parametrize("name", MAPS)
    def test_nan_maps_to_nan_without_a_warning(self, name):
        family, params, tabled = self.MAPS[name]
        to_outcome = family(*params)
        assert (to_outcome.args[1] is not None) == tabled
        x = np.array([0.0, np.nan, 1.0, np.inf, -np.inf, -9.0, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = to_outcome(x.copy())
        finite = ~np.isnan(x)
        assert np.isnan(got[~finite]).all()
        np.testing.assert_array_equal(got[finite], to_outcome(x[finite]))


    @pytest.mark.parametrize("name", ["beta", "truncnormal"])
    def test_the_knots_edges_map_within_tolerance(self, name):
        # x = +EDGE lands on index knots - 1, one past the last interval: the
        # index clip moves it to the last interval with t = 1
        family, params, _ = self.MAPS[name]
        to_outcome = family(*params)
        edge = kernels.NORMAL_MAP_EDGE
        x = np.array([-edge, np.nextafter(-edge, 0.0), np.nextafter(edge, 0.0), edge])
        exact = to_outcome.args[0]
        err = np.abs(to_outcome(x.copy()) - exact(x.copy()))
        assert err.max() <= kernels.NORMAL_MAP_TOL


def _reference_normal_map(exact, table, x):
    """The table evaluation with an int-cast index clipped to the table and
    a selection of the far values in every chunk: the oracle for
    ``_apply_normal_map``'s range check and floor index."""
    x0, h, (c0, c1, c2, c3) = table
    flat = x.reshape(-1)
    for start in range(0, flat.size, kernels.NORMAL_MAP_BLOCK):
        block = flat[start:start + kernels.NORMAL_MAP_BLOCK]
        far = np.flatnonzero(~(np.abs(block) <= kernels.NORMAL_MAP_EDGE))
        tails = exact(block[far]) if far.size else None
        block[far] = 0.0
        t = (block - x0) / h
        i = np.clip(t.astype(np.intp), 0, c0.size - 1)
        t -= i
        y = np.take(c3, i)
        for coef in (c2, c1, c0):
            y *= t
            y += np.take(coef, i)
        block[...] = y
        if far.size:
            block[far] = tails
    return x


class TestNormalMapIndex:
    # Chunks of NORMAL_MAP_BLOCK values: one with every edge case, one with
    # no far value, and one each whose only far value lies just below or
    # just above the knots (so neither side of the range check can be lost).
    EDGE = kernels.NORMAL_MAP_EDGE
    SPECIAL = [-EDGE, EDGE, np.nextafter(-EDGE, -np.inf), np.nextafter(EDGE, np.inf),
               np.nextafter(-EDGE, 0.0), np.nextafter(EDGE, 0.0), -np.inf, np.inf, np.nan,
               -0.0, 0.0, -9.0, 40.0]

    def grid(self):
        inside = np.random.default_rng(20).uniform(-self.EDGE, self.EDGE,
                                                   4 * kernels.NORMAL_MAP_BLOCK)
        chunks = inside.reshape(4, -1)
        chunks[0, :len(self.SPECIAL)] = self.SPECIAL
        chunks[2, 7] = np.nextafter(-self.EDGE, -np.inf)
        chunks[3, 11] = np.nextafter(self.EDGE, np.inf)
        chunks[1, 5] = self.EDGE
        return inside

    @pytest.mark.parametrize("family, params", [
        (beta_normal_map, (10.0, 10.0)), (truncnorm_normal_map, TestTruncnormFromNormal.PARAMS),
    ])
    def test_matches_the_clipped_cast_bit_for_bit(self, family, params):
        to_outcome = family(*params)
        exact, table = to_outcome.args
        assert table is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = to_outcome(self.grid())
        expected = _reference_normal_map(exact, table, self.grid())
        assert np.isnan(got).sum() == 1
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestTruncnormQuantile:
    def test_symmetric_median_is_mu(self):
        assert truncnorm_quantile(1.0, 2.0, -3.0, 5.0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_output_clipped_to_interval(self, rng):
        p = rng.uniform(1e-9, 1 - 1e-9, size=500)
        x = truncnorm_quantile(0.0, 5.0, -1.0, 1.0, p)
        assert np.all(x >= -1.0) and np.all(x <= 1.0)

    def test_against_bisection(self, rng):
        mu, sigma, lo, hi = 1.0, 1.0, -5.0, 5.0
        a, b = special.ndtr((lo - mu) / sigma), special.ndtr((hi - mu) / sigma)

        def cdf(x):
            return (special.ndtr((x - mu) / sigma) - a) / (b - a)

        p = rng.uniform(0.001, 0.999, size=300)
        oracle = bisect_inverse(cdf, p, lo, hi)
        np.testing.assert_allclose(truncnorm_quantile(mu, sigma, lo, hi, p), oracle, atol=1e-9)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="lo < hi"):
            truncnorm_quantile(0.0, 1.0, 2.0, 2.0, 0.5)

    def test_rejects_massless_interval(self):
        # Fifty sigma out in the tail there is no representable mass left.
        with pytest.raises(ValueError, match="no probability mass"):
            truncnorm_quantile(0.0, 1.0, 50.0, 51.0, 0.5)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            truncnorm_quantile(0.0, 0.0, -1.0, 1.0, 0.5)


class TestCorrelationValidation:
    def test_accepts_valid(self):
        A = np.array([[1.0, 0.3], [0.3, 1.0]])
        np.testing.assert_array_equal(validate_correlation(A), A)

    def test_rejects_nonunit_diagonal(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            validate_correlation(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            validate_correlation(np.array([[1.0, 0.5], [0.1, 1.0]]))


class TestCholeskyAndRepair:
    def test_factor_reconstructs(self, rng):
        A = random_psd(rng, 12)
        L = cholesky(A)
        np.testing.assert_allclose(L @ L.T, A, atol=1e-12)

    def test_failure_points_at_repair(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefiniteError, match="ensure_pd"):
            cholesky(A)

    def test_repair_leaves_pd_input_alone(self, rng):
        A = random_psd(rng, 8)
        fixed, report = ensure_pd(A)
        assert report.lam == 0.0
        assert not report.changed
        np.testing.assert_array_equal(fixed, 0.5 * (A + A.T))

    def test_repair_fixes_indefinite_matrix(self):
        A = np.array([[1.0, 0.999, 0.999], [0.999, 1.0, -0.999], [0.999, -0.999, 1.0]])
        fixed, report = ensure_pd(A)
        assert report.changed
        assert report.lam > 0.0
        cholesky(fixed)  # must not raise
        # unit diagonal preserved by the shrink toward the identity
        np.testing.assert_allclose(np.diagonal(fixed), 1.0, atol=1e-15)

    def test_repair_uses_smallest_workable_lambda(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD but singular
        fixed, report = ensure_pd(A)
        assert 0.0 < report.lam <= 1e-5
        cholesky(fixed)

    def test_shrinkage_grid_is_the_float_product_grid(self):
        # The weights are 1e-6 times powers of ten as the float products
        # give them, not the decimal literals: 1e-5 is 9.999999999999999e-06.
        # A repaired lam lands in result rows, so each value is pinned.
        products, lam = [0.0], 1e-6
        while lam < 1.0:
            products.append(lam)
            lam *= 10.0
        products.append(1.0)
        expected = [0.0, 1e-06, 9.999999999999999e-06, 9.999999999999999e-05,
                    0.001, 0.01, 0.1, 1.0]
        assert list(SHRINKAGE_GRID) == products == expected


class TestSeededStreams:
    def test_same_key_reproduces(self):
        a = seeded_stream(7, 3).standard_normal(16)
        b = seeded_stream(7, 3).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = seeded_stream(7, 3).standard_normal(16)
        b = seeded_stream(7, 4).standard_normal(16)
        assert np.any(a != b)

    def test_streams_do_not_depend_on_consumption_order(self):
        first = seeded_stream(11, 0).standard_normal(4)
        _ = seeded_stream(11, 1).standard_normal(1000)
        again = seeded_stream(11, 0).standard_normal(4)
        np.testing.assert_array_equal(first, again)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            seeded_stream(-1, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            seeded_stream(0, -1)
        with pytest.raises(ValueError, match="integers, got 1.5"):
            seeded_stream(1.5, 0)  # refused, not truncated to seed 1


class TestSeededNormals:
    # 2**130 + 1 has five 32-bit words, one more than SeedSequence's pool
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 1]
    INDICES = [0, 1, 999, 1000, 2**32 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_are_the_seed_sequence_keys(self, seed):
        got = kernels._philox_keys(seed, np.array(self.INDICES, dtype=np.uint32))
        expected = [
            np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(2, np.uint64)
            for r in self.INDICES
        ]
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1500])
    @pytest.mark.parametrize("seed, start", [(0, 0), (2**64 + 3, 998), (5, 2**32 - 4)])
    def test_rows_are_the_seeded_streams_bit_for_bit(self, seed, start, n):
        out = np.empty((4, n))
        assert seeded_normals(seed, start, out) is out
        expected = [seeded_stream(seed, start + i).standard_normal(n) for i in range(4)]
        np.testing.assert_array_equal(out, expected)

    def test_rows_of_a_block_buffer(self):
        z = np.zeros((5, 6))
        seeded_normals(3, 10, z[:2])
        np.testing.assert_array_equal(z[:2], [seeded_stream(3, 10 + i).standard_normal(6)
                                              for i in range(2)])
        assert not z[2:].any()

    @pytest.mark.parametrize("seed, start, rows, message", [
        (-1, 0, 1, "nonnegative"),
        (0, -1, 1, "nonnegative"),
        (1.5, 0, 1, "nonnegative integers, got 1.5"),
        (0, 2**32, 1, "below 2\\*\\*32"),
        (0, 2**32 - 1, 2, "below 2\\*\\*32"),
    ])
    def test_bad_seeds_and_starts_are_rejected(self, seed, start, rows, message):
        with pytest.raises(ValueError, match=message):
            seeded_normals(seed, start, np.empty((rows, 3)))
