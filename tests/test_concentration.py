import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densum.cli import build_parser, cmd_ci
from densum.concentration import (
    a5_from_sums,
    bernstein_tail,
    ci_linear,
    ci_mean,
    diagnostic_s,
    half_width,
    hoeffding_tail,
    optimal_s,
    rule_of_thumb,
    u_tail,
)
from densum.core import SampleSummary, check_alpha, sequential_partition, summarize
from densum.estimators import gee_exchangeable_wald, ols_fit
from densum.kernels import seeded_stream

# Shared scenario: n = 100 equal weights 1/n on unit-range variables, so
# sum w_i^2 R_i^2 = 1/100.
N = 100
W = np.full(N, 1.0 / N)
LOG40 = math.log(40.0)  # log(2/alpha) at alpha = 0.05
# Unequal weights and ranges: sum w_i^2 R_i^2 = 1.1525.
W3, R3 = np.array([0.25, -0.5, 0.1]), np.array([1.0, 2.0, 3.0])


def strictly(f, *args):
    """f(*args) with every warning an error, so an overflow that is only warned about fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


class TestTailBounds:
    def test_hoeffding_value(self):
        out = hoeffding_tail(0.1, W, 1.0)
        assert out.theorem == "hoeffding"
        assert out.value == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)
        assert out.value == pytest.approx(0.270670566473225, abs=1e-12)

    def test_u_sharp_value(self):
        out = u_tail(0.1, W, 1.0)
        assert out.value == pytest.approx(2.0 * math.exp(-6.0), rel=1e-14)
        assert out.value == pytest.approx(0.00495750435333272, abs=1e-12)

    def test_u_sharp_alpha_calibration(self):
        # at tau = sqrt(sum w^2 R^2 * log(2/alpha) / 6) the bound equals alpha
        tau = math.sqrt(LOG40 / (6.0 * N))
        assert tau == pytest.approx(0.0784100275699685, abs=1e-12)
        assert u_tail(tau, W, 1.0).value == pytest.approx(0.05, rel=1e-12)
        # the unsharpened bound at the same tau is far looser
        assert hoeffding_tail(tau, W, 1.0).value == pytest.approx(
            2.0 * math.exp(-2.0 * LOG40 / 6.0), rel=1e-12
        )

    def test_bounds_cap_at_one(self):
        assert hoeffding_tail(1e-9, W, 1.0).value == 1.0
        assert u_tail(1e-9, W, 1.0).value == 1.0

    def test_per_variable_ranges_broadcast(self):
        mixed = hoeffding_tail(0.1, np.array([0.5, 0.5]), np.array([1.0, 2.0]))
        total = 0.25 * 1.0 + 0.25 * 4.0
        assert mixed.value == pytest.approx(min(1.0, 2 * math.exp(-2 * 0.01 / total)))

    def test_tau_must_be_positive(self):
        for fn in (hoeffding_tail, u_tail):
            with pytest.raises(ValueError, match="tau"):
                fn(0.0, W, 1.0)

    @given(tau=st.floats(1e-3, 2.0))
    def test_sharpened_never_exceeds_plain(self, tau):
        sharp = u_tail(tau, W, 1.0).value
        plain = hoeffding_tail(tau, W, 1.0).value
        assert sharp <= plain + 1e-15

    @given(t1=st.floats(0.01, 1.0), t2=st.floats(0.01, 1.0))
    def test_monotone_in_tau(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert u_tail(hi, W, 1.0).value <= u_tail(lo, W, 1.0).value + 1e-15

    @pytest.mark.parametrize("tail", [u_tail, hoeffding_tail])
    @pytest.mark.parametrize("k", [-700, 700])
    def test_a_tail_is_scale_free_beyond_double_precision(self, tail, k):
        # tau with R, or tau with w, times 2**k: the squares once over- or underflowed
        plain = tail(1.5, W3, R3).value
        assert 0.0 < plain < 1.0
        assert strictly(tail, 1.5 * 2.0 ** k, W3, R3 * 2.0 ** k).value == plain
        assert strictly(tail, 1.5 * 2.0 ** k, W3 * 2.0 ** k, R3).value == plain

    @pytest.mark.parametrize("tail, c", [(u_tail, 6.0), (hoeffding_tail, 2.0)])
    @pytest.mark.parametrize("x", [1e200, 1e-200])
    def test_the_tail_at_a_huge_or_tiny_tau_and_range(self, tail, c, x):
        # 2 exp(-c x^2 / (2 x^2)); at 1e200 once 1.0, at 1e-200 once "sum ... is zero"
        value = strictly(tail, x, [1.0, 1.0], x).value
        assert value == pytest.approx(2.0 * math.exp(-c / 2.0), rel=1e-15)


class TestExactTails:
    """The tails against exact laws in rational arithmetic: a bound must lie at
    or above the exact tail of a U law, and may fall below that of another."""

    @staticmethod
    def uniform_mean_tail(n, tau):
        """P(|mean| >= tau) for n independent U(-1/2, 1/2): 2 (1 - F_n(n/2 + n tau)),
        F_n(x) = sum_{k <= x} (-1)^k C(n, k) (x - k)^n / n!, the Irwin-Hall CDF."""
        x = Fraction(n, 2) + n * tau
        terms = ((-1) ** k * math.comb(n, k) * (x - k) ** n for k in range(math.floor(x) + 1))
        return 2 * (1 - sum(terms) / math.factorial(n))

    def test_both_tails_bound_the_uniform_mean(self):
        for n in range(2, 13):
            for tau in (Fraction(step, 20) for step in range(1, 10)):
                exact = self.uniform_mean_tail(n, tau)
                for tail in (u_tail, hoeffding_tail):
                    bound = tail(float(tau), np.full(n, 1.0 / n), 1.0).value
                    assert Fraction(bound) >= exact, (n, tau, tail.__name__)

    @staticmethod
    def uniform_sum_tail(a, tau):
        """P(|S - sum(a)/2| >= tau) for S a sum of independent U(0, a_k):
        2 (1 - F(sum(a)/2 + tau)), F(x) = sum over index sets T of
        (-1)^|T| (x - sum_{k in T} a_k)_+^m / (m! prod_k a_k), m = len(a)."""
        m = len(a)
        x = Fraction(sum(a), 2) + tau
        cdf = sum((-1) ** r * max(x - sum(T), 0) ** m
                  for r in range(m + 1) for T in itertools.combinations(a, r))
        return 2 * (1 - cdf / (math.factorial(m) * math.prod(a)))

    # Unequal ranges a_k, fixed before the first run.
    UNEQUAL_RANGES = ((1, 2), (1, 1, 3), (1, 2, 4), (1, 1, 1, 10), (2, 3, 5, 7, 11),
                      tuple(range(1, 9)))

    def test_both_tails_bound_a_sum_of_unequal_uniforms(self):
        # U(0, a_k) is a_k times a unit-range U variable: weights a_k, ranges 1
        assert self.uniform_sum_tail((1, 2), Fraction(1, 10)) == Fraction(9, 10)  # trapezoid law
        assert (self.uniform_sum_tail((1,) * 5, Fraction(5, 4))
                == self.uniform_mean_tail(5, Fraction(1, 4)))
        for a in self.UNEQUAL_RANGES:
            for step in range(1, 10):
                tau = Fraction(step * sum(a), 20)
                exact = self.uniform_sum_tail(a, tau)
                for tail in (u_tail, hoeffding_tail):
                    bound = tail(float(tau), np.array(a, dtype=float), 1.0).value
                    assert Fraction(bound) >= exact, (a, tau, tail.__name__)

    def test_the_oracle_is_the_irwin_hall_law(self):
        # n = 2: the triangle law, P(|mean| >= tau) = (1 - 2 tau)^2
        assert self.uniform_mean_tail(2, Fraction(1, 10)) == Fraction(16, 25)
        assert self.uniform_mean_tail(12, Fraction(1, 2)) == 0

    def test_the_u_tail_falls_below_a_rademacher_mean(self):
        # outside the U class: P(|mean of 10 signs| >= 0.4) = P(B <= 3 or B >= 7), B ~ Bin(10, 1/2)
        exact = Fraction(2 * sum(math.comb(10, b) for b in range(4)), 2 ** 10)
        bound = u_tail(0.4, np.full(10, 0.1), 2.0).value
        assert exact == Fraction(11, 32)  # 0.34375
        assert bound == pytest.approx(0.18144, abs=5e-6) and bound < exact

    def test_the_range_sets_cover_a_uniform_mean(self):
        # ci_mean's half-width at R = 1 (the summary's mean and spread do not
        # enter it); the set misses the mean 1/2 of n independent U(0, 1) with
        # exact probability P(|mean - 1/2| > half), at most alpha
        for n in range(2, 41):
            summary = SampleSummary(n=n, mean=0.5, variance=1 / 12, minimum=0.0, maximum=1.0,
                                    range=1.0)
            for alpha in (0.01, 0.05, 0.2):
                for method in ("u_sharp", "hoeffding", "bernstein"):
                    upper = ci_mean(summary, R=1.0, alpha=alpha, method=method).upper
                    half = Fraction(upper) - Fraction(1, 2)
                    miss = self.uniform_mean_tail(n, half)
                    assert miss <= Fraction(alpha), (n, alpha, method, float(miss))


class TestBernsteinTails:
    # uniform errors on [-1/2, 1/2]: M = 1/2, Av(Z^2) = M^2/3 = 1/12
    A = N / 12.0
    M = 0.5

    def test_h_form_value(self):
        out = bernstein_tail(0.1, 1.0 / N, self.M, np.full(N, 1.0 / 12.0), form="h")
        u = 0.1 * self.M / ((1.0 / N) * self.A)
        expected = 2.0 * math.exp(-(self.A / self.M**2) * ((1 + u) * math.log1p(u) - u))
        assert out.value == pytest.approx(expected, rel=1e-14)
        assert out.value == pytest.approx(0.0126043530329995, abs=1e-12)

    def test_simple_form_value(self):
        out = bernstein_tail(0.1, 1.0 / N, self.M, np.full(N, 1.0 / 12.0), form="simple")
        assert out.value == pytest.approx(0.0134758939981709, abs=1e-12)

    @given(tau=st.floats(0.01, 1.0))
    def test_h_form_dominates_simple_form(self, tau):
        h = bernstein_tail(tau, 1.0 / N, self.M, np.full(N, 1.0 / 12.0), form="h").value
        simple = bernstein_tail(tau, 1.0 / N, self.M, np.full(N, 1.0 / 12.0), form="simple").value
        assert h <= simple + 1e-15

    def test_variance_adaptivity_beats_hoeffding_for_small_variance(self):
        # when Av(Z^2) is far below its maximum the bernstein bound wins
        tiny_var = np.full(N, 0.001)
        bern = bernstein_tail(0.05, 1.0 / N, self.M, tiny_var, form="h").value
        hoef = hoeffding_tail(0.05, W, 2 * self.M).value
        assert bern < hoef

    def test_rejects_unknown_form(self):
        with pytest.raises(ValueError, match="form"):
            bernstein_tail(0.1, 1.0 / N, self.M, [1.0 / 12.0], form="exact")

    def test_rejects_zero_variance_sum(self):
        with pytest.raises(ValueError, match="positive"):
            bernstein_tail(0.1, 1.0 / N, self.M, np.zeros(N))


class TestCiMean:
    def test_u_sharp_half_width(self, rng):
        values = rng.uniform(0.0, 1.0, size=N)
        out = ci_mean(values, R=1.0, alpha=0.05)
        half = 0.5 * out.width
        assert half == pytest.approx(math.sqrt(LOG40 / (6 * N)), rel=1e-12)
        assert half == pytest.approx(0.0784100275699685, abs=1e-12)
        assert out.method == "u_sharp"
        assert out.range_source == "known"

    def test_hoeffding_half_width(self):
        summary = SampleSummary(n=100, mean=0.5, variance=0.1, minimum=0.0, maximum=1.0, range=1.0)
        out = ci_mean(summary, R=1.0, alpha=0.05, method="hoeffding")
        assert 0.5 * out.width == pytest.approx(0.135810151574062, abs=1e-12)
        assert out.lower == pytest.approx(0.5 - 0.135810151574062, abs=1e-12)

    def test_accepts_summary_or_raw_data(self, rng):
        values = rng.uniform(size=50)
        from_raw = ci_mean(values, R=1.0)
        from_summary = ci_mean(summarize(values), R=1.0)
        assert from_raw == from_summary

    def test_ratio_form_frozen_example(self):
        summary = SampleSummary(n=100, mean=0.5, variance=0.01, minimum=0.1, maximum=0.9, range=0.8)
        out = ci_mean(summary, alpha=0.05, method="ratio")
        assert out.lower == pytest.approx(0.393199132447131, abs=1e-12)
        assert out.upper == pytest.approx(0.686455158155898, abs=1e-12)
        assert out.method == "hoeffding"
        assert out.range_source == "two_mean"

    def test_ratio_form_needs_enough_observations(self):
        summary = SampleSummary(n=5, mean=0.5, variance=0.01, minimum=0.1, maximum=0.9, range=0.8)
        with pytest.raises(ValueError, match=r"n > 2 log\(2/alpha\) = 7.378"):
            ci_mean(summary, method="ratio")

    def test_ratio_form_rejects_negative_observations(self):
        summary = SampleSummary(n=100, mean=0.5, variance=0.01, minimum=-0.01, maximum=0.9, range=0.91)
        with pytest.raises(ValueError, match="nonnegative support"):
            ci_mean(summary, method="ratio")

    def test_interval_respects_duality_with_tail(self, rng):
        # the u_sharp interval at level alpha has half-width solving
        # u_tail(half) = alpha, so re-evaluating the tail must give alpha
        values = rng.uniform(0.0, 1.0, size=64)
        alpha = 0.11
        out = ci_mean(values, R=1.0, alpha=alpha)
        tail = u_tail(0.5 * out.width, np.full(64, 1.0 / 64), 1.0)
        assert tail.value == pytest.approx(alpha, rel=1e-10)

    def test_bernstein_inverts_the_simple_tail(self, rng):
        # the half-width solves bernstein_tail(form="simple") = alpha with the
        # U-variance plug-in Av(eps^2) = R^2 / 12 for every observation
        values = rng.uniform(0.0, 2.0, size=64)
        alpha = 0.11
        out = ci_mean(values, R=2.0, alpha=alpha, method="bernstein")
        tail = bernstein_tail(0.5 * out.width, 1.0 / 64, 1.0, np.full(64, 4.0 / 12.0), form="simple")
        assert tail.value == pytest.approx(alpha, rel=1e-10)
        assert out.lower + out.upper == pytest.approx(2.0 * float(np.mean(values)), rel=1e-12)
        assert out.method == "bernstein"
        assert out.range_source == "known"

    @pytest.mark.parametrize("method", ["hoeffding", "u_sharp", "bernstein"])
    def test_zero_range_gives_the_one_point_set(self, method):
        out = ci_mean([2.5, 2.5, 2.5], R=0.0, method=method)
        assert (out.lower, out.upper, out.method) == (2.5, 2.5, method)

    def test_requires_range_for_additive_methods(self):
        with pytest.raises(ValueError, match="positive range"):
            ci_mean([0.1, 0.2, 0.3], method="u_sharp")

    @given(alpha=st.floats(0.001, 0.4), n=st.integers(2, 5000))
    def test_width_shrinks_with_n_and_grows_with_confidence(self, alpha, n):
        summary = SampleSummary(n=n, mean=0.0, variance=0.1, minimum=-1.0, maximum=1.0, range=2.0)
        base = ci_mean(summary, R=2.0, alpha=alpha)
        more_data = ci_mean(
            SampleSummary(n=2 * n, mean=0.0, variance=0.1, minimum=-1.0, maximum=1.0, range=2.0),
            R=2.0,
            alpha=alpha,
        )
        stricter = ci_mean(summary, R=2.0, alpha=alpha / 2)
        assert more_data.width < base.width
        assert stricter.width > base.width


class TestCiLinear:
    def test_known_ranges_half_width(self):
        w = np.full(8, 0.1)
        out = ci_linear(1.0, w, alpha=0.05, range_source="known", ranges=2.0)
        assert 0.5 * out.width == pytest.approx(0.443554097661991, abs=1e-12)
        assert out.method == "u_sharp"

    def test_marginal_range_matches_known_with_common_r(self):
        w = np.array([0.25, -0.5, 0.1])
        known = ci_linear(0.0, w, range_source="known", ranges=1.5)
        marginal = ci_linear(0.0, w, range_source="marginal_range", ranges=1.5)
        assert known.width == pytest.approx(marginal.width)
        assert marginal.range_source == "marginal_range"

    def test_two_mean_uses_doubled_fitted_values(self):
        w = np.array([0.5, 0.5])
        fitted = np.array([1.0, 3.0])
        out = ci_linear(2.0, w, 2.0 * fitted, range_source="two_mean")
        expected = math.sqrt(0.25 * 4.0 + 0.25 * 36.0) * math.sqrt(LOG40 / 6.0)
        assert 0.5 * out.width == pytest.approx(expected, rel=1e-12)

    def test_residual_range_half_width(self):
        out = ci_linear(0.0, np.ones(25), 0.3, range_source="residual_range")
        assert 0.5 * out.width == pytest.approx(1.17615041354953, abs=1e-12)
        assert out.range_source == "residual_range"

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="range_source"):
            ci_linear(0.0, [1.0], range_source="plugin", ranges=1.0)

    def test_the_scaled_sum_keeps_the_plain_sums_bits(self, rng):
        # w and R are scaled by powers of two, which is exact
        for _ in range(20):
            w = rng.standard_normal(50) * 10.0 ** rng.integers(-5, 6)
            R = rng.uniform(0.1, 3.0, 50) * 10.0 ** rng.integers(-5, 6)
            half = half_width(math.sqrt(float(np.sum(w * w * R * R))), 0.05)
            out = ci_linear(0.3, w, R)
            assert (out.lower, out.upper) == (0.3 - half, 0.3 + half)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_squares_beyond_double_precision_scale_the_set_exactly(self, k):
        w, R = np.array([0.25, -0.5, 0.1]), np.array([1.0, 2.0, 3.0])
        plain = ci_linear(0.0, w, R)
        scaled = ci_linear(0.0, w, R * 2.0 ** k)
        assert (scaled.lower, scaled.upper) == (plain.lower * 2.0 ** k, plain.upper * 2.0 ** k)

    def test_a_set_beyond_double_precision_is_refused(self):
        with pytest.raises(ValueError, match=r"overflows double precision: the range "
                                             r"R = 1\.5e\+308"):
            ci_linear(0.0, np.ones(4), 1.5e308)


class TestOptimalS:
    def test_tail_forms(self):
        # sum w^2 R^2 = 0.01 here
        assert optimal_s(tau=0.1, w=W, ranges=1.0, theorem="hoeffding") == pytest.approx(40.0)
        assert optimal_s(tau=0.1, w=W, ranges=1.0, theorem="u_sharp") == pytest.approx(120.0)

    @pytest.mark.parametrize("k", [-700, 700])
    def test_scales_exactly_beyond_double_precision(self, k):
        # s = 2c tau / sum w_i^2 R_i^2: tau and R times 2**k give s times 2**-k
        assert strictly(optimal_s, 1.5 * 2.0 ** k, W3, R3 * 2.0 ** k) == math.ldexp(
            optimal_s(1.5, W3, R3), -k)

    def test_a_huge_tau_and_range(self):
        # 12 * 1e200 / (2 * 1e400); once 0.0
        assert strictly(optimal_s, 1e200, [1.0, 1.0], 1e200) == pytest.approx(6e-200, rel=1e-15)

    def test_diagnostic_form(self):
        s = diagnostic_s(M=0.5, c_star=10.0, sum_w2=0.01, alpha=0.05)
        assert s == pytest.approx(29.7545134221238, abs=1e-10)

    def test_diagnostic_exponential_size_is_invariant(self):
        # by construction exp(s^2 M^2 sum_w2 / 6) = (2/alpha)^(1/c*),
        # independent of M and of the weights
        for M, sum_w2 in [(0.5, 0.01), (20.0, 1e-4), (3.0, 0.2)]:
            s = diagnostic_s(M=M, c_star=10.0, sum_w2=sum_w2, alpha=0.05)
            assert math.exp(s * s * M * M * sum_w2 / 6.0) == pytest.approx(40.0 ** 0.1, rel=1e-10)


@pytest.mark.parametrize("alpha", [1.5, 3.0, 0.0])
@pytest.mark.parametrize(
    "scale",
    [lambda alpha: half_width(0.1, alpha),
     lambda alpha: half_width(0.1, alpha, "hoeffding"),
     lambda alpha: diagnostic_s(M=0.5, c_star=10.0, sum_w2=0.01, alpha=alpha)],
    ids=["half-width-u", "half-width-hoeffding", "diagnostic-s"],
)
def test_a_level_outside_the_unit_interval_is_rejected_by_name(scale, alpha):
    # 1.5 once gave a number, 3 a math domain error and 0 a ZeroDivisionError
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        scale(alpha)


@pytest.mark.parametrize("alpha", [2.0 ** -54, 1e-17, 1e-320])
@pytest.mark.parametrize(
    "use",
    [check_alpha,
     lambda alpha: half_width(0.1, alpha),
     lambda alpha: ci_mean([0.0, 0.5, 1.0], R=1.0, alpha=alpha),
     lambda alpha: gee_exchangeable_wald(ols_fit(np.ones((4, 1)), np.arange(4.0)),
                                         sequential_partition(4, 2), alpha=alpha),
     # ci's own check, made before its (absent) input is read
     lambda alpha: cmd_ci(build_parser().parse_args(
         ["ci", "never-written.csv", "--column", "y", "--alpha", repr(alpha)]))],
    ids=["check-alpha", "half-width", "ci-mean", "gee-wald", "cli-level"],
)
def test_an_alpha_whose_level_rounds_to_1_is_rejected_by_name(use, alpha):
    # the set's level 1 - alpha would be 1, not the level asked for
    with pytest.raises(ValueError, match=r"^alpha = .+ is too small: its level 1 - alpha "
                                         r"rounds to 1$"):
        use(alpha)


def test_the_smallest_alpha_with_a_level_below_1_is_kept():
    assert check_alpha(2.0 ** -53) == 2.0 ** -53 and 1.0 - 2.0 ** -53 < 1.0


class TestRuleOfThumb:
    def test_homogeneous_reduction(self):
        # R^2 / (12 sigma^2) - 1; Beta(10,10) has sigma^2 = 1/84, so 84/12 - 1 = 6
        assert rule_of_thumb(W, 1.0 / 84.0, 1.0) == pytest.approx(6.0)

    def test_uniform_errors_have_no_slack(self):
        # uniform attains sigma^2 = R^2/12, leaving no room for dependence
        assert rule_of_thumb(W, 1.0 / 12.0, 1.0) == pytest.approx(0.0)

    def test_truncnormal_example(self):
        # sigma^2 = 30 on range 40: 1600/360 - 1 = 4.44...
        assert rule_of_thumb(np.ones(10), 30.0, 40.0) == pytest.approx(1600.0 / 360.0 - 1.0)

    def test_weights_cancel_in_homogeneous_case(self, rng):
        w = rng.uniform(0.1, 2.0, size=30)
        assert rule_of_thumb(w, 0.05, 1.0) == pytest.approx(rule_of_thumb(np.ones(30), 0.05, 1.0))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            rule_of_thumb(W, 0.0, 1.0)

    @pytest.mark.parametrize("ranges", [-1.0, [1.0, -1.0]], ids=["scalar", "one-of-two"])
    def test_a_negative_range_is_refused(self, ranges):
        # its square once hid the sign: R = -1 gave R = 1's bound
        with pytest.raises(ValueError, match="^ranges must be nonnegative$"):
            rule_of_thumb(np.ones(2), 1.0 / 84.0, ranges)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_the_weights_scale_out_beyond_double_precision(self, k):
        # w^2 once over- or underflowed: inf / inf, or a zero denominator
        assert strictly(rule_of_thumb, W3 * 2.0 ** k, 0.05, R3) == rule_of_thumb(W3, 0.05, R3)

    def test_a_range_whose_square_overflows(self):
        # R times 2**512 and sigma^2 times 4**512 leave R^2 / sigma^2 as it was; R^2 once read inf
        assert strictly(rule_of_thumb, W3, 2.0 ** 1020, R3 * 2.0 ** 512) == rule_of_thumb(
            W3, 0.0625, R3)
        assert strictly(rule_of_thumb, np.ones(2), 1e300, 1e300) == pytest.approx(
            1e300 / 12.0 - 1.0, rel=1e-15)


class TestEmpiricalMgfDiagnostic:
    def test_zero_s_is_boundary(self, rng):
        draws = rng.uniform(-1, 1, size=(100, 10))
        w = np.full(10, 0.1)
        report = a5_from_sums(draws @ w, w, 0.0, 1.0)
        assert report.a_hat == pytest.approx(1.0)
        assert report.av_star == pytest.approx(1.0)
        assert report.verdict == "boundary"

    def test_independent_uniforms_do_not_violate(self):
        # the uniform attains the functional average exactly, so the verdict
        # sits on the boundary up to Monte Carlo noise
        n, reps = 50, 4000
        draws = np.empty((reps, n))
        for r in range(reps):
            draws[r] = seeded_stream(5, r).uniform(-0.5, 0.5, size=n)
        w = np.full(n, 1.0 / n)
        report = a5_from_sums(draws @ w, w, 10.0, 0.5)
        assert report.verdict in ("holds", "boundary")

    def test_comonotone_draws_violate(self):
        # all columns equal: E exp(s sum w z) = E exp(s z) = sinh(s)/s for
        # uniform z, far above Av* = (sinh(s w n M)/(s w n M)) ... prod form
        n, reps = 20, 3000
        base = np.empty((reps, 1))
        for r in range(reps):
            base[r, 0] = seeded_stream(9, r).uniform(-1.0, 1.0)
        draws = np.repeat(base, n, axis=1)
        w = np.full(n, 1.0 / n)
        report = a5_from_sums(draws @ w, w, 1.0, 1.0)
        assert report.verdict == "violated"
        assert report.a_hat > report.av_star + 2 * report.mc_se

    def test_sign_flip_recomputes_the_larger_branch(self, rng):
        # negative drift: draws = u^2 - 1/2 has mean -1/6, so the exp(-t)
        # branch dominates and a_hat must equal its plain-arithmetic mean
        draws = rng.uniform(-1, 1, size=(2000, 30)) ** 2 - 0.5
        w = np.full(30, 1.0 / 30)
        report = a5_from_sums(draws @ w, w, 8.0, 0.5)
        t = 8.0 * (draws @ w)
        assert np.exp(-t).mean() > np.exp(t).mean()
        assert report.a_hat == pytest.approx(float(np.exp(-t).mean()), rel=1e-10)

    def test_log_space_evaluation_survives_large_exponents(self, rng):
        # both sides overflow float64; the comparison must degrade to an
        # explicit "boundary" rather than crash or emit NaN
        draws = rng.uniform(-1, 1, size=(50, 4))
        w = np.full(4, 0.25)
        report = a5_from_sums(draws @ w, w, 2000.0, 1.0)
        assert report.a_hat == math.inf
        assert report.av_star == math.inf
        assert report.verdict == "boundary"

    def test_draw_validation(self, rng):
        with pytest.raises(ValueError, match="one value per replication"):
            a5_from_sums(np.zeros((5, 3)), np.ones(3), 1.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            a5_from_sums(np.zeros(5), np.ones(3), -1.0, 1.0)
