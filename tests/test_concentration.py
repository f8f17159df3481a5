import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from densum.core import SampleSummary, summarize
from densum.kernels import seeded_stream

# Shared scenario: n = 100 equal weights 1/n on unit-range variables, so
# sum w_i^2 R_i^2 = 1/100.
N = 100
W = np.full(N, 1.0 / N)
LOG40 = math.log(40.0)  # log(2/alpha) at alpha = 0.05


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


class TestOptimalS:
    def test_tail_forms(self):
        # sum w^2 R^2 = 0.01 here
        assert optimal_s(tau=0.1, w=W, ranges=1.0, theorem="hoeffding") == pytest.approx(40.0)
        assert optimal_s(tau=0.1, w=W, ranges=1.0, theorem="u_sharp") == pytest.approx(120.0)

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
