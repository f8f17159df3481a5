import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import golden_fit
from densum.core import SupportSpec
from densum.estimators import weighted_residuals
from densum.uclass import (
    av_exp,
    av_moment,
    av_product,
    bernstein_av_bound,
    check_u_class,
    discrete_mgf_adjustment,
    eq1_identity_check,
    eq2_identity_check,
    hoeffding_av_bound,
    log_av_product,
    moment_condition_check,
    u_mgf_bound,
)

UNIT = SupportSpec(0.0, 1.0)
SYM = SupportSpec(-1.0, 1.0)


class TestAvMoment:
    @pytest.mark.parametrize(
        "support, k, expected",
        [
            (UNIT, 0, 1.0),
            (UNIT, 1, 0.5),
            (UNIT, 2, 1.0 / 3.0),
            (SYM, 1, 0.0),
            (SYM, 2, 1.0 / 3.0),
            (SYM, 3, 0.0),
            (SYM, 4, 0.2),
        ],
    )
    def test_closed_forms(self, support, k, expected):
        assert av_moment(support, k) == pytest.approx(expected, abs=1e-15)

    def test_matches_numerical_integration(self):
        support = SupportSpec(-0.75, 2.5)
        for k in range(6):
            integral, _ = quad(lambda z: z**k, support.lower, support.upper)
            assert av_moment(support, k) == pytest.approx(integral / support.length, rel=1e-10)

    def test_discrete_support_rejected(self):
        spec = SupportSpec(-1, 1, continuity="discrete-integer")
        with pytest.raises(ValueError, match="continuous"):
            av_moment(spec, 2)


class TestAvExp:
    def test_zero_argument_gives_one(self):
        assert av_exp(0.0, 1.0, 1.0) == 1.0
        assert av_exp(1.0, 0.0, 1.0) == 1.0

    def test_known_value(self):
        assert av_exp(1.0, 1.0, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)

    def test_matches_numerical_integration(self):
        for s, w, M in [(0.7, 1.0, 1.0), (2.0, 0.3, 1.5), (1e-3, 1.0, 1.0), (5.0, 2.0, 0.5)]:
            integral, _ = quad(lambda z: math.exp(s * w * z), -M, M)
            assert av_exp(s, w, M) == pytest.approx(integral / (2 * M), rel=1e-10)

    def test_series_and_direct_branches_agree_at_the_seam(self):
        # the series kicks in below |x| = 1e-2; both branches must agree there
        for x in (0.009999, 0.010001):
            direct = math.sinh(x) / x
            assert av_exp(x, 1.0, 1.0) == pytest.approx(direct, rel=1e-14)

    @given(x=st.floats(-30.0, 30.0))
    def test_even_in_the_argument(self, x):
        assert av_exp(x, 1.0, 1.0) == pytest.approx(av_exp(-x, 1.0, 1.0), rel=1e-12)


class TestAvProduct:
    def test_equals_explicit_product(self):
        s, M = 0.8, 1.0
        w = np.array([0.2, -0.5, 1.0, 0.05])
        explicit = np.prod([av_exp(s, wi, M) for wi in w])
        assert av_product(s, w, M) == pytest.approx(explicit, rel=1e-12)

    def test_log_space_survives_huge_arguments(self):
        log_value = log_av_product(30.0, np.full(100, 1.0), 1.0)
        per_factor = 30.0 + math.log1p(-math.exp(-60.0)) - math.log(60.0)
        assert log_value == pytest.approx(100 * per_factor, rel=1e-12)
        # a direct product of the 100 sinh factors would overflow float64
        assert log_value > 709

    def test_per_variable_bounds(self):
        w = np.array([0.1, 0.2, 0.3])
        M = np.array([1.0, 2.0, 0.5])
        explicit = np.prod([av_exp(1.3, wi, Mi) for wi, Mi in zip(w, M)])
        assert av_product(1.3, w, M) == pytest.approx(explicit, rel=1e-12)


class TestMgfBounds:
    def test_u_mgf_bound_dominates_av_exp(self):
        # sinh(x)/x <= exp(x^2/6); with R = 2M the bound reads exp(x^2/6)
        for x in np.linspace(0.01, 10.0, 200):
            assert av_exp(x, 1.0, 1.0) <= u_mgf_bound(x, 1.0, 2.0) * (1 + 1e-12)

    def test_u_mgf_bound_value(self):
        assert u_mgf_bound(1.0, 1.0, 2.0) == pytest.approx(math.exp(4.0 / 24.0))

    def test_u_mgf_bound_rejects_bad_range(self):
        with pytest.raises(ValueError, match="positive"):
            u_mgf_bound(1.0, 1.0, 0.0)

    def test_hoeffding_av_bound_value(self):
        # R = 2, av = -0.1: exp(-0.1 + 4/8) = exp(0.4)
        assert hoeffding_av_bound(1.0, SYM, -0.1) == pytest.approx(math.exp(0.4), rel=1e-14)

    def test_hoeffding_av_bound_centered_u(self):
        assert hoeffding_av_bound(2.0, SYM, 0.0) == pytest.approx(math.exp(2.0), rel=1e-14)

    def test_hoeffding_av_bound_needs_positive_s(self):
        with pytest.raises(ValueError, match="positive"):
            hoeffding_av_bound(0.0, SYM, 0.0)

    def test_bernstein_av_bound_value(self):
        # s = 1, M = 1, Av(Z^2) = 1/3: exp((e - 2) / 3)
        expected = math.exp((math.e - 2.0) / 3.0)
        assert bernstein_av_bound(1.0, 1.0, 1.0 / 3.0) == pytest.approx(expected, rel=1e-14)

    def test_bernstein_av_bound_dominates_av_exp_for_uniform(self):
        # the uniform attains Av(Z^2) = M^2/3 exactly
        for s in (0.1, 0.5, 1.0, 3.0):
            assert av_exp(s, 1.0, 1.0) <= bernstein_av_bound(s, 1.0, 1.0 / 3.0) + 1e-12

    def test_mgf_bound_ordering_small_s(self):
        # near s = 0 the bernstein form is tighter than the hoeffding form
        s = 0.05
        bern = bernstein_av_bound(s, 1.0, 1.0 / 3.0)
        hoef = hoeffding_av_bound(s, SYM, 0.0)
        assert bern < hoef


class TestDiscreteAdjustment:
    def test_m_one_closed_form(self):
        # (2M+1)/(2M) * (Av - 1/(2M+1)) at M = 1: (3/2)(Av - 1/3)
        assert discrete_mgf_adjustment(1.0, 1) == pytest.approx(1.0)
        assert discrete_mgf_adjustment(2.0, 1) == pytest.approx(2.5)

    @pytest.mark.parametrize("M", [1, 2, 5, 17])
    def test_dominates_uniform_integer_mgf(self, M):
        # for Z uniform on {-M..M} the expectation equals the counting
        # average, and the adjusted bound must still dominate it
        for s in (0.05, 0.3, 1.0):
            values = np.exp(s * np.arange(-M, M + 1))
            e_exp = float(values.mean())
            assert discrete_mgf_adjustment(e_exp, M) >= e_exp - 1e-12

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError, match="positive integer"):
            discrete_mgf_adjustment(1.0, 0)


class _Analytic:
    """Distribution-like stub: exposes mean() only."""

    def __init__(self, value):
        self._value = value

    def mean(self):
        return self._value


class TestCheckUClass:
    def test_symmetric_sample_is_u(self, rng):
        z = rng.uniform(-1.0, 1.0, size=4000)
        z = np.concatenate([z, -z])  # exactly symmetric
        report = check_u_class(z, SYM)
        assert report.is_u
        assert report.is_sub_u
        assert report.cdf_area_gap == pytest.approx(0.0, abs=1e-12)

    def test_upward_shift_is_sub_u_but_not_u(self):
        report = check_u_class(_Analytic(0.2), SYM)
        assert not report.is_u
        assert report.is_sub_u
        assert report.expected_value == pytest.approx(0.2)
        assert report.functional_average == 0.0

    def test_downward_shift_is_neither(self):
        report = check_u_class(_Analytic(-0.2), SYM)
        assert not report.is_u
        assert not report.is_sub_u

    def test_sample_tolerance_widens_with_noise(self, rng):
        small = check_u_class(rng.uniform(-1, 1, size=10000), SYM)
        large = check_u_class(rng.uniform(-1, 1, size=10), SYM)
        assert large.tolerance > small.tolerance

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            check_u_class(np.array([]), SYM)

    def test_list_with_a_mean_method_is_a_sample(self, rng):
        class MeanList(list):
            def mean(self):
                return sum(self) / len(self)

        values = rng.uniform(-1.0, 1.0, size=50)
        as_list = check_u_class(MeanList(values.tolist()), SYM)
        as_array = check_u_class(values, SYM)
        assert as_list.tolerance == as_array.tolerance
        assert as_list.tolerance > 1e-3 * SYM.range

    @pytest.mark.parametrize("k", [530, -560])
    def test_the_check_scales_exactly_beyond_double_precision(self, k):
        # at W_1 e * 2**530 the squares once overflowed: an infinite tolerance, is_u True
        def check(z):
            return check_u_class(z, SupportSpec(float(np.min(z)), float(np.max(z))))

        z = weighted_residuals(golden_fit(), 1)
        plain = check(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = check(z * 2.0 ** k)
        assert (scaled.is_u, scaled.is_sub_u) == (plain.is_u, plain.is_sub_u) == (False, True)
        for name in ("expected_value", "functional_average", "tolerance", "cdf_area_gap"):
            assert getattr(scaled, name) == math.ldexp(getattr(plain, name), k)


class TestMomentConditions:
    def test_uniform_attains_even_bounds(self):
        # uniform on [-1, 1]: E Z^2 = 1/3 = bound, E Z^4 = 1/5 = bound
        checks = moment_condition_check([0.0, 1.0 / 3.0, 0.0, 0.2], R=2.0)
        assert all(c.passed for c in checks)
        assert checks[1].bound == pytest.approx(1.0 / 3.0)
        assert checks[3].bound == pytest.approx(0.2)

    def test_positive_odd_moment_fails(self):
        checks = moment_condition_check([0.1], R=2.0)
        assert not checks[0].passed

    def test_oversized_even_moment_fails(self):
        checks = moment_condition_check([0.0, 0.4], R=2.0)
        assert checks[0].passed and not checks[1].passed


def random_pmf(rng, size):
    p = rng.uniform(0.05, 1.0, size=size)
    return p / p.sum()


class TestEnumeratedIdentities:
    def test_eq1_gap_vanishes(self, rng):
        for _ in range(25):
            size = rng.integers(2, 20)
            values = rng.choice(np.arange(-50, 50), size=size, replace=False).astype(float)
            probs = random_pmf(rng, size)
            out = eq1_identity_check(values, probs)
            assert out.gap <= 1e-12
            assert out.lhs == pytest.approx(values.mean())

    def test_eq1_matches_probability_weighted_enumeration(self, rng):
        # independent route: expand Cov(Z, 1/f) = E[Z/f] - EZ E[1/f] term by term
        values = np.array([-2.0, 0.5, 3.0, 7.0])
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        ez = float(probs @ values)
        cov = float(np.sum(probs * values / probs) - ez * np.sum(probs / probs))
        rhs_oracle = ez + cov / values.size
        out = eq1_identity_check(values, probs)
        assert out.rhs == pytest.approx(rhs_oracle, abs=1e-14)

    def test_eq1_rejects_bad_pmf(self):
        with pytest.raises(ValueError, match="strictly positive"):
            eq1_identity_check([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="sum to one"):
            eq1_identity_check([0.0, 1.0], [0.7, 0.6])
        with pytest.raises(ValueError, match="distinct"):
            eq1_identity_check([1.0, 1.0], [0.5, 0.5])

    def test_eq2_on_joint_grid(self, rng):
        # 3 x 4 rectangular joint support, g a nonlinear functional
        zs = np.array([(a, b) for a in (-1.0, 0.0, 2.0) for b in (0.5, 1.0, 1.5, 4.0)])
        probs = random_pmf(rng, 12)
        out = eq2_identity_check(zs, probs, g=lambda z: z[0] * z[1] ** 2 - z[1])
        assert out.gap <= 1e-12

    def test_eq2_non_rectangular_support(self, rng):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0], [3.0, 3.0], [0.5, 2.5]])
        probs = random_pmf(rng, 5)
        out = eq2_identity_check(pts, probs, g=lambda z: math.exp(0.1 * z[0]) + z[1])
        assert out.gap <= 1e-12

    def test_eq2_univariate_points_promote(self, rng):
        values = np.array([1.0, 2.0, 4.0])
        out = eq2_identity_check(values, random_pmf(rng, 3), g=lambda z: float(z[0]) ** 2)
        assert out.gap <= 1e-12

    def test_eq2_support_size_guard(self):
        pts = np.zeros((11, 1))
        pts[:, 0] = np.arange(11)
        with pytest.raises(ValueError, match="too large"):
            eq2_identity_check(pts, np.full(11, 1 / 11), g=lambda z: 0.0, max_support=10)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    size=st.integers(2, 20),
)
def test_eq1_identity_is_exact_for_random_pmfs(seed, size):
    rng = np.random.default_rng(seed)
    values = rng.choice(np.arange(-100, 100), size=size, replace=False).astype(float)
    values += rng.uniform(-0.4, 0.4, size=size)  # break integer alignment
    probs = random_pmf(rng, size)
    assert eq1_identity_check(values, probs).gap <= 1e-12
