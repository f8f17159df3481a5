import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from densum.core import (
    ConfidenceSet,
    DependencySummary,
    Partition,
    Sample,
    SampleSummary,
    SupportSpec,
    WeightMatrix,
    sequential_partition,
    summarize,
    validate_weights,
)


class TestSample:
    def test_basic_properties(self):
        s = Sample(values=[1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.values.dtype == float
        assert not s.values.flags.writeable

    @pytest.mark.parametrize("bad", [[], [[1.0, 2.0]], [1.0, np.nan], [np.inf]])
    def test_rejects_degenerate_input(self, bad):
        with pytest.raises(ValueError):
            Sample(values=bad)


class TestWeightMatrix:
    def test_vector_promotes_to_single_row(self):
        w = WeightMatrix(entries=[0.5, 0.5])
        assert w.entries.shape == (1, 2)
        assert w.p == 1 and w.n == 2
        np.testing.assert_array_equal(w.row(0), [0.5, 0.5])

    def test_zero_row_is_named_in_the_error(self):
        with pytest.raises(ValueError, match="degenerate weight row 1"):
            WeightMatrix(entries=[[1.0, 0.0], [0.0, 0.0]])

    def test_validate_weights_passthrough_and_coercion(self):
        w = WeightMatrix(entries=[[1.0, -1.0]])
        assert validate_weights(w) is w
        coerced = validate_weights([1.0, 2.0])
        assert isinstance(coerced, WeightMatrix)


class TestSupportSpec:
    def test_continuous_range_is_interval_length(self):
        spec = SupportSpec(-0.5, 0.5)
        assert spec.range == 1.0
        assert spec.length == 1.0
        assert spec.midpoint == 0.0
        assert spec.is_symmetric

    def test_discrete_range_counts_points(self):
        # {-2, ..., 2} has 5 points under the counting measure.
        spec = SupportSpec(-2, 2, continuity="discrete-integer")
        assert spec.range == 5.0
        assert spec.length == 4.0

    def test_discrete_needs_integer_bounds(self):
        with pytest.raises(ValueError, match="integer bounds"):
            SupportSpec(-0.5, 1.5, continuity="discrete-integer")

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="lower < upper"):
            SupportSpec(1.0, 1.0)

    def test_asymmetric_interval_detected(self):
        assert not SupportSpec(-1.0, 2.0).is_symmetric


class TestDependencySummary:
    def test_requires_some_summary(self):
        with pytest.raises(ValueError, match="phi or sigma_bar"):
            DependencySummary(mu=3.0)

    def test_rejects_infeasible_inflation(self):
        # 1 + mu*phi < 0 would imply a negative variance.
        with pytest.raises(ValueError, match="negative variance"):
            DependencySummary(mu=4.0, phi=-0.5)

    def test_boundary_inflation_is_feasible(self):
        d = DependencySummary(mu=4.0, phi=-0.25)
        assert d.mu == 4.0

    def test_matrix_valued_summaries(self):
        phi = np.array([[0.1, 0.0], [0.0, 0.2]])
        d = DependencySummary(mu=2.0, phi=phi)
        assert d.phi.shape == (2, 2)
        assert not d.phi.flags.writeable


class TestPartition:
    def test_sizes_and_members(self):
        part = Partition(assignment=[1, 1, 2, 3, 3, 3])
        assert part.n == 6
        assert part.n_clusters == 3
        np.testing.assert_array_equal(part.cluster_sizes, [2, 1, 3])
        np.testing.assert_array_equal(part.members(3), [3, 4, 5])

    def test_labels_must_cover_their_range(self):
        with pytest.raises(ValueError, match="cluster 2 is empty"):
            Partition(assignment=[1, 1, 3])

    def test_labels_must_be_positive(self):
        with pytest.raises(ValueError, match="1..K"):
            Partition(assignment=[0, 1])


class TestSequentialPartition:
    def test_five_into_three(self):
        part = sequential_partition(5, 3)
        np.testing.assert_array_equal(part.assignment, [1, 2, 2, 3, 3])

    def test_k_equals_n_is_singletons(self):
        part = sequential_partition(4, 4)
        np.testing.assert_array_equal(part.assignment, [1, 2, 3, 4])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="1 <= K <= n"):
            sequential_partition(3, 4)

    @given(n=st.integers(1, 400), k_frac=st.floats(0.0, 1.0))
    def test_blocks_are_contiguous_and_balanced(self, n, k_frac):
        K = max(1, min(n, round(k_frac * n)))
        part = sequential_partition(n, K)
        labels = part.assignment
        assert labels[0] == 1 and labels[-1] == K
        # contiguous: labels never decrease, never jump by more than one
        steps = np.diff(labels)
        assert np.all((steps == 0) | (steps == 1))
        sizes = part.cluster_sizes
        assert sizes.max() - sizes.min() <= 1


class TestConfidenceSet:
    def test_width_and_containment(self):
        cs = ConfidenceSet(lower=0.2, upper=0.8, level=0.95, method="u_sharp")
        assert cs.width == pytest.approx(0.6)
        assert cs.contains(0.2) and cs.contains(0.8)
        assert not cs.contains(0.81)

    def test_rejects_crossed_endpoints(self):
        with pytest.raises(ValueError, match="lower <= upper"):
            ConfidenceSet(lower=1.0, upper=0.0, level=0.95, method="hoeffding")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method must be one of"):
            ConfidenceSet(lower=0.0, upper=1.0, level=0.95, method="bayes")

    def test_rejects_unknown_range_source(self):
        with pytest.raises(ValueError, match="range_source"):
            ConfidenceSet(0.0, 1.0, 0.95, "wald", range_source="guess")

    def test_none_range_source_allowed(self):
        cs = ConfidenceSet(0.0, 1.0, 0.95, "wald", range_source=None)
        assert cs.range_source is None


class TestSummarize:
    def test_known_values(self):
        s = summarize([1.0, 2.0, 3.0, 6.0])
        assert s == SampleSummary(
            n=4, mean=3.0, variance=pytest.approx(14.0 / 3.0),
            minimum=1.0, maximum=6.0, range=5.0,
        )

    def test_squares_beyond_double_precision_keep_the_variance(self, rng):
        # |y| above 2**512 squares past the largest double; the variance does not
        y = rng.standard_normal(1000)
        assert summarize(y * 2.0 ** 511).variance == float(y.var(ddof=1)) * 2.0 ** 1022

    def test_single_observation_rejected(self):
        with pytest.raises(ValueError, match="single observation"):
            summarize([4.2])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60))
    def test_matches_numpy_reductions(self, values):
        s = summarize(values)
        arr = np.asarray(values)
        assert s.mean == pytest.approx(float(arr.mean()), abs=1e-9, rel=1e-9)
        assert s.variance == pytest.approx(float(arr.var(ddof=1)), abs=1e-6, rel=1e-9)
        assert s.range == float(arr.max() - arr.min())
