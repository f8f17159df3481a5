"""Shared data model: samples, weight matrices, support specifications,
dependency summaries, partitions, and confidence sets.

Everything here is immutable after construction and safe to share across
concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CI_METHODS = ("hoeffding", "u_sharp", "bernstein", "wald")
RANGE_SOURCES = ("known", "residual_range", "two_mean", "marginal_range")
CONTINUITY_KINDS = ("continuous", "discrete-integer")


def _freeze(obj, name, value):
    """Assign a field on a frozen dataclass during __post_init__."""
    object.__setattr__(obj, name, value)


def _readonly_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Sample:
    """Observed outcomes."""

    values: np.ndarray

    def __post_init__(self):
        values = _readonly_array(self.values)
        if values.ndim != 1:
            raise ValueError("sample values must be one-dimensional")
        if values.size == 0:
            raise ValueError("sample must be nonempty")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values must all be finite")
        _freeze(self, "values", values)

    @property
    def n(self):
        return self.values.size


@dataclass(frozen=True)
class WeightMatrix:
    """A p x n matrix of weights; row s holds the weights of statistic s."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim == 1:
            entries = entries[None, :]
        if entries.ndim != 2:
            raise ValueError("weight entries must be a vector or a matrix")
        if entries.size == 0:
            raise ValueError("weight matrix must be nonempty")
        if not np.all(np.isfinite(entries)):
            raise ValueError("weight entries must all be finite")
        degenerate = ~np.any(entries != 0.0, axis=1)
        if np.any(degenerate):
            row = int(np.nonzero(degenerate)[0][0])
            raise ValueError(f"degenerate weight row {row}: all entries are zero")
        entries.setflags(write=False)
        _freeze(self, "entries", entries)

    @property
    def p(self):
        return self.entries.shape[0]

    @property
    def n(self):
        return self.entries.shape[1]

    def row(self, s):
        return self.entries[s]


def validate_weights(w):
    """Validate a weight matrix (finite entries, no all-zero row).

    Accepts a ``WeightMatrix`` or anything coercible to one and returns the
    checked ``WeightMatrix``.
    """
    if isinstance(w, WeightMatrix):
        # Construction already enforced the invariants.
        return w
    return WeightMatrix(np.asarray(w, dtype=float))


@dataclass(frozen=True)
class SupportSpec:
    """Support bounds for one bounded variable.

    For ``continuous`` supports the range is the interval length M - m.  For
    ``discrete-integer`` supports (a gap-free integer range) the range is the
    cardinality of the support under the counting measure, M - m + 1.
    """

    lower: float
    upper: float
    continuity: str = "continuous"

    def __post_init__(self):
        lower = float(self.lower)
        upper = float(self.upper)
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise ValueError("support bounds must be finite")
        if not lower < upper:
            raise ValueError("support requires lower < upper")
        if self.continuity not in CONTINUITY_KINDS:
            raise ValueError(f"continuity must be one of {CONTINUITY_KINDS}")
        if self.continuity == "discrete-integer":
            if lower != int(lower) or upper != int(upper):
                raise ValueError("discrete-integer support needs integer bounds")
        _freeze(self, "lower", lower)
        _freeze(self, "upper", upper)

    @property
    def range(self):
        if self.continuity == "discrete-integer":
            return self.upper - self.lower + 1.0
        return self.upper - self.lower

    @property
    def length(self):
        """Interval length M - m regardless of continuity."""
        return self.upper - self.lower

    @property
    def midpoint(self):
        return 0.5 * (self.lower + self.upper)

    @property
    def is_symmetric(self):
        return math.isclose(self.lower, -self.upper, rel_tol=0.0, abs_tol=1e-12 * max(1.0, abs(self.upper)))


@dataclass(frozen=True)
class DependencySummary:
    """The two summary constants of the dependence structure.

    ``mu`` is the mean degree of the dependency graph, ``sigma_bar`` the
    average (weighted) nonzero covariance and ``phi`` the average correlation.
    Either ``phi`` or ``sigma_bar`` may be ``None`` when only one form of the
    summary is known; both may also be p x p arrays holding one value per
    pair of statistics.
    """

    mu: float
    phi: float | np.ndarray | None = None
    sigma_bar: float | np.ndarray | None = None

    def __post_init__(self):
        mu = float(self.mu)
        if not math.isfinite(mu) or mu < 0:
            raise ValueError("mean degree mu must be finite and >= 0")
        _freeze(self, "mu", mu)
        if self.phi is None and self.sigma_bar is None:
            raise ValueError("need phi or sigma_bar (or both)")
        for name in ("phi", "sigma_bar"):
            value = getattr(self, name)
            if value is None:
                continue
            arr = np.asarray(value, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            _freeze(self, name, float(arr) if arr.ndim == 0 else _readonly_array(arr))
        if self.phi is not None:
            phi = np.asarray(self.phi)
            # Only the variance entries are sign-constrained: for a matrix of
            # per-pair values the off-diagonal entries describe covariances
            # between statistics, which may be negative along with 1 + mu*phi.
            inflation = 1.0 + mu * (np.diagonal(phi) if phi.ndim == 2 else phi)
            if np.any(inflation < -1e-12):
                raise ValueError("inconsistent summary: 1 + mu*phi < 0 implies a negative variance")


@dataclass(frozen=True)
class Partition:
    """Assignment of observation indices to clusters 1..K."""

    assignment: np.ndarray

    def __post_init__(self):
        labels = np.array(self.assignment, dtype=int)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("assignment must be a nonempty vector of cluster labels")
        k = int(labels.max(initial=0))
        if labels.min(initial=1) < 1 or k < 1:
            raise ValueError("cluster labels must lie in 1..K")
        sizes = np.bincount(labels, minlength=k + 1)[1:]
        if np.any(sizes == 0):
            missing = int(np.nonzero(sizes == 0)[0][0]) + 1
            raise ValueError(f"cluster {missing} is empty; labels must cover 1..K")
        labels.setflags(write=False)
        _freeze(self, "assignment", labels)

    @property
    def n(self):
        return self.assignment.size

    @property
    def n_clusters(self):
        return int(self.assignment.max())

    @property
    def cluster_sizes(self):
        return np.bincount(self.assignment, minlength=self.n_clusters + 1)[1:]

    def members(self, k):
        """Indices of the observations assigned to cluster k (1-based k)."""
        return np.nonzero(self.assignment == k)[0]


def check_cluster_count(n, K):
    """Raise the error ``sequential_partition(n, K)`` raises, without building it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= K <= n:
        raise ValueError(f"cluster count K={K} must satisfy 1 <= K <= n={n}")


def sequential_partition(n, K):
    """Split observations 1..n into K contiguous, near-equal blocks.

    Observation i (1-based) is assigned to cluster ceil(i*K/n), which makes
    the block sizes as equal as possible and is idempotent under
    re-application.
    """
    n = int(n)
    K = int(K)
    check_cluster_count(n, K)
    i = np.arange(1, n + 1, dtype=np.int64)
    labels = -(-i * K // n)  # ceil division on integers
    return Partition(labels)


@dataclass(frozen=True)
class ConfidenceSet:
    """A one-dimensional confidence set [lower, upper] at a given level."""

    lower: float
    upper: float
    level: float
    method: str
    range_source: str | None = "known"

    def __post_init__(self):
        lower = float(self.lower)
        upper = float(self.upper)
        if math.isnan(lower) or math.isnan(upper):
            raise ValueError("confidence endpoints must not be NaN")
        if lower > upper:
            raise ValueError("confidence set needs lower <= upper")
        if not 0.0 < float(self.level) < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if self.method not in CI_METHODS:
            raise ValueError(f"method must be one of {CI_METHODS}")
        if self.range_source is not None and self.range_source not in RANGE_SOURCES:
            raise ValueError(f"range_source must be one of {RANGE_SOURCES} or None")
        _freeze(self, "lower", lower)
        _freeze(self, "upper", upper)
        _freeze(self, "level", float(self.level))

    @property
    def width(self):
        return self.upper - self.lower

    def contains(self, value):
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class SampleSummary:
    n: int
    mean: float
    variance: float
    minimum: float
    maximum: float
    range: float


def summarize(sample):
    """Mean, unbiased variance, extrema and range of a sample.

    Raises for the single-observation case, where the n-1 variance is
    undefined.
    """
    if not isinstance(sample, Sample):
        sample = Sample(np.asarray(sample, dtype=float))
    values = sample.values
    if values.size == 1:
        raise ValueError("variance undefined for a single observation")
    return SampleSummary(
        n=int(values.size),
        mean=float(values.mean()),
        variance=float(values.var(ddof=1)),
        minimum=float(values.min()),
        maximum=float(values.max()),
        range=float(values.max() - values.min()),
    )
