"""Gaussian-copula sampling and the coverage experiments.

Dependent bounded samples are produced by pushing correlated standard
normals through marginal quantile functions (a Gaussian copula).  Three
experiment drivers reproduce the coverage tables:

* ``run_table1`` — Beta(10,10) means over an (n, phi) grid with an
  exchangeable correlation matrix,
* ``run_table2`` — Beta(shape, shape) means at n=500, phi=0.1, varying the
  shape (and hence the variance and the feasibility threshold),
* ``run_table3`` — a fixed-design regression with truncated-normal errors
  whose correlation mosaic is proportional to the intercept weight products.

All three score their replications with one coverage engine: a mean is the
intercept-only least-squares fit (X = 1, weight row 1/n).

Every replication r draws its normals from an independent counter-based
stream keyed by (master_seed, r).  The drivers loop, per n, over blocks of
at most ``block_rows(n)`` replications, BLOCK_VALUES values: a block's
normals are drawn once and read by every cell at that n, so grid cells
share common random numbers (table 2's shapes also share the normal-scale
block).  Each cell applies its correlation factor (a copy of the draw at
phi = 0) and its marginal's ``normal_map`` (for Beta and truncated-normal
marginals a normal-scale table from ``kernels``) and writes its
per-replication statistics (estimation errors, Wald cover flags, and the
residual range where a table reports it) into length-reps vectors, which
the cell reduces to its table rows after the last block.
Memory is two buffers of at most BLOCK_VALUES values each, the draw and the
factor's output, at every n (with a dense factor's pair of its own).
Every step is row-local, one output row from one input row by numpy's own
loops, so a replication's statistics depend neither on reps nor on the
block size, and a shorter run's are a bit-identical prefix of a longer
run's.  So a call's replications are split into WORKERS contiguous ranges,
scored at the same time by the caller and WORKERS - 1 forked worker
processes, each on two block buffers of its own: the cells' statistics (and
``copula_sample``'s draws) live in anonymous shared memory, which every
process writes its own rows of, and no bit depends on the count.  Every grid
correlation is
diag(1 - sign v^2) + sign v v^T (v = sqrt(|phi|) 1 for the exchangeable
tables, v proportional to the intercept weights, sign that of phi or phi*),
whose semiseparable factor takes one cumulative sum per row; a clipped
mosaic not repaired to the identity and a matrix passed to ``copula_sample``
take a dense Cholesky product, whose bits fix its rows' positions, so their
blocks are scored whole, in the caller, on a block_rows(n) x n product pair.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import mmap
import numbers
import os
import pickle
import signal
import warnings

import numpy as np
from scipy.special import ndtr

from densum.concentration import a5_from_sums, diagnostic_s, half_width, rule_of_thumb
from densum.core import SupportSpec, sequential_partition
from densum.estimators import _ExchangeableSandwich, _qr_weight_rows, wald_z
from densum.kernels import (
    NORMAL_MAP_BLOCK,
    beta_normal_map,
    beta_quantile,
    cholesky,
    clipped_normal_cdf,
    ensure_pd,
    rank_one_cholesky,
    seeded_normals,
    seeded_stream,
    truncnorm_normal_map,
    truncnorm_quantile,
    validate_correlation,
)

MARGINAL_FAMILIES = ("beta", "truncnormal", "uniform")

# The design draw for the regression experiment must never collide with a
# replication stream, so it lives far outside the replication index range.
DESIGN_STREAM_OFFSET = 2**32

# Values per block buffer (4 MiB of float64).  The drivers and
# ``copula_sample`` run block by block, ``block_rows(n)`` replications at a
# time, so no buffer holds more than BLOCK_VALUES values, whatever reps and
# n are.
BLOCK_VALUES = 2**19

# Replication ranges scored at once, the first by the caller and the rest by
# forked worker processes (``_score_blocks``): one per CPU this process may run
# on, at most 2, the largest count measured, where the OS can say which CPUs
# those are and can fork; 1 elsewhere.  No output bit depends on it, so it is
# derived.
WORKERS = (min(2, len(os.sched_getaffinity(0)))
           if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1)

TABLE1_GRID = {
    100: (0.0, 0.06, 0.1, 0.2),
    500: (0.0, 0.01, 0.05, 0.1),
    1500: (0.0, 0.004, 0.01, 0.02),
}
TABLE2_SHAPES = (10.0, 25.0, 50.0, 100.0)
TABLE3_NS = (100, 500, 1500)
TABLE3_PHIS = (0.0, 0.05, 0.1, 0.15)
TABLE3_BETA = np.array([20.0, 10.0])
TABLE3_SIGMA = 5.0  # the errors' scale: truncnormal(0, TABLE3_SIGMA, -20, 20)

# Every table's level is 1 - ALPHA; the MGF diagnostic's size c* is fixed per experiment.
ALPHA = 0.05
MEAN_C_STAR, REGRESSION_C_STAR = 10.0, 5.0


@dataclasses.dataclass(frozen=True)
class MarginalSpec:
    """A bounded one-dimensional marginal with a closed-form quantile.

    Families: beta(a, b) on [0, 1]; truncnormal(mu, sigma, lo, hi);
    uniform(lo, hi).  The coverage experiments require symmetric members
    (beta(a, a); truncation symmetric about mu), which are U variables.
    """

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in MARGINAL_FAMILIES:
            raise ValueError(f"family must be one of {MARGINAL_FAMILIES}")
        p = self.params
        if not all(map(math.isfinite, p)):
            raise ValueError(f"{self.family} parameters must be finite, got {p}")
        if self.family == "beta":
            if len(p) != 2 or p[0] <= 0 or p[1] <= 0:
                raise ValueError("beta needs two positive shape parameters")
        elif self.family == "truncnormal":
            if len(p) != 4 or p[1] <= 0 or p[2] >= p[3]:
                raise ValueError("truncnormal needs (mu, sigma>0, lo<hi)")
        else:
            if len(p) != 2 or p[0] >= p[1]:
                raise ValueError("uniform needs lo < hi")

    @classmethod
    def beta(cls, a, b):
        return cls(family="beta", params=(float(a), float(b)))

    @classmethod
    def truncnormal(cls, mu, sigma, lo, hi):
        return cls(family="truncnormal", params=(float(mu), float(sigma), float(lo), float(hi)))

    @classmethod
    def uniform(cls, lo, hi):
        return cls(family="uniform", params=(float(lo), float(hi)))

    @property
    def support(self):
        if self.family == "beta":
            return SupportSpec(0.0, 1.0)
        if self.family == "truncnormal":
            return SupportSpec(self.params[2], self.params[3])
        return SupportSpec(self.params[0], self.params[1])

    @property
    def mean(self):
        if self.family == "beta":
            a, b = self.params
            return a / (a + b)
        if self.family == "truncnormal":
            mu, sigma, lo, hi = self.params
            a, b = (lo - mu) / sigma, (hi - mu) / sigma
            pa, pb = _norm_pdf(a), _norm_pdf(b)
            z = ndtr(b) - ndtr(a)
            return mu + sigma * (pa - pb) / z
        lo, hi = self.params
        return 0.5 * (lo + hi)

    @property
    def variance(self):
        if self.family == "beta":
            a, b = self.params
            return a * b / ((a + b) ** 2 * (a + b + 1.0))
        if self.family == "truncnormal":
            mu, sigma, lo, hi = self.params
            a, b = (lo - mu) / sigma, (hi - mu) / sigma
            pa, pb = _norm_pdf(a), _norm_pdf(b)
            z = ndtr(b) - ndtr(a)
            shift = (pa - pb) / z
            return sigma * sigma * (1.0 + (a * pa - b * pb) / z - shift * shift)
        lo, hi = self.params
        return (hi - lo) ** 2 / 12.0

    @property
    def is_symmetric_u(self):
        if self.family == "beta":
            return self.params[0] == self.params[1]
        if self.family == "truncnormal":
            mu, _, lo, hi = self.params
            return math.isclose(mu - lo, hi - mu)
        return True

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if self.family == "beta":
            return beta_quantile(*self.params, u)
        if self.family == "truncnormal":
            return truncnorm_quantile(*self.params, u)
        lo, hi = self.params
        return lo + u * (hi - lo)

    def normal_map(self):
        """The Gaussian-copula transform quantile(Phi(x)) as an in-place
        function of a writable C-contiguous float64 array, with any setup
        (the normal-scale table) done on the first call: every call on one
        marginal returns the same map.

        Beta and truncated-normal marginals use the normal-scale maps
        ``beta_normal_map`` and ``truncnorm_normal_map``.  A uniform
        marginal takes quantile(Phi(x)) with Phi(x) clipped into
        [tiny, 1 - 2^-53] by ``clipped_normal_cdf``, so draws far in either
        tail map inside the support.
        """
        return self._normal_map

    @functools.cached_property
    def _normal_map(self):
        if self.family == "beta":
            return beta_normal_map(*self.params)
        if self.family == "truncnormal":
            return truncnorm_normal_map(*self.params)
        return self._uniform_of_phi

    def _uniform_of_phi(self, x):
        lo, hi = self.params
        u = clipped_normal_cdf(x)
        u *= hi - lo
        u += lo
        return u


def _norm_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _has_float_variance(shape):
    """Whether ``MarginalSpec`` computes Beta(shape, shape)'s variance,
    1/(4(2 shape + 1)), to float precision: an extreme shape under- or
    overflows the terms of its general formula."""
    try:
        variance = MarginalSpec.beta(shape, shape).variance
    except ArithmeticError:
        return False
    return variance > 0.0 and math.isclose(variance, 0.25 / (2.0 * shape + 1.0), rel_tol=1e-12)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one coverage experiment, all checked before any replication.

    ``n`` and ``phi`` (the exchangeable correlation for the mean tables, the
    mosaic scale phi* for the regression table) restrict the table's grid
    when set; ``shape`` restricts the table-2 shape grid.  A table 1-2 phi
    must keep the exchangeable matrix positive definite at each n the table
    runs.  The conventional comparator clusters the observations
    sequentially into n // 10 groups, so n must be at least 20.
    """

    table: int
    n: int | None = None
    phi: float | None = None
    shape: float | None = None
    reps: int = 2000
    master_seed: int = 0

    def __post_init__(self):
        if self.table not in (1, 2, 3):
            raise ValueError("table must be 1, 2 or 3")
        if not isinstance(self.reps, numbers.Integral) or self.reps < 1:
            raise ValueError(f"reps must be a positive integer, got {self.reps!r}")
        if self.n is not None and not isinstance(self.n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n is not None and self.n < 20:
            raise ValueError(f"n must be at least 20 (the Wald comparator needs "
                             f"n // 10 >= 2 clusters), got {self.n}")
        if self.table == 1 and self.n is not None and self.n not in TABLE1_GRID:
            raise ValueError(f"table 1 is defined for n in {tuple(TABLE1_GRID)}")
        for name in ("phi", "shape"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.shape is not None and self.table != 2:
            raise ValueError(f"shape sets table 2's Beta shapes; table {self.table} has none")
        if self.shape is not None and self.shape <= 0:
            raise ValueError(f"beta shape must be positive, got {self.shape}")
        if self.shape is not None and not _has_float_variance(self.shape):
            raise ValueError(f"beta shape {self.shape} is too extreme: the variance of "
                             f"Beta({self.shape}, {self.shape}) under- or overflows")
        for n in self.ns if self.phi is not None and self.table != 3 else ():
            _check_exchangeable(n, self.phi, "phi")
        if not isinstance(self.master_seed, numbers.Integral) or self.master_seed < 0:
            raise ValueError(f"master_seed must be a nonnegative integer, got {self.master_seed!r}")

    @property
    def ns(self):
        """The sample sizes the table runs: n if set, else its grid's."""
        return (self.n,) if self.n is not None else {1: tuple(TABLE1_GRID), 2: (500,),
                                                    3: TABLE3_NS}[self.table]


@dataclasses.dataclass(frozen=True, kw_only=True)
class CoverageReport:
    """One table row: average endpoints, coverage rates, MGF diagnostics.  Its
    fields are the results CSV's columns, in order (``write_results_csv``)."""

    table: int
    n: int
    phi: float
    alpha_shape: float | None = None
    threshold: float | None = None
    coefficient: str | None = None
    mean_lower: float
    mean_upper: float
    ci_wald: float
    ci_u: float
    ci_r: float | None
    a_hat: float
    av_star: float
    verdict: str
    seed: int = 0
    repair_lambda: float = 0.0

    def __post_init__(self):
        for rate in (self.ci_wald, self.ci_u, self.ci_r):
            if rate is not None and not 0.0 <= rate <= 1.0:
                raise ValueError("coverage rates must lie in [0, 1]")
        if self.mean_lower > self.mean_upper:
            raise ValueError("mean_lower must not exceed mean_upper")


RESULTS_VERSION = "# densum-results v1"


def _fmt(value):
    """A results-CSV field: a float to 6 significant digits, None empty."""
    return "" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)


def write_results_csv(rows, path):
    """Write CoverageReports as a results CSV: the version line, then one
    column per ``CoverageReport`` field, in field order."""
    names = [field.name for field in dataclasses.fields(CoverageReport)]
    with open(path, "w", newline="") as handle:
        handle.write(RESULTS_VERSION + "\n")
        writer = csv.writer(handle)
        writer.writerow(names)
        writer.writerows([_fmt(getattr(row, name)) for name in names] for row in rows)


def read_results_csv(path):
    """Read a results CSV back into a list of plain dicts (strings preserved)."""
    with open(path, newline="") as handle:
        if not handle.readline().startswith("#"):
            raise ValueError("missing version comment line")
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# correlation matrices and the copula sampler
# ---------------------------------------------------------------------------


def _check_exchangeable(n, rho, name="rho"):
    if not isinstance(n, numbers.Integral):  # refused, not truncated
        raise ValueError(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    if n > 1 and not -1.0 / (n - 1) < rho < 1.0:
        raise ValueError(f"{name} = {rho} needs -1/(n-1) = {-1.0 / (n - 1):.6f} < {name} < 1 "
                         f"for an exchangeable correlation at n = {n}")
    return n


def exchangeable_corr(n, rho):
    """Correlation matrix with unit diagonal and constant off-diagonal rho.

    Positive definiteness requires -1/(n-1) < rho < 1 (the smallest
    eigenvalue is 1 - rho, the largest 1 + (n-1) rho).
    """
    n = _check_exchangeable(n, rho)
    corr = np.full((n, n), float(rho))
    np.fill_diagonal(corr, 1.0)
    return corr


def _exchangeable_copula(n, rho):
    """``exchangeable_corr(n, rho)`` as ``_copula_factor`` takes it: the
    loading vector sqrt(|rho|) 1 and the sign of rho."""
    return np.full(_check_exchangeable(n, rho), math.sqrt(abs(rho))), -1 if rho < 0 else 1


def _table3_scale(phi_star, w1):
    """w1 as a float vector and the mosaic scale phi* n^2 / TABLE3_SIGMA^2, n = len(w1)."""
    w1 = np.asarray(w1, dtype=float).ravel()
    return w1, phi_star * w1.size * w1.size / (TABLE3_SIGMA * TABLE3_SIGMA)


def table3_corr(phi_star, w1):
    """Correlation mosaic for the regression experiment.

    Off-diagonal (i, j) is phi* n^2 w1_i w1_j / TABLE3_SIGMA^2, n the length
    of w1 — proportional to the product of the intercept weights — clipped
    to [-0.999, 0.999], with unit diagonal, then repaired to positive
    definiteness.  Returns (matrix, PDRepair); the repair's shrinkage is
    reported in result rows.
    """
    w1, scale = _table3_scale(phi_star, w1)
    corr = np.clip(scale * np.outer(w1, w1), -0.999, 0.999)
    np.fill_diagonal(corr, 1.0)
    return ensure_pd(corr)


def _table3_copula(phi_star, w1):
    """``table3_corr(phi_star, w1)`` as ``_copula_factor`` takes it:
    (v, sign, PDRepair) for diag(1 - sign v^2) + sign v v^T, v = sqrt(|s|) w1
    with s = phi* n^2 / TABLE3_SIGMA^2 and sign its sign, repaired by
    ``ensure_pd``; (table3_corr's dense matrix, 1, PDRepair) when
    table3_corr would clip an off-diagonal entry."""
    w1, scale = _table3_scale(phi_star, w1)
    top = np.sort(np.abs(w1))[-2:]  # the largest |off-diagonal| is |scale| * (top[0] * top[1])
    if w1.size > 1 and abs(scale) * (top[0] * top[1]) > 0.999:
        corr, repair = table3_corr(phi_star, w1)
        return corr, 1, repair
    sign = -1 if scale < 0 else 1
    v, repair = ensure_pd(math.sqrt(abs(scale)) * w1, sign)
    return v, sign, repair


def _copula_factor(corr, sign=1):
    """The normal-scale step of the copula for one correlation, factored and
    checked once: a function (z, x) that writes z times the transposed
    Cholesky factor into x (z and x are views of the same rows of one block,
    with as many columns as ``corr`` has rows; z is left as it was).

    A loading vector v stands for diag(1 - sign v^2) + sign v v^T and takes
    its semiseparable factor row by row, or for v = 0 (phi = 0) a copy of z
    (that factor's +-0 + z differs only in a zero's sign, which no marginal
    map sees).  A matrix must be square and symmetric with a unit diagonal;
    the identity takes the same copy, the comonotone matrix (all cells 1)
    repeats the first coordinate in every column, and any other matrix
    takes a dense product on a block_rows(n) x n pair of its own.
    """
    corr = np.asarray(corr, dtype=float)
    if not corr.size:
        raise ValueError("a correlation needs at least one variable")
    if corr.ndim == 1:
        d, g = rank_one_cholesky(corr, sign)  # checks v
        if not corr.any():
            return _identity_block
        return functools.partial(_rank_one_block, sign * corr, d, g)
    validate_correlation(corr)
    n = corr.shape[0]
    if np.count_nonzero(corr) == n and np.all(np.diagonal(corr) == 1.0):  # the identity
        return _identity_block
    if n > 1 and np.all(corr == 1.0):
        return _comonotone_block
    zb, xb = np.zeros((block_rows(n), n)), np.zeros((block_rows(n), n))
    return functools.partial(_dense_block, cholesky(corr).T, zb, xb)


def _rank_one_block(sv, d, g, z, x):
    """X_i = d_i Z_i + sv_i sum_{j<i} g_j Z_j with (d, g) from
    ``rank_one_cholesky(v, sign)`` and sv = sign v: one exclusive cumulative
    sum per row, so each row depends on its own draws alone."""
    x[:, 0] = 0.0
    tail = x[:, 1:]
    np.multiply(z[:, :-1], g[:-1], out=tail)
    np.cumsum(tail, axis=1, out=tail)
    x *= sv
    for rows, dz in _row_chunks(*z.shape):
        np.add(x[rows], np.multiply(z[rows], d, out=dz), out=x[rows])


def _row_chunks(rows, n):
    """A rows x n block's rows as consecutive slices, each with a temporary of
    its shape: at most NORMAL_MAP_BLOCK values, but at least one row."""
    step = max(1, NORMAL_MAP_BLOCK // n)
    temporary = np.empty((min(rows, step), n))
    for start in range(0, rows, step):
        chunk = slice(start, min(start + step, rows))
        yield chunk, temporary[:chunk.stop - start]


def _dense_block(LT, zb, xb, z, x):
    """z @ L^T into x through the fixed block_rows(n) x n pair (zb, xb): the
    BLAS product's shape is the same whatever the block's length is, and
    row i of a whole block sits at row i of the pair, so every row's bits
    are the same too (``_score_blocks`` hands a dense factor whole blocks)."""
    zb[:len(z)] = z
    np.matmul(zb, LT, out=xb)
    x[...] = xb[:len(z)]


def _comonotone_block(z, x):
    x[...] = z[:, :1]


def _identity_block(z, x):
    np.copyto(x, z)


def copula_sample(corr, marginal, reps, seed):
    """Draw a reps x n outcome matrix from a Gaussian copula, n the size of
    ``corr``.

    Row r is marginal.normal_map() applied to L z_r, with L the Cholesky
    factor of the correlation and z_r standard normal from the
    counter-based stream (seed, r) — deterministic per replication, whatever
    the scheduling.  A matrix that takes the dense product (see
    ``_copula_factor``) keeps this only for a fixed OpenBLAS thread count:
    at n = 500 and 1500 both its Cholesky factor and the product move with
    that count, so a row-local product alone would not pin them.

    ``corr`` (n >= 1) is either a length-n loading vector v, standing for
    the correlation diag(1 - v^2) + v v^T (it must be finite, and positive
    definite by ``rank_one_cholesky``), or an n x n matrix that is symmetric
    with a unit diagonal (see ``_copula_factor``).  The draw runs in the
    coverage drivers' block loop, ``_score_blocks``, so a shorter run is a
    bit-identical prefix of a longer one and a single replication drawn
    alone equals its row in a batch.
    """
    if not isinstance(reps, numbers.Integral) or reps < 0:
        raise ValueError(f"reps must be a nonnegative integer, got {reps!r}")
    reps = int(reps)
    factor = _copula_factor(corr)
    n = np.shape(corr)[0]
    to_marginal = marginal.normal_map()
    Y = _shared((reps, n))

    def store(start, x):
        Y[start:start + x.shape[0]] = to_marginal(x)

    _score_blocks(n, reps, seed, [(factor, [store])])
    return Y


# ---------------------------------------------------------------------------
# the blocked coverage engine and the experiment drivers
# ---------------------------------------------------------------------------


class _Cell:
    """One coverage cell: the least-squares fit beta_hat = W y on the design X
    of y = X beta + eps, with errors eps = marginal.normal_map()(draw) -
    marginal.mean.

    The sandwich's design side over n // 10 sequential clusters is built here
    once; ``add`` fills the cell's length-reps statistics, the estimation
    errors eps W^T (reps x p), the Wald comparator's cover flags (reps x p)
    and, with ``ranges`` (the regression rows report it, the mean rows not),
    the pooled residual range (reps), in shared memory (``_score_blocks``'
    workers write their rows of them); ``rows`` reduces them to the report.
    ``fields`` fill the report's remaining columns.
    """

    def __init__(self, X, W, marginal, config, beta, c_star, names, ranges=True, **fields):
        n, p = X.shape
        self.W, self.marginal, self.to_marginal = W, marginal, marginal.normal_map()
        self.beta, self.c_star, self.names = beta, c_star, names
        self.fields = dict(fields, seed=config.master_seed)
        self.shift = marginal.mean
        self.Wc, self.XT = np.ascontiguousarray(W), np.ascontiguousarray(X.T)
        self.sandwich = _ExchangeableSandwich(X, sequential_partition(n, n // 10))
        self.z = wald_z(ALPHA)
        self.err, self.covered_wald = _shared((config.reps, p)), _shared((config.reps, p), bool)
        self.rhat = _shared(config.reps) if ranges else None

    def add(self, start, eps):
        """Score replications start, start + 1, ... from their normal-scale
        block eps, one row each (overwritten with the residuals).  The
        least-squares products are einsum's loops, one output row from one
        input row, so each replication's statistics do not depend on reps or
        on the block size."""
        resid = self.to_marginal(eps)
        if self.shift != 0.0:  # x - 0.0 is x, -0.0 and NaN included
            resid -= self.shift
        err = np.einsum("rn,pn->rp", resid, self.Wc)
        for rows, fitted in _row_chunks(*resid.shape):
            np.einsum("rp,pn->rn", err[rows], self.XT, out=fitted)
            np.subtract(resid[rows], fitted, out=resid[rows])
        vcov, _ = self.sandwich(resid)
        done = slice(start, start + resid.shape[0])
        self.err[done] = err
        self.covered_wald[done] = np.abs(err) <= self.z * np.sqrt(
            np.diagonal(vcov, axis1=1, axis2=2)
        )
        if self.rhat is not None:
            self.rhat[done] = np.max(resid, axis=1) - np.min(resid, axis=1)

    def rows(self):
        """One CoverageReport per coefficient, reduced from the cell's statistics.

        A mean is the intercept-only case: X = 1, W = 1/n.  Per coefficient: the
        conventional Wald comparator (exchangeable sandwich over n // 10
        sequential clusters), the known-range set ``half_width`` of
        R sqrt(sum w^2), its residual-range plug-in ``ci_r`` (the pooled residual
        range standing in for R, scaled by ||w_s|| as the paper's table 3 does;
        None when the cell kept no range) and the MGF diagnostic at
        ``diagnostic_s``.
        """
        W, support = self.W, self.marginal.support
        R, M = support.range, support.length / 2.0
        sum_w2 = np.sum(W * W, axis=1)
        B = self.beta[None, :] + self.err
        rows = []
        for s_idx, name in enumerate(self.names):
            err = self.err[:, s_idx]
            abs_err = np.abs(err)
            norm = math.sqrt(sum_w2[s_idx])
            half_u = half_width(R * norm, ALPHA)
            s = diagnostic_s(M, self.c_star, sum_w2[s_idx], ALPHA)
            report = a5_from_sums(err, W[s_idx], s, M)
            rows.append(CoverageReport(
                n=W.shape[1],
                mean_lower=float(np.mean(B[:, s_idx]) - half_u),
                mean_upper=float(np.mean(B[:, s_idx]) + half_u),
                ci_wald=float(np.mean(self.covered_wald[:, s_idx])),
                ci_u=float(np.mean(abs_err <= half_u)),
                ci_r=None if self.rhat is None else float(
                    np.mean(abs_err <= half_width(self.rhat * norm, ALPHA))),
                a_hat=report.a_hat,
                av_star=report.av_star,
                verdict=report.verdict,
                coefficient=name,
                **self.fields,
            ))
        return rows


def block_rows(n):
    """Replications per block at n: as many n-value rows as BLOCK_VALUES
    holds, at least one."""
    return max(1, BLOCK_VALUES // n)


def _parts(reps):
    """Replications 0 .. reps - 1 as min(WORKERS, reps) contiguous slices
    whose lengths differ by at most one, the longer ones first."""
    count = min(WORKERS, reps)
    size, extra = divmod(reps, count)
    stops = [k * size + min(k, extra) for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(stops, stops[1:])]


def _shared(shape, dtype=float):
    """A zero-filled array in anonymous shared memory, so the writes of a
    worker process that ``_score_blocks`` forks reach the caller."""
    dtype, count = np.dtype(dtype), int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, max(1, count * dtype.itemsize)), dtype,
                         count).reshape(shape)


def _score_blocks(n, reps, seed, groups):
    """The block loop at one n.  ``groups`` pairs each ``_copula_factor``
    with the consumers that share its normal-scale block: callables
    (start, x) such as ``_Cell.add``, x holding replications start,
    start + 1, ... one per row, which may overwrite x.  Per block the normals
    are drawn once into z (row r from the counter-based stream (seed, r)),
    and each factor is applied once, from z into x.  Only the last group may
    have more than one consumer: each but its last gets a copy of x in z,
    which no factor reads again, and the last takes x itself.  Memory is
    two buffers per process, z and x, of at most block_rows(n) x n values,
    so at most BLOCK_VALUES each (a dense factor adds its block_rows(n) x n
    pair).

    The replications are split into WORKERS contiguous ranges (``_parts``):
    the caller scores the first, and a worker process forked for each other
    range scores that one, each on two buffers of its own.  So a consumer's
    writes reach the caller only through shared memory (``_shared``): the
    cells' statistics and ``copula_sample``'s draws live there, and whatever
    else a consumer writes stays in its own process.  Since every step is
    row-local, no bit depends on the split.  The caller forks nothing, and
    cProfile and tracemalloc see the whole call, when WORKERS is 1, when a
    factor is dense (its product's bits depend on its rows' positions in its
    fixed pair, and OpenBLAS's threaded product already uses both CPUs, so
    ranges cut at whole blocks keep the bits but run slower) or when the
    draw fits in one block (reps * n <= BLOCK_VALUES).

    A worker's exception reaches the caller with its type and message, and
    its warnings are issued again in the caller, under the caller's filters
    (a filter that turns them into errors already did so in the worker,
    which inherits the caller's filters and numpy error state).  The first
    range's failure is raised, the caller's own first; on any failure or
    interrupt in the caller the workers are killed.  Every worker is reaped
    before the call returns or raises.  On Python 3.12 and later, os.fork
    issues a DeprecationWarning when the process has more than one OS
    thread, so the first fork of a process does warn: after the imports,
    numpy's and scipy's OpenBLAS pools make three threads.  OpenBLAS stops
    its pools at a fork and restarts them at its next threaded call.  The
    warning is attributed to this module, so Python's default filters hide
    it.  The fork is safe here: no lock of those pools survives into the
    worker, which runs only numpy and its pipe before os._exit."""
    if any(len(consumers) > 1 for _, consumers in groups[:-1]):
        raise ValueError("only the last group may share its factor: its copies overwrite the draw")
    size = block_rows(n)

    def score(part):
        shape = (min(part.stop - part.start, size), n)
        z_buf, x_buf = np.empty(shape), np.empty(shape)
        for start in range(part.start, part.stop, size):
            rows = min(size, part.stop - start)
            z, x = z_buf[:rows], x_buf[:rows]
            seeded_normals(seed, start, z)
            for factor, consumers in groups:
                factor(z, x)
                for consume in consumers[:-1]:
                    np.copyto(z, x)
                    consume(start, z)
                consumers[-1](start, x)

    dense = any(getattr(factor, "func", None) is _dense_block for factor, _ in groups)
    head, *rest = [slice(0, reps)] if dense or reps * n <= BLOCK_VALUES else _parts(reps)
    workers = []
    try:
        for part in rest:
            workers.append(_Worker(score, part))
        score(head)
        for worker in workers:
            worker.receive()
    except BaseException:
        for worker in workers:
            worker.kill()
        raise
    finally:
        for worker in workers:
            worker.reap()
    for worker in workers:
        worker.relay()


class _Worker:
    """A forked process that runs score(part) and sends back, pickled through
    a pipe, its exception (None on success) and the warnings it recorded,
    then leaves by os._exit.  The caller ``receive``s that report, ``reap``s
    the process and ``relay``s the report, or ``kill``s the process first."""

    def __init__(self, score, part):
        self.part = part
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(read_fd)
            _worker_main(score, part, write_fd)
        os.close(write_fd)
        self.pipe = os.fdopen(read_fd, "rb")

    def receive(self):
        self.report = self.pipe.read()  # to end of file: the worker has reported or died

    def kill(self):
        os.kill(self.pid, signal.SIGKILL)  # not yet reaped, so the pid is still its

    def reap(self):
        self.pipe.close()
        self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])

    def relay(self):
        if not self.report:
            raise ChildProcessError(f"the worker scoring replications {self.part.start} to "
                                    f"{self.part.stop - 1} exited with status {self.status} "
                                    f"before it reported")
        error, caught = pickle.loads(self.report)
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if error is not None:
            raise error


def _worker_main(score, part, write_fd):
    """A worker process's whole life: score(part), report to write_fd, exit."""
    status = 1
    try:
        error = None
        with warnings.catch_warnings(record=True) as caught:
            try:
                score(part)
            except BaseException as exc:  # KeyboardInterrupt too: the caller reports it
                error = exc
        report = pickle.dumps((error, [(str(w.message), w.category, w.filename, w.lineno)
                                       for w in caught]))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(report)
        status = 0
    finally:
        os._exit(status)


def _run_cells(n, config, groups):
    """Score ``groups``, pairs of a ``_copula_factor`` and the cells that share
    its normal-scale block, in one block loop at n, and return their cells'
    rows in order."""
    _score_blocks(n, config.reps, config.master_seed,
                  [(factor, [cell.add for cell in cells]) for factor, cells in groups])
    return [row for _, cells in groups for cell in cells for row in cell.rows()]


def _mean_cell(n, marginal, config, **fields):
    """A mean cell (tables 1-2) as the intercept-only fit: X = 1, W = 1/n, the
    marginal mean as the truth, no residual range, and as its threshold the
    feasibility bound divided by n - 1."""
    W = np.full((1, n), 1.0 / n)
    bound = rule_of_thumb(W[0], marginal.variance, marginal.support.range)
    return _Cell(np.ones((n, 1)), W, marginal, config, np.array([marginal.mean]), MEAN_C_STAR,
                 (None,), ranges=False, threshold=bound / (n - 1), **fields)


def run_table1(config):
    """Beta(10,10) mean coverage over the (n, phi) grid.

    ``config.n`` / ``config.phi`` restrict the grid; a phi override outside
    the standard grid runs as its own cell (``ExperimentConfig`` has checked
    that it keeps the exchangeable matrix positive definite).
    """
    marginal = MarginalSpec.beta(10, 10)
    rows = []
    for n in config.ns:
        phis = (config.phi,) if config.phi is not None else TABLE1_GRID[n]
        rows += _run_cells(n, config, [
            (_copula_factor(*_exchangeable_copula(n, phi)),
             [_mean_cell(n, marginal, config, table=1, phi=phi)])
            for phi in phis])
    return rows


def run_table2(config):
    """Beta(shape, shape) mean coverage at n=500, phi=0.1, over the shape grid.

    The threshold column is the feasibility bound divided by n - 1: the
    exchangeable correlation beyond which the diagnostic predicts breakdown.
    The shapes share one correlation, so they share each block's
    normal-scale draw and differ only in the marginal map.
    """
    (n,) = config.ns
    phi = config.phi if config.phi is not None else 0.1
    shapes = (config.shape,) if config.shape is not None else TABLE2_SHAPES
    cells = [_mean_cell(n, MarginalSpec.beta(shape, shape), config, table=2, phi=phi,
                        alpha_shape=float(shape)) for shape in shapes]
    return _run_cells(n, config, [(_copula_factor(*_exchangeable_copula(n, phi)), cells)])


def table3_design(n, master_seed):
    """The fixed regressor draw for the regression experiment.

    t is drawn once per (n, master_seed) from truncnormal(1, 1, -5, 5) on a
    stream disjoint from every replication stream, then reused across all
    replications and phi* values at that n.
    """
    n = _check_exchangeable(n, 0.0)  # an integer n >= 1
    stream = seeded_stream(master_seed, DESIGN_STREAM_OFFSET + n)
    u = ndtr(stream.standard_normal(n))  # open-interval uniforms
    t = truncnorm_quantile(1.0, 1.0, -5.0, 5.0, u)
    return np.column_stack([np.ones(n), t])


def run_table3(config):
    """Regression coverage: y = 20 + 10 t + eps over the (n, phi*) grid.

    Per cell: errors are truncnormal(0, 5, -20, 20) under the intercept-weight
    correlation mosaic; each replication is fit by least squares; coverage is
    recorded for the conventional Wald comparator, the known-range confidence
    set (R = 40), and the residual-range plug-in (the pooled residual range
    standing in for 2M).  One report row per coefficient per cell.
    """
    marginal = MarginalSpec.truncnormal(0.0, TABLE3_SIGMA, -20.0, 20.0)
    phis = (config.phi,) if config.phi is not None else TABLE3_PHIS
    rows = []
    for n in config.ns:
        X = table3_design(n, config.master_seed)
        W = _qr_weight_rows(X)
        copulas = [_table3_copula(phi_star, W[0]) for phi_star in phis]
        rows += _run_cells(n, config, [
            (_copula_factor(corr, sign),
             [_Cell(X, W, marginal, config, TABLE3_BETA, REGRESSION_C_STAR,
                    ("beta0", "beta1"), table=3, phi=phi_star, repair_lambda=repair.lam)])
            for phi_star, (corr, sign, repair) in zip(phis, copulas)])
    return rows


def run_table(config):
    """Dispatch a config to its table driver."""
    return {1: run_table1, 2: run_table2, 3: run_table3}[config.table](config)
