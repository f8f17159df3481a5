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
stream keyed by (master_seed, r); the drivers draw them once per n
(``standard_normals``) and every cell at that n reads the same matrix, so
grid cells share common random numbers.  Every grid correlation is
diag(1 - v^2) + v v^T (v = sqrt(phi) 1 for the exchangeable tables, v
proportional to the intercept weights for the mosaic), and ``copula_sample``
applies its semiseparable factor row by row with one cumulative sum: a
shorter run is then a bit-identical prefix of a longer one, and any single
replication can be reproduced alone.  Other matrices take a dense Cholesky
product in fixed-size row blocks, which keeps the prefix property only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from densum.concentration import a5_empirical, optimal_s, rule_of_thumb
from densum.core import SupportSpec, sequential_partition
from densum.estimators import _exchangeable_sandwich, _qr_weight_rows
from densum.kernels import (
    NORMAL_MAP_BLOCK,
    beta_from_normal,
    beta_quantile,
    cholesky,
    ensure_pd,
    rank_one_cholesky,
    rank_one_ensure_pd,
    seeded_stream,
    std_normal_quantile,
    truncnorm_quantile,
    validate_correlation,
)

MARGINAL_FAMILIES = ("beta", "truncnormal", "uniform")

# The design draw for the regression experiment must never collide with a
# replication stream, so it lives far outside the replication index range.
DESIGN_STREAM_OFFSET = 2**32

# The open unit interval's float ends, for copula probabilities Phi(x).
_TINY = np.finfo(float).tiny
_BELOW_ONE = np.nextafter(1.0, 0.0)

# Replications per block of the copula's normal-scale arithmetic.  The dense
# product pads its last block with zeros, so every matrix product has this
# many rows whatever reps is.
COPULA_BLOCK_ROWS = 256

TABLE1_GRID = {
    100: (0.0, 0.06, 0.1, 0.2),
    500: (0.0, 0.01, 0.05, 0.1),
    1500: (0.0, 0.004, 0.01, 0.02),
}
TABLE2_SHAPES = (10.0, 25.0, 50.0, 100.0)
TABLE3_NS = (100, 500, 1500)
TABLE3_PHIS = (0.0, 0.05, 0.1, 0.15)
TABLE3_BETA = np.array([20.0, 10.0])


@dataclass(frozen=True)
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

    def from_normal(self, x):
        """The Gaussian-copula transform quantile(Phi(x)) of normal draws x.

        Overwrites x when it is a writable C-contiguous float64 array (any
        other input is copied first) and returns it.  Beta marginals use the
        normal-scale map ``beta_from_normal``.  The other families take
        quantile(Phi(x)) with Phi(x) clipped into [tiny, 1 - 2^-53], so draws
        far in either tail (Phi rounds to 1 from x = 8.3 and to 0 below about
        -38) map inside the support; they run in place over blocks of
        NORMAL_MAP_BLOCK values, with the same operations as
        ``quantile(clip(ndtr(x)))`` and so the same values.
        """
        x = np.require(x, float, ("C", "W"))
        if self.family == "beta":
            return beta_from_normal(*self.params, x)
        flat = x.reshape(-1)
        for start in range(0, flat.size, NORMAL_MAP_BLOCK):
            u = flat[start:start + NORMAL_MAP_BLOCK]
            ndtr(u, out=u)
            np.clip(u, _TINY, _BELOW_ONE, out=u)
            if self.family == "truncnormal":
                truncnorm_quantile(*self.params, u, out=u)
            else:
                lo, hi = self.params
                u *= hi - lo
                u += lo
        return x


def _norm_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one coverage experiment.

    ``n`` and ``phi`` (the exchangeable correlation for the mean tables, the
    mosaic scale phi* for the regression table) restrict the table's grid
    when set; ``shape`` restricts the table-2 shape grid.  ``c_star``
    controls the diagnostic exponential's size (defaults: 10 for means, 5
    for regressions).  The conventional comparator always clusters the
    observations sequentially into n // 10 groups.
    """

    table: int
    n: int | None = None
    phi: float | None = None
    shape: float | None = None
    reps: int = 2000
    alpha: float = 0.05
    c_star: float | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.table not in (1, 2, 3):
            raise ValueError("table must be 1, 2 or 3")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class CoverageReport:
    """One table row: average endpoints, coverage rates, MGF diagnostics."""

    table: int
    n: int
    phi: float
    mean_lower: float
    mean_upper: float
    ci_wald: float
    ci_u: float
    ci_r: float | None
    a_hat: float
    av_star: float
    a5_verdict: str
    alpha_shape: float | None = None
    threshold: float | None = None
    coefficient: str | None = None
    seed: int = 0
    repair_lambda: float = 0.0

    def __post_init__(self):
        for rate in (self.ci_wald, self.ci_u, self.ci_r):
            if rate is not None and not 0.0 <= rate <= 1.0:
                raise ValueError("coverage rates must lie in [0, 1]")
        if self.mean_lower > self.mean_upper:
            raise ValueError("mean_lower must not exceed mean_upper")


# ---------------------------------------------------------------------------
# correlation matrices and the copula sampler
# ---------------------------------------------------------------------------


def _check_exchangeable(n, rho):
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    if n > 1 and not -1.0 / (n - 1) < rho < 1.0:
        raise ValueError(
            f"exchangeable correlation needs -1/(n-1) = {-1.0 / (n - 1):.6f} < rho < 1"
        )
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
    """``exchangeable_corr(n, rho)`` as ``copula_sample`` takes it: the
    loading vector sqrt(rho) 1 when rho >= 0, the matrix otherwise (a
    negative constant correlation has no real rank-one form)."""
    if rho < 0:
        return exchangeable_corr(n, rho)
    return np.full(_check_exchangeable(n, rho), math.sqrt(rho))


def table3_corr(phi_star, w1, sigma=5.0, n=None):
    """Correlation mosaic for the regression experiment.

    Off-diagonal (i, j) is phi* n^2 w1_i w1_j / sigma^2 — proportional to the
    product of the intercept weights — clipped to [-0.999, 0.999], with unit
    diagonal, then repaired to positive definiteness.  Returns
    (matrix, PDRepair); the repair's shrinkage is reported in result rows.
    """
    w1 = np.asarray(w1, dtype=float).ravel()
    size = w1.shape[0] if n is None else int(n)
    if size != w1.shape[0]:
        raise ValueError("n disagrees with the weight row length")
    scale = phi_star * size * size / (sigma * sigma)
    corr = np.clip(scale * np.outer(w1, w1), -0.999, 0.999)
    np.fill_diagonal(corr, 1.0)
    return ensure_pd(corr)


def _table3_copula(phi_star, w1, sigma):
    """``table3_corr(phi_star, w1, sigma)`` as ``copula_sample`` takes it:
    (loading vector, PDRepair) for the mosaic diag(1 - v^2) + v v^T with
    v = sqrt(phi* n^2 / sigma^2) w1, repaired by ``rank_one_ensure_pd``.
    A negative phi* (no real rank-one form) or a mosaic with an off-diagonal
    entry that table3_corr would clip gets table3_corr's dense matrix."""
    w1 = np.asarray(w1, dtype=float).ravel()
    n = w1.shape[0]
    scale = phi_star * n * n / (sigma * sigma)
    top = np.sort(np.abs(w1))[-2:]  # the largest |off-diagonal| is scale * (top[0] * top[1])
    if scale < 0 or (n > 1 and scale * (top[0] * top[1]) > 0.999):
        return table3_corr(phi_star, w1, sigma)
    return rank_one_ensure_pd(math.sqrt(scale) * w1)


def standard_normals(n, reps, seed):
    """The copula's reps x n standard normals, read-only.

    Row r comes from the counter-based stream (seed, r), so it is the same
    whatever reps is and whatever else is drawn.
    """
    Z = np.empty((int(reps), int(n)))
    for r in range(Z.shape[0]):
        Z[r] = seeded_stream(seed, r).standard_normal(Z.shape[1])
    Z.flags.writeable = False
    return Z


def _rank_one_normals(v, Z):
    """Rows of Z times the semiseparable factor of diag(1 - v^2) + v v^T:
    X_i = d_i Z_i + v_i sum_{j<i} g_j Z_j, one exclusive cumulative sum per
    row, so each row depends on its own draws alone."""
    d, g = rank_one_cholesky(v)
    X = np.empty(Z.shape)
    X[:, 0] = 0.0
    buf = np.empty((min(COPULA_BLOCK_ROWS, Z.shape[0]), Z.shape[1]))
    for start in range(0, Z.shape[0], COPULA_BLOCK_ROWS):
        z, x = Z[start:start + COPULA_BLOCK_ROWS], X[start:start + COPULA_BLOCK_ROWS]
        tail = x[:, 1:]
        np.multiply(z[:, :-1], g[:-1], out=tail)
        np.cumsum(tail, axis=1, out=tail)
        x *= v
        dz = np.multiply(z, d, out=buf[:z.shape[0]])
        x += dz
    return X


def _dense_normals(corr, Z):
    """Rows of Z times the Cholesky factor of ``corr``, in row blocks of
    COPULA_BLOCK_ROWS with the last one zero-padded: every product has the
    same shape, so a shorter run is a bit-identical prefix of a longer one.
    A single row drawn alone may still differ in the last bits."""
    LT = cholesky(corr).T
    reps, n = Z.shape
    X = np.empty((reps, n))
    pad = np.zeros((COPULA_BLOCK_ROWS, n))
    for start in range(0, reps, COPULA_BLOCK_ROWS):
        z = Z[start:start + COPULA_BLOCK_ROWS]
        if z.shape[0] == COPULA_BLOCK_ROWS:
            np.matmul(z, LT, out=X[start:start + COPULA_BLOCK_ROWS])
        else:
            pad[:z.shape[0]] = z
            X[start:] = (pad @ LT)[:z.shape[0]]
    return X


def copula_sample(corr, marginal, n, reps, seed, normals=None):
    """Draw a reps x n outcome matrix from a Gaussian copula.

    Row r is marginal.from_normal(L z_r) with L the Cholesky factor of the
    correlation and z_r standard normal from the counter-based stream
    (seed, r) — deterministic per replication, whatever the scheduling.
    ``normals``, when given, is that draw, ``standard_normals(n, reps,
    seed)``, made once by a caller that shares it across cells; it is only
    read.

    ``corr`` is either a length-n loading vector v, standing for the
    correlation diag(1 - v^2) + v v^T (it must be finite, and positive
    definite by ``rank_one_cholesky``), or an n x n matrix that is symmetric
    with a unit diagonal.  A vector row is one O(n) cumulative sum and
    depends on z_r alone.  A matrix takes a dense product in fixed-size row
    blocks, which keeps a shorter run a prefix of a longer one but not a
    single replication bit-identical to its row in a batch.  A comonotone
    matrix (all cells 1) is handled directly, since it is singular: every
    column repeats the first coordinate.
    """
    corr = np.asarray(corr, dtype=float)
    n = int(n)
    reps = int(reps)
    if corr.ndim == 1:
        if corr.shape != (n,):
            raise ValueError(f"loading vector must have length {n}, got {corr.shape[0]}")
    elif corr.shape != (n, n):
        raise ValueError(f"correlation matrix must be {n} x {n}, got {corr.shape}")
    else:
        validate_correlation(corr)
    Z = standard_normals(n, reps, seed) if normals is None else normals
    if Z.shape != (reps, n):
        raise ValueError(f"normals must be {reps} x {n}, got {Z.shape}")
    if corr.ndim == 1:
        X = _rank_one_normals(corr, Z)
    elif n > 1 and np.all(corr == 1.0):
        X = np.repeat(Z[:, :1], n, axis=1)
    else:
        X = _dense_normals(corr, Z)
    del Z  # frees a draw made here before the transform
    return marginal.from_normal(X)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def _coverage_rows(X, W, beta, eps, support, alpha, c_star, names, **fields):
    """One CoverageReport per coefficient of the least-squares fit beta_hat = W y.

    ``eps`` holds one error vector per replication (reps x n), so the
    estimation errors are eps W^T and the residuals eps - (eps W^T) X^T.  A
    mean is the intercept-only case: X = 1, W = 1/n.  Per coefficient: the
    conventional Wald comparator (exchangeable sandwich over n // 10
    sequential clusters), the known-range set R sqrt(sum w^2)
    sqrt(log(2/alpha)/6), its residual-range plug-in (the pooled residual
    range standing in for 2M) and the MGF diagnostic.  ``fields`` fill the
    remaining report columns and take precedence (``ci_r=None`` drops the
    plug-in).
    """
    n = X.shape[0]
    R = support.range
    M = support.length / 2.0
    root_log = math.sqrt(math.log(2.0 / alpha) / 6.0)
    sum_w2 = np.sum(W * W, axis=1)
    err = eps @ W.T
    B = beta[None, :] + err
    fitted = err @ X.T
    resid = np.subtract(eps, fitted, out=fitted)
    vcov, _ = _exchangeable_sandwich(X, resid, sequential_partition(n, n // 10))
    z = std_normal_quantile(1.0 - alpha / 2.0)
    covered_wald = np.abs(err) <= z * np.sqrt(np.diagonal(vcov, axis1=1, axis2=2))
    rhat = np.max(resid, axis=1) - np.min(resid, axis=1)
    rows = []
    for s_idx, name in enumerate(names):
        abs_err = np.abs(err[:, s_idx])
        half_u = R * math.sqrt(sum_w2[s_idx]) * root_log
        half_r = rhat * math.sqrt(sum_w2[s_idx]) * root_log
        s_diag = optimal_s(
            theorem="diagnostic", M=M, c_star=c_star, sum_w2=sum_w2[s_idx], alpha=alpha
        )
        report = a5_empirical(eps, W[s_idx], s_diag, M)
        row = dict(
            n=n,
            mean_lower=float(np.mean(B[:, s_idx]) - half_u),
            mean_upper=float(np.mean(B[:, s_idx]) + half_u),
            ci_wald=float(np.mean(covered_wald[:, s_idx])),
            ci_u=float(np.mean(abs_err <= half_u)),
            ci_r=float(np.mean(abs_err <= half_r)),
            a_hat=report.a_hat,
            av_star=report.av_star,
            a5_verdict=report.verdict,
            coefficient=name,
        )
        rows.append(CoverageReport(**{**row, **fields}))
    return rows


def _mean_cell(table, n, phi, marginal, config, Z, alpha_shape=None):
    """One (n, phi) cell of a mean-coverage experiment: the intercept-only fit
    on the shared normals Z of its n."""
    eps = copula_sample(
        _exchangeable_copula(n, phi), marginal, n, config.reps, config.master_seed, normals=Z
    )
    eps -= marginal.mean
    W = np.full((1, n), 1.0 / n)
    bound = rule_of_thumb(W[0], marginal.variance, marginal.support.range)
    c_star = config.c_star if config.c_star is not None else 10.0
    (row,) = _coverage_rows(
        np.ones((n, 1)), W, np.array([marginal.mean]), eps, marginal.support, config.alpha,
        c_star, names=(None,), table=table, phi=phi, seed=config.master_seed,
        alpha_shape=alpha_shape, threshold=bound / (n - 1), ci_r=None,
    )
    return row


def run_table1(config):
    """Beta(10,10) mean coverage over the (n, phi) grid.

    ``config.n`` / ``config.phi`` restrict the grid; a phi override outside
    the standard grid runs as its own cell (it must keep the exchangeable
    matrix positive definite).
    """
    marginal = MarginalSpec.beta(10, 10)
    rows = []
    ns = (config.n,) if config.n is not None else tuple(TABLE1_GRID)
    for n in ns:
        if n not in TABLE1_GRID:
            raise ValueError(f"table 1 is defined for n in {tuple(TABLE1_GRID)}")
        phis = (config.phi,) if config.phi is not None else TABLE1_GRID[n]
        Z = standard_normals(n, config.reps, config.master_seed)
        for phi in phis:
            rows.append(_mean_cell(1, n, phi, marginal, config, Z))
    return rows


def run_table2(config):
    """Beta(shape, shape) mean coverage at n=500, phi=0.1, over the shape grid.

    The threshold column is the feasibility bound divided by n - 1: the
    exchangeable correlation beyond which the diagnostic predicts breakdown.
    """
    n = config.n if config.n is not None else 500
    phi = config.phi if config.phi is not None else 0.1
    shapes = (config.shape,) if config.shape is not None else TABLE2_SHAPES
    if any(shape <= 0 for shape in shapes):
        raise ValueError("beta shape must be positive")
    Z = standard_normals(n, config.reps, config.master_seed)
    rows = []
    for shape in shapes:
        marginal = MarginalSpec.beta(shape, shape)
        rows.append(_mean_cell(2, n, phi, marginal, config, Z, alpha_shape=float(shape)))
    return rows


def table3_design(n, master_seed):
    """The fixed regressor draw for the regression experiment.

    t is drawn once per (n, master_seed) from truncnormal(1, 1, -5, 5) on a
    stream disjoint from every replication stream, then reused across all
    replications and phi* values at that n.
    """
    stream = seeded_stream(master_seed, DESIGN_STREAM_OFFSET + int(n))
    u = ndtr(stream.standard_normal(int(n)))  # open-interval uniforms
    t = truncnorm_quantile(1.0, 1.0, -5.0, 5.0, u)
    return np.column_stack([np.ones(int(n)), t])


def run_table3(config):
    """Regression coverage: y = 20 + 10 t + eps over the (n, phi*) grid.

    Per cell: errors are truncnormal(0, 5, -20, 20) under the intercept-weight
    correlation mosaic; each replication is fit by least squares; coverage is
    recorded for the conventional Wald comparator, the known-range confidence
    set (R = 40), and the residual-range plug-in (the pooled residual range
    standing in for 2M).  One report row per coefficient per cell.
    """
    marginal = MarginalSpec.truncnormal(0.0, 5.0, -20.0, 20.0)
    c_star = config.c_star if config.c_star is not None else 5.0
    ns = (config.n,) if config.n is not None else TABLE3_NS
    phis = (config.phi,) if config.phi is not None else TABLE3_PHIS
    rows = []
    for n in ns:
        n = int(n)
        X = table3_design(n, config.master_seed)
        W = _qr_weight_rows(X)
        Z = standard_normals(n, config.reps, config.master_seed)
        for phi_star in phis:
            corr, repair = _table3_copula(phi_star, W[0], sigma=5.0)
            eps = copula_sample(corr, marginal, n, config.reps, config.master_seed, normals=Z)
            rows += _coverage_rows(
                X, W, TABLE3_BETA, eps, marginal.support, config.alpha, c_star,
                names=("beta0", "beta1"),
                table=3, phi=phi_star, seed=config.master_seed, repair_lambda=repair.lam,
            )
    return rows


def run_table(config):
    """Dispatch a config to its table driver."""
    if config.table == 1:
        return run_table1(config)
    if config.table == 2:
        return run_table2(config)
    return run_table3(config)
