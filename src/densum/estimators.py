"""Additive estimators and their variance machinery.

Least squares is treated throughout as an additive statistic: with
W = (X'X)^{-1} X' the fit satisfies B - beta = W eps row by row, so every
coefficient is a weighted sum of the individual errors and the tail bounds
in :mod:`densum.concentration` apply directly to it.  This module provides

* ``ols_fit`` — least squares with the weight rows made explicit,
* ``meat_estimator`` / ``cluster_robust`` / ``partition_compare`` — variance
  estimators for additive statistics under dependence,
* ``weighted_residuals`` / ``residual_range`` — a coefficient's weighted
  residuals W_s e and the plug-in range estimate feeding the
  residual-range confidence sets,
* ``irwls_fit`` — iteratively reweighted least squares with the final
  additive representation extracted at convergence,
* ``gee_exchangeable_wald`` — the conventional sandwich/Wald comparator,
* ``acf_phi_hat`` — autocorrelation-based dependence summary for series data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from densum.core import ConfidenceSet, Partition, binary_scale, check_alpha


class ConvergenceError(RuntimeError):
    """Raised when an iterative fit fails to meet its stopping rule."""


# ---------------------------------------------------------------------------
# least squares with explicit weight rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionFit:
    """A linear fit carrying its additive representation.

    ``weight_rows`` holds W = (X'X)^{-1} X' (one row per coefficient), so
    ``coefficients`` equals ``weight_rows @ outcomes`` and, on data generated
    as y = X beta + eps, the estimation error is exactly ``weight_rows @ eps``.
    """

    design: np.ndarray
    outcomes: np.ndarray
    coefficients: np.ndarray
    weight_rows: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray

    @property
    def n(self):
        return self.design.shape[0]

    @property
    def p(self):
        return self.design.shape[1]


def _qr_weight_rows(X):
    """Weight rows (X'X)^{-1} X' via a thin QR factorization.

    Solving R W = Q' avoids forming X'X, whose squared condition number
    would contaminate the per-observation weights that the confidence sets
    consume.  Rank deficiency is reported by the column whose R diagonal
    collapses.

    The triangular solve is numpy's general solve.  numpy's R has exact
    zeros below its nonzero diagonal, so LU with partial pivoting swaps no
    row, its U is R itself, and the solve ends in the same triangular BLAS
    solve as scipy's ``solve_triangular``, bit for bit.  numpy and scipy
    each bundle their own BLAS with its own thread pool; calls that
    alternate between the two pools stall at each handover, so the weight
    rows stay on numpy's.  W is returned in Fortran order, as
    ``solve_triangular`` returns it: ``W @ y`` sums in layout order, and a
    C-ordered W moves the coefficients in their last digits.  Q is freed
    before that copy, so the copy sits beside the solve's output alone.
    """
    Q, R = np.linalg.qr(X)
    tol = 1e-10 * np.linalg.norm(X)
    diag = np.abs(np.diag(R))
    small = np.nonzero(diag <= tol)[0]
    if small.size:
        raise ValueError(
            f"design is rank deficient: column {int(small[0])} is linearly "
            "dependent on the preceding columns"
        )
    W = np.linalg.solve(R, Q.T)
    del Q
    return np.asfortranarray(W)


def ols_fit(X, y):
    """Ordinary least squares with the weight rows W = (X'X)^{-1} X' exposed.

    Input
    -----
    X : (n, p) design matrix, full column rank
    y : (n,) outcomes

    Output
    ------
    RegressionFit with coefficients = W y, fitted = X B, residuals = y - X B.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError("design and outcomes disagree on n")
    if X.shape[0] < X.shape[1]:
        raise ValueError("need at least as many observations as columns")
    W = _qr_weight_rows(X)
    B = W @ y
    fitted = X @ B
    return RegressionFit(
        design=X,
        outcomes=y,
        coefficients=B,
        weight_rows=W,
        fitted=fitted,
        residuals=y - fitted,
    )


# ---------------------------------------------------------------------------
# variance estimators for additive statistics
# ---------------------------------------------------------------------------


def meat_estimator(fit, s, t=None):
    """Plug-in variance (or covariance) estimate sum_i W_si W_ti e_i^2.

    Evaluated as sum (W_si e_i)(W_ti e_i) so the all-singleton
    cluster-robust estimate reproduces it bit for bit.
    """
    if t is None:
        t = s
    W = np.asarray(fit.weight_rows, dtype=float)
    e = np.asarray(fit.residuals, dtype=float)
    return float(np.sum((W[s] * e) * (W[t] * e)))


@dataclass(frozen=True)
class ClusterVarianceEstimate:
    """Cluster-robust variance of one coefficient: sum_k (sum_{j in k} W_sj e_j)^2."""

    value: float
    partition: Partition
    per_cluster: np.ndarray

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("cluster variance estimate cannot be negative")


def weighted_residuals(fit, s):
    """W_s e, coefficient s's weighted residuals: the summands of its
    estimation error, which the cluster, range and series estimates read."""
    W = np.asarray(fit.weight_rows, dtype=float)
    e = np.asarray(fit.residuals, dtype=float)
    return W[s] * e


def cluster_robust(fit, partition, s):
    """Cluster-robust variance estimate for coefficient s under a partition.

    The singleton partition reproduces ``meat_estimator`` exactly, since each
    squared cluster sum collapses to one squared weighted residual.
    """
    return _cluster_variance(weighted_residuals(fit, s), partition)


def _cluster_variance(z, partition):
    """``cluster_robust`` on the weighted residuals z = W_s e."""
    if z.shape[0] != partition.assignment.shape[0]:
        raise ValueError("partition length does not match the fit")
    sums = np.bincount(partition.assignment - 1, weights=z, minlength=partition.n_clusters)
    per_cluster = sums * sums
    return ClusterVarianceEstimate(
        value=float(np.sum(per_cluster)),
        partition=partition,
        per_cluster=per_cluster,
    )


@dataclass(frozen=True)
class PartitionComparison:
    """Ranked cluster-variance estimates across candidate partitions."""

    values: np.ndarray
    recommended: int
    is_tie: bool

    @property
    def ranking(self):
        # Stable, so equal values keep their input order.
        return np.argsort(-self.values, kind="stable")


def partition_compare(fit, partitions, s):
    """Compare candidate partitions by estimated variance; recommend the largest.

    Since clustering can only shift covariance mass into the estimate, the
    partition with the highest estimate is the conservative choice.  Ties
    within 1e-12 relative to the largest value are flagged and broken by
    input order.
    """
    if len(partitions) < 2:
        raise ValueError("need at least two partitions to compare")
    z = weighted_residuals(fit, s)  # formed once for every partition
    scale = binary_scale(z)  # exact: no squared cluster sum over- or underflows
    z *= scale
    scaled = np.array([_cluster_variance(z, part).value for part in partitions])
    tie_tol = 1e-12 * max(scale * scale, float(np.max(scaled)))  # 1e-12 max(1, top), scaled
    recommended = int(np.argmax(scaled))
    top = scaled[recommended]
    is_tie = bool(np.sum(np.abs(scaled - top) <= tie_tol) > 1)
    with np.errstate(over="ignore"):  # a variance beyond double precision reads inf
        values = scaled / scale / scale
    return PartitionComparison(
        values=values,
        recommended=recommended,
        is_tie=is_tie,
    )


def residual_range(z):
    """Sample range of one coefficient's weighted residuals z = W_s e
    (``weighted_residuals``), the plug-in for its per-observation range.

    A zero range (all weighted residuals equal) is returned as 0.0 with a
    warning, since a degenerate spread makes the downstream interval
    collapse.
    """
    if z.shape[0] < 2:
        raise ValueError("need at least two observations for a range")
    spread = float(np.max(z) - np.min(z))
    if spread == 0.0:
        warnings.warn("weighted residuals have degenerate (zero) spread", stacklevel=2)
    return spread


# ---------------------------------------------------------------------------
# iteratively reweighted least squares
# ---------------------------------------------------------------------------

IRWLS_LINKS = ("identity", "logit", "log")
IRWLS_TOL = 1e-10  # the largest coordinate change that stops the iteration
IRWLS_MAX_ITER = 50


def _link_funcs(link):
    if link == "identity":
        return (
            lambda eta: eta,  # mean
            lambda eta: np.ones_like(eta),  # d mean / d eta
            lambda mu: np.ones_like(mu),  # variance function
        )
    if link == "logit":
        def mean(eta):
            return 1.0 / (1.0 + np.exp(-eta))

        return mean, lambda eta: mean(eta) * (1.0 - mean(eta)), lambda mu: mu * (1.0 - mu)
    if link == "log":
        return np.exp, np.exp, lambda mu: mu
    raise ValueError(f"link must be one of {IRWLS_LINKS}")


@dataclass(frozen=True)
class IRWLSFit:
    """Converged IRWLS fit with its additive representation.

    ``weight_rows`` is (d' V^{-1} d)^{-1} d' V^{-1} evaluated at the final
    iterate, with d the mean Jacobian and V the working variance, so the
    estimation error is approximately ``weight_rows @ (y - fitted)``.
    """

    design: np.ndarray
    outcomes: np.ndarray
    link: str
    coefficients: np.ndarray
    weight_rows: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    trace: tuple
    n_iter: int


def irwls_fit(X, y, link="identity"):
    """Iteratively reweighted least squares for identity, logit or log links.

    Iterates weighted least squares on the working response
    z = eta + (y - mu) / mu'(eta) with weights mu'(eta)^2 / V(mu), stopping
    when the maximum absolute coordinate change between successive iterates
    falls below IRWLS_TOL; ConvergenceError when it does not within
    IRWLS_MAX_ITER iterations.  The identity link reduces to ``ols_fit`` on
    the first iteration.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    mean, dmean, varf = _link_funcs(link)

    if link == "logit" and (np.any(y < 0) or np.any(y > 1)):
        raise ValueError("logit link needs outcomes in [0, 1]")
    if link == "log" and np.any(y < 0):
        raise ValueError("log link needs nonnegative outcomes")

    beta = np.zeros(X.shape[1])
    if link == "log":
        # Start from the mean response so the first eta is finite.
        beta[0] = np.log(max(np.mean(y), 1e-8))
    trace = []
    for _ in range(IRWLS_MAX_ITER):
        eta = X @ beta
        mu = mean(eta)
        dm = dmean(eta)
        if np.any(dm < 1e-12):
            raise ConvergenceError(
                "working weights collapsed (possible separation or an "
                "unbounded iterate); the additive representation is undefined"
            )
        w = dm * dm / varf(mu)
        z = eta + (y - mu) / dm
        root = np.sqrt(w)
        beta = _qr_weight_rows(X * root[:, None]) @ (z * root)
        trace.append(beta)
        if len(trace) > 1 and np.max(np.abs(trace[-1] - trace[-2])) < IRWLS_TOL:
            break
    else:
        raise ConvergenceError(f"no convergence after {IRWLS_MAX_ITER} iterations")

    eta = X @ beta
    mu = mean(eta)
    dm = dmean(eta)
    # Additive representation at the final iterate: rows of
    # (d'V^{-1}d)^{-1} d'V^{-1} with d = diag(mu') X and V = diag(V(mu)).
    ratio = dm / varf(mu)
    root = np.sqrt(dm * ratio)
    W = _qr_weight_rows(X * root[:, None]) * np.sqrt(ratio / dm)[None, :]
    return IRWLSFit(
        design=X,
        outcomes=y,
        link=link,
        coefficients=beta,
        weight_rows=W,
        fitted=mu,
        residuals=y - mu,
        trace=tuple(trace),
        n_iter=len(trace),
    )


# ---------------------------------------------------------------------------
# conventional comparator: exchangeable-correlation sandwich
# ---------------------------------------------------------------------------


class _ExchangeableSandwich:
    """Sandwich covariance with an exchangeable working correlation, batched
    over replications, for one design and partition, set up once.

    X is the n x p design; calling the object on a reps x n residual matrix
    E (one row per replication) returns (vcov, rho) of shapes reps x p x p
    and (reps,).  The working correlation rho is estimated by moment
    matching: the mean of within-cluster residual cross-products over all
    within-cluster pairs, normalized by the residual variance (no
    degrees-of-freedom correction).  Working covariance scalars cancel
    between bread and meat, leaving

        vcov = D^{-1} (sum_k u_k u_k') D^{-1},
        D   = X'X - sum_k c_k Sx_k Sx_k',
        u_k = X_k' e_k - c_k Sx_k Se_k,
        c_k = rho / (1 + (n_k - 1) rho),

    with Sx_k, Se_k the within-cluster sums.

    Every replication's result depends on its own row of E alone, to the
    bit: each step does the same per-row work whatever the number of rows
    (reps = 1 included), with no matrix product across replications, so a
    batch equals one-at-a-time fits and a shorter run is a prefix of a
    longer one.

    Observations sit in the slots of a row-major layout of rows of width
    w = ceil(n / K): cluster k takes ceil(n_k / w) consecutive rows, the
    clusters in label order, and the slots a cluster leaves unused hold
    zero weight.  A row's sums of e [1, X] are then one dot product per
    column, and a cluster's sums are the sum of its rows'.  There are at
    most n / w + K <= 2K rows, so at most 2n + K slots per replication,
    however lopsided the cluster sizes.  For an equal-size sequential
    partition the slots are the observations in order and E is only
    reshaped; any other partition gathers E into a zeroed buffer.

    The design side ([1, X] in that layout, the cluster sums Sx of the
    columns, X'X and the K x p^2 table of Sx_k Sx_k') is computed here, so
    a caller that scores replications block by block pays for it once.
    """

    def __init__(self, X, partition):
        n, p = X.shape
        labels = partition.assignment
        if labels.shape[0] != n:
            raise ValueError("partition length does not match the data")
        if partition.n_clusters < 2:
            raise ValueError("need at least two clusters for a sandwich estimate")
        self.sizes = sizes = partition.cluster_sizes
        K = sizes.size
        width = -(-n // K)
        rows = -(-sizes // width)
        first_row = np.concatenate(([0], np.cumsum(rows)[:-1]))
        first_obs = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        # Each n-long index array is freed once read, before the layout is built.
        order = np.argsort(labels, kind="stable")
        in_order = np.array_equal(order, np.arange(n))
        # K x p cluster sums of columns; labels already in order need no gathered copy of X
        self.Sx = np.add.reduceat(X if in_order else X[order], first_obs, axis=0)
        k = labels[order] - 1
        slot = first_row[k] * width + np.arange(n) - first_obs[k]  # in label order
        del k
        if not in_order:
            slot[order] = slot.copy()
        del order
        self.shape = (int(rows.sum()), width)
        identity = self.shape[0] * width == n and np.array_equal(slot, np.arange(n))
        self.slot = None if identity else slot
        if identity:
            slot = slice(None)  # the observations fill the slots in order: free the index array
        self.fold = None if self.shape[0] == K else first_row  # rows -> clusters
        layout = np.zeros((p + 1, self.shape[0] * width))
        layout[0, slot] = 1.0
        layout[1:, slot] = X.T
        self.layout = layout.reshape(p + 1, *self.shape)  # [1, X] in the slots
        # per layout row, the first row equal to it: an intercept repeats the ones row
        self.source = tuple(next(i for i in range(j + 1) if np.array_equal(layout[i], row))
                            for j, row in enumerate(layout))
        self.SxSx = (self.Sx[:, :, None] * self.Sx[:, None, :]).reshape(K, p * p)
        self.XtX = X.T @ X
        self.n_pairs = float(np.sum(sizes * (sizes - 1) / 2.0))
        # Keep the working covariance positive definite for every cluster size.
        max_size = float(np.max(sizes))
        self.rho_lo = -1.0 / (max_size - 1.0) + 1e-6 if max_size > 1 else -1.0 + 1e-6

    def __call__(self, E):
        reps, n = E.shape
        p = self.XtX.shape[0]
        G = E
        if self.slot is not None:
            G = np.zeros((reps, self.shape[0] * self.shape[1]))
            G[:, self.slot] = E
        G = G.reshape(reps, *self.shape)
        S = np.empty((p + 1, reps, self.shape[0]))  # per-row sums of e and of e X_j
        for j, i in enumerate(self.source):  # a repeated row copies its first's sums
            if i < j:
                np.copyto(S[j], S[i])
            else:
                np.einsum("rkm,km->rk", G, self.layout[j], out=S[j])
        if self.fold is not None:
            S = np.add.reduceat(S, self.fold, axis=2)
        Se = S[0]  # reps x K

        # sum over within-cluster pairs i<j of e_i e_j, via (sum^2 - sum of squares)/2
        sumsq = np.einsum("ri,ri->r", E, E)
        sigma2 = sumsq / n
        cross = 0.5 * (np.einsum("rk,rk->r", Se, Se) - sumsq)
        with np.errstate(invalid="ignore", divide="ignore"):
            rho = np.where(
                (sigma2 > 0) & (self.n_pairs > 0), cross / (self.n_pairs * sigma2), 0.0
            )
        rho = np.clip(rho, self.rho_lo, 1.0 - 1e-6)

        c = rho[:, None] / (1.0 + (self.sizes[None, :] - 1.0) * rho[:, None])  # reps x K
        cSe = c * Se
        U = np.empty((reps, p, Se.shape[1]))  # u_k = X_k' e_k - c_k Sx_k Se_k
        for j in range(p):
            np.multiply(cSe, self.Sx[:, j], out=U[:, j])
            np.subtract(S[j + 1], U[:, j], out=U[:, j])
        meat = np.matmul(U, U.transpose(0, 2, 1))
        D = self.XtX - np.matmul(c[:, None, :], self.SxSx).reshape(reps, p, p)
        Dinv = np.linalg.inv(D)
        return Dinv @ meat @ Dinv, rho


def gee_exchangeable_vcov(fit, partition):
    """Exchangeable-sandwich covariance of a least-squares fit.

    The one-replication case of ``_ExchangeableSandwich``.  An
    all-singleton partition gives rho = 0 and reduces to the
    heteroskedasticity-robust sandwich.  Returns (vcov, rho_hat).
    """
    vcov, rho = _ExchangeableSandwich(fit.design, partition)(fit.residuals[None, :])
    return vcov[0], float(rho[0])


def gee_exchangeable_wald(fit, partition, alpha=0.05, s=0):
    """Wald confidence set for coefficient s from the exchangeable sandwich."""
    check_alpha(alpha)
    # The residuals are scaled by a power of two, so no square in the sandwich
    # over- or underflows, and the standard error is scaled back (exactly).
    scale = binary_scale(fit.residuals)
    vcov, _ = _ExchangeableSandwich(fit.design, partition)(fit.residuals[None, :] * scale)
    # Imported here, so only ``fit --partitions`` loads scipy, and after the
    # sandwich, so scipy's pages do not add to the sandwich's peak.
    from densum.kernels import std_normal_quantile

    se = float(np.sqrt(vcov[0, s, s])) / scale
    z = std_normal_quantile(1.0 - alpha / 2.0)
    return ConfidenceSet(
        lower=float(fit.coefficients[s]) - z * se,
        upper=float(fit.coefficients[s]) + z * se,
        level=1.0 - alpha,
        method="wald",
        range_source=None,
    )


# ---------------------------------------------------------------------------
# autocorrelation-based dependence summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ACFReport:
    """Sample autocorrelations r_1..r_L and their simple mean phi_hat."""

    acf: np.ndarray
    phi_hat: float


def acf_phi_hat(series, lags):
    """Sample autocorrelations of a series and their unweighted mean.

    r_l = sum_{t<=n-l} (y_t - ybar)(y_{t+l} - ybar) / sum_t (y_t - ybar)^2,
    the standard biased-normalization estimator.  phi_hat averages r_1..r_L
    with equal weight; callers compare several lag windows rather than
    trusting one.

    All lags come from one zero-padded real FFT (Wiener-Khinchin), so the
    cost is O(n log n) for any L.  The padded length depends on n alone,
    so a shorter window's r_l are a bit-identical prefix of a longer
    window's.  The per-lag sums are kept in the tests as the oracle.
    """
    y = np.asarray(series, dtype=float).ravel()
    n = y.shape[0]
    lags = int(lags)
    if not 1 <= lags < n:
        raise ValueError("lags must satisfy 1 <= lags < n")
    centered = y * binary_scale(y)  # exact; no sum or square over- or underflows
    centered -= np.mean(centered)
    denom = float(np.sum(centered * centered))
    if denom == 0.0:
        raise ValueError("series is constant; autocorrelation is undefined")
    # The smallest f * 2^k >= 2n - 1 (no circular wrap) over a few small odd f:
    # lengths numpy's FFT handles fast, and fixed by n alone.
    size = min(f << ((2 * n - 2) // f).bit_length() for f in (1, 3, 5, 9, 15))
    spectrum = np.fft.rfft(centered, size)
    del centered
    # The power |F|^2 overwrites the spectrum, imaginary parts zero: the
    # complex input irfft would otherwise cast a real power array into.
    re, im = spectrum.real, spectrum.imag
    np.multiply(re, re, out=re)
    np.multiply(im, im, out=im)
    re += im
    im[:] = 0.0
    acf = np.fft.irfft(spectrum, size)[1 : lags + 1] / denom
    return ACFReport(acf=acf, phi_hat=float(np.mean(acf)))
