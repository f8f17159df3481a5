"""Exact variance and covariance identities for weighted sums under
summarized dependence.

For a p x n weight matrix w and outcomes with variances sigma_i^2, the
covariance of the weighted sums decomposes exactly as

    total = naive + n * mu * C = naive  (elementwise *)  G,

where naive_{s,t} = sum_i w_{s,i} w_{t,i} sigma_i^2 is the
independence-assumption value, mu is the mean degree of the dependency
graph, C holds the average nonzero pairwise covariance per pair of
statistics, and G = 1 + mu * phi is the variance-inflation (Moulton)
factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from densum.core import DependencySummary, WeightMatrix, validate_weights


@dataclass(frozen=True)
class VarianceDecomposition:
    """Exact decomposition total = naive + n*mu*C = naive * G."""

    naive: np.ndarray
    inflation: np.ndarray
    avg_cov: np.ndarray
    total: np.ndarray
    mu: float
    n: int


@dataclass(frozen=True)
class ClusterVarianceSummary:
    per_cluster: tuple
    mu_T: float
    sigma_bar_T: np.ndarray
    total: np.ndarray
    n_clusters: int


def _pairwise(value, p, name):
    """Broadcast a scalar or p x p array to a p x p array."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full((p, p), float(arr))
    if arr.shape != (p, p):
        raise ValueError(f"{name} must be a scalar or a {p}x{p} array, got shape {arr.shape}")
    return arr


def additive_variance(w, var_diag, dep):
    """Variance/covariance of weighted sums from summarized dependence.

    Parameters
    ----------
    w : WeightMatrix or array, p x n.
    var_diag : per-variable variances sigma_i^2, length n, all >= 0.
    dep : DependencySummary carrying mu and either sigma_bar or phi
        (scalars, or p x p arrays with one value per pair of statistics).

    Returns
    -------
    VarianceDecomposition with naive, inflation G, avg_cov C and total,
    satisfying total = naive + n*mu*C = naive * G exactly.
    """
    w = validate_weights(w)
    W = w.entries
    p, n = W.shape
    sigma2 = np.asarray(var_diag, dtype=float)
    if sigma2.shape != (n,):
        raise ValueError(f"var_diag must have length {n}")
    if np.any(sigma2 < 0) or not np.all(np.isfinite(sigma2)):
        raise ValueError("variances must be finite and nonnegative")
    if not isinstance(dep, DependencySummary):
        raise TypeError("dep must be a DependencySummary")

    mu = dep.mu
    naive = (W * sigma2) @ W.T

    if dep.sigma_bar is not None:
        C = _pairwise(dep.sigma_bar, p, "sigma_bar")
        total = naive + n * mu * C
        with np.errstate(divide="ignore", invalid="ignore"):
            G = np.where(naive != 0.0, total / np.where(naive != 0.0, naive, 1.0), 1.0)
    else:
        phi = _pairwise(dep.phi, p, "phi")
        G = 1.0 + mu * phi
        if np.any(G < -1e-12):
            raise ValueError("inconsistent summary: 1 + mu*phi < 0")
        total = naive * G
        C = naive * phi / n if n > 0 else naive * 0.0

    diag = np.diagonal(total)
    scale = max(1.0, float(np.abs(total).max()))
    if np.any(diag < -1e-10 * scale):
        raise ValueError("summarized dependence yields a negative variance")
    return VarianceDecomposition(
        naive=naive, inflation=G, avg_cov=C, total=total, mu=mu, n=n
    )


def summaries_from_covariance(cov, w):
    """Extract (mu, sigma_bar, phi) from a full covariance matrix.

    The dependency graph places an edge between i and j iff
    |cov_{i,j}| > 1e-12 * max|cov| (float noise must not inflate the mean
    degree).  With a single weight row the summary constants are

        sigma_bar = |L|^{-1} sum_{i<j in L} w_i w_j cov_{i,j}
        phi       = sigma_bar / (n^{-1} sum_i w_i^2 sigma_i^2),

    and sigma_bar is reported as 0 with mu = 0 when no edges exist.  With a
    p x n weight matrix the cross-pair values use the symmetrized products
    (w_{s,i} w_{t,j} + w_{s,j} w_{t,i}) / 2, which reduce to the single-row
    form on the diagonal and keep the reconstruction identity exact for
    every pair of statistics; sigma_bar and phi are then p x p arrays.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance matrix must be square")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance matrix must be finite")
    n = cov.shape[0]
    scale = float(np.abs(cov).max())
    if np.abs(cov - cov.T).max() > 1e-8 * max(scale, 1.0):
        raise ValueError("covariance matrix must be symmetric")

    W = np.asarray(w, dtype=float)
    single_row = W.ndim == 1
    W = np.atleast_2d(W)
    if W.shape[1] != n:
        raise ValueError(f"weights must have length {n}")

    adjacency = np.abs(cov) > 1e-12 * scale
    np.fill_diagonal(adjacency, False)
    degrees = adjacency.sum(axis=1)
    mu = float(degrees.mean())
    n_edges = int(degrees.sum()) // 2

    if n_edges == 0:
        sigma_bar = 0.0 if single_row else np.zeros((W.shape[0],) * 2)
        phi = 0.0 if single_row else np.zeros((W.shape[0],) * 2)
        return DependencySummary(mu=0.0, phi=phi, sigma_bar=sigma_bar)

    off = np.where(adjacency, cov, 0.0)
    # W off W^T sums w_{s,i} w_{t,j} cov_{i,j} over all i != j, i.e. twice
    # the symmetrized upper-triangle edge sum.
    C = (W @ off @ W.T) / (2.0 * n_edges)
    naive_diag = (W * np.diagonal(cov)) @ W.T
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(naive_diag != 0.0, n * C / np.where(naive_diag != 0.0, naive_diag, 1.0), 0.0)

    if single_row:
        return DependencySummary(mu=mu, phi=float(phi[0, 0]), sigma_bar=float(C[0, 0]))
    return DependencySummary(mu=mu, phi=phi, sigma_bar=C)


def phi_bounds(mu, n):
    """Feasible interval for the average correlation phi at mean degree mu.

    Returns the closed interval [-1/mu, (n-1)/mu]; for a fully connected
    graph (mu = n - 1) this is [-(n-1)^{-1}, 1].
    """
    mu = float(mu)
    if not mu > 0:
        raise ValueError("phi bounds require mu > 0")
    n = int(n)
    if n < 2:
        raise ValueError("need at least two variables")
    return (-1.0 / mu, (n - 1) / mu)


@dataclass(frozen=True)
class EtaBound:
    eta: float
    inflation_factor: float
    variance_bound: float


def eta_bound(variances, mu=0.0):
    """Variance bound from the max/mean variance ratio eta.

    eta = max sigma_i^2 / mean sigma_i^2, and the sum S_n of the (unweighted)
    variables satisfies Var(S_n) <= (1 + mu * eta) * sum sigma_i^2.
    """
    sigma2 = np.asarray(variances, dtype=float)
    if sigma2.size == 0 or np.any(sigma2 < 0) or not np.all(np.isfinite(sigma2)):
        raise ValueError("variances must be a nonempty, finite, nonnegative vector")
    mean = float(sigma2.mean())
    if mean == 0.0:
        raise ValueError("eta undefined: all variances are zero")
    eta = float(sigma2.max()) / mean
    factor = 1.0 + float(mu) * eta
    return EtaBound(eta=eta, inflation_factor=factor, variance_bound=factor * float(sigma2.sum()))


def cluster_variance_identity(cluster_variances, mu_T, sigma_bar_T):
    """Total variance of a sum of cluster statistics.

    total = sum_k Var(T_k) + K * mu_T * sigma_bar_T, where mu_T is the mean
    degree of the between-cluster dependency graph and sigma_bar_T the
    average nonzero between-cluster covariance (q x q for vector statistics).
    """
    mats = [np.atleast_2d(np.asarray(v, dtype=float)) for v in cluster_variances]
    if not mats:
        raise ValueError("need at least one cluster variance")
    shape = mats[0].shape
    if shape[0] != shape[1]:
        raise ValueError("cluster variances must be square matrices or scalars")
    for m in mats:
        if m.shape != shape:
            raise ValueError("cluster variance matrices must share one shape")
    sig = np.atleast_2d(np.asarray(sigma_bar_T, dtype=float))
    if sig.shape == (1, 1) and shape != (1, 1):
        sig = np.full(shape, float(sig[0, 0]))
    if sig.shape != shape:
        raise ValueError("sigma_bar_T does not conform with the cluster variances")
    K = len(mats)
    total = sum(mats) + K * float(mu_T) * sig
    return ClusterVarianceSummary(
        per_cluster=tuple(mats),
        mu_T=float(mu_T),
        sigma_bar_T=sig,
        total=total,
        n_clusters=K,
    )
