"""Numeric kernels: quantile transforms, Cholesky with positive-definite
repair, and deterministic counter-based uniform streams.

These back the copula simulator.  The quantile transforms wrap scipy's
high-accuracy special functions; the random streams are Philox
counter-based generators keyed by (master seed, stream index) so that
replications can be generated in any order, on any number of workers,
with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix expected to be PD fails its Cholesky factorization."""


def std_normal_quantile(p):
    """Inverse standard normal CDF for p in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("probability must lie strictly inside (0, 1)")
    return special.ndtri(p)


def beta_quantile(a, b, p):
    """Inverse of the regularized incomplete beta function I_x(a, b).

    Parameters
    ----------
    a, b : positive shape parameters.
    p : probability (scalar or array) strictly inside (0, 1).
    """
    if not (np.all(np.asarray(a) > 0) and np.all(np.asarray(b) > 0)):
        raise ValueError("beta shape parameters must be positive")
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("probability must lie strictly inside (0, 1)")
    return special.betaincinv(a, b, p)


def truncnorm_quantile(mu, sigma, lo, hi, p):
    """Quantile of a normal(mu, sigma^2) truncated to [lo, hi].

    Computed by inverting the normal CDF on the renormalized interval:
    x = mu + sigma * Phi^{-1}(Phi(alpha) + p * (Phi(beta) - Phi(alpha))).
    The result is clipped to [lo, hi] to absorb boundary rounding.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not lo < hi:
        raise ValueError("degenerate truncation interval: need lo < hi")
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("probability must lie strictly inside (0, 1)")
    a = special.ndtr((lo - mu) / sigma)
    b = special.ndtr((hi - mu) / sigma)
    if not b > a:
        raise ValueError("truncation interval carries no probability mass")
    x = mu + sigma * special.ndtri(a + p * (b - a))
    return np.clip(x, lo, hi)


def validate_correlation(A, tol=1e-8):
    """Check that A is a square symmetric matrix with unit diagonal."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("correlation matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("correlation matrix must be finite")
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.T).max() > tol * scale:
        raise ValueError("correlation matrix must be symmetric")
    if np.abs(np.diagonal(A) - 1.0).max() > tol:
        raise ValueError("correlation matrix must have a unit diagonal")
    return A


def cholesky(A):
    """Lower Cholesky factor of a positive definite matrix.

    Raises NotPositiveDefiniteError when the factorization fails, signalling
    that ensure_pd should be applied first.
    """
    A = np.asarray(A, dtype=float)
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "matrix is not positive definite; repair it with ensure_pd"
        ) from exc


@dataclass(frozen=True)
class PDRepair:
    """Outcome of a positive-definite repair: the shrinkage weight used."""

    lam: float
    attempts: int

    @property
    def changed(self):
        return self.lam > 0.0


def ensure_pd(A, eps=1e-6):
    """Shrink a symmetric matrix toward the identity until it is PD.

    Tries A' = (1 - lam) * A + lam * I for lam on the geometric grid
    {0, eps, 10*eps, ..., 1} and keeps the smallest lam whose Cholesky
    succeeds.  lam = 1 (the identity itself) always succeeds.  A unit
    diagonal is preserved exactly.

    Returns (repaired matrix, PDRepair report).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("ensure_pd needs a square matrix")
    A = 0.5 * (A + A.T)
    eye = np.eye(A.shape[0])
    grid = [0.0]
    lam = float(eps)
    while lam < 1.0:
        grid.append(lam)
        lam *= 10.0
    grid.append(1.0)
    for attempts, lam in enumerate(grid, start=1):
        candidate = A if lam == 0.0 else (1.0 - lam) * A + lam * eye
        try:
            np.linalg.cholesky(candidate)
        except np.linalg.LinAlgError:
            continue
        return candidate, PDRepair(lam=lam, attempts=attempts)
    raise AssertionError("unreachable: the identity is positive definite")


def seeded_stream(master_seed, stream_index):
    """Deterministic uniform stream keyed by (master_seed, stream_index).

    Distinct indices yield statistically independent Philox streams; the
    same pair always reproduces the same sequence, independent of how many
    other streams exist or the order in which they are consumed.
    """
    master_seed = int(master_seed)
    stream_index = int(stream_index)
    if master_seed < 0 or stream_index < 0:
        raise ValueError("seed and stream index must be nonnegative")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_index,))
    return np.random.Generator(np.random.Philox(seq))
