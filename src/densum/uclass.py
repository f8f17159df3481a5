"""Functional-average calculus for bounded variables.

The functional average Av(.) integrates a function over the support and
divides by the support's measure (Lebesgue length for intervals, counting
measure for gap-free integer ranges).  A variable is "U" when its
expectation equals its functional average -- symmetric bounded variables
are the canonical members -- and "sub-U" when Av(Z) <= EZ.  These
properties drive the sharpened moment-generating-function bounds used by
the concentration module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from densum.core import SupportSpec


def av_moment(support, k):
    """Functional average of z^k over a continuous interval support.

    Av(Z^k) = (M^{k+1} - m^{k+1}) / ((k+1) (M - m)); on a symmetric
    interval [-M, M] this is 0 for odd k and M^k / (k+1) for even k.
    """
    if not isinstance(support, SupportSpec):
        raise TypeError("support must be a SupportSpec")
    if support.continuity != "continuous":
        raise ValueError("av_moment is defined for continuous interval supports")
    k = int(k)
    if k < 0:
        raise ValueError("moment order k must be >= 0")
    m, M = support.lower, support.upper
    return (M ** (k + 1) - m ** (k + 1)) / ((k + 1) * (M - m))


def _sinhc(x):
    """sinh(x)/x with a series fallback near zero to avoid cancellation."""
    x = abs(float(x))
    if x < 1e-2:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0 + x2 * x2 * x2 / 5040.0
    return math.sinh(x) / x


def _log_sinhc(x):
    """log(sinh(x)/x), stable for both tiny and large |x|."""
    x = abs(float(x))
    if x < 1e-2:
        return math.log(_sinhc(x))
    # sinh(x)/x = e^x (1 - e^{-2x}) / (2x)
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0 * x)


def av_exp(s, w, M):
    """Functional average of exp(s*w*Z) for Z uniform-averaged on [-M, M].

    Equals sinh(s*w*M)/(s*w*M), with the limit value 1 at s*w*M = 0.
    """
    x = float(s) * float(w) * float(M)
    if x == 0.0:
        return 1.0
    return _sinhc(x)


def log_av_product(s, w, M):
    """log of av_product, computed by summing stable per-factor logs."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    M = np.broadcast_to(np.asarray(M, dtype=float), w.shape)
    return float(sum(_log_sinhc(float(s) * wi * Mi) for wi, Mi in zip(w, M) if s * wi * Mi != 0.0))


def av_product(s, w, M):
    """Product of the per-variable functional averages of exp(s*w_i*Z_i).

    Av* = prod_i sinh(s*w_i*M_i) / (s*w_i*M_i) for symmetric supports
    [-M_i, M_i].  Evaluated in log space so large products do not overflow.
    """
    return float(math.exp(log_av_product(s, w, M)))


def u_mgf_bound(s, w, R):
    """Closed-form bound on the functional average of exp(s*w*Z).

    For Z regular and continuous on a symmetric support of length R,
    Av(exp(s*w*Z)) <= exp(s^2 w^2 R^2 / 24).
    """
    if not R > 0:
        raise ValueError("range R must be positive")
    x = float(s) * float(w) * float(R)
    return math.exp(x * x / 24.0)


def hoeffding_av_bound(s, support, av):
    """Extended Hoeffding bound on the functional average of exp(s*Z).

    Av(exp(sZ)) <= exp(s*Av(Z) + s^2 R^2 / 8).  For centered sub-U
    variables (av <= 0) the value is further dominated by exp(s^2 R^2 / 8).
    """
    if not s > 0:
        raise ValueError("s must be positive")
    if not isinstance(support, SupportSpec):
        raise TypeError("support must be a SupportSpec")
    R = support.range
    return math.exp(s * float(av) + s * s * R * R / 8.0)


def bernstein_av_bound(s, M, av_z2):
    """Bernstein-style bound on the functional average of exp(s*Z).

    For |Z| <= M, Av(exp(sZ)) <= exp(M^{-2} Av(Z^2) (e^{sM} - 1 - sM)).
    """
    if not M > 0:
        raise ValueError("bound M must be positive")
    if av_z2 < 0:
        raise ValueError("Av(Z^2) must be nonnegative")
    sM = float(s) * float(M)
    return math.exp(float(av_z2) / (M * M) * (math.expm1(sM) - sM))


def discrete_mgf_adjustment(av_exp_value, M):
    """Upper bound on E exp(sZ) for integer supports {-M, ..., M}.

    E exp(sZ) <= (2M + 1) / (2M) * (Av exp(sZ) - 1 / (2M + 1)).
    """
    M = int(M)
    if M <= 0:
        raise ValueError("integer support bound M must be a positive integer")
    card = 2 * M + 1
    return card / (card - 1) * (float(av_exp_value) - 1.0 / card)


@dataclass(frozen=True)
class UDiagnosticsReport:
    """Outcome of a U-class membership check."""

    expected_value: float
    functional_average: float
    is_u: bool
    is_sub_u: bool
    cdf_area_gap: float
    tolerance: float


def check_u_class(data, support):
    """Check whether a variable is U (E = Av) on a regular support.

    ``data`` is either a sample (anything with ``__len__`` or ``__array__``)
    or a distribution-like object with a callable ``mean()``.  On regular
    supports the functional average is the midpoint (M + m) / 2, so
    membership reduces to comparing the expected value against the
    midpoint.  The tolerance is 1e-3 * R for analytic inputs, widened by
    three standard errors of the mean for empirical samples.
    ``cdf_area_gap`` reports (M - E) - (E - m), the integrated
    CDF-minus-survival gap, which is zero exactly for U variables on
    continuous regular supports.
    """
    if not isinstance(support, SupportSpec):
        raise TypeError("support must be a SupportSpec")
    R = support.range
    is_sample = hasattr(data, "__len__") or hasattr(data, "__array__")
    if callable(getattr(data, "mean", None)) and not is_sample:
        expected = float(data.mean())
        tolerance = 1e-3 * R
    else:
        values = np.asarray(data, dtype=float)
        if values.size == 0:
            raise ValueError("empty sample")
        expected = float(values.mean())
        se = float(values.std(ddof=1)) / math.sqrt(values.size) if values.size > 1 else 0.0
        tolerance = 1e-3 * R + 3.0 * se
    av = support.midpoint  # regular support: the functional average is the midpoint
    return UDiagnosticsReport(
        expected_value=expected,
        functional_average=av,
        is_u=abs(expected - av) <= tolerance,
        is_sub_u=(av - expected) <= tolerance,
        cdf_area_gap=(support.upper - expected) - (expected - support.lower),
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class MomentCheck:
    k: int
    value: float
    bound: float
    passed: bool


def moment_condition_check(moments, R):
    """Check the centered-moment conditions that imply E exp(sZ) <= Av exp(sZ).

    ``moments`` lists E Z^k for k = 1..k_max (Z centered).  Even moments
    must satisfy E Z^k <= R^k / (2^k (k+1)); odd moments must be <= 0.
    Equality passes (the uniform attains the even-moment bounds).
    """
    if not R > 0:
        raise ValueError("range R must be positive")
    checks = []
    for k, value in enumerate(moments, start=1):
        value = float(value)
        if k % 2 == 0:
            bound = R**k / (2**k * (k + 1))
        else:
            bound = 0.0
        passed = value <= bound + 1e-12 * max(1.0, abs(bound))
        checks.append(MomentCheck(k=k, value=value, bound=bound, passed=passed))
    return checks


@dataclass(frozen=True)
class IdentityCheck:
    lhs: float
    rhs: float
    gap: float


def _validated_pmf(probs, n_points):
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (n_points,):
        raise ValueError("pmf length must match the support size")
    if np.any(probs <= 0.0):
        raise ValueError("pmf must be strictly positive on its support")
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError("pmf must sum to one")
    return probs / total


def eq1_identity_check(values, probs):
    """Exact enumeration of Av(Z) = EZ + R^{-1} Cov(Z, 1/f(Z)).

    ``values`` is the finite support of Z (distinct reals) and ``probs``
    its strictly positive pmf; R = |S| under the counting measure.  Both
    sides are enumerated exactly and the absolute gap is returned.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("support must be a nonempty vector")
    if np.unique(values).size != values.size:
        raise ValueError("support points must be distinct")
    probs = _validated_pmf(probs, values.size)
    card = values.size
    lhs = float(values.mean())
    ez = float(values @ probs)
    # Cov(Z, 1/f(Z)) = sum_z z - EZ * |S| because E[Z/f(Z)] enumerates the
    # support and E[1/f(Z)] counts it.
    cov = float(values.sum()) - ez * card
    rhs = ez + cov / card
    return IdentityCheck(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))


def eq2_identity_check(points, probs, g, max_support=10**6):
    """Exact enumeration of Av(g) = E g + R_z^{-1} Cov(g, 1/L).

    ``points`` lists the joint support of (Z_1, ..., Z_n) -- one tuple per
    support point, rectangular or not -- with joint pmf ``probs``; R_z is
    the size of the joint support under the counting measure and L the
    joint mass function.  ``g`` maps one support point (an ndarray row) to
    a real.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise ValueError("joint support must be nonempty")
    if pts.shape[0] > max_support:
        raise ValueError(f"joint support too large (> {max_support} points)")
    probs = _validated_pmf(probs, pts.shape[0])
    card = pts.shape[0]
    gvals = np.array([float(g(pt)) for pt in pts])
    lhs = float(gvals.mean())
    eg = float(gvals @ probs)
    cov = float(gvals.sum()) - eg * card
    rhs = eg + cov / card
    return IdentityCheck(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))
