"""Tail bounds and confidence sets for weighted sums of bounded variables,
plus the empirical MGF-domination diagnostics.

Three bound families are provided for S_n = sum_i w_i eps_i with
|eps_i| bounded:

* hoeffding: 2 exp(-2 tau^2 / sum w_i^2 R_i^2), valid for any bounded
  errors;
* u_sharp:   2 exp(-6 tau^2 / sum w_i^2 R_i^2), valid when the errors are
  symmetric regular U variables (the constant improves from 2 to 6);
* bernstein: variance-adaptive forms using the functional averages
  Av(eps_i^2).

The diagnostics compare the empirical MGF maximum A_hat against the exact
functional-average product Av*, and evaluate the rule-of-thumb feasibility
bound on mu*phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from densum.core import ConfidenceSet, SampleSummary, binary_scale, check_alpha, summarize
from densum.uclass import log_av_product

# Each range-based theorem's constant c: its tail is 2 exp(-c tau^2 / sum w_i^2 R_i^2).
TAIL_CONSTANTS = {"hoeffding": 2.0, "u_sharp": 6.0}


@dataclass(frozen=True)
class TailBound:
    tau: float
    value: float
    theorem: str


def _log_level(alpha):
    """log(2/alpha) for an alpha ``check_alpha`` accepts."""
    return math.log(2.0 / check_alpha(alpha))


def _tail_constant(theorem):
    if theorem not in TAIL_CONSTANTS:
        raise ValueError(f"theorem must be one of {tuple(TAIL_CONSTANTS)}")
    return TAIL_CONSTANTS[theorem]


def half_width(scale, alpha, theorem="u_sharp"):
    """The range-based set's half-width scale * sqrt(log(2/alpha) / c): the
    tau at which ``theorem``'s tail equals alpha, for scale =
    sqrt(sum w_i^2 R_i^2) (a float or an array) and c = TAIL_CONSTANTS[theorem]."""
    return scale * math.sqrt(_log_level(alpha) / _tail_constant(theorem))


def _finite_set(center, half, alpha, method, range_source, R):
    """center +- half at level 1 - alpha, refused when an end overflows (R, the
    range or ranges behind ``half``, is named by its largest value)."""
    lower, upper = center - half, center + half
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError(f"the {method} set {center:.6g} +- {half:.6g} overflows double "
                         f"precision: the range R = {float(np.max(R)):.6g} or the data's "
                         "magnitude is too large")
    return ConfidenceSet(lower, upper, 1.0 - alpha, method, range_source)


def _scaled_range_sum(w, ranges):
    """(sum (a w_i)^2 (b R_i)^2, a b), a and b the powers of two that bring w and
    R into [0.5, 1): exactly (a b)^2 times the plain sum, with no term out of range."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    R = np.broadcast_to(np.asarray(ranges, dtype=float), w.shape)
    if not np.all(R >= 0):
        raise ValueError("ranges must be nonnegative")
    a, b = binary_scale(w), binary_scale(R)
    ws, Rs = w * a, R * b
    return float(np.sum(ws * ws * Rs * Rs)), a * b


def _tail_terms(tau, w, ranges):
    """(a b tau, sum, a b): ``_scaled_range_sum`` for a tail at tau > 0, ranges > 0."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    if not np.all(np.asarray(ranges, dtype=float) > 0):
        raise ValueError("ranges must be positive")
    total, scale = _scaled_range_sum(w, ranges)
    if total == 0.0:
        raise ValueError("sum of w_i^2 R_i^2 is zero")
    return tau * scale, total, scale


def _range_tail(tau, w, ranges, theorem):
    """2 exp(-c tau^2 / sum w_i^2 R_i^2), capped at 1, c = TAIL_CONSTANTS[theorem]."""
    t, total, _ = _tail_terms(tau, w, ranges)
    exponent = TAIL_CONSTANTS[theorem] * t * t / total
    return TailBound(tau=float(tau), value=min(1.0, 2.0 * math.exp(-exponent)), theorem=theorem)


def hoeffding_tail(tau, w, ranges):
    """Two-sided tail bound 2 exp(-2 tau^2 / sum w_i^2 R_i^2), capped at 1."""
    return _range_tail(tau, w, ranges, "hoeffding")


def u_tail(tau, w, ranges):
    """Sharpened tail bound 2 exp(-6 tau^2 / sum w_i^2 R_i^2) for U errors."""
    return _range_tail(tau, w, ranges, "u_sharp")


def _h(u):
    """h(u) = (1 + u) log(1 + u) - u, the Bennett rate function."""
    return (1.0 + u) * math.log1p(u) - u


def bernstein_tail(tau, w, M, av_z2, form="h"):
    """Variance-adaptive tail bounds with equal weights w and |eps_i| <= M.

    form="h":      2 exp(-(A / M^2) h(tau M / (w A))), A = sum_i Av(eps_i^2)
    form="simple": 2 exp(-tau^2 / (2 w^2 A + (2/3) w tau M))

    The h form dominates the simple form pointwise.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    if not M > 0:
        raise ValueError("bound M must be positive")
    if not w > 0:
        raise ValueError("the common weight w must be positive")
    A = float(np.sum(np.asarray(av_z2, dtype=float)))
    if A <= 0:
        raise ValueError("sum of Av(eps^2) must be positive")
    if form == "h":
        u = tau * M / (w * A)
        value = 2.0 * math.exp(-(A / (M * M)) * _h(u))
        theorem = "bernstein_h"
    elif form == "simple":
        value = 2.0 * math.exp(-tau * tau / (2.0 * w * w * A + (2.0 / 3.0) * w * tau * M))
        theorem = "bernstein_simple"
    else:
        raise ValueError("form must be 'h' or 'simple'")
    return TailBound(tau=float(tau), value=min(1.0, value), theorem=theorem)


def ci_mean(data, R=None, alpha=0.05, method="u_sharp"):
    """Confidence set for a mean from n bounded observations.

    method="hoeffding":  Ybar +- R sqrt(log(2/alpha) / (2n))
    method="u_sharp":    Ybar +- R sqrt(log(2/alpha) / (6n))   (U errors)
    method="bernstein":  Ybar +- tau, tau solving the simple variance-adaptive
                         tail at level alpha with the U-variance plug-in
                         Av(eps^2) = M^2/3 = R^2/12 (M = R/2, w = 1/n).
    method="ratio":      [Ybar/(1+c), Ybar/(1-c)], c = sqrt(2 log(2/alpha)/n),
                         for nonnegative variables with R bounded by twice
                         the mean; requires n > 2 log(2/alpha).

    R = 0 (a constant sample) gives the first three the one-point set {Ybar}.
    ``data`` may be a raw sample or a SampleSummary.
    """
    log_term = _log_level(alpha)
    summary = data if isinstance(data, SampleSummary) else summarize(data)
    n = summary.n

    if method in ("hoeffding", "u_sharp", "bernstein"):
        if R is None or not R >= 0:
            raise ValueError("a positive range R, or 0 for a one-point set, is required")
        if method == "bernstein":
            # tau^2 = log(2/alpha) (2 w^2 A + (2/3) w tau M), A = n M^2 / 3, solved
            # for M scaled by a power of two, so M^2 cannot overflow, then scaled back
            scale = binary_scale(R / 2.0)
            M = R / 2.0 * scale
            w = 1.0 / n
            A = n * M * M / 3.0
            b = log_term * (2.0 / 3.0) * w * M
            half = 0.5 * (b + math.sqrt(b * b + 8.0 * log_term * w * w * A)) / scale
        else:
            half = half_width(R / math.sqrt(n), alpha, method)
        return _finite_set(summary.mean, half, alpha, method, "known", R)
    if method == "ratio":
        if summary.minimum < 0:
            raise ValueError("the ratio form requires a nonnegative support (m >= 0)")
        threshold = 2.0 * log_term
        if n <= threshold:
            raise ValueError(
                f"the ratio form requires n > 2 log(2/alpha) = {threshold:.3f}; got n = {n}"
            )
        c = math.sqrt(2.0 * log_term / n)
        return ConfidenceSet(summary.mean / (1.0 + c), summary.mean / (1.0 - c), 1.0 - alpha,
                             "hoeffding", "two_mean")
    raise ValueError("method must be 'hoeffding', 'u_sharp', 'bernstein' or 'ratio'")


def ci_linear(estimate, w_s, ranges, alpha=0.05, range_source="known"):
    """Confidence set for one coefficient of an additive statistic,
    estimate +- half_width(sqrt(sum_i w_{s,i}^2 R_i^2), alpha): the U-sharp set.

    ``ranges`` gives R_i (a scalar or one per weight, each >= 0).  The caller
    resolves the range source into the weights and ranges; ``range_source``
    (``core.RANGE_SOURCES``) only labels the set.  The residual-range plug-in
    (``analysis.fit_report``) passes unit weights and the range of the weighted
    residuals W_s e, since those are the summands it bounds: sqrt(n) times that
    range.  This differs from table 3's ``ci_r``, which scales the pooled range
    of the residuals e by ||w_s||.
    """
    total, scale = _scaled_range_sum(w_s, ranges)
    half = half_width(math.sqrt(total) / scale, alpha)
    return _finite_set(float(estimate), half, alpha, "u_sharp", range_source, ranges)


def optimal_s(tau, w, ranges, theorem="u_sharp"):
    """The exponent scale s = 2c tau / sum w_i^2 R_i^2 that minimizes the MGF
    bound of ``theorem`` (c = TAIL_CONSTANTS[theorem]): 4 tau / sum w_i^2 R_i^2
    for hoeffding, 12 tau / sum w_i^2 R_i^2 for u_sharp."""
    t, total, scale = _tail_terms(tau, w, ranges)
    return 2.0 * _tail_constant(theorem) * t / total * scale


def diagnostic_s(M, c_star, sum_w2, alpha):
    """The empirical MGF diagnostic's scale s = 6 (M^2 c* sum w_i^2)^{-1/2}
    sqrt(log(2/alpha)/6), the u_sharp half-width of 6 (M^2 c* sum w_i^2)^{-1/2}.
    c* sets the exponential's size (10 for mean experiments, 5 for
    regression): exp(s^2 M^2 sum w_i^2 / 6) = (2/alpha)^(1/c*)."""
    denom = M * M * c_star * sum_w2
    if not denom > 0:
        raise ValueError("M^2 * c_star * sum_w2 must be positive")
    return half_width(TAIL_CONSTANTS["u_sharp"] / math.sqrt(denom), alpha)


def rule_of_thumb(w, variances, ranges):
    """Feasibility bound on mu*phi: (sum w^2 R^2) / (12 sum w^2 sigma^2) - 1.

    In the homogeneous case this reduces to R^2 / (12 sigma^2) - 1.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    sigma2 = np.broadcast_to(np.asarray(variances, dtype=float), w.shape)
    R = np.broadcast_to(np.asarray(ranges, dtype=float), w.shape)
    if np.any(sigma2 < 0):
        raise ValueError("variances must be nonnegative")
    # w, and R with sigma, scaled exactly by powers of two: the ratio keeps its bits
    a, b = binary_scale(w), binary_scale(R)
    ws, Rs = w * a, R * b
    denom = float(np.sum(ws * ws * (sigma2 * b * b)))
    if denom <= 0.0:
        raise ValueError("sum of w^2 sigma^2 must be positive")
    return float(np.sum(ws * ws * Rs * Rs)) / (12.0 * denom) - 1.0


A5_BOUNDARY_SES = 2.0  # "boundary": |A_hat - Av*| within this many MC standard errors


@dataclass(frozen=True)
class A5Report:
    """Empirical MGF-domination check: A_hat against Av*."""

    a_hat: float
    av_star: float
    verdict: str
    mc_se: float


def a5_from_sums(sums, w, s, M):
    """Compare the empirical MGF maximum against the functional-average product.

    ``sums`` holds the per-replication weighted sums sum_i w_i e_{r,i}, one
    per replication (for a reps x n matrix of draws, draws @ w; the coverage
    grids pass their estimation errors).  A_hat = max over signs of
    N^{-1} sum_r exp(+-s sum_i w_i e_{r,i}) over the N replications, computed
    in log-sum-exp form.  Av* = prod_i Av exp(s w_i Z_i) for symmetric
    supports [-M_i, M_i]; ``w`` enters only through Av*.  The verdict is
    "boundary" when |A_hat - Av*| falls within A5_BOUNDARY_SES Monte Carlo
    standard errors of A_hat, otherwise "holds" (A_hat < Av*) or "violated".
    """
    from scipy.special import logsumexp  # here, so the analysis commands load no scipy

    if not s >= 0:
        raise ValueError("s must be nonnegative")
    sums = np.asarray(sums, dtype=float)
    if sums.ndim != 1:
        raise ValueError("sums must hold one value per replication")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    reps = sums.shape[0]
    t = s * sums
    overflow = math.log(np.finfo(float).max)

    def _mean_and_se(exponent):
        log_mean = logsumexp(exponent) - math.log(reps)
        log_sq = logsumexp(2.0 * exponent) - math.log(reps)
        if log_mean > overflow:
            return math.inf, math.inf
        mean = math.exp(log_mean)
        if log_sq > overflow:
            return mean, math.inf
        var = max(0.0, math.exp(log_sq) - mean * mean)
        return mean, math.sqrt(var / reps)

    pos, pos_se = _mean_and_se(t)
    neg, neg_se = _mean_and_se(-t)
    a_hat, se = (pos, pos_se) if pos >= neg else (neg, neg_se)
    log_av = log_av_product(s, w, M)
    av_star = math.exp(log_av) if log_av <= overflow else math.inf
    if math.isinf(a_hat) and math.isinf(av_star):
        verdict = "boundary"  # beyond float range the comparison is empty
    elif math.isinf(a_hat):
        verdict = "violated"
    elif math.isinf(av_star):
        verdict = "holds"
    elif abs(a_hat - av_star) <= A5_BOUNDARY_SES * se:
        verdict = "boundary"
    elif a_hat < av_star:
        verdict = "holds"
    else:
        verdict = "violated"
    return A5Report(a_hat=float(a_hat), av_star=float(av_star), verdict=verdict, mc_se=float(se))
