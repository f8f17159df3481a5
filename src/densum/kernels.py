"""Numeric kernels: quantile transforms, the normal-scale copula maps for Beta
and truncated-normal marginals, Cholesky with positive-definite repair, the
rank-one correlation's semiseparable factor, and deterministic
counter-based uniform streams.

These back the copula simulator.  The quantile transforms wrap scipy's
special functions and are the oracles for the fast normal-scale maps
``beta_normal_map`` and ``truncnorm_normal_map``: one cubic Hermite
interpolant of x -> F^{-1}(Phi(x)) on a uniform normal-scale grid, built
once per map from the exact map and its closed-form slope, checked against
the exact map at every interval midpoint and replaced by it where that check
or the grid's range does not hold (a chunk's min and max clear the range
before any value is selected; the interval index is a floor).
Every correlation the coverage grids use is diag(1 - sign v^2) + sign v v^T,
sign = +1 or -1, whose Cholesky factor ``rank_one_cholesky`` gives in O(n)
without forming the matrix.  The random streams are Philox counter-based
generators keyed by (master seed, stream index) so that replications can be
generated in any order, on any number of workers, with bit-identical results;
``seeded_normals`` keys a block of them in one vectorized pass of numpy's
SeedSequence hash.
"""

from __future__ import annotations

import functools
import math
import numbers
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


# The normal-scale maps: knots on [-NORMAL_MAP_EDGE, NORMAL_MAP_EDGE] (the
# Beta map's and the truncated-normal map's counts), the largest midpoint
# error a table may show, and the evaluation block.
NORMAL_MAP_KNOTS = 2049
TRUNCNORM_MAP_KNOTS = 8193
NORMAL_MAP_EDGE = 8.0
NORMAL_MAP_TOL = 1e-11
NORMAL_MAP_BLOCK = 1 << 15
_TINY = np.finfo(float).tiny
_BELOW_ONE = np.nextafter(1.0, 0.0)


def clipped_normal_cdf(x):
    """Overwrite the float array x with Phi(x) clipped into [tiny, 1 - 2^-53]
    and return it: copula probabilities inside the open unit interval, since
    Phi rounds to 1 from x = 8.3 and to 0 below about -38."""
    special.ndtr(x, out=x)
    return np.clip(x, _TINY, _BELOW_ONE, out=x)


def _beta_from_normal_exact(a, b, x):
    """Overwrite the float array x with F^{-1}(Phi(x)) for Beta(a, b) through
    ``beta_quantile`` and return it.

    The upper half uses the mirror 1 - F_{b,a}^{-1}(Phi(-x)), since Phi(x)
    rounds to 1 for x >= 8.3 and loses the tail probability well before; the
    lower tail probability is clipped to the smallest normal float, which
    Phi(x) underflows below about x = -37.5.
    """
    upper = x > 0.0
    lower = ~upper
    x[lower] = beta_quantile(a, b, np.maximum(special.ndtr(x[lower]), _TINY))
    x[upper] = 1.0 - beta_quantile(b, a, np.maximum(special.ndtr(-x[upper]), _TINY))
    return x


def _beta_slope(a, b, x, y):
    """dy/dx = phi(x) / f(y) of the Beta map, with f the Beta(a, b) density."""
    log_pdf = (a - 1.0) * np.log(y) + (b - 1.0) * np.log1p(-y) - special.betaln(a, b)
    return np.exp(-0.5 * x * x - 0.5 * np.log(2.0 * np.pi) - log_pdf)


def _truncnorm_from_normal_exact(mu, sigma, lo, hi, x):
    """Overwrite the float array x with Q(Phi(x)) for the truncated normal,
    Phi(x) clipped by ``clipped_normal_cdf`` and Q = ``truncnorm_quantile``,
    every step in place; return x."""
    return truncnorm_quantile(mu, sigma, lo, hi, clipped_normal_cdf(x), out=x)


def _truncnorm_slope(mu, sigma, lo, hi, x, y):
    """dy/dx = sigma (Phi(beta) - Phi(alpha)) phi(x) / phi((y - mu) / sigma)
    of the truncated-normal map, with alpha, beta the standardized bounds."""
    mass = special.ndtr((hi - mu) / sigma) - special.ndtr((lo - mu) / sigma)
    z = (y - mu) / sigma
    return sigma * mass * np.exp(0.5 * (z * z - x * x))


def _hermite_table(exact, slope, knots):
    """Cubic Hermite coefficients of a normal-scale map x -> y, or None.

    ``exact`` is the map itself, in place on a float array; ``slope(x, y)``
    is its closed-form derivative.  Knot values come from the exact map and
    knot slopes from the closed form, on ``knots`` uniform knots over
    |x| <= NORMAL_MAP_EDGE.  On interval i, with t = (x - x_i) / h in
    [0, 1), the value is c0 + t (c1 + t (c2 + t c3)).  The table is returned
    only when it agrees with the exact map to NORMAL_MAP_TOL at every
    interval midpoint, where a cubic Hermite interpolant's error is largest.
    """
    x = np.linspace(-NORMAL_MAP_EDGE, NORMAL_MAP_EDGE, knots)
    h = x[1] - x[0]
    y = exact(x.copy())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = h * slope(x, y)
        dy = np.diff(y)
        c0, c1 = y[:-1], m[:-1]
        c2 = 3.0 * dy - 2.0 * m[:-1] - m[1:]
        c3 = m[:-1] + m[1:] - 2.0 * dy
        mid = c0 + 0.5 * (c1 + 0.5 * (c2 + 0.5 * c3))
        err = np.abs(mid - exact(x[:-1] + 0.5 * h))
    if not np.all(err <= NORMAL_MAP_TOL):
        return None
    return x[0], h, (c0, c1, c2, c3)


def _normal_map(exact, slope, knots):
    """The in-place map with its table, built once; see beta_normal_map."""
    return functools.partial(_apply_normal_map, exact, _hermite_table(exact, slope, knots))


def beta_normal_map(a, b):
    """The in-place map x -> F^{-1}(Phi(x)) for Beta(a, b), set up once.

    The Gaussian-copula transform of a standard normal draw to a Beta(a, b)
    value, without the per-value root-find of ``betaincinv``: a cubic
    Hermite table on NORMAL_MAP_KNOTS uniform knots over |x| <= 8, built
    here (a few milliseconds) and evaluated in place, block by block, by the
    returned function, so no temporary grows with x.  Its maximum error
    against the exact map is below NORMAL_MAP_TOL (about 3e-14 for
    Beta(10, 10)).  Values beyond the knots, and every value when the table
    fails its midpoint check (for shapes below about 0.7), go through the
    exact map ``beta_quantile``.

    The function takes a writable C-contiguous float64 array, overwrites it
    and returns it.
    """
    if not (a > 0 and b > 0):
        raise ValueError("beta shape parameters must be positive")
    return _normal_map(
        functools.partial(_beta_from_normal_exact, a, b),
        functools.partial(_beta_slope, a, b),
        NORMAL_MAP_KNOTS,
    )


def truncnorm_normal_map(mu, sigma, lo, hi):
    """The in-place map x -> Q(Phi(x)) for normal(mu, sigma^2) truncated to
    [lo, hi], set up once like ``beta_normal_map``.

    The exact map clips Phi(x) by ``clipped_normal_cdf`` and applies
    ``truncnorm_quantile``, so far tails map inside [lo, hi].  Its table has
    TRUNCNORM_MAP_KNOTS knots and an absolute error on the outcome scale of
    about 7e-12 for truncnormal(0, 5, -20, 20); a wide marginal such as
    sigma = 1000 fails the midpoint check and takes the exact map throughout.
    """
    params = (mu, sigma, lo, hi)
    return _normal_map(
        functools.partial(_truncnorm_from_normal_exact, *params),
        functools.partial(_truncnorm_slope, *params),
        TRUNCNORM_MAP_KNOTS,
    )


def _apply_normal_map(exact, table, x):
    if not (
        isinstance(x, np.ndarray) and x.dtype == np.float64
        and x.flags.c_contiguous and x.flags.writeable
    ):
        raise ValueError("x must be a writable C-contiguous float64 array")
    flat = x.reshape(-1)
    if table is None:
        for start in range(0, flat.size, NORMAL_MAP_BLOCK):
            exact(flat[start:start + NORMAL_MAP_BLOCK])
        return x
    x0, h, (c0, c1, c2, c3) = table
    size = min(flat.size, NORMAL_MAP_BLOCK)
    t_buf, c_buf, i_buf = np.empty(size), np.empty(size), np.empty(size, dtype=np.intp)
    for start in range(0, flat.size, NORMAL_MAP_BLOCK):
        block = flat[start:start + NORMAL_MAP_BLOCK]
        k = block.size
        t, c, i = t_buf[:k], c_buf[:k], i_buf[:k]
        # Values beyond the knots, and NaN (which fails both comparisons), take
        # the exact map; their slots are zeroed, so the index sees knot values.
        far = None
        if not (block.min() >= -NORMAL_MAP_EDGE and block.max() <= NORMAL_MAP_EDGE):
            far = np.flatnonzero(~(np.abs(block) <= NORMAL_MAP_EDGE))
            tails = exact(block[far])
            block[far] = 0.0
        np.subtract(block, x0, out=t)
        t /= h
        # t = (x + EDGE) / h >= 0, so floor is the int cast and needs no lower
        # clip; x = +EDGE gives t = knots - 1, moved to the last interval (t = 1).
        np.floor(t, out=c)
        np.minimum(c, c0.size - 1, out=c)
        t -= c
        np.copyto(i, c, casting="unsafe")
        # mode="clip" spares take()'s buffered out= copy (mode="raise" makes
        # one); i already lies on the table, so no index moves.
        np.take(c3, i, out=block, mode="clip")
        for coef in (c2, c1, c0):
            block *= t
            np.take(coef, i, out=c, mode="clip")
            block += c
        if far is not None:
            block[far] = tails
    return x


def truncnorm_quantile(mu, sigma, lo, hi, p, out=None):
    """Quantile of a normal(mu, sigma^2) truncated to [lo, hi].

    Computed by inverting the normal CDF on the renormalized interval:
    x = mu + sigma * Phi^{-1}(Phi(alpha) + p * (Phi(beta) - Phi(alpha))).
    The result is clipped to [lo, hi] to absorb boundary rounding.  With
    ``out`` (a float64 array of p's shape, which may be p itself) every step
    writes there, in the same order of operations, and ``out`` is returned.
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
    x = np.multiply(p, b - a, out=out)
    x = np.add(a, x, out=out)
    x = special.ndtri(x, out=out)
    x = np.multiply(sigma, x, out=out)
    x = np.add(mu, x, out=out)
    return np.clip(x, lo, hi, out=out)


def validate_correlation(A):
    """Check that A is a square symmetric matrix with unit diagonal, each to
    1e-8 (the symmetry relative to the largest |entry| when that exceeds 1)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("correlation matrix must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("correlation matrix must be finite")
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.T).max() > 1e-8 * scale:
        raise ValueError("correlation matrix must be symmetric")
    if np.abs(np.diagonal(A) - 1.0).max() > 1e-8:
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


# The repair weights ensure_pd tries: 0, then 1e-6 times 10, 100, ... in
# floating point (so 1e-5 is 9.999999999999999e-06), then 1.
SHRINKAGE_GRID = (0.0, 1e-06, 9.999999999999999e-06, 9.999999999999999e-05, 0.001, 0.01, 0.1, 1.0)


def ensure_pd(corr, sign=1):
    """Shrink a correlation toward the identity until it is PD.

    ``corr`` is a matrix A, taken as 0.5 (A + A^T), or a loading vector v
    standing for diag(1 - sign v^2) + sign v v^T, as ``_copula_factor``
    takes it.  Tries (1 - lam) A + lam I, which for v is the same form with
    v -> sqrt(1 - lam) v, for lam on SHRINKAGE_GRID, the geometric grid
    {0, 1e-6, 1e-5, ..., 1}, and keeps the smallest lam whose ``cholesky``
    (``rank_one_cholesky``) succeeds; lam = 1, the identity, always does.
    A unit diagonal is preserved exactly.  Returns (the repaired matrix or
    vector, PDRepair report).
    """
    corr = np.asarray(corr, dtype=float)
    if corr.ndim == 1:
        factor = functools.partial(rank_one_cholesky, sign=sign)
        shrink = lambda lam: math.sqrt(1.0 - lam) * corr
    elif corr.ndim == 2 and corr.shape[0] == corr.shape[1]:
        corr = 0.5 * (corr + corr.T)
        eye = np.eye(corr.shape[0])
        factor = cholesky
        shrink = lambda lam: (1.0 - lam) * corr + lam * eye
    else:
        raise ValueError("ensure_pd needs a square matrix or a loading vector")
    for attempts, lam in enumerate(SHRINKAGE_GRID, start=1):
        candidate = corr if lam == 0.0 else shrink(lam)
        try:
            factor(candidate)
        except NotPositiveDefiniteError:
            continue
        return candidate, PDRepair(lam=lam, attempts=attempts)
    raise AssertionError("unreachable: the identity is positive definite")


def rank_one_cholesky(v, sign=1):
    """Semiseparable Cholesky factor of C = diag(1 - sign v^2) + sign v v^T.

    C has a unit diagonal and off-diagonal entries sign v_i v_j, sign = +1
    or -1 (the rank-one update or downdate).  Its lower factor L has
    L_jj = d_j and L_ij = sign v_i g_j for i > j, from the recurrence (Gill,
    Golub, Murray & Saunders 1974; Vandebril, Van Barel & Mastronardi 2008)

        d_j^2 = 1 - v_j^2 S_j,  g_j = v_j (1 - sign S_j) / d_j,  S_{j+1} = S_j + g_j^2,

    with S_1 = 0: O(n) work and no n x n matrix.  C is positive definite
    exactly when every d_j^2 > 0, the condition under which a Cholesky
    factorization succeeds; otherwise NotPositiveDefiniteError is raised.
    Returns (d, g).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or not np.all(np.isfinite(v)):
        raise ValueError("loading vector must be 1-D and finite")
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    d, g = [], []
    s = 0.0
    for vj in v.tolist():
        d2 = 1.0 - vj * vj * s
        if not d2 > 0.0:
            raise NotPositiveDefiniteError(
                "rank-one correlation is not positive definite; repair it with ensure_pd"
            )
        dj = math.sqrt(d2)
        gj = vj * (1.0 - sign * s) / dj
        d.append(dj)
        g.append(gj)
        s += gj * gj
    return np.array(d), np.array(g)


def _stream_key(master_seed, stream_index):
    """(master_seed, stream_index) as Python ints; both must be nonnegative
    integers (a float seed is refused, not truncated)."""
    for value in (master_seed, stream_index):
        if not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"seed and stream index must be nonnegative integers, got {value!r}")
    return int(master_seed), int(stream_index)


def seeded_stream(master_seed, stream_index):
    """Deterministic uniform stream keyed by (master_seed, stream_index).

    Distinct indices yield statistically independent Philox streams; the
    same pair always reproduces the same sequence, independent of how many
    other streams exist or the order in which they are consumed.  This is
    the single-stream entry point; ``seeded_normals`` draws many rows of
    these streams at once, bit for bit the same.
    """
    master_seed, stream_index = _stream_key(master_seed, stream_index)
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream_index,))
    return np.random.Generator(np.random.Philox(seq))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool size,
# the two multiplicative hash constants and the mixing multipliers.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(value, hash_const, mult):
    """SeedSequence's hashmix on a uint32 array; returns (value, next hash_const)."""
    value = value ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> np.uint32(16)), hash_const


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _philox_keys(master_seed, indices):
    """The Philox keys of ``seeded_stream(master_seed, r)`` for each r in the
    uint32 array ``indices``: a (len(indices), 2) uint64 array.

    One vectorized pass of SeedSequence(master_seed, spawn_key=(r,)):
    the entropy is the seed's 32-bit words, zero-padded to the pool size,
    then the spawn word r; ``mix_entropy`` folds it into the pool and
    ``generate_state(2, np.uint64)`` hashes the pool into the key.
    """
    words = []
    while True:
        words.append(master_seed & _MASK32)
        master_seed >>= 32
        if not master_seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(indices.shape, w, dtype=np.uint32) for w in words] + [indices]
    pool = []
    hash_const = _INIT_A
    for word in entropy[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    state = []
    hash_const = _INIT_B
    for word in pool:
        value, hash_const = _hashmix(word, hash_const, _MULT_B)
        state.append(value.astype(np.uint64))
    # little-endian word pairs, as generate_state views them
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


def seeded_normals(master_seed, start, out):
    """Fill row i of the 2-D float64 array ``out`` with the standard normals
    that ``seeded_stream(master_seed, start + i).standard_normal`` draws and
    return ``out``, bit for bit.

    The rows' Philox keys come from one vectorized pass of numpy's
    SeedSequence hash (``_philox_keys``), and one Philox generator is
    re-keyed per row to counter 0 with an empty output buffer, the state a
    fresh Philox starts in, instead of building a SeedSequence and a
    generator per stream.  Stream indices must lie below 2**32, where the
    spawn key is one 32-bit word.
    """
    master_seed, start = _stream_key(master_seed, start)
    rows = out.shape[0]
    if start + rows > 2**32:
        raise ValueError("stream indices must lie below 2**32")
    keys = _philox_keys(master_seed, (start + np.arange(rows)).astype(np.uint32))
    bit_generator = np.random.Philox(0)
    generator = np.random.Generator(bit_generator)
    for key, row in zip(keys.tolist(), out):  # Python ints: the setter indexes each entry
        bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        generator.standard_normal(out=row)
    return out
