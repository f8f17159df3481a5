"""The coverage engine's draws against the paper's variance identity.

Var(sum_i w_i eps_i) = sigma^2 sum_i w_i^2 + sum_{i != j} w_i w_j sigma^2 rho_Y(c_ij)
for a Gaussian copula with normal-scale correlations c_ij.  The
outcome-scale covariance comes from the Hermite expansion of the marginal's
normal map g (``MarginalSpec.normal_map``, quantile(Phi(.))) (Mehler's
formula; Lancaster 1957):
sigma^2 rho_Y(c) = sum_{k>=1} a_k^2 c^k / k!, a_k = E[g(Z) He_k(Z)].

The cell oracles reuse the sampler and the goldens pin the engine against
itself; this checks that a cell draws with the correlation it reports.  Each
comparison is z = (mean of err^2 - identity) / its Monte Carlo standard
error, err the engine's own per-replication errors (``_Cell.err`` as
``_score_blocks`` fills them, mean zero for these symmetric marginals).
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from densum.core import DependencySummary
from densum.estimators import _qr_weight_rows
from densum.simulation import (
    REGRESSION_C_STAR,
    TABLE3_BETA,
    TABLE3_SIGMA,
    ExperimentConfig,
    MarginalSpec,
    _Cell,
    _copula_factor,
    _exchangeable_copula,
    _mean_cell,
    _score_blocks,
    _table3_copula,
    table3_design,
)
from densum.variance import additive_variance

# The seed, reps and bound were fixed before the first run.
SEED = 25
REPS = 10000
Z_BOUND = 4.5  # on every |z| of the 28 comparisons below
K = 25  # Hermite terms
NODES = 150  # hermegauss quadrature nodes

BETA = MarginalSpec.beta(10, 10)  # table 1
TRUNCNORMAL = MarginalSpec.truncnormal(0.0, TABLE3_SIGMA, -20.0, 20.0)  # table 3

# Table 1's grid at n = 100 and 500 plus a negative phi each.
TABLE1_CELLS = {100: (0.0, 0.06, 0.1, 0.2, -0.005), 500: (0.0, 0.01, 0.05, 0.1, -0.001)}
# Table 3's phi*, negative ones included: on SEED's designs -0.15 at n = 100
# and -0.05 at n = 500 are repaired to lambda = 1 (the identity).
TABLE3_CELLS = {100: (0.0, 0.05, 0.15, -0.05, -0.15), 500: (0.0, 0.05, 0.15, -0.05)}


def hermite_terms(marginal):
    """a_k^2 / k! for k = 1 .. K, a_k = E[g(Z) He_k(Z)] by Gauss-Hermite
    quadrature, He_k the probabilists' Hermite polynomials."""
    x, weights = hermegauss(NODES)
    weights = weights / math.sqrt(2.0 * math.pi)  # E f(Z) = weights @ f(x)
    g = marginal.normal_map()(x.copy())
    he_prev, he = np.ones_like(x), x.copy()
    terms = []
    for k in range(1, K + 1):
        terms.append(float(weights @ (g * he)) ** 2 / math.factorial(k))
        he_prev, he = he, x * he - k * he_prev
    return np.array(terms)


def mc_z(err, predicted):
    sq = err * err
    return (float(np.mean(sq)) - predicted) / (float(np.std(sq, ddof=1)) / math.sqrt(sq.size))


@pytest.mark.parametrize("marginal", [BETA, TRUNCNORMAL], ids=["beta-10-10", "truncnormal"])
def test_the_hermite_terms_sum_to_the_marginal_variance(marginal):
    assert hermite_terms(marginal).sum() == pytest.approx(marginal.variance, rel=1e-6)


@pytest.mark.parametrize("n", sorted(TABLE1_CELLS))
def test_mean_cells_draw_the_exchangeable_variance(n):
    phis = TABLE1_CELLS[n]
    config = ExperimentConfig(table=1, reps=REPS, master_seed=SEED)
    to_marginal = BETA.normal_map()
    cells = [_mean_cell(n, BETA, to_marginal, config) for _ in phis]
    _score_blocks(n, REPS, SEED, [(_copula_factor(*_exchangeable_copula(n, phi)), [cell.add])
                                  for phi, cell in zip(phis, cells)])
    terms = hermite_terms(BETA)
    sigma2 = BETA.variance
    z = {}
    for phi, cell in zip(phis, cells):
        # every pair's normal-scale correlation is phi, so rho_Y is one number
        rho_y = float(terms @ phi ** np.arange(1, K + 1)) / sigma2
        identity = additive_variance(cell.W, np.full(n, sigma2),
                                     DependencySummary(mu=n - 1, phi=rho_y)).total[0, 0]
        z[phi] = mc_z(cell.err[:, 0], identity)
    assert max(map(abs, z.values())) <= Z_BOUND, z


@pytest.mark.parametrize("n", sorted(TABLE3_CELLS))
def test_regression_cells_draw_the_mosaic_variance(n):
    phis = TABLE3_CELLS[n]
    X = table3_design(n, SEED)
    W = _qr_weight_rows(X)
    copulas = [_table3_copula(phi_star, W[0]) for phi_star in phis]
    assert [repair.lam for _, _, repair in copulas][-1] == 1.0
    config = ExperimentConfig(table=3, reps=REPS, master_seed=SEED)
    to_marginal = TRUNCNORMAL.normal_map()
    cells = [_Cell(X, W, TRUNCNORMAL, to_marginal, config, TABLE3_BETA, REGRESSION_C_STAR,
                   ("beta0", "beta1")) for _ in phis]
    _score_blocks(n, REPS, SEED, [(_copula_factor(v, sign), [cell.add])
                                  for (v, sign, _), cell in zip(copulas, cells)])
    terms = hermite_terms(TRUNCNORMAL)
    k = np.arange(1, K + 1)
    z = {}
    for phi_star, (v, sign, _), cell in zip(phis, copulas, cells):
        assert v.ndim == 1  # the rank-one mosaic c_ij = sign v_i v_j, not the clipped one
        vk = v[None, :] ** k[:, None]
        for s, w in enumerate(W):
            # sum_{i != j} w_i w_j c_ij^k = sign^k ((sum_i w_i v_i^k)^2 - sum_i w_i^2 v_i^2k)
            cross = float(sign ** k * ((vk @ w) ** 2 - (vk * vk) @ (w * w)) @ terms)
            identity = TRUNCNORMAL.variance * float(w @ w) + cross
            z[phi_star, s] = mc_z(cell.err[:, s], identity)
    assert max(map(abs, z.values())) <= Z_BOUND, z
