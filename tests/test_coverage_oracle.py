"""An exact oracle for the mean grids' known-range coverage rates (``ci_u``).

For phi >= 0 a mean cell's exchangeable normals are sqrt(phi) u +
sqrt(1 - phi) eps_i, with u, eps_1, ..., eps_n independent standard normals
(the one-factor device of Vasicek 2002, "The distribution of loan portfolio
value", Risk 15(12):160-162), so given u the outcomes Y_i = F^-1(Phi(.)) are
independent and identically distributed.  The known-range set's half-width
h = R sqrt(sum w^2) sqrt(log(2/alpha) / 6) is fixed per cell (R = 1,
w = 1/n), so ``ci_u`` estimates

    c = P(|Ybar - mu| <= h) = int P(|Ybar - mu| <= h | u) dPhi(u),

and Gil-Pelaez inversion (1951, Biometrika 38:481-482) of Ybar - mu's
characteristic function psi_u(t/n)^n gives the conditional probability

    P(|Ybar - mu| <= h | u) = (2/pi) int_0^inf sin(t h)/t Re psi_u(t/n)^n dt,

psi_u(s) = E[exp(i s (Y - mu)) | u] a Gauss-Hermite sum over eps through the
exact quantile (``betaincinv``) and ``ndtr``.  The integral over u is a
Gauss-Hermite sum; the one over t is Gauss-Legendre on [0, K / sd_u], sd_u
the conditional standard deviation of Ybar, beyond which psi_u(t/n)^n is
below exp(-K^2 / 2).  A Beta(a, a) marginal is symmetric about mu = 1/2, so
psi_{-u} is the conjugate of psi_u and the positive u nodes carry the sum.

h is written out here, not taken from ``half_width``, so a wrong constant in
the library is caught rather than shared.  The engine maps through a cubic
Hermite table, the oracle through the exact quantile, so the check also
bounds the table's error where it matters.
"""

import functools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betaincinv, ndtr, roots_hermitenorm

from densum.simulation import (
    TABLE1_GRID,
    TABLE2_SHAPES,
    ExperimentConfig,
    read_results_csv,
    run_table1,
    run_table2,
)

GOLDEN = Path(__file__).parent / "golden"
ALPHA = 0.05  # every table's level is 1 - ALPHA

# Fixed before the first run: Gauss-Hermite nodes in u (the positive half
# used) and in eps, Gauss-Legendre nodes in t, the t range in conditional
# standard deviations, and the bound on |c_hat - c| in binomial SEs.
NODES_U, NODES_EPS, NODES_T, K = 200, 80, 400, 9.0
Z_BOUND = 4.0
FRESH_SEED = 39  # no golden uses it

# (table, n, phi, Beta shape): table 1's phi > 0 cells and table 2's shapes
CELLS = ([(1, n, phi, 10.0) for n, phis in TABLE1_GRID.items() for phi in phis if phi > 0]
         + [(2, 500, 0.1, shape) for shape in TABLE2_SHAPES])


def _hermite(count):
    """Gauss-Hermite nodes and weights for the standard normal law."""
    x, w = roots_hermitenorm(count)
    return x, w / math.sqrt(2.0 * math.pi)


@functools.cache
def exact_coverage(n, phi, shape, nodes_u=NODES_U, nodes_eps=NODES_EPS, nodes_t=NODES_T):
    """c = P(|Ybar - 1/2| <= h) for n exchangeable Beta(shape, shape)
    outcomes at normal-scale correlation phi >= 0."""
    h = math.sqrt(math.log(2.0 / ALPHA) / 6.0) / math.sqrt(n)
    u, wu = _hermite(nodes_u)
    u, wu = u[u > 0], 2.0 * wu[u > 0]
    eps, we = _hermite(nodes_eps)
    g, wg = np.polynomial.legendre.leggauss(nodes_t)
    tau, wtau = (g + 1.0) / 2.0, wg / 2.0
    z = math.sqrt(phi) * u[:, None] + math.sqrt(1.0 - phi) * eps
    # Y - 1/2 by the symmetry F^-1(Phi(z)) = 1 - F^-1(Phi(-z)): the lower tail keeps its digits
    d = np.sign(z) * (0.5 - betaincinv(shape, shape, ndtr(-np.abs(z))))
    mean = d @ we
    sd = np.sqrt((d * d @ we - mean * mean) / n)
    conditional = np.empty(u.size)
    for k, (d_k, sd_k) in enumerate(zip(d, sd)):
        top = K / sd_k
        t = top * tau
        phase = (t / n)[:, None] * d_k
        psi = np.cos(phase) @ we + 1j * (np.sin(phase) @ we)
        psi_n = np.abs(psi) ** n * np.cos(n * np.angle(psi))  # Re psi^n
        conditional[k] = 2.0 / math.pi * top * float((np.sin(t * h) / t * psi_n) @ wtau)
    return float(conditional @ wu)


def _z_scores(rates, reps):
    """(c_hat - c) / sqrt(c (1 - c) / reps) per cell of CELLS, from a
    {(table, n, phi, shape): c_hat} map."""
    z = {}
    for cell in CELLS:
        c = exact_coverage(*cell[1:])
        z[cell] = (rates[cell] - c) / math.sqrt(c * (1.0 - c) / reps)
    return z


def test_the_goldens_cover_at_the_exact_rate():
    rows = [row for table in (1, 2)
            for row in read_results_csv(GOLDEN / f"table{table}_reps10000_seed0.csv")]
    z = _z_scores({(int(row["table"]), int(row["n"]), float(row["phi"]),
                    float(row["alpha_shape"] or 10.0)): float(row["ci_u"]) for row in rows}, 10000)
    assert max(map(abs, z.values())) <= Z_BOUND, z


def test_a_fresh_run_covers_at_the_exact_rate():
    settings = dict(reps=2000, master_seed=FRESH_SEED)
    rows = (run_table1(ExperimentConfig(table=1, **settings))
            + run_table2(ExperimentConfig(table=2, **settings)))
    z = _z_scores({(row.table, row.n, row.phi, row.alpha_shape or 10.0): row.ci_u
                   for row in rows}, settings["reps"])
    assert max(map(abs, z.values())) <= Z_BOUND, z


@pytest.mark.acceptance
@pytest.mark.parametrize("cell", CELLS,
                         ids=[f"t{t}-n{n}-phi{phi}-a{a:g}" for t, n, phi, a in CELLS])
def test_doubling_the_nodes_moves_no_rate(cell):
    _, n, phi, shape = cell
    doubled = exact_coverage(n, phi, shape, 2 * NODES_U, 2 * NODES_EPS, 2 * NODES_T)
    assert abs(doubled - exact_coverage(n, phi, shape)) < 1e-4
