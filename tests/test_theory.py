"""The pair kernel against exact results of the neutral voter model.

With no leaders, no shops and no unknown wishes, each slot column of an
equality run is the neutral voter (Moran) process on the complete graph
(Castellano, Fortunato & Loreto, Rev. Mod. Phys. 81, 591 (2009)).  A column's
mean is then a martingale, so each customer's initial value becomes the
consensus with probability 1/K.  The bound below follows from that law alone,
and the seed, the run count and the bound were set before the first run.
"""

import numpy as np
from scipy.stats import chi2

from brandsim import KernelParams, Mode, NeedSchema, Population, sweep

K = 10
RUNS = 4000
SEED = 591
#: a chi-square of the K winner counts exceeds this with probability 1e-6 under the law
CHI2_BOUND = chi2.isf(1e-6, K - 1)


def fixation_winner(rng):
    """The customer whose initial value a one-slot neutral run ends at:
    customer k starts at (k + 1) / K."""
    pop = Population(NeedSchema((1,)), np.arange(1, K + 1)[:, None] / K, np.zeros(K),
                     [[1.0]], (1,))
    w = pop.wish_matrix
    while not (w == w[0]).all():
        sweep(pop, Mode.EQUALITY, KernelParams(p_copy=1.0), rng)
    return int(round(w[0, 0] * K)) - 1


def test_each_initial_value_fixes_with_probability_one_over_k():
    rng = np.random.default_rng(SEED)
    counts = np.bincount([fixation_winner(rng) for _ in range(RUNS)], minlength=K)
    expected = RUNS / K
    assert ((counts - expected) ** 2 / expected).sum() < CHI2_BOUND, counts.tolist()
