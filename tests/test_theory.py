"""The pair kernel against exact results of the neutral voter model.

With no leaders, no shops and no unknown wishes, each slot column of an
equality run is the neutral voter (Moran) process on the complete graph
(Castellano, Fortunato & Loreto, Rev. Mod. Phys. 81, 591 (2009)).  A column's
mean is then a martingale, so each customer's initial value becomes the
consensus with probability 1/K.  The bound below follows from that law alone,
and the seed, the run count and the bound were set before the first run.

In hierarchy mode with no shops and no unknown wishes, the customers of the
top rank never learn: a pair copies only from the higher ranked, and leaders
teach only non-leaders.  So the one state every row can end in is a top-ranked
customer's initial profile.  Its seeds, sizes and run counts were set before
the first run too.
"""

import numpy as np
from scipy.stats import chi2

from brandsim import Mode, NeedSchema, Population, SimConfig, init_population, sweep
from populations import rates

K = 10
RUNS = 4000
SEED = 591
#: a chi-square of the K winner counts exceeds this with probability 1e-6 under the law
CHI2_BOUND = chi2.isf(1e-6, K - 1)
#: runs per hierarchy case, and the sweeps any of them may take to reach consensus
HIERARCHY_RUNS = 20
MAX_SWEEPS = 20_000


def fixation_winner(rng):
    """The customer whose initial value a one-slot neutral run ends at:
    customer k starts at (k + 1) / K."""
    pop = Population(NeedSchema((1,)), np.arange(1, K + 1)[:, None] / K, np.zeros(K),
                     [[1.0]], (1,))
    w = pop.wish_matrix
    while not (w == w[0]).all():
        sweep(pop, Mode.EQUALITY, rates(p_copy=1.0), rng)
    return int(round(w[0, 0] * K)) - 1


def test_each_initial_value_fixes_with_probability_one_over_k():
    rng = np.random.default_rng(SEED)
    counts = np.bincount([fixation_winner(rng) for _ in range(RUNS)], minlength=K)
    expected = RUNS / K
    assert ((counts - expected) ** 2 / expected).sum() < CHI2_BOUND, counts.tolist()


def consensus_row(pop, params, rng):
    """The row every customer holds once a hierarchy run first reaches consensus."""
    w = pop.wish_matrix
    while not (w == w[0]).all():
        assert pop.t < MAX_SWEEPS, "no consensus"
        sweep(pop, Mode.HIERARCHY, params, rng)
    return w[0]


def test_unique_top_rank_fixes_its_initial_profile():
    # no rank is 1, so there are no leaders; the ranks are 0, 1/K, ..., (K-1)/K
    rng = np.random.default_rng(SEED + 1)
    for _ in range(HIERARCHY_RUNS):
        ranks = rng.permutation(K) / K
        pop = Population(NeedSchema((2, 3)), 1.0 - rng.random((K, 5)), ranks,
                         1.0 - rng.random((2, 5)), (1, 1))
        top = pop.wish_matrix[np.argmax(ranks)].copy()
        assert consensus_row(pop, rates(p_copy=1.0), rng).tobytes() == top.tobytes()


def test_aligned_leaders_fix_their_brand():
    for seed in range(HIERARCHY_RUNS):
        brand = seed % 3
        cfg = SimConfig(N=3, K=K, M=2, mode=Mode.HIERARCHY, seed=seed, p_unknown=0.0,
                        leader_count=2, leader_pupils=3, aligned_leader_brand=brand)
        rng = np.random.default_rng(cfg.seed)
        pop = init_population(cfg, rng)
        assortment = pop.assortment_matrix[brand]
        assert consensus_row(pop, cfg, rng).tobytes() == assortment.tobytes()
