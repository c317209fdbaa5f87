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

In equality mode with shops, each slot column is a voter model with zealots
(Mobilia, PRL 91, 028701 (2003)): brand b's assortment value never changes,
and b teaches ``round(rate * shop_count_b)`` customers per sweep.  A pair event
picks a uniform ordered pair, so it moves no value's expected count; a brand's
event maps the expected count of its own value m to m(1 - r/K) + r and every
other brand's to m(1 - r/K), where r is the chance that the event copies into
that column.  The brands act in id order, so the mean shares at sweep ends are
the fixed point of those maps composed in that order, and from a known start
sweep t's mean shares are that composition's t-th power applied to it.  The
seeds, run lengths and bound were set before the first run, the run lengths
from the spread of a run on another seed.
"""

import numpy as np
import pytest

from brandsim import Mode, NeedSchema, Population, SimConfig, init_population, sweep
from populations import rates

K = 10
RUNS = 4000
SEED = 591
#: a chi-square of the K winner counts exceeds this with probability 1e-6 under the law:
#: ``scipy.stats.chi2.isf(1e-6, K - 1)``, written out so the tests need no scipy
CHI2_BOUND = 44.81093787068782
#: runs per hierarchy case, and the sweeps any of them may take to reach consensus
HIERARCHY_RUNS = 20
MAX_SWEEPS = 20_000
#: sweeps dropped before the shop shares are read, then batches of sweeps whose mean
#: shares are taken as independent, and the bound on each share's t statistic over them
BURN_IN = 100
BATCHES = 25
BATCH_SWEEPS = 500
T_BOUND = 5.0
#: independent runs from the start, and the sweeps of each whose shares are read
FIRST_RUNS = 2000
FIRST_SWEEPS = 2


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


def shop_map(K, events, r):
    """What one sweep's shop events make of the expected counts m of the brands' values,
    as the affine map on (m, 1), in a column where an event copies with probability
    ``r``: brand b makes ``events[b]`` events, and the brands act in id order."""
    N = len(events)
    composed = np.eye(N + 1)
    for b, count in enumerate(events):
        event = np.diag([1 - r / K] * N + [1.0])
        event[b, N] = r
        composed = np.linalg.matrix_power(event, count) @ composed
    return composed


def slot_rates(jmax):
    """The chance that an event copies into each slot at ``p_copy = 1``: it picks a
    need, then one of its slots, so slot s of need i with 1 / (M jmax[i])."""
    return np.concatenate([np.full(j, 1 / (len(jmax) * j)) for j in jmax])


def shop_population(K, jmax, shop_counts):
    """Every customer starts at 1.0, which no brand offers; brand b offers (b + 1) / 8."""
    N, S = len(shop_counts), sum(jmax)
    assortment = np.repeat(np.arange(1, N + 1)[:, None] / 8, S, axis=1)
    return Population(NeedSchema(jmax), np.ones((K, S)), np.zeros(K), assortment, shop_counts)


def holders(pop, values):
    """Per row of ``values`` and per slot, how many customers hold that value there."""
    return (pop.wish_matrix == values[:, None, :]).sum(axis=1)


def t_statistics(samples, exact):
    """Each cell's mean over independent samples against its exact value, in standard errors."""
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    return (samples.mean(axis=0) - exact) / se


@pytest.mark.parametrize("K, jmax, shop_counts, rate, events, seed", [
    (20, (1,), (1, 3), 1.0, (1, 3), SEED + 2),
    # round(1.5) = round(2.5) = 2: Python rounds half to even
    (3, (1, 2), (3, 5), 0.5, (2, 2), SEED + 3),
], ids=["one_slot_k20", "two_slots_k3"])
def test_shop_shares_follow_the_zealot_law(K, jmax, shop_counts, rate, events, seed):
    # the mean shares at sweep ends are the fixed point of the sweep's map
    N = len(events)
    exact = []
    for r in slot_rates(jmax):
        composed = shop_map(K, events, r)
        exact.append(np.linalg.solve(np.eye(N) - composed[:N, :N], composed[:N, N]) / K)
    exact = np.stack(exact, axis=1)
    pop = shop_population(K, jmax, shop_counts)
    params = rates(p_copy=1.0, shop_teach_rate=rate)
    rng = np.random.default_rng(seed)
    for _ in range(BURN_IN):
        sweep(pop, Mode.EQUALITY, params, rng)
    held = np.zeros((BATCHES,) + exact.shape)
    for batch in held:
        for _ in range(BATCH_SWEEPS):
            sweep(pop, Mode.EQUALITY, params, rng)
            batch += holders(pop, pop.assortment_matrix)
    shares = held / (BATCH_SWEEPS * K)
    t = t_statistics(shares, exact)
    assert (np.abs(t) < T_BOUND).all(), (t.tolist(), shares.mean(axis=0).tolist())


def test_first_sweeps_follow_the_zealot_maps():
    # from the start, sweep t's mean shares are the map's t-th power applied to no
    # holders; the start value holds the rest.  Its share falls by a power of 1 - r/K,
    # so a wrong slot rate r shows most in it.
    K, jmax, shop_counts, events = 3, (1, 2), (3, 5), (2, 2)
    N, S = len(events), sum(jmax)
    exact = np.zeros((FIRST_SWEEPS, N + 1, S))
    for s, r in enumerate(slot_rates(jmax)):
        composed = shop_map(K, events, r)
        for t in range(FIRST_SWEEPS):
            exact[t, :N, s] = np.linalg.matrix_power(composed, t + 1)[:N, N] / K
    exact[:, N] = 1.0 - exact[:, :N].sum(axis=1)
    params = rates(p_copy=1.0, shop_teach_rate=0.5)
    rng = np.random.default_rng(SEED + 4)
    held = np.zeros((FIRST_RUNS,) + exact.shape)
    for run in held:
        pop = shop_population(K, jmax, shop_counts)
        values = np.vstack([pop.assortment_matrix, np.ones(S)])
        for t in range(FIRST_SWEEPS):
            sweep(pop, Mode.EQUALITY, params, rng)
            run[t] = holders(pop, values)
    t = t_statistics(held / K, exact)
    assert (np.abs(t) < T_BOUND).all(), (t.tolist(), (held / K).mean(axis=0).tolist())
