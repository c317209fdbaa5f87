"""The pair kernel against exact results of the neutral voter model.

With no leaders, no shops and no unknown wishes, each slot column of an
equality run is the neutral voter (Moran) process on the complete graph
(Castellano, Fortunato & Loreto, Rev. Mod. Phys. 81, 591 (2009)).  A column's
mean is then a martingale, so each customer's initial value becomes the
consensus with probability 1/K.  The bound below follows from that law alone,
and the seed, the run count and the bound were set before the first run.

Backwards in time, the lineages of k customers merge two into one in an event
with probability k(k-1)/(K(K-1)), the chance that the learner and the source
are both among them.  So with one slot the events to consensus from K
distinct values are a sum of geometric times, and the first sweep with every
row equal is their sum divided by K, rounded up.  An event picks a need, then
one of its slots, so it picks slot s of need i with probability
q_s = 1/(M jmax[i]); at K = 2 one event makes its column equal, and a column
is still unequal after one sweep with probability (1 - q_s)^2.  The seeds,
run counts and bounds of both checks were set before their first run.

An unknown (0) wish never transmits.  In one column, let n be the number of
known cells and m_v the count of value v.  An event between two known cells
raises m_v exactly as often as it lowers it, one from a known source into an
unknown cell raises n and that source's m_v together, and one from an unknown
source does nothing.  So m_v/n is a martingale, and as consensus has n = K,
value v fixes with probability m_v(0)/n(0), its share of the known cells, not
of all K.  The martingale holds event by event, so at every sweep the mean of
m_v/n over runs is m_v(0)/n(0); at K >= 256 every sweep's pair batch takes the
numpy path of the copy, with its replay of reads that follow a write in the
same batch.  With one slot, n itself is a birth chain whatever the values: an
event raises it by one exactly when its learner is unknown and its source
known, with probability n(K - n)/(K(K - 1)).  The seeds, run counts and bound
of both checks were set before their first run.

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

import itertools

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
#: runs of one sweep at K = 2, and the bound on each column's z score over them
SLOT_RUNS = 4000
Z_BOUND = 5.0
#: the consensus sweep's law is summed until the chance of a later one is below this
TAIL = 1e-12
#: customers of the numpy-path vacancy check, its runs, and the sweeps of each that are read
VACANCY_K = 300
VACANCY_RUNS = 1500
VACANCY_SWEEPS = 3


def column_population(start):
    """A one-slot population, customer k wishing ``start[k]``, every rank 0 and one brand."""
    K = len(start)
    # a copy, as the run writes into its wishes
    return Population(NeedSchema((1,)), np.array(start)[:, None], np.zeros(K), [[1.0]], (1,))


def column_consensus(start, rng):
    """A one-slot equality run, customer k starting at ``start[k]``, swept to consensus."""
    pop = column_population(start)
    params = rates(p_copy=1.0)
    w = pop.wish_matrix
    while not (w == w[0]).all():
        sweep(pop, Mode.EQUALITY, params, rng)
    return pop


def neutral_consensus(K, rng):
    """A one-slot neutral run, customer k starting at (k + 1) / K, swept to consensus."""
    return column_consensus(np.arange(1, K + 1) / K, rng)


def fixation_winner(rng):
    """The customer whose initial value a one-slot neutral run ends at."""
    return int(round(neutral_consensus(K, rng).wish_matrix[0, 0] * K)) - 1


def test_each_initial_value_fixes_with_probability_one_over_k():
    rng = np.random.default_rng(SEED)
    counts = np.bincount([fixation_winner(rng) for _ in range(RUNS)], minlength=K)
    expected = RUNS / K
    assert ((counts - expected) ** 2 / expected).sum() < CHI2_BOUND, counts.tolist()


def test_known_values_fix_by_their_share_of_the_known_cells():
    # 0.25, 0.5 and 0.75 hold 3, 2 and 2 of the 7 known cells; 3 cells are unknown
    values = np.array([0.25, 0.5, 0.75])
    start = np.repeat(np.append(values, 0.0), [3, 2, 2, 3])
    share = np.array([3, 2, 2]) / 7
    rng = np.random.default_rng(SEED + 8)
    wins = np.zeros(len(values))
    for _ in range(RUNS):
        wins += values == column_consensus(start, rng).wish_matrix[0, 0]
    z = (wins - RUNS * share) / np.sqrt(RUNS * share * (1 - share))
    assert (np.abs(z) < Z_BOUND).all(), (z.tolist(), wins.tolist())


def known_count_law(K, n, sweeps):
    """The law of the known count after each of ``sweeps`` one-slot sweeps from ``n``
    known cells, event by event: the count rises by one with n(K - n)/(K(K - 1))."""
    k = np.arange(K + 1)
    rise = k * (K - k) / (K * (K - 1))
    law = np.zeros(K + 1)
    law[n] = 1.0
    laws = []
    for _ in range(sweeps):
        for _ in range(K):
            moved = law * rise
            law -= moved
            law[1:] += moved[:-1]
        laws.append(law.copy())
    return np.array(laws)


def test_known_shares_keep_their_mean_on_the_numpy_path():
    # a third of the cells unknown; 0.25, 0.5 and 0.75 hold 100, 60 and 40 of the rest
    values = np.array([0.25, 0.5, 0.75])
    counts = np.array([100, 60, 40])
    start = np.repeat(np.append(values, 0.0), np.append(counts, VACANCY_K - counts.sum()))
    params = rates(p_copy=1.0)
    rng = np.random.default_rng(SEED + 9)
    known = np.zeros((VACANCY_RUNS, VACANCY_SWEEPS))
    shares = np.zeros((VACANCY_RUNS, VACANCY_SWEEPS, len(values)))
    for run in range(VACANCY_RUNS):
        pop = column_population(start)
        w = pop.wish_matrix[:, 0]
        for t in range(VACANCY_SWEEPS):
            sweep(pop, Mode.EQUALITY, params, rng)
            known[run, t] = np.count_nonzero(w)
            shares[run, t] = (w == values[:, None]).sum(axis=1) / known[run, t]
    t = t_statistics(shares, counts / counts.sum())
    assert (np.abs(t) < Z_BOUND).all(), (t.tolist(), shares.mean(axis=0).tolist())
    law = known_count_law(VACANCY_K, counts.sum(), VACANCY_SWEEPS)
    k = np.arange(VACANCY_K + 1)
    mean = law @ k
    sd = np.sqrt(law @ k**2 - mean**2)
    z = (known.mean(axis=0) - mean) / (sd / np.sqrt(VACANCY_RUNS))
    assert (np.abs(z) < Z_BOUND).all(), (z.tolist(), known.mean(axis=0).tolist(), mean.tolist())


def expected_consensus_sweep(K):
    """E[ceil(T / K)], T the events to one lineage from K: the law of the lineage count,
    event by event, gives P(T > mK) for m = 0, 1, ..., and their sum is the mean."""
    k = np.arange(K + 1)
    merge = k * (k - 1) / (K * (K - 1))
    law = np.zeros(K + 1)  # P(k lineages) after n events
    law[K] = 1.0
    mean = 0.0
    for n in itertools.count():
        if n % K == 0:
            later = law[2:].sum()  # P(T > n)
            if later < TAIL:
                return mean
            mean += later
        moved = law * merge
        law -= moved
        law[:-1] += moved[1:]


# ``exact`` checks the sum itself: the means to four places, as a separate computation gave them
@pytest.mark.parametrize("K, exact, runs, seed", [
    (10, 8.55, 4000, SEED + 6),
    (20, 18.525, 2000, SEED + 7),
], ids=["k10", "k20"])
def test_consensus_sweep_follows_the_coalescent(K, exact, runs, seed):
    mean = expected_consensus_sweep(K)
    assert round(mean, 4) == exact
    rng = np.random.default_rng(seed)
    sweeps = np.array([neutral_consensus(K, rng).t for _ in range(runs)], dtype=float)
    z = (sweeps.mean() - mean) / (sweeps.std(ddof=1) / np.sqrt(runs))
    assert abs(z) < Z_BOUND, (z, sweeps.mean())


def test_pair_slots_are_drawn_need_first():
    jmax = (1, 3)
    S = sum(jmax)
    params = rates(p_copy=1.0)
    rng = np.random.default_rng(SEED + 5)
    unequal = np.zeros(S)
    for _ in range(SLOT_RUNS):
        pop = Population(NeedSchema(jmax), np.repeat([[0.25], [0.75]], S, axis=1), np.zeros(2),
                         np.ones((1, S)), (1,))
        sweep(pop, Mode.EQUALITY, params, rng)
        unequal += pop.wish_matrix[0] != pop.wish_matrix[1]
    still = (1 - slot_rates(jmax)) ** 2  # 0.25 for slot 0, 25/36 for the others
    z = (unequal - SLOT_RUNS * still) / np.sqrt(SLOT_RUNS * still * (1 - still))
    assert (np.abs(z) < Z_BOUND).all(), z.tolist()


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
