"""The random population, the kernel config and the distance oracle that the unit
tests build on."""

import numbers

import numpy as np

from brandsim import Mode, NeedSchema, Population, SimConfig


def make_population(rng, K=6, N=2, jmax=(2, 3), p_unknown=0.2, ranks=None, shop_counts=None):
    """Wishes in (0, 1] with each slot unknown (0) at rate ``p_unknown``, then
    ranks in [0, 1) unless given, then the assortments, all drawn from ``rng``
    in that order.  Each brand has one shop unless ``shop_counts`` is given."""
    schema = NeedSchema(jmax)
    S = schema.total_slots
    wish = 1.0 - rng.random((K, S))
    wish[rng.random((K, S)) < p_unknown] = 0.0
    if ranks is None:
        ranks = rng.random(K)
    assort = 1.0 - rng.random((N, S))
    return Population(schema, wish, ranks, assort, shop_counts or (1,) * N)


def rates(p_copy=1.0, leader_pupils=0, shop_teach_rate=0.0):
    """A config for the kernels, which read only these three rates; the rest is the
    smallest valid run whose K admits ``leader_pupils`` pupils (K = 2 when that is
    no integer, which SimConfig rejects before it reads K)."""
    pupils = leader_pupils if isinstance(leader_pupils, numbers.Integral) else 0
    return SimConfig(N=1, K=max(2, pupils + 1), M=1, mode=Mode.EQUALITY, seed=0,
                     p_copy=p_copy, leader_pupils=leader_pupils, shop_teach_rate=shop_teach_rate)


def cdist_sqeuclidean(wish, assortment):
    """``sum_s (wish[k, s] - assortment[b, s])**2`` for every row k and brand b, as
    scipy's ``cdist(wish, assortment, "sqeuclidean")`` gives it: added slot by slot,
    in order, by elementwise operations alone, so no numpy reduction chooses the
    order.  It shares no code with the package's own sum."""
    total = np.zeros((len(wish), len(assortment)))
    for s in range(wish.shape[1]):
        d = wish[:, None, s] - assortment[None, :, s]
        total += d * d
    return total
