"""The random population that the unit tests build."""

from brandsim import NeedSchema, Population


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
