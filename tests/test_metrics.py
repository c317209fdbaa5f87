import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandsim import (
    ConfigurationError,
    Mode,
    NeedSchema,
    Population,
    SimConfig,
    TimeSeriesRecord,
    brand_shares,
    distance,
    dominant_brand,
    fluctuation,
    init_population,
    snapshot,
    sweep,
)
from brandsim.metrics import _surely_dispersed
from populations import make_population, rates


def naive_fluctuation(pop):
    """Brute-force mean pairwise distance (the oracle)."""
    K = pop.num_customers
    total = 0.0
    count = 0
    for a in range(K):
        for b in range(a + 1, K):
            total += distance(pop.wish_matrix[a], pop.wish_matrix[b])
            count += 1
    return total / count


class TestFluctuation:
    def test_identical_wishes_give_exact_zero(self):
        rng = np.random.default_rng(0)
        schema = NeedSchema((2, 1))
        row = 1.0 - rng.random(3)
        wish = np.tile(row, (7, 1))
        pop = Population(schema, wish, rng.random(7), [1.0 - rng.random(3)], (1,))
        assert fluctuation(pop) == 0.0

    def test_two_customers_equal_single_distance(self):
        rng = np.random.default_rng(1)
        pop = make_population(rng, K=2)
        expected = distance(pop.wish_matrix[0], pop.wish_matrix[1])
        assert fluctuation(pop) == pytest.approx(expected, rel=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pop = make_population(rng, K=5, jmax=(3, 1, 2))
            assert fluctuation(pop) == pytest.approx(naive_fluctuation(pop), rel=1e-12)

    def test_zero_only_when_bitwise_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pop = make_population(rng, K=4)
            f = fluctuation(pop)
            rows_equal = bool((pop.wish_matrix == pop.wish_matrix[0]).all())
            assert (f == 0.0) == rows_equal
            assert f >= 0.0

    def test_customer_relabelling_invariance(self):
        rng = np.random.default_rng(4)
        pop = make_population(rng, K=6)
        perm = rng.permutation(6)
        shuffled = Population(
            pop.schema,
            pop.wish_matrix[perm],
            pop.ranks[perm],
            pop.assortment_matrix,
            pop.shop_counts,
        )
        assert fluctuation(shuffled) == pytest.approx(fluctuation(pop), rel=1e-12)

    def test_constant_under_frozen_dynamics(self):
        rng = np.random.default_rng(12)
        pop = make_population(rng, K=6)
        params = rates(p_copy=0.0)
        f0 = fluctuation(pop)
        for _ in range(100):
            sweep(pop, Mode.EQUALITY, params, rng)
            assert fluctuation(pop) == f0


class TestBrandShares:
    def test_single_brand(self):
        rng = np.random.default_rng(6)
        pop = make_population(rng, K=5, N=1)
        assert list(brand_shares(pop)) == [1.0]

    def test_counting(self):
        schema = NeedSchema((1,))
        assort = np.array([[0.2], [0.5], [0.8]])
        # wishes sit exactly on brand assortments, forcing the affiliations
        wish = np.array([[0.2], [0.2], [0.5], [0.8]])
        pop = Population(schema, wish, np.zeros(4), assort, (1, 1, 1))
        assert list(pop.affiliations) == [0, 0, 1, 2]
        assert list(brand_shares(pop)) == [0.5, 0.25, 0.25]

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            pop = make_population(rng, K=9, N=4)
            assert abs(brand_shares(pop).sum() - 1.0) <= 1e-12

    def test_brand_relabelling_permutes_shares(self):
        rng = np.random.default_rng(8)
        pop = make_population(rng, K=12, N=4)
        perm = list(rng.permutation(4))
        relabelled = Population(
            pop.schema,
            pop.wish_matrix,
            pop.ranks,
            pop.assortment_matrix[perm],
            tuple(pop.shop_counts[p] for p in perm),
        )
        base = brand_shares(pop)
        moved = brand_shares(relabelled)
        for new_idx, old_idx in enumerate(perm):
            assert moved[new_idx] == base[old_idx]


_TINIEST = 5e-324  # the smallest subnormal, one unit of the subnormal range

# a gap whose square is one to three subnormal units: the certificate squares
# the gap, the full dispersion squares half of it, and the two round apart
_gaps = st.one_of(
    st.floats(min_value=1e-300, max_value=1.0),
    st.floats(min_value=1.0, max_value=3.0).map(lambda u: math.sqrt(u) * math.sqrt(_TINIEST)),
)


@st.composite
def near_consensus(draw):
    """Identical rows with a few cells moved by one gap, and an epsilon.

    The rows start all unknown half of the time, as at ``p_unknown = 1``, and
    a move shifts either one cell or a whole row.
    """
    jmax = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    schema = NeedSchema(tuple(jmax))
    S = schema.total_slots
    K = draw(st.one_of(st.just(2), st.integers(3, 9)))
    row = draw(st.one_of(
        st.just([0.0] * S),
        st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1.0)),
                 min_size=S, max_size=S),
    ))
    wish = np.tile(np.array(row), (K, 1))
    gap = draw(_gaps)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, K - 1))
        cols = draw(st.one_of(st.just(range(S)), st.integers(0, S - 1).map(lambda s: [s])))
        for s in cols:
            up = wish[k, s] + gap
            wish[k, s] = up if up <= 1.0 else max(wish[k, s] - gap, 0.0)
    pop = Population(schema, wish, np.zeros(K), np.ones((1, S)), (1,))
    eps = draw(st.one_of(
        st.sampled_from([_TINIEST, 1e-300, 1e-12, 0.01, 1e308, math.inf]),
        st.floats(min_value=_TINIEST, max_value=1.0),
    ))
    return pop, eps


class TestSurelyDispersed:
    @settings(max_examples=500, deadline=None)
    @given(near_consensus())
    def test_certificate_implies_dispersion(self, case):
        pop, eps = case
        f = fluctuation(pop)
        # the certificate is monotone in epsilon, so the tightest test is just above f
        for e in (eps, math.nextafter(f, math.inf)):
            if _surely_dispersed(pop, e):
                assert f >= e

    @pytest.mark.parametrize("K", [2, 3, 50, 2000])
    def test_holds_on_a_fresh_population(self, K):
        cfg = SimConfig(N=3, K=K, M=5, mode=Mode.EQUALITY, seed=K)
        assert _surely_dispersed(init_population(cfg, np.random.default_rng(K)), cfg.epsilon)

    @pytest.mark.parametrize("rows", [
        # the pair sum rounds one unit above the full dispersion
        [[1.0], [0.3333434140297783]],
        # the pair sum squares to two subnormal units, the mean deviations to zero
        [[0.0], [math.sqrt(1.7) * math.sqrt(_TINIEST)]],
    ], ids=["rounding", "subnormal"])
    def test_silent_just_above_the_dispersion(self, rows):
        pop = Population(NeedSchema((1,)), rows, np.zeros(2), [[1.0]], (1,))
        f = fluctuation(pop)
        assert not _surely_dispersed(pop, math.nextafter(f, math.inf))

    def test_never_certifies_consensus_or_huge_epsilon(self):
        rng = np.random.default_rng(13)
        pop = make_population(rng, K=8)
        for eps in (1e308, math.inf):
            assert not _surely_dispersed(pop, eps)
        same = Population(pop.schema, np.tile(pop.wish_matrix[0], (8, 1)), np.zeros(8),
                          pop.assortment_matrix, pop.shop_counts)
        assert not _surely_dispersed(same, _TINIEST)


class TestDominantBrand:
    def test_single(self):
        assert dominant_brand([1.0]) == 0

    def test_tie_to_smallest_index(self):
        assert dominant_brand([0.5, 0.5]) == 0
        assert dominant_brand([0.2, 0.4, 0.4]) == 1

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = rng.random(7)
            v /= v.sum()
            best = max(range(7), key=lambda i: (v[i], -i))
            assert dominant_brand(v) == best

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            dominant_brand([])


class TestTimeSeriesRecord:
    def test_snapshot_is_consistent(self):
        rng = np.random.default_rng(14)
        pop = make_population(rng, K=8, N=3)
        rec = snapshot(pop, fluctuation(pop))
        assert rec.t == pop.t
        assert rec.fluctuation == fluctuation(pop)
        assert rec.dominant == dominant_brand(rec.shares)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeriesRecord(t=0, fluctuation=0.1, shares=(0.5, 0.4))
        with pytest.raises(ValueError):
            TimeSeriesRecord(t=0, fluctuation=-0.1, shares=(1.0,))
        with pytest.raises(ValueError):
            TimeSeriesRecord(t=0, fluctuation=0.1, shares=(1.5, -0.5))

    def test_dominant_is_derived_ties_to_smallest_index(self):
        assert TimeSeriesRecord(t=0, fluctuation=0.1, shares=(0.5, 0.5)).dominant == 0
        assert TimeSeriesRecord(t=0, fluctuation=0.1, shares=(0.25, 0.75)).dominant == 1
        assert [f.name for f in dataclasses.fields(TimeSeriesRecord)] == [
            "t", "fluctuation", "shares"]

    @pytest.mark.parametrize(
        "fluct,shares",
        [(float("nan"), (0.5, 0.5)), (0.1, (float("nan"), 1.0)), (0.1, (1.0, float("nan")))],
    )
    def test_nan_rejected(self, fluct, shares):
        with pytest.raises(ValueError):
            TimeSeriesRecord(t=0, fluctuation=fluct, shares=shares)
