import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import brandsim
from brandsim import (
    ConfigurationError,
    KernelParams,
    NeedSchema,
    Population,
    SimConfig,
    Mode,
    distance,
    index_from_uniform,
    init_population,
    init_schema,
    refresh_affiliations,
    sweep,
)
from brandsim.dynamics import _draw_pupils
from brandsim.model import _nearest_brand


def make_population(rng, K=4, N=2, jmax=(2, 3), p_unknown=0.25, shop_counts=None):
    """Random valid population for tests."""
    schema = NeedSchema(jmax)
    S = schema.total_slots
    wish = 1.0 - rng.random((K, S))
    wish[rng.random((K, S)) < p_unknown] = 0.0
    ranks = rng.random(K)
    assort = 1.0 - rng.random((N, S))
    return Population(schema, wish, ranks, assort, shop_counts or (1,) * N)


def nearest_by_scan(pop):
    """Each customer's nearest brand by an exhaustive scan of scipy's
    ``cdist`` distances, ties to the smallest index."""
    out = []
    for wish in pop.wish_matrix:
        dists = cdist(wish[None], pop.assortment_matrix, "sqeuclidean")[0].tolist()
        out.append(min(range(len(dists)), key=lambda b: (dists[b], b)))
    return out


def test_public_names_resolve():
    for name in brandsim.__all__:
        getattr(brandsim, name)
    for gone in ("Customer", "assign_brand", "WishProfile", "copy_entry", "consensus_reached"):
        assert gone not in brandsim.__all__
        assert not hasattr(brandsim, gone)
    assert not hasattr(Population, "clone")


def test_index_from_uniform_bounds():
    assert index_from_uniform(0.0, 5) == 0
    assert index_from_uniform(0.999999, 5) == 4
    assert index_from_uniform(0.2, 5) == 1
    # clamp guard: a u that rounds up to n must still map inside
    assert index_from_uniform(1.0 - 2**-53, 3) == 2
    # arrays of draws, against one bound or one bound per draw
    u = np.array([0.0, 0.2, 0.999999, 1.0 - 2**-53])
    assert index_from_uniform(u, 5).tolist() == [0, 1, 4, 4]
    assert index_from_uniform(u, np.array([1, 5, 5, 3])).tolist() == [0, 1, 4, 2]


class TestNeedSchema:
    def test_valid(self):
        s = NeedSchema((1, 5, 3))
        assert s.num_needs == 3
        assert s.total_slots == 9
        assert s.slot_tables[1].tolist() == [0, 1, 6]

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            NeedSchema(())

    @pytest.mark.parametrize("bad", [0, 6, -1])
    def test_rejects_out_of_range_counts(self, bad):
        with pytest.raises(ConfigurationError):
            NeedSchema((1, bad))

    @pytest.mark.parametrize("bad", [2.7, True, "3", np.float64(2.0)])
    def test_rejects_non_integer_counts(self, bad):
        with pytest.raises(ConfigurationError) as exc:
            NeedSchema((1, bad))
        assert "jmax" in str(exc.value)

    @pytest.mark.parametrize("bad", [3, 2.5, None])
    def test_rejects_non_iterable_counts(self, bad):
        with pytest.raises(ConfigurationError, match="jmax"):
            NeedSchema(bad)

    def test_numpy_integer_counts_accepted(self):
        s = NeedSchema(np.array([2, 3]))
        assert s.jmax == (2, 3) and all(type(j) is int for j in s.jmax)


class TestWishMatrixShape:
    def test_shape_mismatch(self):
        # a profile is a wish-matrix row, so its shape is checked by Population
        schema = NeedSchema((1, 2))
        assort = np.full((1, 3), 0.5)
        with pytest.raises(ValueError):
            Population(schema, np.zeros((2, 4)), np.zeros(2), assort, (1,))

    def test_validate(self):
        # wish values are checked where they are stored, by Population
        schema = NeedSchema((2,))
        assort = np.array([[0.5, 0.5]])
        Population(schema, np.array([[0.0, 1.0], [0.3, 0.2]]), np.zeros(2), assort, (1,))
        for bad in (1.5, -0.1, np.nan):
            with pytest.raises(ValueError):
                Population(schema, np.array([[bad, 0.2], [0.3, 0.2]]), np.zeros(2), assort, (1,))


class TestDistance:
    def test_identity_is_exact_zero(self):
        rng = np.random.default_rng(0)
        schema = NeedSchema((3, 1, 4))
        w = rng.random(schema.total_slots)
        assert distance(w, w) == 0.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        schema = NeedSchema((2, 5))
        for _ in range(50):
            x = rng.random(schema.total_slots)
            y = rng.random(schema.total_slots)
            assert distance(x, y) == distance(y, x)

    def test_all_unknown_reduces_to_mean_square(self):
        zero = np.zeros(5)
        a = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        expected = sum(v * v for v in [0.2, 0.4, 0.6, 0.8, 1.0]) / 5
        assert distance(zero, a) == pytest.approx(expected, rel=1e-15)

    def test_hand_worked_example(self):
        # independent scalar recomputation of a small ragged case (jmax 1, 2)
        w = np.array([0.5, 0.2, 0.9])
        a = np.array([0.1, 0.2, 0.4])
        scalar = ((0.5 - 0.1) ** 2 + (0.2 - 0.2) ** 2 + (0.9 - 0.4) ** 2) / 3
        assert scalar == pytest.approx(0.41 / 3, rel=1e-15)
        assert distance(w, a) == pytest.approx(scalar, rel=1e-15)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            distance(np.zeros(2), np.zeros(3))

    def test_accepts_raw_arrays(self):
        assert distance(np.array([0.5, 0.5]), np.array([0.5, 0.1])) == pytest.approx(
            0.16 / 2, rel=1e-15
        )


@st.composite
def nearest_cases(draw):
    """Wish and assortment matrices with entries in [0, 1], built to put rows
    near or at a tie: brands a few ulps apart in one slot, grid values,
    duplicate brands, rows equal to a brand and all-zero rows."""
    S = draw(st.integers(1, 50))
    N = draw(st.integers(1, 6))
    K = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        wish, assort = rng.integers(0, 5, (K, S)) / 4, rng.integers(0, 5, (N, S)) / 4
    else:
        wish, assort = rng.random((K, S)), rng.random((N, S))
    for b in range(1, N):
        kind = draw(st.sampled_from(["own", "duplicate", "ulps"]))
        if kind != "own":
            assort[b] = assort[draw(st.integers(0, b - 1))]
        if kind == "ulps":
            s, ulps = draw(st.integers(0, S - 1)), draw(st.integers(-4, 4))
            x = assort[b, s]
            for _ in range(abs(ulps)):
                x = np.nextafter(x, 0.0 if ulps < 0 else 1.0)
            assort[b, s] = x
    for k in range(K):
        kind = draw(st.sampled_from(["own", "brand", "zero"]))
        if kind == "brand":
            wish[k] = assort[draw(st.integers(0, N - 1))]
        elif kind == "zero":
            wish[k] = 0.0
    return wish, assort


class TestNearestBrand:
    def test_single_brand(self):
        rng = np.random.default_rng(2)
        pop = make_population(rng, K=3, N=1)
        assert list(pop.affiliations) == [0, 0, 0] == nearest_by_scan(pop)

    def test_tie_breaks_to_smaller_index(self):
        schema = NeedSchema((2,))
        assort = np.array([[0.5, 0.5], [0.5, 0.5]])
        wish = np.array([[0.2, 0.0], [0.9, 0.9]])
        pop = Population(schema, wish, np.zeros(2), assort, (1, 1))
        assert nearest_by_scan(pop) == [0, 0]
        assert list(pop.affiliations) == [0, 0]

    def test_empty_brand_list(self):
        schema = NeedSchema((2,))
        wish = np.array([[0.2, 0.0], [0.9, 0.9]])
        with pytest.raises(ConfigurationError):
            Population(schema, wish, np.zeros(2), np.empty((0, 2)), ())

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            pop = make_population(rng, K=4, N=5, jmax=(1, 3, 2))
            assert list(pop.affiliations) == nearest_by_scan(pop)

    @settings(max_examples=400, deadline=None)
    @given(nearest_cases())
    def test_matches_cdist_bit_for_bit(self, case):
        # scipy is the independent oracle: its sequential sum is the exact rule
        wish, assort = case
        exact = cdist(wish, assort, "sqeuclidean")
        assert _nearest_brand(wish, assort).tolist() == exact.argmin(axis=1).tolist()
        S = wish.shape[1]
        for k, w in enumerate(wish):
            for b, a in enumerate(assort):
                assert distance(w, a) == exact[k, b] / S

    @pytest.mark.parametrize("S", [1, 2, 3])
    def test_margin_holds_at_few_slots(self, S):
        # the bound is tightest relative to the sums at small S: brands a few
        # ulps apart, and rows on a brand or exactly between two
        rng = np.random.default_rng(S)
        for _ in range(20):
            base = rng.random(S)
            assort = np.array([base, np.nextafter(base, 1.0), np.nextafter(base, 0.0), base])
            assort[1:3, 1:] = base[1:]
            wish = rng.random((500, S))
            wish[::7] = assort[rng.integers(0, 4)]
            wish[1::7] = (assort[0] + assort[1]) / 2
            exact = cdist(wish, assort, "sqeuclidean").argmin(axis=1)
            assert _nearest_brand(wish, assort).tolist() == exact.tolist()

    def test_affiliation_minimises_distance_after_refresh(self):
        rng = np.random.default_rng(5)
        pop = make_population(rng, K=6, N=4, jmax=(2, 2))
        refresh_affiliations(pop)
        for wish, aff in zip(pop.wish_matrix, pop.affiliations):
            own = distance(wish, pop.assortment_matrix[aff])
            for assort in pop.assortment_matrix:
                assert own <= distance(wish, assort)


class TestInitSchema:
    def test_rejects_nonpositive(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            init_schema(0, rng)

    @pytest.mark.parametrize("num_needs", [2.5, True, "3", None])
    def test_rejects_non_integer_count(self, num_needs):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="M must be an integer"):
            init_schema(num_needs, rng)

    def test_counts_in_range(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = init_schema(40, rng)
            assert all(1 <= j <= 5 for j in s.jmax)

    def test_deterministic(self):
        a = init_schema(25, np.random.default_rng(77))
        b = init_schema(25, np.random.default_rng(77))
        assert a == b


class TestInitPopulation:
    def cfg(self, **kw):
        base = dict(N=3, K=50, M=4, mode=Mode.EQUALITY, seed=11)
        base.update(kw)
        return SimConfig(**base)

    def test_no_leaders_means_no_unit_rank(self):
        pop = init_population(self.cfg(leader_count=0), np.random.default_rng(0))
        assert pop.leader_ids == ()
        assert np.all(pop.ranks < 1.0)

    def test_leader_promotion_counts(self):
        pop = init_population(self.cfg(K=100, leader_count=3), np.random.default_rng(1))
        ranks = pop.ranks
        assert int((ranks == 1.0).sum()) == 3
        assert int(((ranks >= 0.0) & (ranks < 1.0)).sum()) == 97
        assert len(pop.leader_ids) == 3

    def test_leaders_are_top_ranked_draws(self):
        cfg = self.cfg(K=30, leader_count=4)
        # replay the rank draws to identify who should have been promoted
        rng = np.random.default_rng(42)
        pop = init_population(cfg, rng)
        rng2 = np.random.default_rng(42)
        schema = init_schema(cfg.M, rng2)
        S = schema.total_slots
        rng2.random((cfg.N, S))
        rng2.random((cfg.K, S))
        rng2.random((cfg.K, S))
        drawn = rng2.random(cfg.K)
        expected = sorted(np.argsort(-drawn, kind="stable")[:4])
        assert sorted(pop.leader_ids) == [int(i) for i in expected]

    def test_all_unknown_when_p_unknown_is_one(self):
        pop = init_population(self.cfg(p_unknown=1.0), np.random.default_rng(2))
        assert np.all(pop.wish_matrix == 0.0)

    def test_no_unknown_when_p_unknown_is_zero(self):
        pop = init_population(self.cfg(p_unknown=0.0), np.random.default_rng(3))
        assert np.all(pop.wish_matrix > 0.0)

    def test_entries_in_unit_interval(self):
        pop = init_population(self.cfg(), np.random.default_rng(4))
        w = pop.wish_matrix
        assert np.all((w == 0.0) | ((w > 0.0) & (w <= 1.0)))
        a = pop.assortment_matrix
        assert np.all((a > 0.0) & (a <= 1.0))

    def test_aligned_leader_copies_brand_assortment(self):
        cfg = self.cfg(leader_count=2, aligned_leader_brand=1)
        pop = init_population(cfg, np.random.default_rng(5))
        for k in pop.leader_ids:
            assert np.array_equal(pop.wish_matrix[k], pop.assortment_matrix[1])

    def test_affiliations_are_argmin(self):
        pop = init_population(self.cfg(), np.random.default_rng(7))
        assert list(pop.affiliations) == nearest_by_scan(pop)

    def test_t_starts_at_zero(self):
        assert init_population(self.cfg(), np.random.default_rng(8)).t == 0


class TestLazyAffiliations:
    """Affiliations are computed on read; a sweep only marks them stale."""

    CFG = SimConfig(N=3, K=40, M=4, mode=Mode.HIERARCHY, seed=31, p_copy=0.8,
                    leader_count=2, leader_pupils=6, shop_counts=(1, 2, 3),
                    shop_teach_rate=1.0)
    PARAMS = KernelParams(p_copy=0.8, leader_pupils=6, shop_teach_rate=1.0)

    def start(self):
        rng = np.random.default_rng(self.CFG.seed)
        return init_population(self.CFG, rng), rng

    def advance(self, pop, rng):
        sweep(pop, self.CFG.mode, self.PARAMS, rng)

    def test_reading_every_sweep_matches_reading_at_the_end(self):
        eager, rng = self.start()
        lazy, lazy_rng = self.start()
        for _ in range(20):
            self.advance(eager, rng)
            assert len(eager.affiliations) == self.CFG.K
            self.advance(lazy, lazy_rng)
        assert np.array_equal(eager.affiliations, lazy.affiliations)
        assert eager.wish_matrix.tobytes() == lazy.wish_matrix.tobytes()

    def test_matches_scan_after_every_sweep(self):
        pop, rng = self.start()
        switches = 0
        before = pop.affiliations.copy()
        for _ in range(20):
            self.advance(pop, rng)
            assert list(pop.affiliations) == nearest_by_scan(pop)
            switches += int(np.count_nonzero(pop.affiliations != before))
            before = pop.affiliations.copy()
        assert switches > 0  # the cache really went stale

    def test_reading_draws_nothing(self):
        pop, rng = self.start()
        for _ in range(3):
            self.advance(pop, rng)
            state = rng.bit_generator.state
            assert len(pop.affiliations) == self.CFG.K
            assert rng.bit_generator.state == state


class TestPopulation:
    def test_rejects_small_k(self):
        schema = NeedSchema((1,))
        with pytest.raises(ConfigurationError):
            Population(schema, np.array([[0.5]]), np.array([0.1]), np.array([[0.5]]), (1,))

    def test_rejects_bad_shop_counts(self):
        schema = NeedSchema((1,))
        wish = np.array([[0.5], [0.6]])
        assort = np.array([[0.5]])
        with pytest.raises(ConfigurationError, match="shop_counts"):
            Population(schema, wish, np.array([0.1, 0.2]), assort, (1, 1))
        with pytest.raises(ConfigurationError, match="shop_counts"):
            Population(schema, wish, np.array([0.1, 0.2]), assort, (0,))

    @pytest.mark.parametrize("bad", [1.9, True, "1"])
    def test_rejects_non_integer_shop_count(self, bad):
        schema = NeedSchema((1,))
        wish = np.array([[0.5], [0.6]])
        with pytest.raises(ConfigurationError, match="shop_counts"):
            Population(schema, wish, np.array([0.1, 0.2]), np.array([[0.5]]), (bad,))

    @pytest.mark.parametrize("bad", [5, 1.0, None])
    def test_rejects_non_iterable_shop_counts(self, bad):
        schema = NeedSchema((1,))
        wish = np.array([[0.5], [0.6]])
        with pytest.raises(ConfigurationError, match="shop_counts"):
            Population(schema, wish, np.array([0.1, 0.2]), np.array([[0.5]]), bad)

    def test_rejects_zero_assortment_entry(self):
        schema = NeedSchema((2,))
        wish = np.array([[0.5, 0.0], [0.6, 0.1]])
        assort = np.array([[0.5, 0.0]])
        with pytest.raises(ValueError):
            Population(schema, wish, np.array([0.1, 0.2]), assort, (1,))

    def test_brand_record_is_live_view(self):
        rng = np.random.default_rng(9)
        pop = make_population(rng, N=3, shop_counts=(2, 5, 1))
        pop.brands[1].assortment[0] = 0.123
        assert pop.assortment_matrix[1, 0] == 0.123
        pop.assortment_matrix[2, 1] = 0.456
        assert pop.brands[2].assortment[1] == 0.456
        assert [b.id for b in pop.brands] == [0, 1, 2]
        assert [b.shop_count for b in pop.brands] == list(pop.shop_counts) == [2, 5, 1]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), K=st.integers(2, 40))
    def test_leader_split(self, data, K):
        # no leader, one or several; ranks next to 1.0 must not count
        ranks = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.5, np.nextafter(1.0, 0.0)]), min_size=K, max_size=K)))
        count = data.draw(st.one_of(st.just(0), st.just(1), st.integers(2, K)))
        ranks[data.draw(st.permutations(range(K)))[:count]] = 1.0
        pop = Population(NeedSchema((1,)), np.full((K, 1), 0.5), ranks, [[0.5]], (1,))
        leaders = pop.leader_ids
        assert list(leaders) == sorted(leaders) and len(set(leaders)) == len(leaders)
        assert leaders == tuple(np.flatnonzero(ranks == 1.0).tolist())
        assert len(leaders) == count
        # zero uniforms pick every position in turn: the pool, ascending
        others = [k for k in range(K) if k not in leaders]
        assert _draw_pupils(leaders, K, np.zeros((1, len(others)))).tolist() == others
