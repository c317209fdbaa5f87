import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brandsim
from brandsim import (
    ConfigurationError,
    NeedSchema,
    Population,
    SimConfig,
    Mode,
    TimeSeriesRecord,
    distance,
    index_from_uniform,
    init_population,
    refresh_affiliations,
    sweep,
)
from brandsim.dynamics import _draw_pupils
from brandsim.model import _block_rows, _nearest_brand
from populations import cdist_sqeuclidean, make_population


def nearest_by_scan(pop):
    """Each customer's nearest brand by an exhaustive scan of the oracle's distances;
    ``argmin`` takes the first of a tie, which is the smallest index."""
    return cdist_sqeuclidean(pop.wish_matrix, pop.assortment_matrix).argmin(axis=1).tolist()


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
        with pytest.raises(ConfigurationError, match="at least one slot"):
            distance([], [])

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


def block_edge_case(S, shift):
    """Wishes of two full blocks of the nearest-brand product plus one row, and five
    brands: 1 duplicates 0, 2 is 0 a few ulps off in one slot, and 3 and 4 differ in
    one slot by a grid step.  The first and last row of each block is, in turn from
    ``shift``, an exact tie (brand 0 and 1), an exact midpoint (3 and 4), brand 2,
    a few ulps from brand 0, or all zero."""
    N = 5
    rng = np.random.default_rng(S)
    step = _block_rows(N, S)
    assort = 1.0 - rng.random((N, S))
    assort[1] = assort[0]
    assort[2] = assort[0]
    assort[2, -1] = np.nextafter(np.nextafter(assort[0, -1], 0.0), 0.0)
    assort[3, :] = assort[4, :] = 0.5
    assort[3, 0], assort[4, 0] = 0.25, 0.75
    midpoint = assort[3].copy()
    midpoint[0] = 0.5
    kinds = (assort[0], midpoint, assort[2], np.zeros(S))
    wish = rng.random((2 * step + 1, S))
    edges = (0, step - 1, step, 2 * step - 1, 2 * step)
    for j, k in enumerate(edges):
        wish[k] = kinds[(j + shift) % len(kinds)]
    return wish, assort


@st.composite
def multi_block_cases(draw):
    """Wishes over one to three blocks of the nearest-brand product, the last one full
    or cut short, for N from 1 to 9 and S from 1 to 40.  Some brands duplicate an
    earlier one or lie one ulp from it in one slot; brand N-1 is unlike every other.
    The first and last row of each block, the last row and a few others are, at
    random, a brand (an exact tie where that brand is duplicated), brand N-1, all
    zero or left as drawn."""
    N = draw(st.integers(1, 9))
    S = draw(st.integers(1, 40))
    step = _block_rows(N, S)
    blocks = draw(st.integers(1, 3))
    cut = draw(st.integers(1, step - 1)) if step > 1 and draw(st.booleans()) else 0
    K = blocks * step - cut
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        wish, assort = rng.integers(0, 5, (K, S)) / 4, rng.integers(1, 5, (N, S)) / 4
    else:
        wish, assort = rng.random((K, S)), rng.random((N, S))
    for b in range(1, N - 1):
        kind = draw(st.sampled_from(["own", "duplicate", "ulp"]))
        if kind != "own":
            assort[b] = assort[draw(st.integers(0, b - 1))]
        if kind == "ulp":
            s = draw(st.integers(0, S - 1))
            assort[b, s] = np.nextafter(assort[b, s], draw(st.sampled_from([0.0, 1.0])))
    # off the grid and a.s. off every other random brand in slot 0
    assort[N - 1, 0] = 0.125 + 0.5 * rng.random()
    edges = [k for j in range(blocks) for k in (j * step, (j + 1) * step - 1) if k < K]
    rows = np.unique(np.concatenate([edges, [K - 1], rng.integers(0, K, 20)]))
    kinds = rng.integers(0, 4, rows.size)
    wish[rows[kinds == 0]] = assort[rng.integers(0, N, np.count_nonzero(kinds == 0))]
    wish[rows[kinds == 1]] = assort[N - 1]
    wish[rows[kinds == 2]] = 0.0
    return wish, assort, rows[kinds == 1]


#: prints, around five affiliation reads at K=2e4, N=5, M=10 in a fresh interpreter,
#: each task's CPU ticks, run state and context switches, the caller's excepted, each
#: taken once no other task has run for 0.1 s (for at most 10 s)
THREAD_PROBE = """
import json, os, time
import numpy as np
from brandsim import Mode, SimConfig, init_population, refresh_affiliations

def others():
    seen = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == os.getpid():
            continue
        with open(f"/proc/self/task/{tid}/stat") as f:
            fields = f.read().rpartition(")")[2].split()
        with open(f"/proc/self/task/{tid}/status") as f:
            status = dict(line.split(":", 1) for line in f.read().splitlines())
        seen[tid] = [fields[0], int(fields[11]) + int(fields[12]),
                     status["voluntary_ctxt_switches"].strip(),
                     status["nonvoluntary_ctxt_switches"].strip()]
    return seen

def quiet():
    last, deadline = others(), time.monotonic() + 10
    while time.monotonic() < deadline:
        time.sleep(0.1)
        now = others()
        if now == last and all(state != "R" for state, *_ in now.values()):
            break
        last = now
    return others()

cfg = SimConfig(N=5, K=20000, M=10, mode=Mode.EQUALITY, seed=1)
pop = init_population(cfg, np.random.default_rng(cfg.seed))
before = quiet()
for _ in range(5):
    refresh_affiliations(pop)
    pop.affiliations
print(json.dumps({"before": before, "after": quiet()}))
"""


class TestNearestBrand:
    def test_single_brand(self):
        rng = np.random.default_rng(2)
        pop = make_population(rng, K=3, N=1, p_unknown=0.25)
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
            pop = make_population(rng, K=4, N=5, jmax=(1, 3, 2), p_unknown=0.25)
            assert list(pop.affiliations) == nearest_by_scan(pop)

    @settings(max_examples=400, deadline=None)
    @given(nearest_cases())
    def test_matches_cdist_bit_for_bit(self, case):
        # the oracle's slot-order sum is the exact rule
        wish, assort = case
        exact = cdist_sqeuclidean(wish, assort)
        assert _nearest_brand(wish, assort).tolist() == exact.argmin(axis=1).tolist()
        S = wish.shape[1]
        for k, w in enumerate(wish):
            for b, a in enumerate(assort):
                assert distance(w, a) == exact[k, b] / S

    @pytest.mark.parametrize("shift", range(4))
    @pytest.mark.parametrize("S", [1, 30])
    def test_matches_cdist_across_block_edges(self, S, shift):
        wish, assort = block_edge_case(S, shift)
        exact = cdist_sqeuclidean(wish, assort).argmin(axis=1)
        assert _nearest_brand(wish, assort).tolist() == exact.tolist()

    @settings(max_examples=100, deadline=None)
    @given(multi_block_cases())
    def test_matches_cdist_over_several_blocks(self, case):
        wish, assort, last = case
        exact = cdist_sqeuclidean(wish, assort).argmin(axis=1)
        assert (exact[last] == len(assort) - 1).all()
        assert _nearest_brand(wish, assort).tolist() == exact.tolist()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_affiliations_start_and_wake_no_thread(self):
        # BLAS worker threads may start with numpy or at their first product, and a
        # woken one runs and switches context; every other task must stay as it was
        src = os.path.dirname(os.path.dirname(os.path.abspath(brandsim.__file__)))
        done = subprocess.run([sys.executable, "-c", THREAD_PROBE], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        assert seen["after"] == seen["before"]

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
            exact = cdist_sqeuclidean(wish, assort).argmin(axis=1)
            assert _nearest_brand(wish, assort).tolist() == exact.tolist()

    def test_affiliation_minimises_distance_after_refresh(self):
        rng = np.random.default_rng(5)
        pop = make_population(rng, K=6, N=4, jmax=(2, 2), p_unknown=0.25)
        refresh_affiliations(pop)
        for wish, aff in zip(pop.wish_matrix, pop.affiliations):
            own = distance(wish, pop.assortment_matrix[aff])
            for assort in pop.assortment_matrix:
                assert own <= distance(wish, assort)


class TestInitSchema:
    """The need schema, which init_population draws first from the stream."""

    @staticmethod
    def cfg(M):
        return SimConfig(N=2, K=10, M=M, mode=Mode.EQUALITY, seed=0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            self.cfg(0)

    @pytest.mark.parametrize("num_needs", [2.5, True, "3", None])
    def test_rejects_non_integer_count(self, num_needs):
        with pytest.raises(ConfigurationError, match="M must be an integer"):
            self.cfg(num_needs)

    def test_counts_in_range(self):
        # need i carries 1 + min(floor(5 u_i), 4) subentries, from the stream's first M draws
        cfg = self.cfg(40)
        for seed in range(20):
            pop = init_population(cfg, np.random.default_rng(seed))
            u = np.random.default_rng(seed).random(cfg.M).tolist()
            assert pop.schema.jmax == tuple(1 + min(math.floor(5 * x), 4) for x in u)
            assert all(1 <= j <= 5 for j in pop.schema.jmax)

    def test_deterministic(self):
        a = init_population(self.cfg(25), np.random.default_rng(77)).schema
        b = init_population(self.cfg(25), np.random.default_rng(77)).schema
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
        S = pop.schema.total_slots
        rng2.random(cfg.M + cfg.N * S)
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

    @pytest.mark.parametrize("p_unknown", [0.0, 0.25, 1.0])
    def test_draw_replays_from_a_twin_stream(self, p_unknown):
        cfg = self.cfg(K=40, p_unknown=p_unknown)
        rng = np.random.default_rng(9)
        pop = init_population(cfg, rng)
        S = pop.schema.total_slots
        twin = np.random.default_rng(9)
        twin.random(cfg.M + cfg.N * S)
        values, coins = twin.random((cfg.K, S)), twin.random((cfg.K, S))
        assert np.array_equal(pop.wish_matrix, np.where(coins < p_unknown, 0.0, 1.0 - values))
        # the stream sits exactly past the schema, assortments, values, coins and ranks
        ahead = np.random.default_rng(9)
        ahead.random(cfg.M + cfg.N * S + 2 * cfg.K * S + cfg.K)
        assert rng.random(4).tolist() == ahead.random(4).tolist()

    @pytest.mark.parametrize("p_unknown", [0.0, 0.25, 1.0])
    def test_draw_bytes_replay_from_a_twin_stream(self, p_unknown):
        # bytes, not values: an unknown slot must be +0.0, and array_equal takes -0.0 too
        cfg = self.cfg(K=200, p_unknown=p_unknown)
        pop = init_population(cfg, np.random.default_rng(9))
        wish, S = pop.wish_matrix, pop.schema.total_slots
        twin = np.random.default_rng(9)
        twin.random(cfg.M + cfg.N * S)
        values, coins = twin.random((cfg.K, S)), twin.random((cfg.K, S))
        assert wish.tobytes() == np.where(coins < p_unknown, 0.0, 1.0 - values).tobytes()
        assert not np.signbit(wish).any()

    def test_t_starts_at_zero(self):
        assert init_population(self.cfg(), np.random.default_rng(8)).t == 0


class TestLazyAffiliations:
    """Affiliations are computed on read; a sweep only marks them stale."""

    CFG = SimConfig(N=3, K=40, M=4, mode=Mode.HIERARCHY, seed=31, p_copy=0.8,
                    leader_count=2, leader_pupils=6, shop_counts=(1, 2, 3),
                    shop_teach_rate=1.0)

    def start(self):
        rng = np.random.default_rng(self.CFG.seed)
        return init_population(self.CFG, rng), rng

    def advance(self, pop, rng):
        sweep(pop, self.CFG.mode, self.CFG, rng)

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

    @pytest.mark.parametrize("assort, ranks", [
        (np.array([[0.5, 0.5]]), np.array([0.1, 0.2])),
        (np.array([[0.5]]), np.array([0.1, 0.2, 0.3])),
        (np.array([[0.5]]), np.array([0.1, 1.5])),
        (np.array([[0.5]]), np.array([-0.1, 0.2])),
    ], ids=["assortment_width", "ranks_length", "rank_above_one", "rank_below_zero"])
    def test_rejects_bad_assortment_or_ranks(self, assort, ranks):
        schema = NeedSchema((1,))
        with pytest.raises(ValueError):
            Population(schema, np.array([[0.5], [0.6]]), ranks, assort, (1,))

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

    @staticmethod
    def tiny(wish=((0.5,), (0.6,)), ranks=(0.1, 0.2), assort=((0.5,),)):
        return Population(NeedSchema((1,)), wish, ranks, assort, (1,))

    @pytest.mark.parametrize("make", [
        lambda tiny: tiny(wish=((0.5, 0.5), (0.6, 0.6))),
        lambda tiny: tiny(assort=((0.5, 0.5),)),
        lambda tiny: tiny(ranks=(0.1,)),
        lambda tiny: tiny(wish=((0.5,), (1.5,))),
        lambda tiny: tiny(wish=((0.5,), (np.nan,))),
        lambda tiny: tiny(assort=((0.0,),)),
        lambda tiny: tiny(ranks=(0.1, np.nan)),
        lambda tiny: distance([0.5, 0.5], [0.5]),
        lambda tiny: TimeSeriesRecord(t=0, fluctuation=np.nan, shares=(1.0,)),
        lambda tiny: TimeSeriesRecord(t=0, fluctuation=0.1, shares=(0.5, 0.4)),
        lambda tiny: TimeSeriesRecord(t=0, fluctuation=0.1, shares=(1.5, -0.5)),
        # arguments that numpy cannot read as float64 arrays
        lambda tiny: tiny(wish=(("x",), ("y",))),
        lambda tiny: tiny(wish=((0.5,), (0.6, 0.7))),
        lambda tiny: tiny(ranks=("a", "b")),
        lambda tiny: tiny(assort=object()),
        lambda tiny: distance(["x"], [0.5]),
    ], ids=["wish_shape", "assortment_shape", "ranks_shape", "wish_above_one", "wish_nan",
            "assortment_unknown", "rank_nan", "distance_shapes", "fluctuation_nan",
            "shares_sum", "share_range", "wish_text", "wish_ragged", "rank_text",
            "assortment_object", "distance_text"])
    def test_every_input_check_raises_configuration_error(self, make):
        self.tiny()  # the defaults are valid
        with pytest.raises(ConfigurationError):
            make(self.tiny)

    def test_brand_record_is_live_view(self):
        rng = np.random.default_rng(9)
        pop = make_population(rng, K=4, N=3, p_unknown=0.25, shop_counts=(2, 5, 1))
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
