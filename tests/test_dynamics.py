import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from brandsim import (
    ConfigurationError,
    KernelParams,
    Mode,
    NeedSchema,
    Population,
    distance,
    index_from_uniform,
    leader_step,
    pair_step,
    shop_event_count,
    shop_step,
    sweep,
)
from brandsim.dynamics import _MIN_BATCH, _apply_copies, _draw_pupils


def make_population(rng, K=6, N=2, jmax=(2, 3), p_unknown=0.2, ranks=None, shop_counts=None):
    schema = NeedSchema(jmax)
    S = schema.total_slots
    wish = 1.0 - rng.random((K, S))
    wish[rng.random((K, S)) < p_unknown] = 0.0
    if ranks is None:
        ranks = rng.random(K)
    assort = 1.0 - rng.random((N, S))
    return Population(schema, wish, np.asarray(ranks, dtype=float), assort,
                      shop_counts or (1,) * N)


class TestKernelParams:
    def test_rejects_bad_p_copy(self):
        with pytest.raises(ConfigurationError):
            KernelParams(p_copy=1.5)
        with pytest.raises(ConfigurationError):
            KernelParams(p_copy=-0.1)

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            KernelParams(p_copy=0.5, leader_pupils=-1)
        with pytest.raises(ConfigurationError):
            KernelParams(p_copy=0.5, shop_teach_rate=-0.5)

    def test_rejects_non_finite_shop_rate(self):
        for rate in (float("inf"), float("nan")):
            with pytest.raises(ConfigurationError) as exc:
                KernelParams(p_copy=0.5, shop_teach_rate=rate)
            assert "shop_teach_rate" in str(exc.value)

    @pytest.mark.parametrize("pupils", [2.5, True, "3", None])
    def test_rejects_non_integer_pupils(self, pupils):
        with pytest.raises(ConfigurationError) as exc:
            KernelParams(p_copy=0.5, leader_pupils=pupils)
        assert "leader_pupils" in str(exc.value)

    def test_accepts_numpy_integer_pupils(self):
        params = KernelParams(p_copy=0.5, leader_pupils=np.int64(3))
        assert params.leader_pupils == 3 and type(params.leader_pupils) is int

    @pytest.mark.parametrize(
        "field,value",
        [("p_copy", "0.5"), ("p_copy", None), ("p_copy", True), ("shop_teach_rate", "1")],
    )
    def test_rejects_non_numeric_rates(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            KernelParams(**{"p_copy": 0.5, field: value})

    def test_accepts_numpy_float_rates(self):
        params = KernelParams(p_copy=np.float64(0.5), shop_teach_rate=np.float64(2.0))
        assert params == KernelParams(p_copy=0.5, shop_teach_rate=2.0)
        assert type(params.p_copy) is float and type(params.shop_teach_rate) is float

    def test_defaults(self):
        assert KernelParams() == KernelParams(p_copy=1.0, leader_pupils=0, shop_teach_rate=0.0)


class TestSlotCopy:
    """The copy triple, seen through one pair event on a K=2 population."""

    HIER = KernelParams(p_copy=1.0)

    @staticmethod
    def pair(rng, jmax, source_row=None):
        """Customer 0 (rank 0) and customer 1 (rank 1), so under hierarchy 0
        always learns from 1 with probability ``p_copy``."""
        pop = make_population(rng, K=2, jmax=jmax, p_unknown=0.0, ranks=(0.0, 1.0))
        if source_row is not None:
            pop.wish_matrix[1] = source_row
        return pop

    def test_zero_probability_never_copies(self):
        rng = np.random.default_rng(0)
        pop = self.pair(rng, (2, 3))
        before = pop.wish_matrix.copy()
        for _ in range(200):
            assert not pair_step(pop, Mode.EQUALITY, KernelParams(p_copy=0.0), rng).copied
        assert np.array_equal(pop.wish_matrix, before)

    def test_forced_copy_changes_exactly_one_slot(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pop = self.pair(rng, (3, 1, 2))
            before = pop.wish_matrix.copy()
            ev = pair_step(pop, Mode.HIERARCHY, self.HIER, rng)
            assert (ev.learner, ev.source) == (0, 1)
            assert ev.copied
            learner, source = pop.wish_matrix
            assert np.array_equal(source, before[1])
            changed = np.flatnonzero(learner != before[0])
            assert len(changed) <= 1
            # the touched slot now equals the source exactly
            assert (learner == source).any()
            if len(changed) == 1:
                assert learner[changed[0]] == source[changed[0]]

    def test_unknown_source_never_transmits(self):
        rng = np.random.default_rng(2)
        pop = self.pair(rng, (2, 2), source_row=0.0)
        before = pop.wish_matrix.copy()
        for _ in range(10_000):
            assert not pair_step(pop, Mode.HIERARCHY, self.HIER, rng).copied
        assert np.array_equal(pop.wish_matrix, before)

    def test_consumes_three_uniforms_even_on_noop(self):
        # a pair event's two picks, then the copy triple, even when nothing copies
        pop = self.pair(np.random.default_rng(0), (2,), source_row=0.0)
        r1 = np.random.default_rng(3)
        r2 = np.random.default_rng(3)
        assert not pair_step(pop, Mode.HIERARCHY, self.HIER, r1).copied
        r2.random(5)
        assert r1.bit_generator.state == r2.bit_generator.state


class TestPairStep:
    def test_requires_two_customers(self):
        rng = np.random.default_rng(4)
        pop = make_population(rng, K=2)
        # shrink below the minimum through a direct matrix hack is not
        # possible (Population enforces K >= 2), so just check the happy path
        ev = pair_step(pop, Mode.EQUALITY, KernelParams(p_copy=1.0), rng)
        assert {ev.first, ev.partner} == {0, 1}

    def test_pair_members_distinct(self):
        rng = np.random.default_rng(5)
        pop = make_population(rng, K=5, p_unknown=0.0)
        params = KernelParams(p_copy=0.5)
        for _ in range(500):
            ev = pair_step(pop, Mode.EQUALITY, params, rng)
            assert ev.first != ev.partner
            assert {ev.learner, ev.source} == {ev.first, ev.partner}

    def test_hierarchy_full_rank_gap_always_copies(self):
        rng = np.random.default_rng(6)
        pop = make_population(rng, K=2, p_unknown=0.0, ranks=[0.0, 1.0])
        params = KernelParams(p_copy=1.0)
        for _ in range(300):
            ev = pair_step(pop, Mode.HIERARCHY, params, rng)
            assert ev.learner == 0
            assert ev.source == 1
            assert ev.copied

    def test_hierarchy_equal_ranks_never_copy(self):
        rng = np.random.default_rng(7)
        pop = make_population(rng, K=4, p_unknown=0.0, ranks=[0.5, 0.5, 0.5, 0.5])
        params = KernelParams(p_copy=1.0)
        for _ in range(1000):
            ev = pair_step(pop, Mode.HIERARCHY, params, rng)
            assert not ev.copied

    def test_hierarchy_learner_is_lower_ranked(self):
        rng = np.random.default_rng(8)
        pop = make_population(rng, K=10, p_unknown=0.0)
        params = KernelParams(p_copy=1.0)
        ranks = pop.ranks
        for _ in range(2000):
            ev = pair_step(pop, Mode.HIERARCHY, params, rng)
            if ev.copied:
                assert ranks[ev.learner] < ranks[ev.source]

    def test_equality_roles_are_fair(self):
        # binomial check: the first-drawn member learns, and either member of
        # an unordered pair is first with probability 1/2
        rng = np.random.default_rng(9)
        pop = make_population(rng, K=2, p_unknown=0.0)
        params = KernelParams(p_copy=1.0)
        n = 10_000
        learner_zero = 0
        for _ in range(n):
            ev = pair_step(pop, Mode.EQUALITY, params, rng)
            assert ev.copied
            learner_zero += ev.learner == 0
        phat = learner_zero / n
        sigma = (0.25 / n) ** 0.5
        assert abs(phat - 0.5) < 3 * sigma


class TestLeaderStep:
    def test_no_leaders_no_events(self):
        rng = np.random.default_rng(10)
        pop = make_population(rng, K=5, ranks=[0.1, 0.2, 0.3, 0.4, 0.5])
        r_before = rng.bit_generator.state
        assert leader_step(pop, KernelParams(p_copy=1.0, leader_pupils=3), rng) == 0
        assert rng.bit_generator.state == r_before

    def test_single_leader_teaches_everyone(self):
        rng = np.random.default_rng(11)
        K = 8
        pop = make_population(rng, K=K, p_unknown=0.0,
                              ranks=[1.0] + [0.1] * (K - 1))
        params = KernelParams(p_copy=1.0, leader_pupils=K - 1)
        for _ in range(50):
            assert leader_step(pop, params, rng) == K - 1

    def test_leader_wishes_never_change(self):
        rng = np.random.default_rng(12)
        K = 10
        pop = make_population(rng, K=K, p_unknown=0.0,
                              ranks=[1.0, 1.0] + [0.3] * (K - 2))
        params = KernelParams(p_copy=1.0, leader_pupils=4)
        before = pop.wish_matrix[list(pop.leader_ids)].copy()
        for _ in range(1000):
            leader_step(pop, params, rng)
        after = pop.wish_matrix[list(pop.leader_ids)]
        assert np.array_equal(before, after)

    def test_pupils_exceeding_non_leaders_rejected(self):
        rng = np.random.default_rng(13)
        pop = make_population(rng, K=4, ranks=[1.0, 1.0, 0.1, 0.2])
        with pytest.raises(ConfigurationError):
            leader_step(pop, KernelParams(p_copy=1.0, leader_pupils=3), rng)

    def test_pupils_are_distinct_non_leaders(self):
        rng = np.random.default_rng(14)
        K = 6
        pop = make_population(rng, K=K, p_unknown=0.0,
                              ranks=[1.0] + [0.2] * (K - 1))
        # give the leader a recognisable wish so every copy is traceable
        pop.wish_matrix[0] = 0.42
        params = KernelParams(p_copy=1.0, leader_pupils=2)
        leader_step(pop, params, rng)
        # exactly two customers gained a 0.42 slot; the leader is untouched
        touched = [
            k for k in range(1, K) if np.any(pop.wish_matrix[k] == 0.42)
        ]
        assert len(touched) == 2


def ref_draw_pupils(leaders, K, u):
    """Each leader's partial Fisher-Yates shuffle on its own copy of the pool."""
    non_leaders = [k for k in range(K) if k not in leaders]
    chosen = []
    for row in u.tolist():
        pool = list(non_leaders)
        for step, x in enumerate(row):
            pick = step + index_from_uniform(x, len(pool) - step)
            pool[step], pool[pick] = pool[pick], pool[step]
        chosen.extend(pool[: len(row)])
    return chosen


class TestDrawPupils:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), L=st.integers(1, 6), n=st.integers(1, 60))
    def test_matches_list_swap_loop(self, data, L, n):
        # the extreme uniforms pick the current step and the last position
        pupils = data.draw(st.one_of(st.just(n), st.integers(1, n)))
        leaders = tuple(sorted(data.draw(st.permutations(range(n + L)))[:L]))
        uniform = st.one_of(st.sampled_from([0.0, np.nextafter(1.0, 0.0)]),
                            st.floats(0.0, 1.0, exclude_max=True))
        u = np.array(data.draw(st.lists(uniform, min_size=L * pupils,
                                        max_size=L * pupils))).reshape(L, pupils)
        got = _draw_pupils(leaders, n + L, u)
        assert got.tolist() == ref_draw_pupils(leaders, n + L, u)


class TestShopStep:
    def test_event_count_rounding(self):
        assert shop_event_count(1.0, 2) == 2
        assert shop_event_count(1.0, 3) == 3
        assert shop_event_count(0.0, 5) == 0
        # Python banker's rounding at exact halves
        assert shop_event_count(0.5, 1) == 0
        assert shop_event_count(0.5, 3) == 2
        assert shop_event_count(0.25, 2) == 0

    def test_disabled_channel(self):
        rng = np.random.default_rng(15)
        pop = make_population(rng)
        state = rng.bit_generator.state
        assert shop_step(pop, KernelParams(p_copy=1.0, shop_teach_rate=0.0), rng) == 0
        assert rng.bit_generator.state == state
        # a rate that rounds to no events per brand draws nothing either
        assert shop_step(pop, KernelParams(p_copy=1.0, shop_teach_rate=0.4), rng) == 0
        assert rng.bit_generator.state == state

    def test_forced_counts_per_brand(self):
        rng = np.random.default_rng(16)
        schema = NeedSchema((2, 2))
        wish = 1.0 - rng.random((5, 4))
        assort = 1.0 - rng.random((2, 4))
        pop = Population(schema, wish, rng.random(5), assort, (2, 3))
        params = KernelParams(p_copy=1.0, shop_teach_rate=1.0)
        assert shop_step(pop, params, rng) == 5

    def test_single_brand_absorbs_with_only_shop_channel(self):
        rng = np.random.default_rng(17)
        schema_rng = np.random.default_rng(99)
        schema = NeedSchema(tuple(1 + int(u * 5) for u in schema_rng.random(3)))
        S = schema.total_slots
        K = 10
        wish = 1.0 - rng.random((K, S))
        assort = 1.0 - rng.random((1, S))
        pop = Population(schema, wish, rng.random(K), assort, (2,))
        params = KernelParams(p_copy=1.0, shop_teach_rate=2.0)
        for _ in range(5000):
            shop_step(pop, params, rng)
            if np.all(pop.wish_matrix == assort[0]):
                break
        assert np.all(pop.wish_matrix == assort[0])


class TestSweep:
    def test_frozen_dynamics_leave_wishes_untouched(self):
        rng = np.random.default_rng(18)
        pop = make_population(rng, K=8)
        before = pop.wish_matrix.copy()
        params = KernelParams(p_copy=0.0, leader_pupils=0, shop_teach_rate=0.0)
        sweep(pop, Mode.EQUALITY, params, rng)
        assert np.array_equal(pop.wish_matrix, before)
        assert pop.t == 1

    def test_t_increments_by_one(self):
        rng = np.random.default_rng(19)
        pop = make_population(rng)
        params = KernelParams(p_copy=0.5)
        for expected in range(1, 6):
            sweep(pop, Mode.EQUALITY, params, rng)
            assert pop.t == expected

    def test_event_log_has_k_pair_events(self):
        rng = np.random.default_rng(20)
        pop = make_population(rng, K=7)
        log = []
        sweep(pop, Mode.HIERARCHY, KernelParams(p_copy=0.5), rng, event_log=log)
        assert len(log) == 7

    def test_draw_budget_matches_documented_order(self):
        # the sweep must consume exactly 5K + leaders*(P + 3P) + sum_b 4*events_b
        rng = np.random.default_rng(21)
        K, pupils, rate = 9, 4, 1.5
        pop = make_population(rng, K=K, N=2, ranks=[1.0] + [0.5] * (K - 1),
                              shop_counts=(2, 1))
        params = KernelParams(p_copy=0.5, leader_pupils=pupils, shop_teach_rate=rate)
        seed_state = rng.bit_generator.state
        sweep(pop, Mode.HIERARCHY, params, rng)
        expected = 5 * K + (pupils + 3 * pupils) + 4 * (
            shop_event_count(rate, 2) + shop_event_count(rate, 1)
        )
        ref = np.random.default_rng(21)
        ref.bit_generator.state = seed_state
        ref.random(expected)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_sweep_equals_manual_step_sequence(self):
        # one batched sweep and K explicit pair_steps plus the teacher
        # channels must consume the stream identically
        rng_a = np.random.default_rng(22)
        rng_b = np.random.default_rng(22)
        seed_pop = np.random.default_rng(500)
        K = 12
        pop_a = make_population(seed_pop, K=K, N=3, ranks=None)
        pop_b = copy.deepcopy(pop_a)
        params = KernelParams(p_copy=0.7, leader_pupils=0, shop_teach_rate=0.8)
        sweep(pop_a, Mode.HIERARCHY, params, rng_a)

        from brandsim import refresh_affiliations

        for _ in range(K):
            pair_step(pop_b, Mode.HIERARCHY, params, rng_b)
        leader_step(pop_b, params, rng_b)
        shop_step(pop_b, params, rng_b)
        refresh_affiliations(pop_b)
        pop_b.t += 1

        assert np.array_equal(pop_a.wish_matrix, pop_b.wish_matrix)
        assert np.array_equal(pop_a.affiliations, pop_b.affiliations)
        assert pop_a.t == pop_b.t
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_determinism(self):
        out = []
        for _ in range(2):
            rng = np.random.default_rng(23)
            pop = make_population(np.random.default_rng(77), K=10)
            params = KernelParams(p_copy=0.6, shop_teach_rate=0.5)
            for _ in range(20):
                sweep(pop, Mode.EQUALITY, params, rng)
            out.append(pop.wish_matrix.copy())
        assert np.array_equal(out[0], out[1])

    def test_closure_entries_only_move_between_profiles(self):
        # values are only ever copied, never invented
        rng = np.random.default_rng(24)
        pop = make_population(rng, K=8, N=2, p_unknown=0.3)
        initial = set(pop.wish_matrix.ravel().tolist())
        initial |= set(pop.assortment_matrix.ravel().tolist())
        params = KernelParams(p_copy=0.8, shop_teach_rate=1.0)
        for _ in range(200):
            sweep(pop, Mode.EQUALITY, params, rng)
        final = set(pop.wish_matrix.ravel().tolist())
        assert final <= initial
        w = pop.wish_matrix
        assert np.all((w == 0.0) | ((w > 0.0) & (w <= 1.0)))

    def test_contraction_on_copy(self):
        rng = np.random.default_rng(25)
        pop = make_population(rng, K=6, p_unknown=0.2)
        params = KernelParams(p_copy=1.0)
        for _ in range(500):
            w_before = pop.wish_matrix.copy()
            ev = pair_step(pop, Mode.EQUALITY, params, rng)
            d_before = distance(w_before[ev.learner], w_before[ev.source])
            d_after = distance(
                pop.wish_matrix[ev.learner], pop.wish_matrix[ev.source]
            )
            assert d_after <= d_before


# --- scalar reference: one event at a time, in stream order -----------------


def ref_copy_slot(learner_values, source_values, schema, u_need, u_slot, u_coin, p):
    need = index_from_uniform(u_need, schema.num_needs)
    jm = schema.jmax[need]
    slot = index_from_uniform(u_slot, jm)
    flat = [0, *itertools.accumulate(schema.jmax)][need] + slot
    v = source_values[flat]
    if v != 0.0 and u_coin < p:
        learner_values[flat] = v
        return True
    return False


def ref_apply_copies(dst, src, dst_idx, src_idx):
    """The sequential writer: one event at a time, each read after every earlier write."""
    copied = []
    for i, (d, s) in enumerate(zip(dst_idx.tolist(), src_idx.tolist())):
        v = src[s]
        if v != 0.0:
            dst[d] = v
            copied.append(i)
    return np.array(copied, dtype=np.int64)


def ref_pair_events(pop, mode, params, u):
    schema = pop.schema
    wish_flat = pop.wish_matrix.reshape(-1)
    ranks = pop.ranks.tolist()
    K = pop.num_customers
    M = schema.num_needs
    S = schema.total_slots
    uu = u.tolist()
    K1 = K - 1
    offsets = [0, *itertools.accumulate(schema.jmax)]
    copies = 0
    for i in range(0, len(uu) // 5 * 5, 5):
        ua, ub, un, us, uc = uu[i : i + 5]
        a = int(ua * K)
        if a > K1:
            a = K1
        b = int(ub * K1)
        if b >= K1:
            b = K1 - 1
        if b >= a:
            b += 1
        if mode is Mode.HIERARCHY:
            ra = ranks[a]
            rb = ranks[b]
            if ra < rb:
                learner, source, p = a, b, params.p_copy * (rb - ra)
            else:
                learner, source, p = b, a, params.p_copy * (ra - rb)
        else:
            learner, source, p = a, b, params.p_copy
        need = int(un * M)
        if need >= M:
            need = M - 1
        jm = schema.jmax[need]
        slot = int(us * jm)
        if slot >= jm:
            slot = jm - 1
        flat = offsets[need] + slot
        v = wish_flat[source * S + flat]
        if v != 0.0 and uc < p:
            wish_flat[learner * S + flat] = v
            copies += 1
    return copies


def ref_leader_step(pop, params, rng):
    pupils = params.leader_pupils
    K = pop.num_customers
    leaders = [k for k in range(K) if pop.ranks[k] == 1.0]
    if not leaders or pupils == 0:
        return 0
    non_leaders = [k for k in range(K) if k not in leaders]
    wish = pop.wish_matrix
    copies = 0
    for leader in leaders:
        select_u = rng.random(pupils).tolist()
        pool = list(non_leaders)
        chosen = []
        n_pool = len(pool)
        for step, u in enumerate(select_u):
            pick = step + index_from_uniform(u, n_pool - step)
            pool[step], pool[pick] = pool[pick], pool[step]
            chosen.append(pool[step])
        teach_u = rng.random(3 * len(chosen))
        for idx, pupil in enumerate(chosen):
            o = 3 * idx
            copies += ref_copy_slot(
                wish[pupil], wish[leader], pop.schema,
                teach_u[o], teach_u[o + 1], teach_u[o + 2], params.p_copy,
            )
    return copies


def ref_shop_step(pop, params, rng):
    rate = params.shop_teach_rate
    if rate == 0.0:
        return 0
    wish = pop.wish_matrix
    K = pop.num_customers
    copies = 0
    for b, count in enumerate(pop.shop_counts):
        n_events = shop_event_count(rate, count)
        if n_events <= 0:
            continue
        u = rng.random(4 * n_events)
        src = pop.assortment_matrix[b]
        for o in range(0, 4 * n_events, 4):
            customer = index_from_uniform(u[o], K)
            copies += ref_copy_slot(
                wish[customer], src, pop.schema, u[o + 1], u[o + 2], u[o + 3], params.p_copy
            )
    return copies


def ref_sweep(pop, mode, params, rng):
    """One reference sweep; returns the number of pair copies."""
    pair_copies = ref_pair_events(pop, mode, params, rng.random(5 * pop.num_customers))
    ref_leader_step(pop, params, rng)
    ref_shop_step(pop, params, rng)
    pop.affiliations[:] = cdist(pop.wish_matrix, pop.assortment_matrix, "sqeuclidean").argmin(1)
    pop.t += 1
    return pair_copies


@st.composite
def kernel_cases(draw):
    K = draw(st.integers(2, 9))
    N = draw(st.integers(1, 4))
    jmax = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    n_leaders = draw(st.integers(0, min(3, K - 1)))
    pupils = draw(st.integers(0, K - n_leaders)) if n_leaders else 0
    return dict(
        K=K,
        jmax=jmax,
        n_leaders=n_leaders,
        coarse_ranks=draw(st.booleans()),
        p_unknown=draw(st.sampled_from([0.0, 0.9])),
        shop_counts=tuple(draw(st.lists(st.integers(1, 5), min_size=N, max_size=N))),
        params=KernelParams(
            p_copy=draw(st.floats(0.0, 1.0)),
            leader_pupils=pupils,
            shop_teach_rate=draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])),
        ),
        mode=draw(st.sampled_from(list(Mode))),
        seed=draw(st.integers(0, 2**32 - 1)),
        sweeps=draw(st.integers(1, 4)),
    )


def case_population(case):
    rng = np.random.default_rng(case["seed"])
    schema = NeedSchema(case["jmax"])
    K, S = case["K"], schema.total_slots
    wish = 1.0 - rng.random((K, S))
    wish[rng.random((K, S)) < case["p_unknown"]] = 0.0
    ranks = rng.random(K)
    if case["coarse_ranks"]:
        ranks = np.floor(ranks * 3) / 3  # many equal ranks, so zero rank gaps
    ranks[: case["n_leaders"]] = 1.0
    assort = 1.0 - rng.random((len(case["shop_counts"]), S))
    return Population(schema, wish, ranks, assort, case["shop_counts"])


class TestSweepMatchesScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_bitwise_equal_to_reference(self, case):
        pop = case_population(case)
        ref = copy.deepcopy(pop)
        rng = np.random.default_rng(case["seed"] + 1)
        ref_rng = np.random.default_rng(case["seed"] + 1)
        for _ in range(case["sweeps"]):
            log = []
            sweep(pop, case["mode"], case["params"], rng, event_log=log)
            pair_copies = ref_sweep(ref, case["mode"], case["params"], ref_rng)
            assert sum(e.copied for e in log) == pair_copies
        assert pop.wish_matrix.tobytes() == ref.wish_matrix.tobytes()
        assert np.array_equal(pop.affiliations, ref.affiliations)
        assert pop.t == ref.t
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def batch_cases(draw):
    """Sweeps whose leader and shop channels each send ``_MIN_BATCH`` or more events.

    ``p_copy`` is 1, so no coin drops an event: an equality sweep's pair
    batch has K events, the leader batch ``n_leaders * leader_pupils`` and
    the shop batch the sum of the brands' event counts.  Hierarchy pair
    batches are gated by rank gaps and hold about K/3 events.
    """
    K = draw(st.integers(_MIN_BATCH, 600))
    N = draw(st.integers(1, 4))
    n_leaders = draw(st.integers(2, 3))
    shop_counts = tuple(draw(st.lists(st.integers(1, 5), min_size=N, max_size=N)))
    return dict(
        K=K,
        jmax=tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))),
        n_leaders=n_leaders,
        coarse_ranks=draw(st.booleans()),
        p_unknown=draw(st.sampled_from([0.0, 0.9])),
        shop_counts=shop_counts,
        params=KernelParams(
            p_copy=1.0,
            leader_pupils=draw(st.integers(-(-_MIN_BATCH // n_leaders), K - n_leaders)),
            # per-brand rounding loses at most N/2 events
            shop_teach_rate=draw(st.floats(_MIN_BATCH + 2, 400)) / sum(shop_counts),
        ),
        mode=draw(st.sampled_from(list(Mode))),
        seed=draw(st.integers(0, 2**32 - 1)),
        sweeps=draw(st.integers(1, 2)),
    )


class TestBatchedApplier:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(st.integers(1, _MIN_BATCH - 1), st.integers(_MIN_BATCH, 4 * _MIN_BATCH)),
        cells_per_event=st.floats(1.0, 3.0),
        p_zero=st.sampled_from([0.0, 0.3, 0.9]),
        specials=st.booleans(),
        shared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sequential_loop(self, n, cells_per_event, p_zero, specials, shared, seed):
        # n to 3n cells, so many reads hit a cell an earlier event wrote
        rng = np.random.default_rng(seed)
        cells = int(n * cells_per_event)
        values = 1.0 - rng.random((2, cells))
        values[rng.random((2, cells)) < p_zero] = 0.0
        if specials:
            values[rng.random((2, cells)) < 0.05] = -0.0
            values[rng.random((2, cells)) < 0.05] = np.nan
        dst_idx = rng.integers(0, cells, n)
        src_idx = rng.integers(0, cells, n)
        dst, ref = values[0].copy(), values[0].copy()
        src, ref_src = (dst, ref) if shared else (values[1], values[1].copy())
        copied = _apply_copies(dst, src, dst_idx, src_idx)
        ref_copied = ref_apply_copies(ref, ref_src, dst_idx, src_idx)
        assert dst.tobytes() == ref.tobytes()
        assert np.array_equal(copied, ref_copied)

    @settings(max_examples=25, deadline=None)
    @given(batch_cases())
    def test_sweeps_above_threshold_match_reference(self, case):
        params = case["params"]
        assert case["n_leaders"] * params.leader_pupils >= _MIN_BATCH
        assert sum(
            shop_event_count(params.shop_teach_rate, c) for c in case["shop_counts"]
        ) >= _MIN_BATCH
        pop = case_population(case)
        ref = copy.deepcopy(pop)
        rng = np.random.default_rng(case["seed"] + 1)
        ref_rng = np.random.default_rng(case["seed"] + 1)
        for _ in range(case["sweeps"]):
            log = []
            sweep(pop, case["mode"], params, rng, event_log=log)
            pair_copies = ref_sweep(ref, case["mode"], params, ref_rng)
            assert sum(e.copied for e in log) == pair_copies
        assert pop.wish_matrix.tobytes() == ref.wish_matrix.tobytes()
        assert np.array_equal(pop.affiliations, ref.affiliations)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
