import copy
import json

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
    distance,
    leader_step,
    shop_event_count,
    shop_step,
    sweep,
)
from brandsim.dynamics import _AHEAD, _MIN_BATCH, _apply_copies, _draw_pupils
from populations import cdist_sqeuclidean, make_population, rates


def pair_events(pop, mode, params, rng):
    """The pair events that one sweep logs, in draw order."""
    log = []
    sweep(pop, mode, params, rng, event_log=log)
    assert len(log) == pop.num_customers
    return log


class TestKernelParams:
    """The three rates every kernel reads, as SimConfig coerces and checks them."""

    def test_rejects_bad_p_copy(self):
        with pytest.raises(ConfigurationError):
            rates(p_copy=1.5)
        with pytest.raises(ConfigurationError):
            rates(p_copy=-0.1)

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            rates(p_copy=0.5, leader_pupils=-1)
        with pytest.raises(ConfigurationError):
            rates(p_copy=0.5, shop_teach_rate=-0.5)

    def test_rejects_non_finite_shop_rate(self):
        for rate in (float("inf"), float("nan")):
            with pytest.raises(ConfigurationError) as exc:
                rates(p_copy=0.5, shop_teach_rate=rate)
            assert "shop_teach_rate" in str(exc.value)

    @pytest.mark.parametrize("pupils", [2.5, True, "3", None])
    def test_rejects_non_integer_pupils(self, pupils):
        with pytest.raises(ConfigurationError) as exc:
            rates(p_copy=0.5, leader_pupils=pupils)
        assert "leader_pupils" in str(exc.value)

    def test_accepts_numpy_integer_pupils(self):
        params = rates(p_copy=0.5, leader_pupils=np.int64(3))
        assert params.leader_pupils == 3 and type(params.leader_pupils) is int

    @pytest.mark.parametrize(
        "field,value",
        [("p_copy", "0.5"), ("p_copy", None), ("p_copy", True), ("shop_teach_rate", "1")],
    )
    def test_rejects_non_numeric_rates(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            rates(**{"p_copy": 0.5, field: value})

    def test_accepts_numpy_float_rates(self):
        params = rates(p_copy=np.float64(0.5), shop_teach_rate=np.float64(2.0))
        assert params == rates(p_copy=0.5, shop_teach_rate=2.0)
        assert type(params.p_copy) is float and type(params.shop_teach_rate) is float

    def test_defaults(self):
        cfg = SimConfig(N=1, K=2, M=1, mode=Mode.EQUALITY, seed=0)
        assert (cfg.p_copy, cfg.leader_pupils, cfg.shop_teach_rate) == (1.0, 0, 0.0)
        assert rates() == cfg

    def test_coerces_every_rate_before_range_checks(self):
        with pytest.raises(ConfigurationError, match="leader_pupils"):
            rates(p_copy=1.5, leader_pupils="x")


class TestSlotCopy:
    """The copy triple, seen through the two pair events of a K=2 sweep."""

    HIER = rates(p_copy=1.0)

    @staticmethod
    def pair(rng, jmax, source_row=None):
        """Customer 0 (rank 0) and customer 1 (rank 1), so under hierarchy 0
        always learns from 1 with probability ``p_copy``.  Customer 1 is a
        leader, but with no pupils the leader channel does nothing."""
        pop = make_population(rng, K=2, jmax=jmax, p_unknown=0.0, ranks=(0.0, 1.0))
        if source_row is not None:
            pop.wish_matrix[1] = source_row
        return pop

    def test_zero_probability_never_copies(self):
        rng = np.random.default_rng(0)
        pop = self.pair(rng, (2, 3))
        before = pop.wish_matrix.copy()
        for _ in range(100):
            log = pair_events(pop, Mode.EQUALITY, rates(p_copy=0.0), rng)
            assert not any(ev.copied for ev in log)
        assert np.array_equal(pop.wish_matrix, before)

    def test_forced_copy_changes_exactly_one_slot(self):
        # every event copies one slot, so the learner's row changes in at most
        # as many slots as there were events, each now equal to the source's
        rng = np.random.default_rng(1)
        for _ in range(100):
            pop = self.pair(rng, (3, 1, 2))
            before = pop.wish_matrix.copy()
            log = pair_events(pop, Mode.HIERARCHY, self.HIER, rng)
            for ev in log:
                assert (ev.learner, ev.source) == (0, 1)
                assert ev.copied
            learner, source = pop.wish_matrix
            assert np.array_equal(source, before[1])
            changed = np.flatnonzero(learner != before[0])
            assert len(changed) <= len(log)
            # the touched slots now equal the source exactly
            assert np.array_equal(learner[changed], source[changed])
            assert (learner == source).any()

    def test_unknown_source_never_transmits(self):
        rng = np.random.default_rng(2)
        pop = self.pair(rng, (2, 2), source_row=0.0)
        before = pop.wish_matrix.copy()
        for _ in range(5_000):
            assert not any(ev.copied for ev in pair_events(pop, Mode.HIERARCHY, self.HIER, rng))
        assert np.array_equal(pop.wish_matrix, before)

    def test_consumes_three_uniforms_even_on_noop(self):
        # each pair event draws its two picks, then the copy triple, even when
        # nothing copies: 5 uniforms per event, and nothing else in this sweep
        pop = self.pair(np.random.default_rng(0), (2,), source_row=0.0)
        r1 = np.random.default_rng(3)
        r2 = np.random.default_rng(3)
        log = pair_events(pop, Mode.HIERARCHY, self.HIER, r1)
        assert not any(ev.copied for ev in log)
        r2.random(5 * len(log))
        assert r1.bit_generator.state == r2.bit_generator.state


class TestPairStep:
    """The pair-event rule of ``sweep``, checked on every event it logs."""

    def test_requires_two_customers(self):
        # at the minimum K=2 each event pairs the only two customers
        rng = np.random.default_rng(4)
        pop = make_population(rng, K=2)
        for _ in range(50):
            for ev in pair_events(pop, Mode.EQUALITY, rates(p_copy=1.0), rng):
                assert {ev.first, ev.partner} == {0, 1}

    def test_pair_members_distinct(self):
        rng = np.random.default_rng(5)
        pop = make_population(rng, K=5, p_unknown=0.0)
        params = rates(p_copy=0.5)
        for _ in range(100):
            for ev in pair_events(pop, Mode.EQUALITY, params, rng):
                assert ev.first != ev.partner
                assert {ev.learner, ev.source} == {ev.first, ev.partner}

    def test_hierarchy_full_rank_gap_always_copies(self):
        rng = np.random.default_rng(6)
        pop = make_population(rng, K=2, p_unknown=0.0, ranks=[0.0, 1.0])
        params = rates(p_copy=1.0)
        for _ in range(150):
            for ev in pair_events(pop, Mode.HIERARCHY, params, rng):
                assert ev.learner == 0
                assert ev.source == 1
                assert ev.copied

    def test_hierarchy_equal_ranks_never_copy(self):
        rng = np.random.default_rng(7)
        pop = make_population(rng, K=4, p_unknown=0.0, ranks=[0.5, 0.5, 0.5, 0.5])
        params = rates(p_copy=1.0)
        for _ in range(250):
            assert not any(ev.copied for ev in pair_events(pop, Mode.HIERARCHY, params, rng))

    def test_hierarchy_learner_is_lower_ranked(self):
        rng = np.random.default_rng(8)
        pop = make_population(rng, K=10, p_unknown=0.0)
        params = rates(p_copy=1.0)
        ranks = pop.ranks
        for _ in range(200):
            for ev in pair_events(pop, Mode.HIERARCHY, params, rng):
                assert ranks[ev.learner] <= ranks[ev.source]
                if ev.copied:
                    assert ranks[ev.learner] < ranks[ev.source]

    def test_equality_roles_are_fair(self):
        # binomial check: the first-drawn member learns, and either member of
        # an unordered pair is first with probability 1/2
        rng = np.random.default_rng(9)
        pop = make_population(rng, K=2, p_unknown=0.0)
        params = rates(p_copy=1.0)
        n = 0
        learner_zero = 0
        for _ in range(5_000):
            for ev in pair_events(pop, Mode.EQUALITY, params, rng):
                assert ev.copied
                assert ev.learner == ev.first
                learner_zero += ev.learner == 0
                n += 1
        phat = learner_zero / n
        sigma = (0.25 / n) ** 0.5
        assert abs(phat - 0.5) < 3 * sigma


class TestLeaderStep:
    def test_no_leaders_no_events(self):
        rng = np.random.default_rng(10)
        pop = make_population(rng, K=5, ranks=[0.1, 0.2, 0.3, 0.4, 0.5])
        r_before = rng.bit_generator.state
        assert leader_step(pop, rates(p_copy=1.0, leader_pupils=3), rng) == 0
        assert rng.bit_generator.state == r_before

    def test_single_leader_teaches_everyone(self):
        rng = np.random.default_rng(11)
        K = 8
        pop = make_population(rng, K=K, p_unknown=0.0,
                              ranks=[1.0] + [0.1] * (K - 1))
        params = rates(p_copy=1.0, leader_pupils=K - 1)
        for _ in range(50):
            assert leader_step(pop, params, rng) == K - 1

    def test_leader_wishes_never_change(self):
        rng = np.random.default_rng(12)
        K = 10
        pop = make_population(rng, K=K, p_unknown=0.0,
                              ranks=[1.0, 1.0] + [0.3] * (K - 2))
        params = rates(p_copy=1.0, leader_pupils=4)
        before = pop.wish_matrix[list(pop.leader_ids)].copy()
        for _ in range(1000):
            leader_step(pop, params, rng)
        after = pop.wish_matrix[list(pop.leader_ids)]
        assert np.array_equal(before, after)

    def test_pupils_exceeding_non_leaders_rejected(self):
        rng = np.random.default_rng(13)
        pop = make_population(rng, K=4, ranks=[1.0, 1.0, 0.1, 0.2])
        # a valid config, built before the check: only leader_step's own bound can raise
        params = rates(p_copy=1.0, leader_pupils=3)
        with pytest.raises(ConfigurationError, match="non-leaders"):
            leader_step(pop, params, rng)

    def test_pupils_are_distinct_non_leaders(self):
        rng = np.random.default_rng(14)
        K = 6
        pop = make_population(rng, K=K, p_unknown=0.0,
                              ranks=[1.0] + [0.2] * (K - 1))
        # give the leader a recognisable wish so every copy is traceable
        pop.wish_matrix[0] = 0.42
        params = rates(p_copy=1.0, leader_pupils=2)
        leader_step(pop, params, rng)
        # exactly two customers gained a 0.42 slot; the leader is untouched
        touched = [
            k for k in range(1, K) if np.any(pop.wish_matrix[k] == 0.42)
        ]
        assert len(touched) == 2


class TestDrawPupils:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), L=st.integers(1, 6), n=st.integers(1, 60))
    def test_matches_list_swap_loop(self, data, L, n):
        pupils = data.draw(st.one_of(st.just(n), st.integers(1, n)))
        leaders = tuple(sorted(data.draw(st.permutations(range(n + L)))[:L]))
        # numpy draws the uniforms from a drawn seed, and a drawn share of them is set to
        # an extreme, which picks the current step or the last position
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u = rng.random((L, pupils))
        ends = rng.random((L, pupils)) < data.draw(st.sampled_from([0.0, 0.2, 0.6]))
        u[ends] = np.where(rng.random(ends.sum()) < 0.5, 0.0, np.nextafter(1.0, 0.0))
        got = _draw_pupils(leaders, n + L, u)
        pool = [k for k in range(n + L) if k not in leaders]
        assert got.tolist() == [k for row in u.tolist() for k in ref_draw_pupils(pool, row)]


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
        assert shop_step(pop, rates(p_copy=1.0, shop_teach_rate=0.0), rng) == 0
        assert rng.bit_generator.state == state
        # a rate that rounds to no events per brand draws nothing either
        assert shop_step(pop, rates(p_copy=1.0, shop_teach_rate=0.4), rng) == 0
        assert rng.bit_generator.state == state

    def test_forced_counts_per_brand(self):
        rng = np.random.default_rng(16)
        schema = NeedSchema((2, 2))
        wish = 1.0 - rng.random((5, 4))
        assort = 1.0 - rng.random((2, 4))
        pop = Population(schema, wish, rng.random(5), assort, (2, 3))
        params = rates(p_copy=1.0, shop_teach_rate=1.0)
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
        params = rates(p_copy=1.0, shop_teach_rate=2.0)
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
        params = rates(p_copy=0.0, leader_pupils=0, shop_teach_rate=0.0)
        sweep(pop, Mode.EQUALITY, params, rng)
        assert np.array_equal(pop.wish_matrix, before)
        assert pop.t == 1

    def test_t_increments_by_one(self):
        rng = np.random.default_rng(19)
        pop = make_population(rng)
        params = rates(p_copy=0.5)
        for expected in range(1, 6):
            sweep(pop, Mode.EQUALITY, params, rng)
            assert pop.t == expected

    def test_event_log_has_k_pair_events(self):
        rng = np.random.default_rng(20)
        pop = make_population(rng, K=7)
        log = []
        sweep(pop, Mode.HIERARCHY, rates(p_copy=0.5), rng, event_log=log)
        assert len(log) == 7

    def test_draw_budget_matches_documented_order(self):
        # the sweep must consume exactly 5K + leaders*(P + 3P) + sum_b 4*events_b
        rng = np.random.default_rng(21)
        K, pupils, rate = 9, 4, 1.5
        pop = make_population(rng, K=K, N=2, ranks=[1.0] + [0.5] * (K - 1),
                              shop_counts=(2, 1))
        params = rates(p_copy=0.5, leader_pupils=pupils, shop_teach_rate=rate)
        seed_state = rng.bit_generator.state
        sweep(pop, Mode.HIERARCHY, params, rng)
        expected = 5 * K + (pupils + 3 * pupils) + 4 * (
            shop_event_count(rate, 2) + shop_event_count(rate, 1)
        )
        ref = np.random.default_rng(21)
        ref.bit_generator.state = seed_state
        ref.random(expected)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_determinism(self):
        out = []
        for _ in range(2):
            rng = np.random.default_rng(23)
            pop = make_population(np.random.default_rng(77), K=10)
            params = rates(p_copy=0.6, shop_teach_rate=0.5)
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
        params = rates(p_copy=0.8, shop_teach_rate=1.0)
        for _ in range(200):
            sweep(pop, Mode.EQUALITY, params, rng)
        final = set(pop.wish_matrix.ravel().tolist())
        assert final <= initial
        w = pop.wish_matrix
        assert np.all((w == 0.0) | ((w > 0.0) & (w <= 1.0)))

    def test_contraction_on_copy(self):
        # at K=2 every event pairs customers 0 and 1, so each copy, and the
        # whole sweep, can only bring them closer
        rng = np.random.default_rng(25)
        params = rates(p_copy=1.0)
        for _ in range(300):
            pop = make_population(rng, K=2, p_unknown=0.2)
            d_before = distance(*pop.wish_matrix)
            for ev in pair_events(pop, Mode.EQUALITY, params, rng):
                assert {ev.learner, ev.source} == {0, 1}
            assert distance(*pop.wish_matrix) <= d_before


# --- scalar reference: one event at a time, in stream order -----------------
# It states every rule of the documented stream itself, so it shares no code with
# the kernels it checks.


def ref_index(u, n):
    """The bounded index in [0, n) that the uniform ``u`` picks."""
    return min(int(u * n), n - 1)


def ref_copy_slot(learner_row, source_row, jmax, u_need, u_slot, u_coin, p):
    """One copy triple: a need, then a slot of that need, then the coin.  An
    unknown (0) source value never transmits.  Returns whether it copied."""
    need = ref_index(u_need, len(jmax))
    flat = sum(jmax[:need]) + ref_index(u_slot, jmax[need])
    v = source_row[flat]
    if v != 0.0 and u_coin < p:
        learner_row[flat] = v
        return True
    return False


def ref_draw_pupils(pool, u):
    """The first ``len(u)`` ids of a partial Fisher-Yates shuffle of ``pool``."""
    pool = list(pool)
    for step, x in enumerate(u):
        pick = step + ref_index(x, len(pool) - step)
        pool[step], pool[pick] = pool[pick], pool[step]
    return pool[: len(u)]


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
    """The pair events of the rows of ``u``, five uniforms each; returns the copies."""
    K = pop.num_customers
    ranks = pop.ranks.tolist()
    wish = pop.wish_matrix
    copies = 0
    for ua, ub, un, us, uc in u.tolist():
        a = ref_index(ua, K)
        b = ref_index(ub, K - 1)
        b += b >= a  # the partner is one of the K-1 others
        learner, source, p = a, b, params.p_copy  # equality: the first drawn learns
        if mode is Mode.HIERARCHY:
            # the lower ranked learns, with the rank gap scaling p_copy
            if ranks[a] >= ranks[b]:
                learner, source = b, a
            p *= ranks[source] - ranks[learner]
        copies += ref_copy_slot(wish[learner], wish[source], pop.schema.jmax, un, us, uc, p)
    return copies


def ref_leader_step(pop, params, rng):
    """Per leader in id order: its pupil draws, then one copy triple per pupil."""
    pupils = params.leader_pupils
    ranks = pop.ranks.tolist()
    leaders = [k for k, r in enumerate(ranks) if r == 1.0]
    pool = [k for k, r in enumerate(ranks) if r != 1.0]
    wish = pop.wish_matrix
    for leader in leaders:
        u = rng.random(4 * pupils).tolist()
        for i, pupil in enumerate(ref_draw_pupils(pool, u[:pupils])):
            o = pupils + 3 * i
            ref_copy_slot(wish[pupil], wish[leader], pop.schema.jmax, *u[o : o + 3],
                          params.p_copy)


def ref_shop_step(pop, params, rng):
    """Per brand in id order, ``round(rate * shop count)`` events (banker's rounding):
    a customer pick, then a copy triple from the brand's assortment."""
    wish = pop.wish_matrix
    for brand, count in enumerate(pop.shop_counts):
        for _ in range(round(params.shop_teach_rate * count)):
            uk, un, us, uc = rng.random(4).tolist()
            ref_copy_slot(wish[ref_index(uk, pop.num_customers)], pop.assortment_matrix[brand],
                          pop.schema.jmax, un, us, uc, params.p_copy)


def ref_sweep(pop, mode, params, rng):
    """One reference sweep; returns the number of pair copies."""
    pair_copies = ref_pair_events(pop, mode, params, rng.random((pop.num_customers, 5)))
    ref_leader_step(pop, params, rng)
    ref_shop_step(pop, params, rng)
    pop.affiliations[:] = cdist_sqeuclidean(pop.wish_matrix, pop.assortment_matrix).argmin(1)
    pop.t += 1
    return pair_copies


def assert_sweeps_match_reference(case):
    """The kernels and the reference, from one population and seed, make the same
    pair copies in every sweep and end in the same bytes, affiliations and stream."""
    pop = case_population(case)
    ref = copy.deepcopy(pop)
    rng = np.random.default_rng(case["seed"] + 1)
    ref_rng = np.random.default_rng(case["seed"] + 1)
    for _ in range(case["sweeps"]):
        log = []
        sweep(pop, case["mode"], case["params"], rng, event_log=log)
        assert sum(e.copied for e in log) == ref_sweep(ref, case["mode"], case["params"], ref_rng)
    assert pop.wish_matrix.tobytes() == ref.wish_matrix.tobytes()
    assert np.array_equal(pop.affiliations, ref.affiliations)
    assert pop.t == ref.t
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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
        params=rates(
            p_copy=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
            leader_pupils=pupils,
            shop_teach_rate=draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])),
        ),
        mode=draw(st.sampled_from(list(Mode))),
        seed=draw(st.integers(0, 2**32 - 1)),
        sweeps=draw(st.integers(1, 4)),
    )


def case_population(case):
    rng = np.random.default_rng(case["seed"])
    ranks = rng.random(case["K"])
    if case["coarse_ranks"]:
        ranks = np.floor(ranks * 3) / 3  # many equal ranks, so zero rank gaps
    ranks[: case["n_leaders"]] = 1.0
    return make_population(rng, K=case["K"], N=len(case["shop_counts"]), jmax=case["jmax"],
                           p_unknown=case["p_unknown"], ranks=ranks,
                           shop_counts=case["shop_counts"])


class TestSweepMatchesScalarReference:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_bitwise_equal_to_reference(self, case):
        assert_sweeps_match_reference(case)


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
        params=rates(
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
        cells_per_event=st.one_of(st.floats(0.05, 3.0), st.floats(3.0, 30.0)),
        p_zero=st.sampled_from([0.0, 0.3, 0.9]),
        specials=st.booleans(),
        shared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sequential_loop(self, n, cells_per_event, p_zero, specials, shared, seed):
        # n/20 to 30n cells, drawn as often below 3n as above it: at the low end many
        # reads hit a cell an earlier event wrote and a cell can take long runs of
        # writes; at the high end, as in a K=2·10⁴ pair batch, few cells are written
        # and a hazard is rare
        rng = np.random.default_rng(seed)
        cells = max(1, int(n * cells_per_event))
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

    def test_lone_hazard_reads_event_zeros_write(self):
        # every other read is of a cell no event writes; the last event reads the
        # cell event 0 wrote, so it must copy the value event 0 carried there
        n = _MIN_BATCH
        values = np.arange(1.0, 30 * n + 1.0)
        dst_idx = np.arange(n) * 30
        src_idx = dst_idx + 1
        src_idx[-1] = dst_idx[0]
        dst, ref = values.copy(), values.copy()
        assert np.array_equal(_apply_copies(dst, dst, dst_idx, src_idx), np.arange(n))
        ref_apply_copies(ref, ref, dst_idx, src_idx)
        assert dst[dst_idx[-1]] == values[src_idx[0]]
        assert dst.tobytes() == ref.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(batch_cases())
    def test_sweeps_above_threshold_match_reference(self, case):
        params = case["params"]
        assert case["n_leaders"] * params.leader_pupils >= _MIN_BATCH
        assert sum(
            shop_event_count(params.shop_teach_rate, c) for c in case["shop_counts"]
        ) >= _MIN_BATCH
        assert_sweeps_match_reference(case)


def stream_state(rng):
    """The generator's state as text, so that an MT19937 key array compares too."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


class TestDrawAhead:
    """A pair-only sweep on a PCG64 stream takes its pair events from a block drawn
    for several sweeps and advances the generator by its own 5K uniforms; after
    every sweep the wishes and the generator state must be those of the scalar
    reference, which draws sweep by sweep."""

    K = 50
    PARAMS = rates(p_copy=0.7)
    BLOCK = _AHEAD // (5 * K)  # the longest block at K=50, in sweeps

    def populations(self, seed, ranks=None):
        pop = make_population(np.random.default_rng(seed), K=self.K, N=3, jmax=(2, 3, 1),
                              ranks=ranks)
        assert ranks is not None or not pop.leader_ids
        return pop, copy.deepcopy(pop)

    def step(self, pop, ref, mode, rng, ref_rng, params=PARAMS):
        """One sweep of each; both must copy alike and leave the same bytes and state."""
        log = []
        sweep(pop, mode, params, rng, event_log=log)
        assert len(log) == self.K
        assert sum(e.copied for e in log) == ref_sweep(ref, mode, params, ref_rng)
        assert pop.wish_matrix.tobytes() == ref.wish_matrix.tobytes()
        assert stream_state(rng) == stream_state(ref_rng)

    @pytest.mark.parametrize("p_copy", [0.7, 1.0])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_run_across_refills_matches_reference(self, mode, p_copy):
        pop, ref = self.populations(30)
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        lengths = [min(2**i, self.BLOCK) for i in range(10)]  # 1, 2, 4, ..., 64, then 65 x 3
        blocks = [None]
        for _ in range(sum(lengths) - self.BLOCK + 3):  # 3 sweeps into the last block
            self.step(pop, ref, mode, rng, ref_rng, rates(p_copy=p_copy))
            if pop._pairs_ahead is not blocks[-1]:
                blocks.append(pop._pairs_ahead)
        assert [block.sweeps for block in blocks[1:]] == lengths
        assert np.array_equal(pop.affiliations, ref.affiliations)

    def test_draw_between_sweeps_drops_the_block(self):
        pop, ref = self.populations(32)
        rng, ref_rng = np.random.default_rng(33), np.random.default_rng(33)
        for _ in range(4):  # blocks of 1 and 2 sweeps, then the first of 4
            self.step(pop, ref, Mode.EQUALITY, rng, ref_rng)
        block = pop._pairs_ahead
        assert block.sweeps == 4 and block.taken == 1
        assert rng.random() == ref_rng.random()
        self.step(pop, ref, Mode.EQUALITY, rng, ref_rng)
        assert pop._pairs_ahead is not block and pop._pairs_ahead.sweeps == 1
        for _ in range(2):
            self.step(pop, ref, Mode.EQUALITY, rng, ref_rng)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_sweeps_with_other_draws_keep_one_sweep_blocks(self, mode):
        # the leader or shop step draws after the pairs, so no block outlives its sweep
        if mode is Mode.HIERARCHY:
            ranks = np.random.default_rng(39).random(self.K) * 0.9
            ranks[7] = 1.0  # one leader
            params = rates(p_copy=0.7, leader_pupils=5)
        else:
            ranks, params = None, rates(p_copy=0.7, shop_teach_rate=1.0)
        pop, ref = self.populations(40, ranks)
        rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
        for _ in range(20):
            self.step(pop, ref, mode, rng, ref_rng, params)
            assert pop._pairs_ahead.sweeps == 1

    def test_alternating_generators_match_reference(self):
        pop, ref = self.populations(34)
        rngs = [np.random.default_rng(35), np.random.default_rng(36)]
        ref_rngs = [np.random.default_rng(35), np.random.default_rng(36)]
        for i in range(8):
            self.step(pop, ref, Mode.EQUALITY, rngs[i % 2], ref_rngs[i % 2])
        for rng, ref_rng in zip(rngs, ref_rngs):
            assert stream_state(rng) == stream_state(ref_rng)

    @pytest.mark.parametrize("stream", ["mt19937", "pcg64_buffered_uint32",
                                        "pcg64_spent_uint32"])
    def test_other_streams_draw_sweep_by_sweep(self, stream):
        pop, ref = self.populations(37)
        if stream == "mt19937":
            rng, ref_rng = (np.random.Generator(np.random.MT19937(38)) for _ in range(2))
        elif stream == "pcg64_buffered_uint32":
            rng, ref_rng = np.random.default_rng(38), np.random.default_rng(38)
            for g in (rng, ref_rng):
                g.integers(0, 10, dtype=np.int32)  # leaves half of a 64-bit draw buffered
            assert rng.bit_generator.state["has_uint32"] == 1
        else:
            rng, ref_rng = np.random.default_rng(38), np.random.default_rng(38)
            for g in (rng, ref_rng):
                # the second draw spends the buffered half, whose value stays in the
                # state; advance would clear it and drawing doubles keeps it
                g.integers(0, 10, dtype=np.int32)
                g.integers(0, 10, dtype=np.int32)
            state = rng.bit_generator.state
            assert state["has_uint32"] == 0 and state["uinteger"] != 0
        for _ in range(self.BLOCK + 2):
            self.step(pop, ref, Mode.EQUALITY, rng, ref_rng)
        # the buffered value is still there to be drawn, as drawing doubles keeps it
        assert rng.integers(0, 2**31, dtype=np.int32) == ref_rng.integers(0, 2**31, dtype=np.int32)
