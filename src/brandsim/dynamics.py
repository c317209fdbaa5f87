"""Stochastic interaction kernels and the sweep scheduler.

Update rule: single-slot verbatim copying.  An event picks one slot of the
learner's profile and overwrites it with the source's value; nothing is ever
averaged, so the reachable value set stays finite and exact consensus is
attainable.  Unknown entries (0) never transmit.

Randomness discipline
---------------------
Every stochastic choice consumes float64 uniforms from one generator stream
in a fixed, documented order, so a run can be replayed slot by slot from the
seed alone.  A bounded index in [0, n) is ``floor(u * n)`` clamped to
``n - 1``, the rule of :func:`brandsim.model.index_from_uniform`, which
every channel applies to whole arrays of uniforms at once.  Consumption per
operation:

* the copy triple: 3 uniforms (need pick, slot pick, acceptance coin) per
  slot-copy event, all consumed even when the event is a no-op.
* ``pair_step``: 5 uniforms (learner pick over K, partner pick over the
  remaining K-1 with indexes at or above the first shifted up by one, then
  the copy triple).
* ``leader_step``: per leader in ascending customer id, ``leader_pupils``
  selection uniforms driving a partial Fisher-Yates shuffle over the
  non-leader ids in ascending order, then one copy triple per chosen
  pupil in selection order.  No leaders or zero pupils consume nothing.
  All leaders' shuffles are resolved in one array pass that follows each
  collided pick back to the value an earlier swap moved (``_draw_pupils``).
* ``shop_step``: per brand in ascending id, ``round(shop_teach_rate *
  shop_count)`` events (Python banker's rounding) of 4 uniforms each
  (customer pick plus the copy triple).  A rate of 0 consumes nothing.
* ``sweep``: K pair events, then ``leader_step``, then ``shop_step``, then
  an affiliation refresh (no draws) and the time increment.  The refresh
  only marks affiliations stale; the next read recomputes them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .model import (
    NeedSchema,
    Population,
    _coerce_float,
    _coerce_int,
    index_from_uniform,
    refresh_affiliations,
)


class Mode(enum.Enum):
    """Which pair-interaction kernel a run uses."""

    EQUALITY = "equality"
    HIERARCHY = "hierarchy"


@dataclass(frozen=True)
class KernelParams:
    """Rates for the three influence channels, declared and checked only here:
    :class:`~brandsim.config.SimConfig` extends this class, so the kernels take
    a run's config as it is.  The pupil bound, which needs K, is not checked here."""

    p_copy: float = 1.0
    leader_pupils: int = 0
    shop_teach_rate: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_copy", _coerce_float("p_copy", self.p_copy))
        if not 0.0 <= self.p_copy <= 1.0:
            raise ConfigurationError(f"p_copy must lie in [0, 1], got {self.p_copy}")
        object.__setattr__(self, "leader_pupils",
                           _coerce_int("leader_pupils", self.leader_pupils))
        if self.leader_pupils < 0:
            raise ConfigurationError(
                f"leader_pupils must be >= 0, got {self.leader_pupils}"
            )
        object.__setattr__(self, "shop_teach_rate",
                           _coerce_float("shop_teach_rate", self.shop_teach_rate))
        if not 0.0 <= self.shop_teach_rate < math.inf:
            raise ConfigurationError(
                f"shop_teach_rate must be finite and >= 0, got {self.shop_teach_rate}"
            )


class PairEvent(NamedTuple):
    """Record of one pair interaction."""

    first: int
    partner: int
    learner: int
    source: int
    copied: bool


def _flat_slots(schema: NeedSchema, u_need: np.ndarray, u_slot: np.ndarray) -> np.ndarray:
    """Each event's flat slot, drawn need-first as ``index_from_uniform`` does."""
    jmax, offsets = schema.slot_tables
    need = index_from_uniform(u_need, schema.num_needs)
    return offsets[need] + index_from_uniform(u_slot, jmax[need])


def _divmod(key: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod`` by a scalar in half its time, as numpy's ``//`` is fast."""
    q = key // n
    return q, key - q * n


_MIN_BATCH = 256


def _apply_copies(
    dst: np.ndarray, src: np.ndarray, dst_idx: np.ndarray, src_idx: np.ndarray
) -> np.ndarray:
    """Copy ``src[src_idx[i]]`` into ``dst[dst_idx[i]]`` for every event ``i``, in order.

    The one place a wish slot is written.  The result is that of running the
    events one at a time: an event reads its source cell after every earlier
    event's write, and the last write to a cell wins.  ``dst`` and ``src`` are
    flat and either the same array or disjoint.  An unknown (0) value never
    transmits.  Returns the positions of the events that copied.

    Batches of fewer than ``_MIN_BATCH`` events run that sequential loop.
    Larger ones take a numpy path with the same result bit for bit, whose
    temporaries all have one entry per event.  On batches with a shared
    source into 6·10⁴ cells (2-vCPU Xeon, medians of 7 x 200 batches) the
    loop took 22-24 µs at 64 events against 50 µs, 70-76 µs at 256 against
    82-91 µs, and 110-112 µs at 384, as the numpy path did; at 512 the
    numpy path was 2-9% faster.  256 is kept: it keeps the 50-event pair
    batches of K=50 runs on the loop, no benchmark workload sends a batch
    of 256 to 384 events, and the golden runs pin numpy-path leader and
    shop batches of 320 and 360 events.

    The numpy path reads every source before the batch, then repairs the
    reads of a cell that an earlier event of the batch wrote (hazards,
    possible only when ``src`` is ``dst``).  Each round of a forward fill
    over the writes, sorted by (cell, event), gives every hazard the value
    of the last copying write to its cell before it, or else the value
    before the batch.  Dependencies point strictly backward, so the rounds
    stop at the unique fixed point.  Each cell then takes its last copying
    write; numpy's order of repeated fancy writes is never relied on.
    """
    n = len(dst_idx)
    if n < _MIN_BATCH:
        # a memoryview reads and writes Python floats, with no numpy scalars
        dst_view, src_view = memoryview(dst), memoryview(src)
        copied = []
        for i, (d, s) in enumerate(zip(dst_idx.tolist(), src_idx.tolist())):
            v = src_view[s]
            if v != 0.0:
                dst_view[d] = v
                copied.append(i)
        return np.array(copied, dtype=np.int64)
    events = np.arange(n)
    val = src[src_idx]
    # the event is the key's remainder, so a plain sort orders writes by (cell, event)
    key = np.sort(dst_idx * n + events)
    cell, order = _divmod(key, n)
    w = val[order]  # the value each sorted write carries; 0 means no copy
    if np.shares_memory(dst, src):
        rcell, reader = _divmod(np.sort(src_idx * n + events), n)
        # the last write to the read's cell by an earlier event, if any
        pos = np.searchsorted(key, rcell * n + reader) - 1
        hit = (pos >= 0) & (cell[pos] == rcell)
        reader, pos, rcell = reader[hit], pos[hit], rcell[hit]
        if len(reader):
            before = val[reader]
            own = np.empty(n, dtype=np.int64)
            own[order] = events
            own = own[reader]  # where each hazard's own write sits
            last = np.where(w != 0.0, events, -1)
            while True:
                lc = np.maximum.accumulate(last)[pos]
                new = np.where((lc >= 0) & (cell[lc] == rcell), w[lc], before)
                # bitwise, so a NaN value cannot keep the rounds going
                if np.array_equal(new.view(np.int64), w[own].view(np.int64)):
                    break
                w[own] = new
                last[own] = np.where(new != 0.0, own, -1)
            val[reader] = new
    copies = np.flatnonzero(w != 0.0)
    every = len(copies) == n  # w is val reordered, so then every event copied
    if not every:
        cell, w = cell[copies], w[copies]
    end = np.ones(len(cell), dtype=bool)
    np.not_equal(cell[1:], cell[:-1], out=end[:-1])
    dst[cell[end]] = w[end]
    return events if every else np.flatnonzero(val != 0.0)


def _copy_rows(
    dst: np.ndarray,
    src: np.ndarray,
    learner: np.ndarray,
    source: np.ndarray,
    u: np.ndarray,
    p: float | np.ndarray,
    schema: NeedSchema,
) -> np.ndarray:
    """Slot-copy events from row ``source[i]`` of ``src`` to row ``learner[i]`` of ``dst``.

    Row ``i`` of ``u`` holds event ``i``'s (need, slot, coin) uniforms, read
    through one transposed copy as three contiguous rows.  An event copies
    only if its coin is below ``p`` (a scalar or one value per event).  The
    coins do not depend on the state, so only events that pass one reach
    :func:`_apply_copies`.  Returns the positions of the events that copied.
    """
    need, slot, coin = u.T.copy()
    hit = np.flatnonzero(coin < p)
    if len(hit) < len(coin):
        need, slot, learner, source = need[hit], slot[hit], learner[hit], source[hit]
    flat = _flat_slots(schema, need, slot)
    S = schema.total_slots
    dst_idx = learner * S + flat
    src_idx = source * S + flat
    return hit[_apply_copies(dst.reshape(-1), src.reshape(-1), dst_idx, src_idx)]


def _run_pair_events(
    pop: Population,
    mode: Mode,
    params: KernelParams,
    u: np.ndarray,
    event_log: list[PairEvent] | None = None,
) -> int:
    """Apply ``len(u) // 5`` sequential pair events; returns the copy count.

    Shared by ``pair_step`` (one event) and ``sweep`` (K events) so both
    consume the stream identically.
    """
    K = pop.num_customers
    u = u.reshape(-1, 5)
    a = index_from_uniform(u[:, 0], K)
    b = index_from_uniform(u[:, 1], K - 1)
    b += b >= a  # the partner is one of the K-1 others
    if mode is Mode.HIERARCHY:
        ra = pop.ranks[a]
        rb = pop.ranks[b]
        lower = ra < rb
        learner = np.where(lower, a, b)
        source = np.where(lower, b, a)
        # ra - rb is exactly -(rb - ra), so this is the rank gap either way round
        p = params.p_copy * np.abs(rb - ra)
    else:
        learner, source, p = a, b, params.p_copy
    wish = pop.wish_matrix
    done = _copy_rows(wish, wish, learner, source, u[:, 2:], p, pop.schema)
    if event_log is not None:
        copied = np.zeros(len(a), dtype=bool)
        copied[done] = True
        event_log.extend(
            map(PairEvent._make, zip(a.tolist(), b.tolist(), learner.tolist(),
                                     source.tolist(), copied.tolist()))
        )
    return len(done)


def pair_step(
    pop: Population,
    mode: Mode,
    params: KernelParams,
    rng: np.random.Generator,
) -> PairEvent:
    """One pair interaction between two distinct, uniformly chosen customers.

    Equality: the first-drawn customer learns from the partner with
    probability ``p_copy``.  Hierarchy: the lower-ranked learns from the
    higher-ranked with probability ``p_copy`` times the rank gap, so equal
    ranks never copy.
    """
    log: list[PairEvent] = []
    _run_pair_events(pop, mode, params, rng.random(5), log)
    return log[0]


def _draw_pupils(leaders: tuple[int, ...], K: int, u: np.ndarray) -> np.ndarray:
    """The pupil ids that row ``l`` of ``u`` selects, for every row, flat.

    Row ``l`` drives a partial Fisher-Yates shuffle of the non-leader ids,
    ascending: step ``s`` swaps positions ``s`` and ``picks[s] = s +
    index_from_uniform(u[l, s], n - s)``.  No later step touches position
    ``s``, so pupil ``s`` is what ``picks[s]`` held before step ``s``: itself
    unless an earlier step picked it, else what the last such step ``i``
    moved there, which is what position ``i`` held before step ``i``, and so
    on back.  Only collided picks walk these chains.
    """
    L, P = u.shape
    n = K - len(leaders)
    steps = np.arange(P)
    picks = steps + index_from_uniform(u, n - steps)
    pupil = picks.ravel()  # flat event l * P + s
    # every pick keyed by (row, position, step); the step is the key's remainder
    key = np.sort(((np.arange(L)[:, None] * n + picks) * P + steps).ravel())
    cell, step = _divmod(key, P)
    c = np.flatnonzero(cell[1:] == cell[:-1])  # sorted pick c + 1 collides with pick c
    row = cell[c] // n
    todo, step = row * P + step[c + 1], step[c]
    while len(todo):
        # the last pick of position ``step`` before step ``step``, if any
        q = (row * n + step) * P + step
        at = np.searchsorted(key, q) - 1
        found = (at >= 0) & (key[at] >= q - step)
        pupil[todo[~found]] = step[~found]
        todo, row, step = todo[found], row[found], key[at[found]] % P
    return np.delete(np.arange(K), leaders)[pupil]


def leader_step(
    pop: Population,
    params: KernelParams,
    rng: np.random.Generator,
) -> int:
    """Each rank-1 leader teaches ``leader_pupils`` distinct non-leaders.

    Pupils are drawn uniformly without replacement; every teaching copies
    one slot of the leader's wish with probability ``p_copy``.  Leaders are
    never learners here.  Returns the number of copies that occurred.
    """
    pupils = params.leader_pupils
    leaders = pop.leader_ids
    if not leaders or pupils == 0:
        return 0
    K, L = pop.num_customers, len(leaders)
    if pupils > K - L:
        raise ConfigurationError(f"leader_pupils={pupils} exceeds the {K - L} non-leaders")
    # each leader's row: its selection uniforms, then its teaching triples
    u = rng.random((L, 4 * pupils))
    wish = pop.wish_matrix
    # leaders never learn here, so their gathered rows are a disjoint source
    return len(_copy_rows(wish, wish[list(leaders)], _draw_pupils(leaders, K, u[:, :pupils]),
                          np.repeat(np.arange(L), pupils),
                          u[:, pupils:].reshape(-1, 3), params.p_copy, pop.schema))


def shop_event_count(shop_teach_rate: float, shop_count: int) -> int:
    """Teaching events one brand performs per sweep (banker's rounding)."""
    return int(round(shop_teach_rate * shop_count))


def shop_step(
    pop: Population,
    params: KernelParams,
    rng: np.random.Generator,
) -> int:
    """Brands teach their own assortment to uniformly chosen customers.

    Brand ``b`` performs ``shop_event_count(rate, shop_count_b)`` events;
    each copies one assortment slot into a random customer with probability
    ``p_copy``.  Returns the number of copies.  A rate of 0 disables the
    channel entirely.
    """
    rate = params.shop_teach_rate
    if rate == 0.0:
        return 0
    counts = [shop_event_count(rate, s) for s in pop.shop_counts]
    # the brands draw back to back, so one draw is the same stream
    u = rng.random((sum(counts), 4))
    customers = index_from_uniform(u[:, 0], pop.num_customers)
    brand_ids = np.repeat(np.arange(len(counts)), counts)
    return len(_copy_rows(pop.wish_matrix, pop.assortment_matrix, customers,
                          brand_ids, u[:, 1:], params.p_copy, pop.schema))


def sweep(
    pop: Population,
    mode: Mode,
    params: KernelParams,
    rng: np.random.Generator,
    event_log: list[PairEvent] | None = None,
) -> Population:
    """Advance the population by one time unit, in place.

    Performs exactly K pair events, then the leader and shop channels, then
    refreshes the affiliations, which marks them stale so the next read
    recomputes them, and increments ``t``.  When ``event_log`` is a list,
    one :class:`PairEvent` per pair interaction is appended to it.
    """
    _run_pair_events(pop, mode, params, rng.random(5 * pop.num_customers), event_log)
    leader_step(pop, params, rng)
    shop_step(pop, params, rng)
    refresh_affiliations(pop)
    pop.t += 1
    return pop
