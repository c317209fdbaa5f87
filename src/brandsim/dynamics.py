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
``n - 1``, the rule of :func:`brandsim.model.index_from_uniform`; every
channel applies it to whole arrays of uniforms at once through
``brandsim.model._bounded_indices``, which performs the same IEEE
operations.  Consumption per operation:

* the copy triple: 3 uniforms (need pick, slot pick, acceptance coin) per
  slot-copy event, all consumed even when the event is a no-op.
* ``pair_step``: 5 uniforms (learner pick over K, partner pick over the
  remaining K-1 with indexes at or above the first shifted up by one, then
  the copy triple).
* ``leader_step``: per leader in ascending customer id, ``leader_pupils``
  selection uniforms driving a partial Fisher-Yates shuffle over the
  non-leader ids in ascending order, then one copy triple per chosen
  pupil in selection order.  No leaders or zero pupils consume nothing.
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
    _bounded_indices,
    refresh_affiliations,
)


class Mode(enum.Enum):
    """Which pair-interaction kernel a run uses."""

    EQUALITY = "equality"
    HIERARCHY = "hierarchy"


@dataclass(frozen=True)
class KernelParams:
    """Rates for the three influence channels."""

    p_copy: float
    leader_pupils: int = 0
    shop_teach_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_copy <= 1.0:
            raise ConfigurationError(f"p_copy must lie in [0, 1], got {self.p_copy}")
        if self.leader_pupils < 0:
            raise ConfigurationError(
                f"leader_pupils must be >= 0, got {self.leader_pupils}"
            )
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
    need = _bounded_indices(u_need, schema.num_needs)
    slot = _bounded_indices(u_slot, np.asarray(schema.jmax, dtype=np.int64)[need])
    return np.asarray(schema.offsets, dtype=np.int64)[need] + slot


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
    temporaries all have one entry per event.  Its fixed cost is about
    80 µs, so small batches lose: on pair batches (2-vCPU Xeon) the loop
    took 69-71 µs at 128 events against 80-82 µs, and 130 µs at 256 against
    92-96 µs; at 512 events the numpy path is 2x faster and at 2·10⁴ 5x.
    The crossover moves with host noise between about 150 and 250 events,
    and 256 keeps the 50-event pair batches of K=50 runs on the loop.

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
        copied = []
        for i, (d, s) in enumerate(zip(dst_idx.tolist(), src_idx.tolist())):
            v = src[s]
            if v != 0.0:
                dst[d] = v
                copied.append(i)
        return np.array(copied, dtype=np.int64)
    events = np.arange(n)
    val = src[src_idx]
    # the event is the key's remainder, so a plain sort orders writes by (cell, event)
    key = np.sort(dst_idx * n + events)
    cell, order = np.divmod(key, n)
    w = val[order]  # the value each sorted write carries; 0 means no copy
    if np.shares_memory(dst, src):
        rcell, reader = np.divmod(np.sort(src_idx * n + events), n)
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
    c = cell[copies]
    end = np.ones(len(c), dtype=bool)
    np.not_equal(c[1:], c[:-1], out=end[:-1])
    dst[c[end]] = w[copies[end]]
    return np.flatnonzero(val != 0.0)


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

    ``u`` holds each event's (need, slot, coin) uniforms; an event copies
    only if its coin is below ``p`` (a scalar or one value per event).  The
    coins do not depend on the state, so only events that pass one reach
    :func:`_apply_copies`.  Returns the positions of the events that copied.
    """
    hit = np.flatnonzero(u[:, 2] < p)
    flat = _flat_slots(schema, u[hit, 0], u[hit, 1])
    S = schema.total_slots
    dst_idx = learner[hit] * S + flat
    src_idx = source[hit] * S + flat
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
    a = _bounded_indices(u[:, 0], K)
    b = _bounded_indices(u[:, 1], K - 1)
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
    non_leaders = pop.non_leader_ids
    if pupils > len(non_leaders):
        raise ConfigurationError(
            f"leader_pupils={pupils} exceeds the {len(non_leaders)} non-leaders"
        )
    # each leader's row: its selection uniforms, then its teaching triples
    u = rng.random((len(leaders), 4 * pupils))
    steps = np.arange(pupils)
    picks = steps + _bounded_indices(u[:, :pupils], len(non_leaders) - steps)
    pupil_ids = []
    for row in picks.tolist():
        pool = list(non_leaders)
        for step, pick in enumerate(row):
            pool[step], pool[pick] = pool[pick], pool[step]
        pupil_ids.extend(pool[:pupils])
    wish = pop.wish_matrix
    return len(_copy_rows(wish, wish, np.array(pupil_ids), np.repeat(leaders, pupils),
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
    customers = _bounded_indices(u[:, 0], pop.num_customers)
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
