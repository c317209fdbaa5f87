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
* a pair event: 5 uniforms (learner pick over K, partner pick over the
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

Every channel builds its events' cells with one rule, ``_slot_cells``: the
slot is drawn need-first and is the same in the learner's row and the
source's.  Every channel applies its events through one coin rule,
``_copy_cells``.

Every sweep takes its pair events (the two picks, the event's cell in either
one's row, and the coin) from one block layout, ``_PairsAhead``.  On an
``np.random.PCG64`` that holds no 32-bit value, buffered or spent, the next
sweeps' pair uniforms follow the sweep's own directly, so a block of several
sweeps is drawn at once, the generator rewound, and moved on by exactly 5K
uniforms (``PCG64.advance``; O'Neill 2014, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms") as each sweep takes its pair
events from the block.  So the draws per operation above, and the generator's
state after every sweep, do not change.  A block is used only while the
generator is in the state the last sweep left.  One used to its end, with
nothing else drawn from the stream, is followed by one twice as long, up to
``_AHEAD`` uniforms; any other draw, such as a leader or shop step's, resets
the next block to one sweep.  On other streams, or when two sweeps need more
than ``_AHEAD`` uniforms, each sweep draws its own.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import ConfigurationError, Mode, SimConfig, shop_event_count
from .model import NeedSchema, Population, index_from_uniform, refresh_affiliations


class PairEvent(NamedTuple):
    """Record of one pair interaction."""

    first: int
    partner: int
    learner: int
    source: int
    copied: bool


def _slot_cells(
    schema: NeedSchema, learners: np.ndarray, sources: np.ndarray,
    u_need: np.ndarray, u_slot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each event's cell in its learner's and in its source's row of a flat matrix.

    The event's slot is drawn need-first, as ``index_from_uniform`` picks an
    index, and is the same in both rows.
    """
    jmax, offsets = schema.slot_tables
    need = index_from_uniform(u_need, schema.num_needs)
    flat = offsets[need] + index_from_uniform(u_slot, jmax[need])
    S = schema.total_slots
    return learners * S + flat, sources * S + flat


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
    temporaries have one entry per event, bar a one-byte mark per cell of a
    shared source.  On batches with a shared source into 6·10⁴ cells (2-vCPU
    Xeon, medians of 7 x 200 batches, five runs) the loop took 13-21 µs at
    64 events against 28-48 µs, 49-76 µs at 256 against 48-62 µs, 93-120 µs
    at 384 against 47-76 µs, and 99-156 µs at 512 against 66-88 µs.  256 is
    kept: it keeps the 50-event pair batches of K=50 runs on the loop, no
    benchmark workload sends a batch of 256 to 384 events, and the golden
    runs pin numpy-path leader and shop batches of 320 and 360 events.

    The numpy path reads every source before the batch, then replays, in
    event order, each read of a cell that an earlier event of the batch wrote
    (a hazard, possible only when ``src`` is ``dst``, and only for a read of a
    cell marked written, so no other read is sorted or searched): it takes the
    value of the last copying write to its cell before it, else the value
    before the batch.  That write's event came earlier, so its value is
    already final.  Each cell then takes its last copying write; numpy's
    order of repeated fancy writes is never relied on.
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
    if np.shares_memory(dst, src):
        written = np.zeros(len(dst), dtype=bool)
        written[dst_idx] = True
        maybe = np.flatnonzero(written[src_idx])
        rkey = np.sort(src_idx[maybe] * n + maybe)  # keyed by (cell, event) as the writes are
        rcell, reader = _divmod(rkey, n)
        # the last write to the read's cell by an earlier event, if any
        pos = np.searchsorted(key, rkey) - 1
        hit = np.flatnonzero((pos >= 0) & (cell[pos] == rcell))
        hit = hit[np.argsort(reader[hit])]  # the hazards in event order
        c, o, v = memoryview(cell), memoryview(order), memoryview(val)
        for r, j, rc in zip(reader[hit].tolist(), pos[hit].tolist(), rcell[hit].tolist()):
            while j >= 0 and c[j] == rc and v[o[j]] == 0.0:
                j -= 1  # skip the cell's writes that did not copy
            if j >= 0 and c[j] == rc:
                v[r] = v[o[j]]
    w = val[order]  # the value each sorted write carries; 0 means no copy
    copies = np.flatnonzero(w != 0.0)
    every = len(copies) == n  # w is val reordered, so then every event copied
    if not every:
        cell, w = cell[copies], w[copies]
    end = np.ones(len(cell), dtype=bool)
    np.not_equal(cell[1:], cell[:-1], out=end[:-1])
    dst[cell[end]] = w[end]
    return events if every else np.flatnonzero(val != 0.0)


def _copy_cells(
    dst: np.ndarray, src: np.ndarray, dst_cell: np.ndarray, src_cell: np.ndarray,
    coin: np.ndarray, p: float | np.ndarray,
) -> np.ndarray:
    """Slot-copy events from cell ``src_cell[i]`` of flat ``src`` to ``dst_cell[i]`` of flat ``dst``.

    An event copies only if its coin is below ``p`` (a scalar or one value
    per event).  The coins do not depend on the state, so only events that
    pass one reach :func:`_apply_copies`.  Returns the positions of the
    events that copied.
    """
    if isinstance(p, float) and p == 1.0:
        return _apply_copies(dst, src, dst_cell, src_cell)  # every coin is below 1
    hit = np.flatnonzero(coin < p)
    if len(hit) < len(coin):
        dst_cell, src_cell = dst_cell[hit], src_cell[hit]
    return hit[_apply_copies(dst, src, dst_cell, src_cell)]


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
    params: SimConfig,
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
    # the config bounds the pupils by its own K, but the population need not come from it
    if pupils > K - L:
        raise ConfigurationError(f"leader_pupils={pupils} exceeds the {K - L} non-leaders")
    # each leader's row: its selection uniforms, then its teaching triples
    u = rng.random((L, 4 * pupils))
    triples = u[:, pupils:].reshape(-1, 3)
    dst, src = _slot_cells(pop.schema, _draw_pupils(leaders, K, u[:, :pupils]),
                           np.repeat(np.arange(L), pupils), triples[:, 0], triples[:, 1])
    wish = pop.wish_matrix
    # leaders never learn here, so their gathered rows are a disjoint source
    return len(_copy_cells(wish.reshape(-1), wish[list(leaders)].reshape(-1), dst, src,
                           triples[:, 2], params.p_copy))


def shop_step(
    pop: Population,
    params: SimConfig,
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
    dst, src = _slot_cells(pop.schema, customers, brand_ids, u[:, 1], u[:, 2])
    return len(_copy_cells(pop.wish_matrix.reshape(-1), pop.assortment_matrix.reshape(-1),
                           dst, src, u[:, 3], params.p_copy))


#: the most uniforms a pair-only sweep draws at once, for itself and the sweeps after it.
#: A K=50 sweep (2-vCPU Xeon, medians of 25 interleaved runs of 4000 sweeps) took 20.0 µs
#: at 2**11, 19.3 at 2**12, 18.4 at 2**13, 17.7 at 2**14 and 17.8 at 2**16.
_AHEAD = 2**14


class _PairsAhead:
    """The pair events of the next sweeps of one run, drawn from its generator at once.

    ``first`` and ``partner`` hold the two picks, ``first_cell`` and
    ``partner_cell`` the flat index of the event's slot in either one's row,
    and ``coin`` the acceptance coin: K events per sweep, sweep after sweep,
    for ``sweeps`` sweeps, of which ``taken`` are used.  None of them depends
    on the mode or the rates.  ``state`` is the generator's state after the
    last sweep moved it past its own 5K uniforms.
    """

    __slots__ = ("state", "first", "partner", "first_cell", "partner_cell", "coin",
                 "sweeps", "taken")

    def __init__(self, rng: np.random.Generator, sweeps: int, K: int, schema: NeedSchema):
        u = rng.random((sweeps * K, 5))
        a = index_from_uniform(u[:, 0], K)
        b = index_from_uniform(u[:, 1], K - 1)
        b += b >= a  # the partner is one of the K-1 others
        self.first, self.partner = a, b
        self.first_cell, self.partner_cell = _slot_cells(schema, a, b, u[:, 2], u[:, 3])
        self.coin = u[:, 4].copy()
        self.sweeps, self.taken = sweeps, 0


def _pairs_ahead(
    pop: Population, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """This sweep's first picks, partners, their cells and the coins, with ``rng``
    moved past the sweep's 5K uniforms.

    A kept block is drawn, the generator rewound, and advanced 5K uniforms per
    sweep taken.  That needs a ``PCG64`` that holds no 32-bit value, buffered
    (``has_uint32``) or spent (``uinteger``): only then does ``advance`` leave
    the state that drawing leaves, as it clears both and drawing doubles keeps
    both.  Otherwise, or when two sweeps need more than ``_AHEAD`` uniforms, a
    one-sweep block is drawn where the generator stands and not kept.  A block
    is used only while the generator is in the state its last sweep left:
    equal states draw equal uniforms.  A block used to its end is followed by
    one twice as long, up to ``_AHEAD // 5K`` sweeps; after any other draw from
    the stream the next block covers one sweep.
    """
    K = pop.num_customers
    most = _AHEAD // (5 * K)
    bg = rng.bit_generator
    if (most < 2 or type(bg) is not np.random.PCG64
            or (state := bg.state)["has_uint32"] or state["uinteger"]):
        block = _PairsAhead(rng, 1, K, pop.schema)
        return block.first, block.partner, block.first_cell, block.partner_cell, block.coin
    block = pop._pairs_ahead
    fresh = block is None or state != block.state
    if fresh or block.taken == block.sweeps:
        sweeps = 1 if fresh else min(2 * block.sweeps, most)
        block = pop._pairs_ahead = _PairsAhead(rng, sweeps, K, pop.schema)
        bg.state = state
    i = block.taken * K
    block.taken += 1
    bg.advance(5 * K)
    block.state = bg.state
    j = i + K
    return (block.first[i:j], block.partner[i:j], block.first_cell[i:j],
            block.partner_cell[i:j], block.coin[i:j])


def sweep(
    pop: Population,
    mode: Mode,
    params: SimConfig,
    rng: np.random.Generator,
    event_log: list[PairEvent] | None = None,
) -> None:
    """Advance the population by one time unit, in place.

    Performs exactly K pair events, in draw order.  Each picks two distinct
    customers uniformly.  Equality: the first-drawn customer learns from the
    partner with probability ``p_copy``.  Hierarchy: the lower-ranked learns
    from the higher-ranked with probability ``p_copy`` times the rank gap, so
    equal ranks never copy.  Then come the leader and shop channels, then the
    affiliation refresh, which marks them stale so the next read recomputes
    them, and ``t`` increments.  When ``event_log`` is a list, one
    :class:`PairEvent` per pair event is appended to it.
    """
    a, b, dst, src, coin = _pairs_ahead(pop, rng)
    if mode is Mode.HIERARCHY:
        ra = pop.ranks[a]
        rb = pop.ranks[b]
        lower = ra < rb
        # ra - rb is exactly -(rb - ra), so this is the rank gap either way round
        p = params.p_copy * np.abs(rb - ra)
        dst, src = np.where(lower, dst, src), np.where(lower, src, dst)
    else:
        p = params.p_copy
    w = pop.wish_matrix.reshape(-1)
    done = _copy_cells(w, w, dst, src, coin, p)
    if event_log is not None:
        S = pop.schema.total_slots
        copied = np.zeros(len(a), dtype=bool)
        copied[done] = True
        # a cell's row is its customer: the learner's and the source's
        event_log.extend(
            map(PairEvent._make, zip(a.tolist(), b.tolist(), (dst // S).tolist(),
                                     (src // S).tolist(), copied.tolist()))
        )
    leader_step(pop, params, rng)
    shop_step(pop, params, rng)
    refresh_affiliations(pop)
    pop.t += 1
