"""Core domain types: need schemas and the arrays of a population.

A customer's state is a ragged matrix of need-satisfaction values, stored
flat: need ``i`` owns ``jmax[i]`` consecutive slots (at most five).  A slot
value of exactly ``0.0`` encodes an unknown need; known values lie in
``(0, 1]``.  A population holds every customer's wishes as the rows of one
K x S matrix and every brand's fixed assortment, with all slots known, as
the rows of an N x S matrix, plus one shop count per brand used as a
teaching weight.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigurationError

if TYPE_CHECKING:
    from .config import SimConfig

#: Largest number of subentries a single need may carry.
MAX_SUBENTRIES = 5


def index_from_uniform(u, n):
    """The one bounded-index rule: ``floor(u * n)`` for uniforms ``u`` in [0, 1), clamped
    so rounding never gives ``n`` itself.  ``u`` and ``n`` are scalars or per-draw arrays."""
    return np.minimum(np.multiply(u, n).astype(np.int64), n - 1)


def _coerce_int(name: str, value) -> int:
    """``value`` as a Python int; anything but an integer (a bool, a float, a
    string) is a :class:`ConfigurationError` naming ``name``, never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _coerce_float(name: str, value) -> float:
    """``value`` as a Python float; a bool or a non-real is a :class:`ConfigurationError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    return float(value)


def _coerce_ints(name: str, values) -> tuple[int, ...]:
    """:func:`_coerce_int` over ``values``, which must be iterable."""
    try:
        items = iter(values)
    except TypeError:
        raise ConfigurationError(f"{name} must be a sequence, got {values!r}") from None
    return tuple(_coerce_int(f"{name} entry", v) for v in items)


def check_shop_counts(shop_counts: Sequence[int], N: int) -> tuple[int, ...]:
    """The shop counts as a tuple of Python ints: one per brand, each >= 1.

    A tuple rather than an int64 array, so a count too large for 64 bits
    stays valid wherever no shop event is drawn (a teaching rate of 0).
    """
    counts = _coerce_ints("shop_counts", shop_counts)
    if len(counts) != N:
        raise ConfigurationError(
            f"shop_counts must have one entry per brand (N={N}), got {len(counts)}"
        )
    if any(s < 1 for s in counts):
        raise ConfigurationError("shop_counts entries must be >= 1")
    return counts


@dataclass(frozen=True)
class NeedSchema:
    """Per-need subentry counts shared by all customers and brands."""

    jmax: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = _coerce_ints("jmax", self.jmax)
        object.__setattr__(self, "jmax", counts)
        if len(counts) < 1:
            raise ConfigurationError("schema requires at least one need (M >= 1)")
        for j in counts:
            if not 1 <= j <= MAX_SUBENTRIES:
                raise ConfigurationError(
                    f"jmax entries must lie in 1..{MAX_SUBENTRIES}, got {j}"
                )

    @property
    def num_needs(self) -> int:
        return len(self.jmax)

    @cached_property
    def total_slots(self) -> int:
        return sum(self.jmax)

    @cached_property
    def slot_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``jmax`` and ``offsets`` as int64 arrays, indexed by need."""
        jmax = np.array(self.jmax, dtype=np.int64)
        return jmax, np.cumsum(jmax) - jmax


@dataclass
class BrandProfile:
    id: int
    assortment: np.ndarray
    shop_count: int


class Population:
    """Every customer and brand under one schema, plus the sweep counter.

    Customers are the rows of ``wish_matrix`` (K x S) and the entries of
    ``ranks`` and ``affiliations``; brands are the rows of
    ``assortment_matrix`` (N x S) and the entries of the ``shop_counts``
    tuple.  These are the only storage: the :class:`BrandProfile` records of
    ``brands`` are built from them on access.  Ranks are fixed, so the
    leaders are derived from them once, by the mask ``ranks == 1``, as the
    ascending tuple ``leader_ids``; ``leader_step`` maps pupil positions to
    non-leader ids from it.  Affiliations are computed on first read and
    cached; a refresh marks them stale, so the next read recomputes them
    from the current wishes.
    """

    def __init__(
        self,
        schema: NeedSchema,
        wish_matrix,
        ranks,
        assortment_matrix,
        shop_counts: Sequence[int],
    ):
        wish = np.ascontiguousarray(wish_matrix, dtype=np.float64)
        assort = np.ascontiguousarray(assortment_matrix, dtype=np.float64)
        rank_arr = np.ascontiguousarray(ranks, dtype=np.float64)

        S = schema.total_slots
        if wish.ndim != 2 or wish.shape[1] != S:
            raise ValueError(f"wish matrix must be (K, {S}), got {wish.shape}")
        if assort.ndim != 2 or assort.shape[1] != S:
            raise ValueError(f"assortment matrix must be (N, {S}), got {assort.shape}")
        K = wish.shape[0]
        N = assort.shape[0]
        if K < 2:
            raise ConfigurationError(f"population needs K >= 2 customers, got {K}")
        if N < 1:
            raise ConfigurationError("population needs at least one brand")
        if rank_arr.shape != (K,):
            raise ValueError(f"ranks must be shape ({K},), got {rank_arr.shape}")
        self.shop_counts = check_shop_counts(shop_counts, N)
        # written so that NaN fails every check
        if not ((wish >= 0.0) & (wish <= 1.0)).all():
            raise ValueError("wish entries must be 0 (unknown) or in (0, 1]")
        if not ((assort > 0.0) & (assort <= 1.0)).all():
            raise ValueError("assortment entries must all be known, in (0, 1]")
        if not ((rank_arr >= 0.0) & (rank_arr <= 1.0)).all():
            raise ValueError("ranks must lie in [0, 1]")

        self.schema = schema
        self.t = 0
        self.wish_matrix = wish
        self.assortment_matrix = assort
        self.ranks = rank_arr
        self.leader_ids = tuple(np.flatnonzero(rank_arr == 1.0).tolist())
        self._affiliations: np.ndarray | None = None

    @property
    def affiliations(self) -> np.ndarray:
        """Each customer's nearest brand (ties to the smallest index)."""
        if self._affiliations is None:
            self._affiliations = _nearest_brand(self.wish_matrix, self.assortment_matrix)
        return self._affiliations

    @property
    def num_customers(self) -> int:
        return self.wish_matrix.shape[0]

    @property
    def num_brands(self) -> int:
        return self.assortment_matrix.shape[0]

    @property
    def brands(self) -> list[BrandProfile]:
        """One record per brand; ``assortment`` is a live view of its matrix row."""
        return [
            BrandProfile(b, row, count)
            for b, (row, count) in enumerate(zip(self.assortment_matrix, self.shop_counts))
        ]

    def __repr__(self) -> str:
        return (
            f"Population(K={self.num_customers}, N={self.num_brands}, "
            f"M={self.schema.num_needs}, t={self.t})"
        )


def _sq_distances(wish: np.ndarray, assortment: np.ndarray) -> np.ndarray:
    """``sum_s (wish[k, s] - assortment[b, s])**2`` per row k and brand b, added in slot
    order (``np.sum`` would add pairwise), in temporaries of rows x brands x slots."""
    d = wish[:, None, :] - assortment[None, :, :]
    return np.add.accumulate(d * d, axis=2)[:, :, -1]


def distance(wish, assortment) -> float:
    """Mean squared slot difference between two same-shape profiles: the
    :func:`_sq_distances` sum over the slot count.  Unknown entries count as
    literal zeros.  Symmetric, and exactly zero iff the profiles are identical."""
    x = np.asarray(wish, dtype=np.float64)
    y = np.asarray(assortment, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"profile shapes differ: {x.shape} vs {y.shape}")
    return float(_sq_distances(x.reshape(1, -1), y.reshape(1, -1))[0, 0]) / x.size


def _nearest_brand(wish: np.ndarray, assortment: np.ndarray) -> np.ndarray:
    """Per wish row, the brand of least :func:`_sq_distances`, ties to the smallest index.

    The candidate is the argmax of ``D = w.2a - |a|^2 = |w|^2 - d``.  With entries in
    [0, 1], u = eps/2 and gamma_n = nu/(1-nu) <= 2nu (Higham, *Accuracy and Stability
    of Numerical Algorithms*, ch. 3), ``D`` summed in any order is within 3S gamma_S +
    u(S + 3S gamma_S) <= 8S^2 u of its value, and the sequential ``d`` within
    S gamma_{S+2} <= 6S^2 u.  So a lead in ``D`` above 2(8 + 6)S^2 u = 14S^2 eps over
    every other brand is a lead in ``d``; the slack to 16S^2 eps covers the threshold's
    rounding, for every 1 <= S < 2^51.  Other rows, exact ties included, take the exact sum.
    A plain ``einsum`` starts no BLAS threads.  At K=2e4, S=30, N=5 this is at parity
    with ``cdist`` (about 3 ms, 2-vCPU Xeon); at K=50 it costs 0.02 ms against 0.007,
    which only a ``run`` recording every sweep at small K would notice."""
    D = np.einsum("ks,bs->kb", wish, 2.0 * assortment)
    D -= np.einsum("bs,bs->b", assortment, assortment)
    best = D.argmax(axis=1)
    margin = 16 * wish.shape[1] ** 2 * np.finfo(np.float64).eps
    # one count over the whole mask: a per-row count costs as much as the product
    near = D >= (D[np.arange(len(D)), best] - margin)[:, None]
    if np.count_nonzero(near) > len(D):
        tied = np.count_nonzero(near, axis=1) > 1
        best[tied] = _sq_distances(wish[tied], assortment).argmin(axis=1)
    return best


def refresh_affiliations(pop: Population) -> None:
    """Mark every customer's nearest brand stale; the next read of
    ``pop.affiliations`` recomputes it from the current wishes."""
    pop._affiliations = None


def init_schema(num_needs: int, rng: np.random.Generator) -> NeedSchema:
    """Draw a schema with each need's subentry count uniform on 1..5.

    Consumes ``num_needs`` uniforms; count ``i`` is
    ``1 + index_from_uniform(u_i, 5)``.
    """
    num_needs = _coerce_int("M", num_needs)
    if num_needs < 1:
        raise ConfigurationError(f"M must be >= 1, got {num_needs}")
    u = rng.random(num_needs)
    return NeedSchema(tuple((index_from_uniform(u, MAX_SUBENTRIES) + 1).tolist()))


def init_population(cfg: "SimConfig", rng: np.random.Generator) -> Population:
    """Draw the starting population for a run.

    Draw order (all uniforms from the single stream): M schema draws, then
    N*S brand assortment values as ``1 - u`` (brand-major, slots in flat
    order), then K*S candidate wish values as ``1 - u`` (customer-major),
    then K*S unknown-need coins (slot becomes 0 iff ``u < p_unknown``), then
    K ranks taken as ``u`` itself.  The ``leader_count`` customers with the
    highest drawn ranks (ties to the smaller id) are then promoted to rank
    exactly 1; if ``aligned_leader_brand`` is set their wishes are replaced
    by that brand's assortment.  No further draws are consumed.
    """
    schema = init_schema(cfg.M, rng)
    S = schema.total_slots
    assort = 1.0 - rng.random((cfg.N, S))
    values = 1.0 - rng.random((cfg.K, S))
    unknown = rng.random((cfg.K, S))
    wish = np.where(unknown < cfg.p_unknown, 0.0, values)
    ranks = rng.random(cfg.K)
    if cfg.leader_count > 0:
        order = np.argsort(-ranks, kind="stable")
        leaders = order[: cfg.leader_count]
        ranks[leaders] = 1.0
        if cfg.aligned_leader_brand is not None:
            wish[leaders] = assort[cfg.aligned_leader_brand]
    return Population(schema, wish, ranks, assort, cfg.shop_counts)
