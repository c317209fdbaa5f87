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
from scipy.spatial.distance import cdist

from .errors import ConfigurationError

if TYPE_CHECKING:
    from .config import SimConfig

#: Largest number of subentries a single need may carry.
MAX_SUBENTRIES = 5


def index_from_uniform(u: float, n: int) -> int:
    """Map a uniform draw ``u`` in [0, 1) to an integer index in [0, n).

    This is the one bounded-integer rule used everywhere: ``floor(u * n)``,
    clamped so float rounding can never produce ``n`` itself.
    """
    i = int(u * n)
    return n - 1 if i >= n else i


def _bounded_indices(u: np.ndarray, n) -> np.ndarray:
    """:func:`index_from_uniform` over an array of uniforms, with the same IEEE
    operations; ``n`` is one bound or an array of per-draw bounds."""
    return np.minimum((u * n).astype(np.int64), n - 1)


def _coerce_int(name: str, value) -> int:
    """``value`` as a Python int; anything but an integer (a bool, a float, a
    string) is a :class:`ConfigurationError` naming ``name``, never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_shop_counts(shop_counts: Sequence[int], N: int) -> tuple[int, ...]:
    """The shop counts as a tuple of Python ints: one per brand, each >= 1.

    A tuple rather than an int64 array, so a count too large for 64 bits
    stays valid wherever no shop event is drawn (a teaching rate of 0).
    """
    counts = tuple(_coerce_int("shop_counts entry", s) for s in shop_counts)
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
        counts = tuple(_coerce_int("jmax entry", j) for j in self.jmax)
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
    def offsets(self) -> tuple[int, ...]:
        """Flat index of the first slot of each need."""
        out = []
        acc = 0
        for j in self.jmax:
            out.append(acc)
            acc += j
        return tuple(out)


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
    ``brands`` are built from them on access.  Ranks and the leader set are
    fixed for the lifetime of the population.  Affiliations are computed on
    first read and cached; a refresh marks them stale, so the next read
    recomputes them from the current wishes.
    """

    def __init__(
        self,
        schema: NeedSchema,
        wish_matrix,
        ranks,
        assortment_matrix,
        shop_counts: Sequence[int],
        t: int = 0,
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
        self.t = int(t)
        self.wish_matrix = wish
        self.assortment_matrix = assort
        self.ranks = rank_arr
        self.leader_ids = tuple(int(k) for k in np.flatnonzero(rank_arr == 1.0))
        leader_set = set(self.leader_ids)
        self.non_leader_ids = tuple(k for k in range(K) if k not in leader_set)
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

    def clone(self) -> "Population":
        return Population(
            self.schema,
            self.wish_matrix.copy(),
            self.ranks.copy(),
            self.assortment_matrix.copy(),
            self.shop_counts,
            t=self.t,
        )

    def __repr__(self) -> str:
        return (
            f"Population(K={self.num_customers}, N={self.num_brands}, "
            f"M={self.schema.num_needs}, t={self.t})"
        )


def distance(wish, assortment) -> float:
    """Mean squared slot difference between two same-shape profiles.

    Unknown entries participate as literal zeros, so an unmet need is
    penalised by the full assortment value.  Symmetric, and exactly zero
    iff the profiles are identical.
    """
    x = np.asarray(wish, dtype=np.float64)
    y = np.asarray(assortment, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"profile shapes differ: {x.shape} vs {y.shape}")
    d = x - y
    return float(np.mean(d * d))


def _nearest_brand(wish: np.ndarray, assortment: np.ndarray) -> np.ndarray:
    """Per wish row, the index of the nearest assortment row (ties to the smallest)."""
    return cdist(wish, assortment, "sqeuclidean").argmin(axis=1)


def refresh_affiliations(pop: Population) -> None:
    """Mark every customer's nearest brand stale; the next read of
    ``pop.affiliations`` recomputes it from the current wishes."""
    pop._affiliations = None


def init_schema(num_needs: int, rng: np.random.Generator) -> NeedSchema:
    """Draw a schema with each need's subentry count uniform on 1..5.

    Consumes ``num_needs`` uniforms; count ``i`` is
    ``1 + index_from_uniform(u_i, 5)``.
    """
    if num_needs < 1:
        raise ConfigurationError(f"M must be >= 1, got {num_needs}")
    u = rng.random(num_needs)
    return NeedSchema(tuple((_bounded_indices(u, MAX_SUBENTRIES) + 1).tolist()))


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
