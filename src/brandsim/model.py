"""Core domain types: need schemas and the arrays of a population.

A customer's state is a ragged matrix of need-satisfaction values, stored
flat: need ``i`` owns ``jmax[i]`` consecutive slots (at most five).  A slot
value of exactly ``0.0`` encodes an unknown need; known values lie in
``(0, 1]``.  A population holds every customer's wishes as the rows of one
K x S matrix and every brand's fixed assortment, with all slots known, as
the rows of an N x S matrix, plus one shop count per brand used as a
teaching weight.  Its input rules (coercions, the shop-count check and
``MAX_SUBENTRIES``) are those of :mod:`brandsim.config`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import MAX_SUBENTRIES, ConfigurationError, SimConfig, _coerce_ints, check_shop_counts


def index_from_uniform(u, n):
    """The one bounded-index rule: ``floor(u * n)`` for uniforms ``u`` in [0, 1), clamped
    so rounding never gives ``n`` itself.  ``u`` and ``n`` are scalars or per-draw arrays."""
    return np.minimum(np.multiply(u, n).astype(np.int64), n - 1)


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


def _floats(name: str, value) -> np.ndarray:
    """``value`` as a contiguous float64 array; a value numpy cannot read as one is a
    :class:`ConfigurationError` that names the argument."""
    try:
        return np.ascontiguousarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be an array of numbers: {exc}") from None


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
        wish = _floats("wish_matrix", wish_matrix)
        assort = _floats("assortment_matrix", assortment_matrix)
        rank_arr = _floats("ranks", ranks)

        S = schema.total_slots
        if wish.ndim != 2 or wish.shape[1] != S:
            raise ConfigurationError(f"wish matrix must be (K, {S}), got {wish.shape}")
        if assort.ndim != 2 or assort.shape[1] != S:
            raise ConfigurationError(f"assortment matrix must be (N, {S}), got {assort.shape}")
        K = wish.shape[0]
        N = assort.shape[0]
        if K < 2:
            raise ConfigurationError(f"population needs K >= 2 customers, got {K}")
        if N < 1:
            raise ConfigurationError("population needs at least one brand")
        if rank_arr.shape != (K,):
            raise ConfigurationError(f"ranks must be shape ({K},), got {rank_arr.shape}")
        self.shop_counts = check_shop_counts(shop_counts, N)
        # written so that NaN fails every check
        if not ((wish >= 0.0) & (wish <= 1.0)).all():
            raise ConfigurationError("wish entries must be 0 (unknown) or in (0, 1]")
        if not ((assort > 0.0) & (assort <= 1.0)).all():
            raise ConfigurationError("assortment entries must all be known, in (0, 1]")
        if not ((rank_arr >= 0.0) & (rank_arr <= 1.0)).all():
            raise ConfigurationError("ranks must lie in [0, 1]")

        self.schema = schema
        self.t = 0
        self.wish_matrix = wish
        self.assortment_matrix = assort
        self.ranks = rank_arr
        self.leader_ids = tuple(np.flatnonzero(rank_arr == 1.0).tolist())
        self._affiliations: np.ndarray | None = None
        # pair draws taken ahead for later sweeps, valid while the generator stands where
        # the last sweep left it; set and read by brandsim.dynamics alone
        self._pairs_ahead: object | None = None

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


def _sq_distances(wish: np.ndarray, assortment: np.ndarray) -> np.ndarray:
    """``sum_s (wish[k, s] - assortment[b, s])**2`` per row k and brand b, added in slot
    order (``np.sum`` would add pairwise), in temporaries of rows x brands x slots."""
    d = wish[:, None, :] - assortment[None, :, :]
    return np.add.accumulate(d * d, axis=2)[:, :, -1]


def distance(wish, assortment) -> float:
    """Mean squared slot difference between two same-shape profiles: the
    :func:`_sq_distances` sum over the slot count.  Unknown entries count as
    literal zeros.  Symmetric, and exactly zero iff the profiles are identical.
    Each profile needs at least one slot."""
    x = _floats("wish", wish)
    y = _floats("assortment", assortment)
    if x.shape != y.shape:
        raise ConfigurationError(f"profile shapes differ: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ConfigurationError("a profile needs at least one slot")
    return float(_sq_distances(x.reshape(1, -1), y.reshape(1, -1))[0, 0]) / x.size


#: the most multiply-adds in one block of the nearest-brand product.  Numpy's bundled
#: OpenBLAS runs a gemm on the calling thread while m*n*k <= 65536 * 4 = 2^18 (0.3.31
#: adds a thread per further 2^18), so every block stays on it with a factor 2 to spare.
_BLOCK_MADDS = 2**17


def _block_rows(num_brands: int, num_slots: int) -> int:
    """Wish rows per block of the nearest-brand product: rows * N * S <= ``_BLOCK_MADDS``."""
    return max(1, _BLOCK_MADDS // (num_brands * num_slots))


def _nearest_brand(wish: np.ndarray, assortment: np.ndarray) -> np.ndarray:
    """Per wish row, the brand of least :func:`_sq_distances`, ties to the smallest index.

    The candidate is the argmax of ``D = w.2a - |a|^2 = |w|^2 - d``.  With entries in
    [0, 1], u = eps/2 and gamma_n = nu/(1-nu) <= 2nu (Higham, *Accuracy and Stability
    of Numerical Algorithms*, ch. 3), ``D`` summed in any order, fused multiply-adds
    included, is within 3S gamma_S + u(S + 3S gamma_S) <= 8S^2 u of its value, and the
    sequential ``d`` within S gamma_{S+2} <= 6S^2 u.  So a lead in ``D`` above
    2(8 + 6)S^2 u = 14S^2 eps over every other brand is a lead in ``d``; the slack to
    16S^2 eps covers the threshold's rounding, for every 1 <= S < 2^51.  A row with only
    one brand that close to its maximum takes that brand; other rows, exact ties
    included, take the exact sum.  So the product's summation order never reaches the result,
    and ``D`` is a BLAS product, taken in blocks of :func:`_block_rows` wish rows so
    that each block runs on the calling thread: one whole-matrix product at K=2e4
    starts a second BLAS thread, which on a 2-vCPU host sometimes stalls for 8 ms a
    call.  ``D`` is stored brand-major, N x K, so that each reduction over the brands
    (the maximum, the near count and the near brand's index) is a pass over N
    contiguous rows of K, not K inner loops over rows of N."""
    K, S = wish.shape
    N = assortment.shape[0]
    a2 = 2.0 * assortment
    D = np.empty((N, K))
    step = _block_rows(N, S)
    for i in range(0, K, step):
        np.matmul(a2, wish[i : i + step].T, out=D[:, i : i + step])
    D -= np.einsum("bs,bs->b", assortment, assortment)[:, None]
    margin = 16 * S**2 * np.finfo(np.float64).eps
    near = D >= D.max(axis=0) - margin
    # the sum of a row's near indices: its one near brand, where it has only one
    best = np.arange(N) @ near
    # every row has a near brand, so one count over the whole mask finds any row with two
    if np.count_nonzero(near) > K:
        tied = np.count_nonzero(near, axis=0) > 1
        best[tied] = _sq_distances(wish[tied], assortment).argmin(axis=1)
    return best


def refresh_affiliations(pop: Population) -> None:
    """Mark every customer's nearest brand stale; the next read of
    ``pop.affiliations`` recomputes it from the current wishes."""
    pop._affiliations = None


def init_population(cfg: SimConfig, rng: np.random.Generator) -> Population:
    """Draw the starting population for a run.

    Draw order (all uniforms from the single stream): M schema draws, need
    ``i`` carrying ``1 + index_from_uniform(u_i, 5)`` subentries, then
    N*S brand assortment values as ``1 - u`` (brand-major, slots in flat
    order), then K*S candidate wish values as ``1 - u`` (customer-major),
    then K*S unknown-need coins (slot becomes 0 iff ``u < p_unknown``), then
    K ranks taken as ``u`` itself.  The ``leader_count`` customers with the
    highest drawn ranks (ties to the smaller id) are then promoted to rank
    exactly 1; if ``aligned_leader_brand`` is set their wishes are replaced
    by that brand's assortment.  No further draws are consumed.
    """
    jmax = index_from_uniform(rng.random(cfg.M), MAX_SUBENTRIES) + 1
    schema = NeedSchema(tuple(jmax.tolist()))
    S = schema.total_slots
    assort = 1.0 - rng.random((cfg.N, S))
    wish = rng.random((cfg.K, S))
    np.subtract(1.0, wish, out=wish)
    # every wish is in (0, 1], so a coin's 1.0 keeps it and its 0.0 gives +0.0
    np.multiply(wish, rng.random((cfg.K, S)) >= cfg.p_unknown, out=wish)
    ranks = rng.random(cfg.K)
    if cfg.leader_count > 0:
        order = np.argsort(-ranks, kind="stable")
        leaders = order[: cfg.leader_count]
        ranks[leaders] = 1.0
        if cfg.aligned_leader_brand is not None:
            wish[leaders] = assort[cfg.aligned_leader_brand]
    return Population(schema, wish, ranks, assort, cfg.shop_counts)
