"""Observables: wish dispersion, brand shares, dominance.

The wish dispersion (:func:`fluctuation`) costs a full pass over the K x S
wish matrix.  :func:`brandsim.harness.run` pays it at t=0, on every record
sweep, and on any other sweep where :func:`_surely_dispersed` cannot prove
from a few row pairs that the dispersion is still at least ``epsilon``.  A
sweep so proven is neither recorded nor converged, so skipping the full
pass there changes no output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import Population


@dataclass(frozen=True)
class TimeSeriesRecord:
    """Per-step observables of a run."""

    t: int
    fluctuation: float
    shares: tuple[float, ...]
    dominant: int

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        if not self.fluctuation >= 0.0:
            raise ValueError(f"fluctuation must be non-negative, got {self.fluctuation!r}")
        total = sum(self.shares)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"shares must sum to 1, got {total!r}")
        if not all(0.0 <= s <= 1.0 for s in self.shares):
            raise ValueError("each share must lie in [0, 1]")
        if self.dominant != dominant_brand(self.shares):
            raise ValueError("dominant must be the argmax share, ties to smallest index")


def fluctuation(pop: Population) -> float:
    """Mean wish distance over all unordered customer pairs.

    Computed through the per-slot dispersion identity
    ``sum_pairs (x_a - x_b)^2 = K * sum_a (x_a - mean)^2`` so the cost is
    O(K*S) instead of O(K^2*S).  Exactly zero iff all wishes are bitwise
    identical: rounding in the mean leaves a residue around 1e-30 for
    identical rows, so near-zero results get an exact equality check that
    pins the zero.
    """
    K = pop.num_customers
    w = pop.wish_matrix
    dev = w - w.mean(axis=0)
    ss = float(np.einsum("ks,ks->", dev, dev))
    value = 2.0 * ss / (pop.schema.total_slots * (K - 1))
    if value < 1e-24 and (w == w[0]).all():
        return 0.0
    return value


#: Row pairs the dispersion certificate sums over, at most.
_CERTIFICATE_PAIRS = 32


def _surely_dispersed(pop: Population, epsilon: float) -> bool:
    """True only when ``fluctuation(pop) >= epsilon`` is certain; False says nothing.

    By the pair identity, the dispersion is the sum over all K(K-1)/2
    unordered customer pairs of their mean squared slot distance, divided
    by the pair count.  The same sum over m = min(K//2, 32) distinct pairs,
    rows i and K-m+i, divided by the same count, is therefore a lower bound.
    The certificate holds when that bound is at least ``2 * epsilon``, a
    margin that covers every rounding of both sums, and at least 1e-300,
    far above the subnormal range, where rounding is absolute and the full
    dispersion's smaller squared deviations can underflow to zero.  Wishes
    lie in [0, 1], so the bound is at most 1 and an ``epsilon`` of inf or
    near the float maximum never certifies.
    """
    K = pop.num_customers
    m = min(K // 2, _CERTIFICATE_PAIRS)
    w = pop.wish_matrix
    d = w[:m] - w[K - m:]
    bound = float(np.einsum("ks,ks->", d, d)) / (pop.schema.total_slots * (K * (K - 1) // 2))
    return bound >= 2.0 * epsilon and bound >= 1e-300


def brand_shares(pop: Population) -> np.ndarray:
    """Fraction of customers affiliated with each brand."""
    counts = np.bincount(pop.affiliations, minlength=pop.num_brands)
    return counts / pop.num_customers


def dominant_brand(shares) -> int:
    """Index of the largest share, ties to the smallest index."""
    arr = np.asarray(shares, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("dominant_brand requires a non-empty share vector")
    return int(arr.argmax())


def snapshot(pop: Population, fluct: float) -> TimeSeriesRecord:
    """Freeze the current observables, ``fluct`` from :func:`fluctuation`, into a record."""
    shares = brand_shares(pop)
    return TimeSeriesRecord(
        t=pop.t,
        fluctuation=fluct,
        shares=tuple(shares.tolist()),
        dominant=dominant_brand(shares),
    )
