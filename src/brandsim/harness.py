"""Seeded runs, ensembles, parameter sweeps and flat-file emission.

Each simulation owns exactly one generator (numpy PCG64 via
``np.random.default_rng(seed)``) seeded once at start; every stochastic
choice draws from that single stream in the order documented in
:mod:`brandsim.dynamics`.  Ensembles derive one child seed per run through a
fixed 64-bit mixer so the streams are uncorrelated and any implementation
can reproduce them.
"""

from __future__ import annotations

import dataclasses
import os
from collections import deque
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .config import ConfigurationError, SimConfig, _coerce_int, parse_value
from .dynamics import sweep
from .metrics import TimeSeriesRecord, _surely_dispersed, fluctuation, snapshot
from .model import Population, init_population

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_child_seed(base: int, index: int) -> int:
    """Avalanche-quality child seed for run ``index`` of a base seed.

    Computes the splitmix64 finalizer of ``base + index * 0x9E3779B97F4A7C15``
    (all arithmetic mod 2**64):

        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27;  z *= 0x94D049BB133111EB
        z ^= z >> 31

    Injective in ``index`` for a fixed base, so child seeds never collide.
    """
    z = (int(base) + int(index) * _GOLDEN_GAMMA) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


class RunResult(NamedTuple):
    records: list[TimeSeriesRecord]
    final: Population
    converged_at: int | None


def _evolve(cfg: SimConfig, keep: bool) -> RunResult:
    """:func:`run` when ``keep``, else a run that records only the sweep it converged at.

    A sweep that :func:`_surely_dispersed` certifies neither records nor
    converges, so it skips the full :func:`fluctuation` and changes no output.
    """
    rng = np.random.default_rng(cfg.seed)
    pop = init_population(cfg, rng)
    records = []
    while True:
        record = keep and (pop.t == cfg.max_sweeps or pop.t % cfg.record_every == 0)
        if record or not _surely_dispersed(pop, cfg.epsilon):
            f = fluctuation(pop)
            converged = f < cfg.epsilon
            if converged or record:
                records.append(snapshot(pop, f))
            if converged:
                return RunResult(records, pop, pop.t)
        if pop.t == cfg.max_sweeps:
            return RunResult(records, pop, None)
        sweep(pop, cfg.mode, cfg, rng)


def run(cfg: SimConfig) -> RunResult:
    """Execute one simulation to consensus or ``max_sweeps``.

    Records observables at t=0, every ``record_every`` sweeps, and at the
    final sweep (without duplicating a record that falls on both).
    ``converged_at`` is the first sweep whose dispersion dropped below
    ``epsilon``, or None when the run never converged.
    """
    return _evolve(cfg, keep=True)


@dataclass(frozen=True)
class EnsembleSummary:
    """Aggregate of independent runs of one configuration."""

    runs: int
    consensus_fraction: float
    mean_sweeps_to_consensus: float | None
    dominant_brand_histogram: tuple[float, ...]


def _run_stats(cfg: SimConfig) -> tuple[int | None, int | None]:
    """Worker: converged_at and the dominant brand then, or (None, None) if never."""
    records, _, at = _evolve(cfg, keep=False)
    return (at, records[0].dominant) if records else (None, None)


def _windowed(pool: Executor, children: Iterator[SimConfig], window: int) -> Iterator:
    """``pool.map(_run_stats, children)`` with at most ``window`` runs submitted and
    not yet taken, where ``Executor.map`` submits every child before it yields the
    first result."""
    pending: deque[Future] = deque()
    try:
        for child in children:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(_run_stats, child))
        while pending:
            yield pending.popleft().result()
    finally:
        # a run raised or the fold was interrupted: the kept pool must not run the rest
        for future in pending:
            future.cancel()


#: the process's one worker pool and its worker count, or None before the first
_pool: tuple[int, Executor] | None = None


def _kept_pool(workers: int) -> Executor:
    """The process's pool of ``workers`` workers, started on first use and kept.

    A pool of another size, or one broken by a dead worker, is shut down
    without waiting and replaced.  ``concurrent.futures`` joins the workers at
    interpreter exit.
    """
    global _pool
    if _pool is not None:
        size, pool = _pool
        # ``_broken`` is the flag a ProcessPoolExecutor sets once one of its workers died
        if size == workers and not pool._broken:
            return pool
        _pool = None
        pool.shutdown(wait=False, cancel_futures=True)
    pool = ProcessPoolExecutor(max_workers=workers)
    _pool = workers, pool
    return pool


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one, so a
    ``taskset`` or cpuset limit counts, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ensemble(cfg: SimConfig, runs: int, parallel: int = 1) -> EnsembleSummary:
    """Aggregate ``runs`` independent simulations.

    Run ``i`` uses seed ``derive_child_seed(cfg.seed, i)``.  Results are
    folded in run order regardless of how many workers executed them, so the
    summary is identical for any ``parallel`` setting.  The dominant-brand
    histogram counts converged runs only, at the sweep they converged at, and
    sums to 1 when any converged; a worker records nothing else.  Pooled runs
    go to the process's kept pool (:func:`_kept_pool`), so its workers run the
    modules as they were when that pool started.
    """
    runs = _coerce_int("runs", runs)
    parallel = _coerce_int("parallel", parallel)
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    children = (dataclasses.replace(cfg, seed=derive_child_seed(cfg.seed, i)) for i in range(runs))
    # a pool may start all its workers at once, so ask for no more than can be busy
    workers = min(parallel, runs, _usable_cpus())
    converged = sweeps = 0
    histogram = [0] * cfg.N
    # four runs in flight per worker keep each busy while results are taken in order
    results = (_windowed(_kept_pool(workers), children, 4 * workers) if workers > 1
               else map(_run_stats, children))
    for at, dom in results:
        if at is not None:
            converged += 1
            sweeps += at
            histogram[dom] += 1
    return EnsembleSummary(
        runs=runs,
        consensus_fraction=converged / runs,
        mean_sweeps_to_consensus=sweeps / converged if converged else None,
        dominant_brand_histogram=tuple(h / converged if converged else 0.0 for h in histogram),
    )


_SWEEPABLE = ("p_copy", "leader_count", "shop_teach_rate", "K", "N", "p_unknown")


def sweep_param(
    cfg: SimConfig,
    param_name: str,
    values: Sequence,
    runs: int = 1,
    parallel: int = 1,
) -> list[tuple[float | int, EnsembleSummary]]:
    """One ensemble per value of a single swept parameter, same base seed.

    Sweeping ``N`` resets ``shop_counts`` to its default, all ones of the
    new length, since the configured vector cannot carry over.  A string is
    parsed as a config-file value; any other value goes to :class:`SimConfig`
    as given, so ``3.7`` for ``K`` is an error, not 3.  Every value's config is
    built, and so checked, before the first ensemble runs.
    """
    if param_name not in _SWEEPABLE:
        raise ConfigurationError(f"unknown sweep parameter {param_name!r}")
    swept = []
    for value in values:
        if isinstance(value, str):
            value = parse_value(param_name, value)
        changes: dict = {param_name: value}
        if param_name == "N":
            changes["shop_counts"] = None
        swept.append(dataclasses.replace(cfg, **changes))
    return [(getattr(c, param_name), ensemble(c, runs, parallel)) for c in swept]


def _fmt(x: float) -> str:
    """17 significant digits: enough for byte-stable float64 round trips."""
    return format(float(x), ".17g")


def emit_csv(records: Sequence[TimeSeriesRecord], sink, n_brands: int | None = None) -> None:
    """Write the time series as CSV: t,fluctuation,share_0..share_{N-1},dominant."""
    if records:
        n = len(records[0].shares)
    else:
        n = 0 if n_brands is None else n_brands
    header = ["t", "fluctuation"] + [f"share_{b}" for b in range(n)] + ["dominant"]
    sink.write(",".join(header) + "\n")
    for rec in records:
        row = [str(rec.t), _fmt(rec.fluctuation)]
        row.extend(_fmt(s) for s in rec.shares)
        row.append(str(rec.dominant))
        sink.write(",".join(row) + "\n")


def emit_summary(summary: EnsembleSummary, sink) -> None:
    """Write an ensemble summary as flat key=value lines."""
    sink.write(f"runs={summary.runs}\n")
    sink.write(f"consensus_fraction={_fmt(summary.consensus_fraction)}\n")
    mean = summary.mean_sweeps_to_consensus
    sink.write("mean_sweeps_to_consensus=" + ("" if mean is None else _fmt(mean)) + "\n")
    for b, h in enumerate(summary.dominant_brand_histogram):
        sink.write(f"dominant_hist_{b}={_fmt(h)}\n")
