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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import SimConfig, parse_value
from .dynamics import sweep
from .errors import ConfigurationError
from .metrics import TimeSeriesRecord, _surely_dispersed, fluctuation, snapshot
from .model import Population, _coerce_int, init_population

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


def run(cfg: SimConfig) -> RunResult:
    """Execute one simulation to consensus or ``max_sweeps``.

    Records observables at t=0, every ``record_every`` sweeps, and at the
    final sweep (without duplicating a record that falls on both).
    ``converged_at`` is the first sweep whose dispersion dropped below
    ``epsilon``, or None when the run never converged.

    The full dispersion (:func:`fluctuation`) is computed at t=0, on every
    record sweep, and on any other sweep that :func:`_surely_dispersed`
    cannot certify.  A certified sweep has a dispersion of at least
    ``epsilon``, so it neither records nor converges: skipping the full pass
    there leaves every record and ``converged_at`` exactly as they were.
    """
    rng = np.random.default_rng(cfg.seed)
    pop = init_population(cfg, rng)
    records = []
    while True:
        record = pop.t == cfg.max_sweeps or pop.t % cfg.record_every == 0
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


@dataclass(frozen=True)
class EnsembleSummary:
    """Aggregate of independent runs of one configuration."""

    runs: int
    consensus_fraction: float
    mean_sweeps_to_consensus: float | None
    dominant_brand_histogram: tuple[float, ...]


def _run_stats(cfg: SimConfig) -> tuple[int | None, int]:
    """Worker: converged_at and the final dominant brand of one run.  Records
    draw nothing, so keeping only the first and last leaves both unchanged."""
    result = run(dataclasses.replace(cfg, record_every=cfg.max_sweeps))
    return result.converged_at, result.records[-1].dominant


def ensemble(cfg: SimConfig, runs: int, parallel: int = 1) -> EnsembleSummary:
    """Aggregate ``runs`` independent simulations.

    Run ``i`` uses seed ``derive_child_seed(cfg.seed, i)``.  Results are
    folded in run order regardless of how many workers executed them, so the
    summary is identical for any ``parallel`` setting.  The dominant-brand
    histogram counts converged runs only and sums to 1 when any converged.
    """
    runs = _coerce_int("runs", runs)
    parallel = _coerce_int("parallel", parallel)
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    children = [
        dataclasses.replace(cfg, seed=derive_child_seed(cfg.seed, i))
        for i in range(runs)
    ]
    # a pool may start all its workers at once, so ask for no more than can be busy
    workers = min(parallel, runs, os.cpu_count() or 1)
    if workers <= 1:
        stats = [_run_stats(child) for child in children]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(_run_stats, children))
    converged = [(at, dom) for at, dom in stats if at is not None]
    histogram = [0.0] * cfg.N
    mean_sweeps = None
    if converged:
        for _, dom in converged:
            histogram[dom] += 1.0
        histogram = [h / len(converged) for h in histogram]
        mean_sweeps = sum(at for at, _ in converged) / len(converged)
    return EnsembleSummary(
        runs=runs,
        consensus_fraction=len(converged) / runs,
        mean_sweeps_to_consensus=mean_sweeps,
        dominant_brand_histogram=tuple(histogram),
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
    as given, so ``3.7`` for ``K`` is an error, not 3.
    """
    if param_name not in _SWEEPABLE:
        raise ConfigurationError(f"unknown sweep parameter {param_name!r}")
    out = []
    for value in values:
        if isinstance(value, str):
            value = parse_value(param_name, value)
        changes: dict = {param_name: value}
        if param_name == "N":
            changes["shop_counts"] = None
        swept = dataclasses.replace(cfg, **changes)
        out.append((getattr(swept, param_name), ensemble(swept, runs, parallel)))
    return out


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
