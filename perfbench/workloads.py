"""Benchmark workloads, the two timed arms each one runs, and the golden-hash gate.

A workload is a config template.  The workload seed picks one of
``VARIANTS`` input sets (``seed % VARIANTS``); every input set has its output
hashes pinned in ``golden.json``, so the gate is live for any seed.  The
program only ever sees the generated :class:`brandsim.SimConfig`.

Each repetition runs two arms on the same inputs, in alternating order:

* the serial arm is what a user waits for without a pool: ``brandsim run``
  (``run`` plus ``emit_csv``) for a single-run workload, ``ensemble`` at
  ``parallel=1`` plus ``emit_summary`` for an ensemble workload;
* the parallel arm is ``ensemble`` at ``parallel=PARALLEL`` plus
  ``emit_summary``: two replicas at once for a single-run workload, the same
  ensemble as the serial arm for an ensemble workload.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import brandsim

VARIANTS = 32
#: distinct ensembles an ensemble workload cycles through within one run
ENSEMBLE_SLOTS = 8
#: worker processes of the parallel arm: at most two, and at most nproc
PARALLEL = min(2, os.cpu_count() or 1)
GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Workload:
    name: str
    params: str  # config-file lines, everything except the seed
    serial_runs: int  # 1: a `brandsim run`; more: an ensemble of that many runs
    parallel_runs: int

    @property
    def slots(self) -> int:
        return 1 if self.serial_runs == 1 else ENSEMBLE_SLOTS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "equality_k20000",
            "N = 5\nK = 20000\nM = 10\nmode = equality\nmax_sweeps = 20\n",
            serial_runs=1,
            parallel_runs=2,
        ),
        Workload(
            "hierarchy_channels_k2000",
            "N = 5\nK = 2000\nM = 10\nmode = hierarchy\np_unknown = 0.9\n"
            "leader_count = 10\nleader_pupils = 200\naligned_leader_brand = 0\n"
            "shop_counts = 1,2,3,4,10\nshop_teach_rate = 100\n"
            "record_every = 10\nmax_sweeps = 80\n",
            serial_runs=1,
            parallel_runs=2,
        ),
        Workload(
            "ensemble_k50",
            "N = 3\nK = 50\nM = 5\nmode = equality\nmax_sweeps = 1000000\n",
            serial_runs=8,
            parallel_runs=8,
        ),
    )
}


def sim_seed(workload: str, variant: int, slot: int) -> int:
    """The simulation seed of one input set, independent of the program's own mixers."""
    digest = hashlib.sha256(f"{workload}/{variant}/{slot}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def config_text(w: Workload, variant: int, slot: int) -> str:
    return w.params + f"seed = {sim_seed(w.name, variant, slot)}\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Arm:
    """One timed arm: its wall time, the work it completed and its output hashes."""

    wall: float
    sweeps: int
    digests: dict[str, str]


def _untraced(name: str, fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


def total_sweeps(summary: brandsim.EnsembleSummary, max_sweeps: int) -> int:
    """Sweeps an ensemble executed: converged runs stop early, the rest run to max_sweeps."""
    converged = round(summary.consensus_fraction * summary.runs)
    spent = 0 if converged == 0 else round(summary.mean_sweeps_to_consensus * converged)
    return spent + (summary.runs - converged) * max_sweeps


def ensemble_arm(cfg, runs: int, parallel: int, out: Path, span=_untraced) -> Arm:
    path = out / "summary.txt"
    t0 = perf_counter()
    summary = span("harness.ensemble", brandsim.ensemble, cfg, runs, parallel=parallel)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        span("harness.emit", brandsim.emit_summary, summary, fh)
    wall = perf_counter() - t0
    digests = {"summary.txt": sha256(path.read_bytes())}
    return Arm(wall, total_sweeps(summary, cfg.max_sweeps), digests)


def serial_arm(w: Workload, cfg, out: Path, span=_untraced) -> Arm:
    if w.serial_runs > 1:
        return ensemble_arm(cfg, w.serial_runs, 1, out, span)
    path = out / "timeseries.csv"
    t0 = perf_counter()
    result = span("harness.run", brandsim.run, cfg)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        span("harness.emit", brandsim.emit_csv, result.records, fh, n_brands=cfg.N)
    wall = perf_counter() - t0
    digests = {
        "timeseries.csv": sha256(path.read_bytes()),
        "wish_matrix": sha256(result.final.wish_matrix.tobytes()),
    }
    return Arm(wall, result.final.t, digests)


def parallel_arm(w: Workload, cfg, out: Path) -> Arm:
    return ensemble_arm(cfg, w.parallel_runs, PARALLEL, out)


class Gate:
    """Runs arms on pinned inputs and counts those that raise or miss their pinned hashes."""

    def __init__(self, w: Workload, variant: int) -> None:
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        self.expected = golden[w.name][str(variant)]
        self.attempted = 0
        self.failed = 0
        self.log: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.log.append(message)

    def run(self, label: str, slot: int, arm_fn: Callable[[], Arm]) -> Arm | None:
        """The arm's result if it ran and every output hash matches the pin, else None."""
        self.attempted += 1
        try:
            arm = arm_fn()
        except Exception as exc:  # a failing arm is counted, not fatal
            self.fail(f"{label} slot {slot}: {exc!r}")
            return None
        pinned = self.expected[slot]
        wrong = [key for key, digest in arm.digests.items() if pinned.get(key) != digest]
        if wrong:
            self.fail(f"{label} slot {slot}: {', '.join(wrong)} differ from the pinned hashes")
            return None
        return arm
