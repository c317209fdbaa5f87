"""Outside-in instrumentation of brandsim: timed spans and an exact counting pass.

Both rebind the module attributes through which brandsim calls its layers and
restore them in a ``finally``; no file of the package is touched.  The two
are never active together, so the cost of an ``event_log`` never enters a
span.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import brandsim.dynamics as dynamics
import brandsim.harness as harness

#: (module, attribute, span name): the layer calls of a run, as brandsim looks them up
TARGETS = (
    (harness, "init_population", "model.init_population"),
    (harness, "sweep", "dynamics.sweep"),
    (harness, "fluctuation", "metrics.fluctuation"),
    (harness, "snapshot", "metrics.snapshot"),
    (dynamics, "leader_step", "dynamics.leader_step"),
    (dynamics, "shop_step", "dynamics.shop_step"),
    (dynamics, "refresh_affiliations", "model.refresh_affiliations"),
)


@contextmanager
def rebound(wrap):
    """Replace every target attribute ``f`` by ``wrap(name, f)`` for the block."""
    saved = []
    try:
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    """Spans held in flat arrays (name id, parent index, start, end) until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def call(self, name, fn, *args, **kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def instrumented(self):
        def wrap(name, fn):
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
            return traced
        return rebound(wrap)

    def arrays(self):
        """(name id, parent, duration, self time) per span."""
        nid = np.frombuffer(self.name_id, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        return nid, parent, dur, dur - covered

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def span_totals(tracer: Tracer) -> dict[str, dict]:
    """Per span name: call count, summed duration, summed self time, durations."""
    nid, _, dur, self_t = tracer.arrays()
    out = {}
    for i, name in enumerate(tracer.names):
        mask = nid == i
        out[name] = {
            "count": int(mask.sum()),
            "total": float(dur[mask].sum()),
            "self": float(self_t[mask].sum()),
            "durations": dur[mask],
        }
    return out


@dataclass
class Counts:
    sweeps: int = 0
    pair_attempts: int = 0
    pair_copies: int = 0
    leader_attempts: int = 0
    leader_copies: int = 0
    shop_attempts: int = 0
    shop_copies: int = 0
    brand_switches: int = 0
    uniforms: int = 0
    budget_mismatches: int = 0
    run_lengths: list[int] = field(default_factory=list)


def _leader_teachings(pop, params) -> int:
    return len(pop.leader_ids) * params.leader_pupils


def _shop_events(pop, params) -> int:
    # documented per brand: round(shop_teach_rate * shop_count), banker's rounding
    return sum(round(params.shop_teach_rate * b.shop_count) for b in pop.brands)


def uniform_budget(pop, params) -> int:
    """Uniforms one sweep draws by the order documented in brandsim.dynamics."""
    return (
        5 * pop.num_customers
        + 4 * _leader_teachings(pop, params)
        + 4 * _shop_events(pop, params)
    )


def counting(counts: Counts):
    """Rebind the targets to wrappers that count work exactly and time nothing."""

    def init_population(fn):
        def counted(cfg, rng):
            counts.run_lengths.append(0)
            return fn(cfg, rng)
        return counted

    def sweep(fn):
        def counted(pop, mode, params, rng):
            before = rng.bit_generator.state
            log = []
            out = fn(pop, mode, params, rng, log)
            budget = uniform_budget(pop, params)
            replay = np.random.PCG64()
            replay.state = before
            np.random.Generator(replay).random(budget)
            counts.budget_mismatches += replay.state != rng.bit_generator.state
            counts.uniforms += budget
            counts.sweeps += 1
            counts.run_lengths[-1] += 1
            counts.pair_attempts += len(log)
            counts.pair_copies += sum(e.copied for e in log)
            return out
        return counted

    def leader_step(fn):
        def counted(pop, params, rng):
            copies = fn(pop, params, rng)
            counts.leader_attempts += _leader_teachings(pop, params)
            counts.leader_copies += copies
            return copies
        return counted

    def shop_step(fn):
        def counted(pop, params, rng):
            copies = fn(pop, params, rng)
            counts.shop_attempts += _shop_events(pop, params)
            counts.shop_copies += copies
            return copies
        return counted

    def refresh_affiliations(fn):
        def counted(pop):
            before = pop.affiliations.copy()
            fn(pop)
            counts.brand_switches += int(np.count_nonzero(before != pop.affiliations))
        return counted

    wrappers = {
        "model.init_population": init_population,
        "dynamics.sweep": sweep,
        "dynamics.leader_step": leader_step,
        "dynamics.shop_step": shop_step,
        "model.refresh_affiliations": refresh_affiliations,
    }
    return rebound(lambda name, fn: wrappers[name](fn) if name in wrappers else fn)
