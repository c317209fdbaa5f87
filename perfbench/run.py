"""brandsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``./src`` and
every file the benchmark writes goes under ``./.perfbench_work``.  The last
line of standard output is the result, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from a separate, instrumented run.  The run record (machine, versions,
commit, seeds, sample counts and quartiles) is printed on the line before it
and written, with the spans of a traced run, next to the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
POOL_PROBES = 5
#: the pool probe's config: small enough that two runs cost far less than a pool
POOL_PROBE_CONFIG = "N = 3\nK = 50\nM = 5\nmode = equality\nmax_sweeps = 1\nseed = 1\n"


def quartiles(values) -> dict:
    values = sorted(values)
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "min": values[0], "q1": q1, "median": q2, "q3": q3,
            "max": values[-1]}


def setup_probes(cfg_path: Path) -> list[dict]:
    """Set-up timings from fresh interpreters; the first one, which compiles bytecode, is dropped."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    probes = []
    for i in range(SETUP_PROBES + 1):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(cfg_path)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.splitlines()[-1])
        probe["setup_s"] = probe.pop("done") - started
        if i:
            probes.append(probe)
    return probes


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def loadavg() -> list[float]:
    return list(os.getloadavg())


def versions() -> dict:
    """Installed versions, read from package metadata so that nothing extra is imported."""
    import brandsim

    out = {"python": platform.python_version(), "brandsim": brandsim.__version__}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = "absent"
    return out


def measure(w, variant: int, seconds: float, gate, out: Path) -> dict:
    """Alternate the serial and parallel arms on gated inputs for ``seconds``."""
    import brandsim
    from workloads import config_text, parallel_arm, serial_arm

    rates = {"p1": [], "p2": []}
    sweeps = {"p1": [], "p2": []}
    speedups = []
    deadline = perf_counter() + seconds
    rep = 0
    while rep == 0 or perf_counter() < deadline:
        slot = rep % w.slots
        cfg = brandsim.parse_config_text(config_text(w, variant, slot))
        order = [("p1", serial_arm), ("p2", parallel_arm)]
        arms = {}
        for label, arm_fn in (order if rep % 2 == 0 else order[::-1]):
            arm = gate.run(label, slot, lambda: arm_fn(w, cfg, out))
            if arm is not None:
                arms[label] = arm.sweeps / arm.wall
                rates[label].append(arms[label])
                sweeps[label].append(arm.sweeps)
        if len(arms) == 2:
            # both arms ran the same inputs back to back, so host drift mostly cancels
            speedups.append(arms["p2"] / arms["p1"])
        rep += 1
    return {"reps": rep, "rates": rates, "speedups": speedups, "sweeps": sweeps}


def pool_overhead() -> list[float]:
    """ensemble wall at parallel=PARALLEL minus at parallel=1, on a two-run, one-sweep config."""
    import brandsim
    from workloads import PARALLEL

    cfg = brandsim.parse_config_text(POOL_PROBE_CONFIG)
    diffs = []
    for i in range(POOL_PROBES):
        walls = {}
        for parallel in ((1, PARALLEL) if i % 2 == 0 else (PARALLEL, 1)):
            t0 = perf_counter()
            brandsim.ensemble(cfg, 2, parallel=parallel)
            walls[parallel] = perf_counter() - t0
        diffs.append(walls[PARALLEL] - walls[1])
    return diffs


def measure_traced(w, variant: int, seconds: float, gate, out: Path) -> dict:
    """Counting pass, pool probe, then traced and untraced serial arms alternating."""
    import brandsim
    from tracing import Counts, Tracer, counting, span_totals
    from workloads import config_text, serial_arm

    cfg0 = brandsim.parse_config_text(config_text(w, variant, 0))
    counts = Counts()

    def counted_arm():
        with counting(counts):
            arm = serial_arm(w, cfg0, out)
        if counts.budget_mismatches:
            raise RuntimeError(f"documented uniform budget disagrees with the stream on "
                               f"{counts.budget_mismatches} of {counts.sweeps} sweeps")
        return arm

    gate.run("counting", 0, counted_arm)
    pool = pool_overhead()

    tracer = Tracer()
    walls = {"plain": [], "traced": []}
    sweeps_traced = 0
    deadline = perf_counter() + seconds
    rep = 0
    while rep == 0 or perf_counter() < deadline:
        slot = rep % w.slots
        cfg = brandsim.parse_config_text(config_text(w, variant, slot))
        for label in (("plain", "traced") if rep % 2 == 0 else ("traced", "plain")):
            if label == "plain":
                arm = gate.run(label, slot, lambda: serial_arm(w, cfg, out))
            else:
                with tracer.instrumented():
                    arm = gate.run(label, slot, lambda: serial_arm(w, cfg, out, tracer.call))
            if arm is not None:
                walls[label].append(arm.wall)
                if label == "traced":
                    sweeps_traced += arm.sweeps
        rep += 1
    tracer.save(out / "spans.npz")
    return {"reps": rep, "counts": counts, "pool": pool, "walls": walls,
            "spans": span_totals(tracer), "sweeps_traced": sweeps_traced, "K": cfg0.K}


def layer_metrics(t: dict, probes: list[dict]) -> dict[str, tuple[float, str]]:
    c = t["counts"]
    spans = t["spans"]
    sweeps = spans["dynamics.sweep"]["count"]

    def per_sweep_ms(name):
        return 1e3 * spans[name]["total"] / sweeps

    def per_call_ms(name):
        return 1e3 * spans[name]["total"] / spans[name]["count"]

    def ratio(num, den):
        return num / den if den else 0.0

    def probe_median(key):
        return statistics.median(p[key] for p in probes)

    sweep_ms = sorted(1e3 * spans["dynamics.sweep"]["durations"])
    deciles = statistics.quantiles(sweep_ms, n=10) if len(sweep_ms) > 1 else sweep_ms * 9
    root = "harness.run" if "harness.run" in spans else "harness.ensemble"
    return {
        "dynamics.pair_ns_per_event":
            (1e9 * spans["dynamics.sweep"]["self"] / (sweeps * t["K"]), "ns"),
        "dynamics.pair_copy_ratio": (ratio(c.pair_copies, c.pair_attempts), "ratio"),
        "dynamics.leader_ms_per_sweep": (per_sweep_ms("dynamics.leader_step"), "ms"),
        "dynamics.leader_copy_ratio": (ratio(c.leader_copies, c.leader_attempts), "ratio"),
        "dynamics.shop_ms_per_sweep": (per_sweep_ms("dynamics.shop_step"), "ms"),
        "dynamics.shop_copy_ratio": (ratio(c.shop_copies, c.shop_attempts), "ratio"),
        "dynamics.sweep_ms.p50": (deciles[4], "ms"),
        "dynamics.sweep_ms.p90": (deciles[8], "ms"),
        "dynamics.uniforms_per_sweep": (ratio(c.uniforms, c.sweeps), "count"),
        "model.refresh_ms_per_sweep": (per_sweep_ms("model.refresh_affiliations"), "ms"),
        "model.brand_switches_per_sweep": (ratio(c.brand_switches, c.sweeps), "count"),
        "model.init_population_ms": (probe_median("init_population_ms"), "ms"),
        "setup.import_s": (probe_median("import_s"), "s"),
        "cli.parse_args_ms": (probe_median("cli_ms"), "ms"),
        "config.parse_ms": (probe_median("parse_ms"), "ms"),
        "metrics.fluctuation_ms_per_call": (per_call_ms("metrics.fluctuation"), "ms"),
        "metrics.snapshot_ms_per_call": (per_call_ms("metrics.snapshot"), "ms"),
        "harness.loop_ms_per_sweep": (1e3 * spans[root]["self"] / sweeps, "ms"),
        "harness.emit_ms": (
            1e3 * statistics.median(spans["harness.emit"]["durations"].tolist()), "ms"),
        "harness.pool_overhead_s": (statistics.median(t["pool"]), "s"),
        "harness.longest_run_share": (ratio(max(c.run_lengths), sum(c.run_lengths)), "ratio"),
        "trace.overhead_frac": (
            statistics.median(t["walls"]["traced"]) / statistics.median(t["walls"]["plain"])
            - 1.0, "ratio"),
    }


def no_samples(gate) -> int:
    print("perfbench: no arm passed its gate, so there is nothing to report", file=sys.stderr)
    for line in gate.log:
        print("  " + line, file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "brandsim" / "__init__.py").is_file():
        print(f"perfbench: no brandsim package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import VARIANTS, WORKLOADS, Gate, config_text

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    out = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": w.name, "seed": args.seed, "variant": variant, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "loadavg_start": loadavg(), "versions": versions(), "commit": git_commit(),
        "config": config_text(w, variant, 0),
    }
    cfg_path = out / "config.txt"
    cfg_path.write_text(record["config"], encoding="utf-8")
    gate = Gate(w, variant)

    probes = setup_probes(cfg_path)
    if args.trace:
        t = measure_traced(w, variant, args.seconds, gate, out)
        if not all(t["walls"].values()):
            return no_samples(gate)
        metrics = layer_metrics(t, probes)
        spans = t["spans"]
        record.update({
            "counts": {k: v for k, v in vars(t["counts"]).items() if k != "run_lengths"},
            "run_lengths": t["counts"].run_lengths,
            "walls": {k: quartiles(v) for k, v in t["walls"].items()},
            "span_self_s": {k: v["self"] for k, v in spans.items()},
            # self times sum to the root spans' time; the rest of an arm is file open/close
            "span_share_of_traced_wall":
                sum(v["self"] for v in spans.values()) / sum(t["walls"]["traced"]),
            "sweeps_traced": [t["sweeps_traced"], spans["dynamics.sweep"]["count"]],
        })
        if t["sweeps_traced"] != spans["dynamics.sweep"]["count"]:
            gate.fail("traced sweep spans do not match the sweeps the runs report")
    else:
        t = measure(w, variant, args.seconds, gate, out)
        if not t["speedups"]:
            return no_samples(gate)
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "sweeps_per_s.p1": (statistics.median(t["rates"]["p1"]), "1/s"),
            "sweeps_per_s.p2": (statistics.median(t["rates"]["p2"]), "1/s"),
            "parallel_speedup": (statistics.median(t["speedups"]), "x"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record.update({
            "rates": {k: quartiles(v) for k, v in t["rates"].items()},
            "speedups": quartiles(t["speedups"]),
            "sweeps": t["sweeps"],
        })
    record.update({
        "reps": t["reps"],
        "setup": {k: quartiles([p[k] for p in probes])
                  for k in ("setup_s", "import_s", "cli_ms", "parse_ms", "init_population_ms")},
        "failures": gate.log,
        "loadavg_end": loadavg(),
    })
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
