"""Self-test of the benchmark.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks, with short runs, that:

1. every workload, with tracing off and on, prints a result line whose
   metrics are exactly those BENCHMARK.json names, each with its unit and a
   finite value, and that passes its hash gate;
2. the hash gate is live: a workload's outputs for one seed pass against the
   hashes pinned for that seed and fail against those of another seed;
3. in a directory holding only BENCHMARK.json and the benchmark, the command
   exits non-zero without printing a result.

Prints each problem found and exits 1 if there is any.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".perfbench_work" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_metrics(problems: list[str]) -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} --trace {trace}"
            proc = subprocess.run(
                SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                   "--trace", str(trace)],
                capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: not correct: {result}")
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics {got} != BENCHMARK.json {expected}")
            for name, m in result["metrics"].items():
                value = m["value"]
                if isinstance(value, bool) or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {value!r} is not a finite number")


def check_gate_is_live(problems: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import brandsim
    from workloads import WORKLOADS, Gate, config_text, serial_arm

    for w in WORKLOADS.values():
        out = WORK / w.name
        out.mkdir(parents=True, exist_ok=True)
        arm = serial_arm(w, brandsim.parse_config_text(config_text(w, 0, 0)), out)
        if Gate(w, 0).run("own seed", 0, lambda: arm) is None:
            problems.append(f"{w.name}: outputs fail against their own pinned hashes")
        if Gate(w, 1).run("other seed", 0, lambda: arm) is not None:
            problems.append(f"{w.name}: outputs pass against another seed's hashes")


def check_bare_directory_fails(problems: list[str]) -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    workload = SPEC["workloads"][0]["name"]
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    problems: list[str] = []
    check_bare_directory_fails(problems)
    check_gate_is_live(problems)
    check_metrics(problems)
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
