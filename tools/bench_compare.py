"""A/B benchmark: a base git ref against the working tree, on the repo's own bench.

    python3 tools/bench_compare.py --base REF --seeds 1001,1002 --out BENCH_1.json

Run from the root of a git checkout.  The base ref's tree is written with
``git archive`` under ``.perfbench_work/compare/<commit>``.  For every workload
in ``BENCHMARK.json`` and every seed, both sides run this checkout's
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds``, by absolute
path and from their own tree's root, so each imports its own ``src/``; which
side runs first alternates from one seed to the next.  The output records both
refs, with git's tree ids of those of ``src``, ``perfbench`` and ``tools`` that
each side has (the working tree's taken with untracked files, and checked
unchanged after the last run), every run's result and machine record, and per end-to-end metric
the raw samples of each side in seed order, their medians and quartiles, the number of
seeds on which the change did better, and whether the medians differ by more than
the base side's interquartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path.cwd()
RUN = ROOT / "perfbench" / "run.py"
WORK = ROOT / ".perfbench_work" / "compare"
SPEC = ROOT / "BENCHMARK.json"
#: the directories whose git tree ids tie a report to the code each side ran
RAN = ("src", "perfbench", "tools")
#: the parts of run.py's record kept per run; the rest is per-rep detail
RECORD_KEYS = ("cpu", "nproc", "versions", "variant", "reps", "rates", "failures",
               "loadavg_start", "loadavg_end")


def git(*args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, env=env).stdout.rstrip()


def tree_ids(tree: str) -> dict:
    """Git's tree ids of those of RAN that ``tree`` (a commit or tree) has."""
    lines = git("ls-tree", "--format=%(path) %(objectname)", tree, *RAN).splitlines()
    return dict(line.split(" ") for line in lines)


def worktree_ids() -> dict:
    """``tree_ids`` of the working tree, untracked files included.

    The tree is staged with ``git add -A`` into a scratch index, so the real
    index is untouched; a commit of the same files gives the same ids.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    index = WORK / "index"
    index.unlink(missing_ok=True)
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    git("add", "-A", env=env)
    return tree_ids(git("write-tree", env=env))


def materialise(commit: str) -> Path:
    """The tree of ``commit`` under WORK, written once with ``git archive``."""
    tree = WORK / commit
    if not tree.is_dir():
        archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        partial = tree.with_name(commit + ".partial")
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(partial)
        partial.rename(tree)
    return tree


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` run from ``tree``: its result and record, or its error."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        # a run takes ``seconds`` plus its set-up probes; the bound only catches a hang
        cwd=tree, capture_output=True, text=True, timeout=20 * seconds + 600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("record "):
        return {"returncode": proc.returncode, "error": proc.stderr[-2000:]}
    record = json.loads(lines[-2][len("record "):])
    return {"returncode": 0, "result": json.loads(lines[-1]),
            "record": {k: record[k] for k in RECORD_KEYS if k in record}}


def quartiles(samples: list[float]) -> tuple[float | None, float | None]:
    """The first and third quartiles by the inclusive method, numpy's default.
    A lone sample is both; no sample gives None for both."""
    if len(samples) < 2:
        return (samples[0], samples[0]) if samples else (None, None)
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q3


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's samples in seed order, medians,
    quartiles and wins.

    A run without a result gives no sample, and a seed wins only when both
    sides have a sample for it and the change's is better in the metric's
    direction.  ``beyond_base_iqr`` says whether the medians differ by more
    than the base side's q3 - q1, and is None while a side has no sample.
    ``all_correct`` is False if any run failed or missed a gate.
    """
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = sorted((r for r in runs if r["workload"] == workload), key=lambda r: r["seed"])
        summary: dict = {"all_correct": all(
            r.get("result", {}).get("correct", False) for r in mine)}
        for metric in end_to_end:
            name, higher = metric["name"], metric["better"] == "higher"
            by_side: dict[str, dict[int, float]] = {"base": {}, "change": {}}
            for r in mine:
                if "result" in r and name in r["result"]["metrics"]:
                    by_side[r["side"]][r["seed"]] = r["result"]["metrics"][name]["value"]
            both = sorted(by_side["base"].keys() & by_side["change"].keys())
            wins = sum((by_side["change"][s] > by_side["base"][s]) == higher
                       and by_side["change"][s] != by_side["base"][s] for s in both)
            entry = {"pairs": len(both), "change_wins": wins}
            for side, samples in by_side.items():
                values = list(samples.values())
                entry[side] = values
                entry[side + "_median"] = statistics.median(values) if values else None
                entry[side + "_q1"], entry[side + "_q3"] = quartiles(values)
            base, change = entry["base_median"], entry["change_median"]
            entry["beyond_base_iqr"] = (None if base is None or change is None else
                                        abs(change - base) > entry["base_q3"] - entry["base_q1"])
            summary[name] = entry
        out[workload] = summary
    return out


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--seeds", required=True, help="comma-separated bench seeds")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    base_commit = git("rev-parse", "--verify", args.base + "^{commit}")
    trees = {"base": materialise(base_commit), "change": ROOT}
    base = {"ref": args.base, "commit": base_commit, "trees": tree_ids(base_commit)}
    change = {"ref": "working tree", "head": git("rev-parse", "HEAD"), "trees": worktree_ids()}
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for i, seed in enumerate(seeds):
            for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                run = {"workload": workload, "seed": seed, "side": side}
                run.update(bench(trees[side], workload, seed, seconds))
                print(json.dumps({k: run.get(k) for k in ("workload", "seed", "side",
                                                          "returncode")}), flush=True)
                runs.append(run)
    if worktree_ids() != change["trees"]:
        sys.exit("the working tree's code changed during the runs; no report written")
    report = {
        "base": base,
        "change": change,
        "protocol": {"command": [str(RUN.relative_to(ROOT)), "--trace", "0"],
                     "seconds": seconds, "seeds": seeds,
                     "order": "base first on even seed positions, change first on odd"},
        "summary": summarise(runs, spec["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if all(w["all_correct"] for w in report["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
