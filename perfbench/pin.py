"""Regenerate golden.json, the output hashes of every pinned input set.

    python3 perfbench/pin.py        (from the root of a checkout)

Run it only for a change that is meant to alter the program's output; a
speed-up must leave every hash as it is.  The parallel arm of a single-run
workload is pinned from a serial ensemble, since ``ensemble`` promises the
same summary for any ``parallel``; the benchmark then checks that promise.
"""

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

import brandsim  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_PATH, PARALLEL, VARIANTS, WORKLOADS, config_text, ensemble_arm, serial_arm,
)

WORK = Path.cwd() / ".perfbench_work" / "pin"


def pin_one(task):
    name, variant, slot = task
    w = WORKLOADS[name]
    cfg = brandsim.parse_config_text(config_text(w, variant, slot))
    out = WORK / f"{name}-{variant}-{slot}"
    out.mkdir(parents=True, exist_ok=True)
    digests = dict(serial_arm(w, cfg, out).digests)
    if w.serial_runs == 1:
        digests.update(ensemble_arm(cfg, w.parallel_runs, 1, out).digests)
    return task, digests


def main() -> None:
    tasks = [(name, variant, slot) for name, w in WORKLOADS.items()
             for variant in range(VARIANTS) for slot in range(w.slots)]
    golden = {name: {str(v): [None] * w.slots for v in range(VARIANTS)}
              for name, w in WORKLOADS.items()}
    with ProcessPoolExecutor(max_workers=PARALLEL) as pool:
        for (name, variant, slot), digests in pool.map(pin_one, tasks):
            golden[name][str(variant)][slot] = digests
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(tasks)} input sets in {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
