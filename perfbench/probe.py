"""Set-up probe, run in a fresh interpreter: python3 probe.py CONFIG_FILE

Does what every ``brandsim run`` pays before its first sweep: import the
package and its CLI, parse the arguments and the config file, and draw the
initial population.  Prints one JSON line with the split and the
``time.monotonic()`` at which set-up finished, which the parent compares with
the moment it started this interpreter.
"""

import json
import sys
import time

t0 = time.perf_counter()
import brandsim  # noqa: E402

t1 = time.perf_counter()
import brandsim.cli  # noqa: E402

args = brandsim.cli.build_parser().parse_args(["run", "--config", sys.argv[1]])
t2 = time.perf_counter()
cfg = brandsim.load_config(args.config)
t3 = time.perf_counter()
import numpy as np  # noqa: E402

pop = brandsim.init_population(cfg, np.random.default_rng(cfg.seed))
t4 = time.perf_counter()
done = time.monotonic()
print(json.dumps({
    "import_s": t1 - t0,
    "cli_ms": 1e3 * (t2 - t1),
    "parse_ms": 1e3 * (t3 - t2),
    "init_population_ms": 1e3 * (t4 - t3),
    "customers": pop.num_customers,
    "done": done,
}))
