#!/bin/sh
# Smoke test of the installed `brandsim` entry point, for what tier-1 cannot
# reach in-process: run, ensemble and sweep on a tiny config, with ensemble and
# sweep writing the same bytes serially and with --parallel 2; exit code 2 for
# an invalid config and 3 for a missing one; and --help from every subcommand
# and from the module entry point.
# Usage: smoke.sh DIR, where DIR is an empty scratch directory.
set -eu
dir="$1"
cfg="$dir/sim.cfg"
printf 'N = 2\nK = 6\nM = 2\nmode = equality\nseed = 5\nmax_sweeps = 20\n' > "$cfg"
brandsim run --config "$cfg" --out "$dir/out"
test -s "$dir/out/timeseries.csv"
brandsim ensemble --config "$cfg" --runs 2 --out "$dir/ens"
test -s "$dir/ens/summary.txt"
brandsim ensemble --config "$cfg" --runs 2 --parallel 2 --out "$dir/ens2"
cmp "$dir/ens/summary.txt" "$dir/ens2/summary.txt"
brandsim sweep --config "$cfg" --param p_copy --values 0.5,1 --runs 2 --out "$dir/sweep"
test -s "$dir/sweep/sweep_p_copy_0.txt"
test -s "$dir/sweep/sweep_p_copy_1.txt"
brandsim sweep --config "$cfg" --param p_copy --values 0.5,1 --runs 2 --parallel 2 --out "$dir/sweep2"
cmp "$dir/sweep/sweep_p_copy_0.txt" "$dir/sweep2/sweep_p_copy_0.txt"
cmp "$dir/sweep/sweep_p_copy_1.txt" "$dir/sweep2/sweep_p_copy_1.txt"
sed 's/^K = .*/K = 1/' "$cfg" > "$dir/bad.cfg"
code=0
brandsim run --config "$dir/bad.cfg" --out "$dir/bad" || code=$?
test "$code" -eq 2
code=0
brandsim run --config "$dir/absent.cfg" --out "$dir/absent" || code=$?
test "$code" -eq 3
# the module entry point, as README.md runs it without installing
python -m brandsim.cli --help > /dev/null
for command in run ensemble sweep; do
  brandsim "$command" --help > /dev/null
done
