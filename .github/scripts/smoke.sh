#!/bin/sh
# Smoke test of the installed `brandsim` entry point: run, ensemble and sweep
# on a tiny config, serial and parallel outputs byte-equal, bad input exits 2.
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
brandsim sweep --config "$cfg" --param K --values 4,6 --runs 2 --out "$dir/sweepk"
test -s "$dir/sweepk/sweep_K_1.txt"
code=0
brandsim sweep --config "$cfg" --param K --values 4.5 --out "$dir/sweepk2" || code=$?
test "$code" -eq 2
sed 's/^K = .*/K = 1/' "$cfg" > "$dir/bad.cfg"
code=0
brandsim run --config "$dir/bad.cfg" --out "$dir/bad" || code=$?
test "$code" -eq 2
