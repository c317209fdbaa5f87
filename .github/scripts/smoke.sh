#!/bin/sh
# Smoke test of the installed `brandsim` entry point: run, ensemble and sweep
# on a tiny config, run and ensemble on tiny hierarchy configs with leaders and
# shops and with leaders teaching every non-leader, serial and parallel outputs
# byte-equal, bad input exits 2.
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
hcfg="$dir/hier.cfg"
printf 'N = 2\nK = 12\nM = 3\nmode = hierarchy\nseed = 7\nmax_sweeps = 2000\nleader_count = 2\nleader_pupils = 4\nshop_counts = 4, 1\nshop_teach_rate = 0.5\n' > "$hcfg"
brandsim run --config "$hcfg" --out "$dir/hier"
test -s "$dir/hier/timeseries.csv"
brandsim ensemble --config "$hcfg" --runs 2 --out "$dir/hens"
brandsim ensemble --config "$hcfg" --runs 2 --parallel 2 --out "$dir/hens2"
cmp "$dir/hens/summary.txt" "$dir/hens2/summary.txt"
# every non-leader is every leader's pupil, so most pupil picks collide
wcfg="$dir/whole.cfg"
printf 'N = 2\nK = 10\nM = 2\nmode = hierarchy\nseed = 3\nmax_sweeps = 200\nleader_count = 2\nleader_pupils = 8\n' > "$wcfg"
brandsim run --config "$wcfg" --out "$dir/whole"
test -s "$dir/whole/timeseries.csv"
brandsim ensemble --config "$wcfg" --runs 2 --out "$dir/wens"
brandsim ensemble --config "$wcfg" --runs 2 --parallel 2 --out "$dir/wens2"
cmp "$dir/wens/summary.txt" "$dir/wens2/summary.txt"
sed 's/^leader_pupils = .*/leader_pupils = 2.5/' "$wcfg" > "$dir/frac.cfg"
code=0
brandsim run --config "$dir/frac.cfg" --out "$dir/frac" || code=$?
test "$code" -eq 2
sed 's/^K = .*/K = 1/' "$cfg" > "$dir/bad.cfg"
code=0
brandsim run --config "$dir/bad.cfg" --out "$dir/bad" || code=$?
test "$code" -eq 2
code=0
brandsim ensemble --config "$cfg" --runs 0 --out "$dir/ens0" || code=$?
test "$code" -eq 2
# a kernel rate out of range is rejected by the checks SimConfig inherits
{ cat "$cfg"; echo 'p_copy = 1.5'; } > "$dir/rate.cfg"
code=0
brandsim run --config "$dir/rate.cfg" --out "$dir/rate" || code=$?
test "$code" -eq 2
