#!/bin/sh
# Smoke test of the installed `brandsim` entry point: run, ensemble and sweep
# on a tiny config, run and ensemble on tiny hierarchy configs with leaders and
# shops and with leaders teaching every non-leader, serial and parallel outputs
# byte-equal (an ensemble of more runs than the pool keeps in flight, and one
# in which no run converges, too), --seed equal to the seed in the file, a
# sweep with no values creates its output directory, bad input (arrays too
# large for numpy and a malformed list too) exits 2, a missing config exits 3,
# and every subcommand and the module entry point answer --help.
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
# more runs than the pool keeps in flight at once (four per worker)
brandsim ensemble --config "$cfg" --runs 20 --parallel 1 --out "$dir/ens20"
brandsim ensemble --config "$cfg" --runs 20 --parallel 2 --out "$dir/ens20p"
cmp "$dir/ens20/summary.txt" "$dir/ens20p/summary.txt"
# one sweep is too few for any run to converge: every worker returns no record
sed 's/^max_sweeps = .*/max_sweeps = 1/' "$cfg" > "$dir/short.cfg"
brandsim ensemble --config "$dir/short.cfg" --runs 4 --out "$dir/short"
brandsim ensemble --config "$dir/short.cfg" --runs 4 --parallel 2 --out "$dir/short2"
cmp "$dir/short/summary.txt" "$dir/short2/summary.txt"
grep -qx 'consensus_fraction=0' "$dir/short/summary.txt"
brandsim sweep --config "$cfg" --param p_copy --values 0.5,1 --runs 2 --out "$dir/sweep"
test -s "$dir/sweep/sweep_p_copy_0.txt"
test -s "$dir/sweep/sweep_p_copy_1.txt"
brandsim sweep --config "$cfg" --param p_copy --values 0.5,1 --runs 2 --parallel 2 --out "$dir/sweep2"
cmp "$dir/sweep/sweep_p_copy_0.txt" "$dir/sweep2/sweep_p_copy_0.txt"
cmp "$dir/sweep/sweep_p_copy_1.txt" "$dir/sweep2/sweep_p_copy_1.txt"
brandsim sweep --config "$cfg" --param K --values 4,6 --runs 2 --out "$dir/sweepk"
test -s "$dir/sweepk/sweep_K_1.txt"
# a value list with no value writes no summary but still creates --out
brandsim sweep --config "$cfg" --param p_copy --values "," --out "$dir/sweep0"
test -d "$dir/sweep0"
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
# an empty entry in an int list is a parse error
{ cat "$cfg"; echo 'shop_counts = 1,,2'; } > "$dir/list.cfg"
code=0
brandsim run --config "$dir/list.cfg" --out "$dir/list" || code=$?
test "$code" -eq 2
# a kernel rate out of range is rejected by the checks SimConfig inherits
{ cat "$cfg"; echo 'p_copy = 1.5'; } > "$dir/rate.cfg"
code=0
brandsim run --config "$dir/rate.cfg" --out "$dir/rate" || code=$?
test "$code" -eq 2
# arrays with few enough cells for an index but too many bytes for numpy
printf 'N = 2\nK = 1152921504606846976\nM = 1\nmode = equality\nseed = 5\n' > "$dir/cells.cfg"
printf 'N = 1\nK = 6\nM = 1\nmode = equality\nseed = 5\nshop_counts = 1152921504606846976\nshop_teach_rate = 1\n' > "$dir/shops.cfg"
for big in cells shops; do
  code=0
  brandsim run --config "$dir/$big.cfg" --out "$dir/$big" || code=$?
  test "$code" -eq 2
done
# --seed overrides the file's seed: the same bytes as the file with that seed
sed 's/^seed = .*/seed = 9/' "$cfg" > "$dir/seed9.cfg"
brandsim run --config "$cfg" --seed 9 --out "$dir/seedflag"
brandsim run --config "$dir/seed9.cfg" --out "$dir/seedfile"
cmp "$dir/seedflag/timeseries.csv" "$dir/seedfile/timeseries.csv"
# a config that cannot be read is an i/o error
code=0
brandsim run --config "$dir/absent.cfg" --out "$dir/absent" || code=$?
test "$code" -eq 3
# the module entry point, as README.md runs it without installing
python -m brandsim.cli --help > /dev/null
for command in run ensemble sweep; do
  brandsim "$command" --help > /dev/null
done
