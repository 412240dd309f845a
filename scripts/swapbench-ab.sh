#!/usr/bin/env bash
# Same-machine A/B of the benchmark on one workload: builds a base commit
# and HEAD side by side, runs five pairs of untraced swapbench runs (seeds
# 1-5, alternating which side goes first) and judges HEAD against the base
# with swapbench -compare.
#
#   bash scripts/swapbench-ab.sh <base commit> <workload>
#
# Run it from the repository root. Both commits are extracted with
# git archive into .bench_build/ab/<workload>/{base,head}, so the two
# builds differ only in their source; uncommitted edits are not measured.
# Every run's stdout and stderr and the -compare table go to
# bench-ab/<workload>/. It exits non-zero when any run exits non-zero or
# -compare reads "regressed" on any end-to-end metric. A regression below
# a metric's bound in BENCHMARK.json (25% on timings) reads "unchanged" or
# "unresolved" and passes.
set -euo pipefail

base_rev=$1 workload=$2
root=$(pwd)
trees="$root/.bench_build/ab/$workload"
out="$root/bench-ab/$workload"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)

rm -rf "$trees" "$out"
mkdir -p "$trees/base" "$trees/head" "$out"
git archive "$base_rev" | tar -x -C "$trees/base"
git archive HEAD | tar -x -C "$trees/head"

status=0
run() { # <side> <seed>
	if ! (cd "$trees/$1" && bash cmd/swapbench/run.sh --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0) >"$out/$1-$2.txt" 2>"$out/$1-$2.err"; then
		echo "swapbench-ab: $1 run, seed $2, failed:" >&2
		tail -n 20 "$out/$1-$2.err" >&2
		status=1
	fi
}
for seed in 1 2 3 4 5; do
	if ((seed % 2)); then
		run base "$seed"
		run head "$seed"
	else
		run head "$seed"
		run base "$seed"
	fi
done

(cd "$trees/head" && bash cmd/swapbench/run.sh -compare "$out"/base-*.txt -- "$out"/head-*.txt) |
	tee "$out/compare.txt"
if grep -q regressed "$out/compare.txt"; then
	echo "swapbench-ab: $workload regressed against $base_rev" >&2
	status=1
fi
exit "$status"
