#!/usr/bin/env bash
# Runs interleaved pairs of benchmark runs on two checkouts and compares
# them. For every workload and seed it runs the base checkout and the head
# checkout back to back, alternating which side goes first, so a drift of
# the host's speed over minutes moves both runs of a pair alike:
#
#   bash perfbench/pairs.sh BASE_DIR HEAD_DIR OUT_DIR [WORKLOADS] [SEEDS] [SECONDS]
#   bash perfbench/pairs.sh ../parent . /tmp/cmp "hotlock idle" "1 2 3 4 5 6 7 8 9 10" 20
#
# Defaults: all four workloads, seeds 1-10, 20 seconds. Each side builds
# into its own .bench_build. Records go to OUT_DIR/base.jsonl and
# OUT_DIR/head.jsonl, each run's output to OUT_DIR/runs.log, and the
# comparison (perfbench compare, using HEAD_DIR's BENCHMARK.json) to
# standard output. Passing the same checkout twice measures how far two
# sets of runs of the same code disagree.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: pairs.sh BASE_DIR HEAD_DIR OUT_DIR [WORKLOADS] [SEEDS] [SECONDS]" >&2
	exit 2
fi
base="$(cd "$1" && pwd)"
head="$(cd "$2" && pwd)"
mkdir -p "$3"
out="$(cd "$3" && pwd)"
workloads="${4:-hotlock idle mesh16 sweep}"
seeds="${5:-1 2 3 4 5 6 7 8 9 10}"
seconds="${6:-20}"

one() { # side dir workload seed
	echo "== $1 $3 seed $4" >>"$out/runs.log"
	(cd "$2" && env -u CARGO_TARGET_DIR bash perfbench/run.sh --workload "$3" --seed "$4" \
		--seconds "$seconds" --trace 0 -record "$out/$1.jsonl") >>"$out/runs.log" 2>&1
}

i=0
for w in $workloads; do
	for s in $seeds; do
		if [ $((i % 2)) -eq 0 ]; then
			one base "$base" "$w" "$s"
			one head "$head" "$w" "$s"
		else
			one head "$head" "$w" "$s"
			one base "$base" "$w" "$s"
		fi
		i=$((i + 1))
	done
done
cd "$head"
exec env -u CARGO_TARGET_DIR bash perfbench/run.sh compare -bench BENCHMARK.json "$out/base.jsonl" "$out/head.jsonl"
