#!/usr/bin/env bash
# Runs one workload once per seed, untraced and for BENCHMARK.json's
# run_seconds, and appends each run's result line (the JSON object the
# benchmark prints last) to a file, for -compare:
#
#   bash perfbench/sweep.sh micro 1 10 .bench_build/micro-new.jsonl
#   .bench_build/perfbench -compare old.jsonl new.jsonl
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 <workload> <first-seed> <count> <out-file>" >&2
	exit 2
fi
workload=$1 first=$2 count=$3 out=$4
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$here/../BENCHMARK.json")
if [ -z "$seconds" ]; then
	echo "$0: no run_seconds in BENCHMARK.json" >&2
	exit 2
fi
for ((i = 0; i < count; i++)); do
	seed=$((first + i))
	bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >>"$out"
done
