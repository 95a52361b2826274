#!/bin/bash
# Builds the benchmark from source into .bench_build/ and runs it.
#
#   bench/run.sh                          all four workloads, untraced then
#                                         traced; reports in bench/out/, combined
#                                         into bench/out/bench.json
#   bench/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#                                         one run (BENCHMARK.json's command)
#   bench/run.sh compare A.json B.json    regression table, see README.md
#   bench/run.sh agree [-runs N]          self-agreement gate
set -euo pipefail
cd "$(dirname "$0")/.."

# What the Go tool writes (build cache, telemetry counters) stays inside
# the checkout.
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config"
go build -C bench -o "$build/bench" .

if [ $# -gt 0 ]; then
    exec "$build/bench" "$@"
fi

workloads="pipe-dense-greedymr pipe-sparse-stackmr match-zipf-spill match-zipf-dist2"
reports=()
for w in $workloads; do
    "$build/bench" -workload "$w" -trace 0
    "$build/bench" -workload "$w" -trace 1
    reports+=("bench/out/$w.json" "bench/out/$w.layers.json")
done
"$build/bench" collect bench/out/bench.json "${reports[@]}"
echo "bench/run.sh: combined report in bench/out/bench.json, spans in bench/out/*.trace.json" >&2
