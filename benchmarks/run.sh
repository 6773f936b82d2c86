#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the repo root
# (BENCHMARK.json's command): bash benchmarks/run.sh --workload fwd64 --seed 1
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/benchmarks" && go build -o "$build/perf" ./perf)
exec "$build/perf" "$@"
