#!/usr/bin/env bash
# Builds the benchmark and the confluxd binary it drives into .bench_build/
# (Go build cache included, so nothing outside the checkout is written), then
# runs the benchmark with the caller's arguments. Run from the checkout root:
#
#   bash benchmark/run.sh --workload replay_conflux --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/out"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" PPROF_TMPDIR="$build/out"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"

# benchmark/ is its own module (replace repro => ../), so both binaries build
# from here: the benchmark itself and the planner service under test.
(cd "$root/benchmark" && go build -o "$build/benchmark" . && go build -o "$build/confluxd" repro/cmd/confluxd)

exec "$build/benchmark" "$@"
