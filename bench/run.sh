#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ (Go build
# and module caches included, so nothing is written outside the checkout) and
# runs it with the arguments given. Run from the root of a checkout:
#   bash bench/run.sh --workload serve_hot --seed 1 --seconds 12 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/bench" -o "$build/mpcbenchmark" .
exec "$build/mpcbenchmark" "$@"
