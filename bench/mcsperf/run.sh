#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds mcsperf from the checkout
# it is run from and runs it with the given arguments. Build output and
# the Go build cache stay inside the checkout, under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/go-cache}" GOTOOLCHAIN=local
go build -o "$build/mcsperf" ./bench/mcsperf
exec "$build/mcsperf" "$@"
