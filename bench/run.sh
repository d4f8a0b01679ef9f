#!/usr/bin/env bash
# Entry point of the benchmark driver (BENCHMARK.json "command"): build the
# benchmark from the checkout's sources and run it with the driver's
# arguments. The Go build cache, the temporary files and the binary stay
# under .bench_build in the checkout, so a run writes nowhere else.
# By hand, `go run ./bench` does the same with the user's own cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
