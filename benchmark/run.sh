#!/usr/bin/env bash
# The benchmark's build file and the command BENCHMARK.json names: builds
# ./benchmark from the checkout's source into .bench_build and runs it with
# the driver's arguments. The Go build cache is kept in .bench_build too, so
# a run reads and writes nothing outside its checkout. In a directory
# without the repository's go.mod the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
