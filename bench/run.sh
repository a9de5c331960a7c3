#!/usr/bin/env bash
# The benchmark's entry point for the driver: builds the benchmark from
# the checkout it is run in and executes it with the arguments given
# (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the Go toolchain writes goes under .bench_build in the
# checkout (build cache included), so a run reads and writes nothing
# outside it. In a directory without the module's sources the build
# fails and so does this script, before any result is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
