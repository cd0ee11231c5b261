#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache, scratch and the go command's own
# configuration and telemetry counters included, so nothing is written
# outside it) and runs it with the given arguments. Run it from the
# repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
