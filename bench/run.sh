#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (see BENCHMARK.json). Everything the build and the run
# write — Go build cache, temporary files, the binary, the centers' stores —
# stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
