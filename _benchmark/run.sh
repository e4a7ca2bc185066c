#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, e.g.
#   bash _benchmark/run.sh --workload construct --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/_benchmark" && go build -o "$out/dynbench" .)
exec "$out/dynbench" "$@"
