#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through, e.g.
#
#   bash bench/run.sh --workload scale --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache and the binary live
# in .bench_build/ so nothing is read or written outside the checkout;
# the first run builds the standard library and the repository there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
