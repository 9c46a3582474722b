#!/usr/bin/env bash
# Builds hived and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash hivebench-e2e/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export GOMODCACHE="$out/gomodcache"

go build -o "$out/hived" ./cmd/hived
(cd "$root/hivebench-e2e" && go build -o "$out/hivebench-e2e" .)
exec "$out/hivebench-e2e" -hived "$out/hived" -workdir "$out" "$@"
