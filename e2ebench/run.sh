#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the repository root; every argument is passed to the benchmark:
#
#   bash e2ebench/run.sh --workload append --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and every run's data directory stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
