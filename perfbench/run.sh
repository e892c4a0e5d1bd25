#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload call-steady --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --repeat 10      # every workload, k runs, manifest
#
# Build outputs, the Go build cache and run data stay under .bench_build/
# at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/livebench" .) >&2
exec "$out/livebench" -root "$root" "$@"
