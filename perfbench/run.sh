#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root:
#   bash perfbench/run.sh --workload terasort --seed 1 --seconds 30 --trace 0
# The Go build cache, the binary and every scratch file stay under
# .bench_build/ in the checkout. The result is the last line of
# standard output; see perfbench/METRICS.md.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
