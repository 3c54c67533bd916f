#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout. Arguments pass through, e.g.:
#
#	bash pibench/run.sh --workload mixed --seed 3 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C pibench -o "$build/pibench" .
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)"
PIBENCH_COMMIT="$commit" exec "$build/pibench" "$@"
