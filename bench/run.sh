#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root (build cache
# included, so nothing is written outside the checkout) and runs it with
# the given arguments. Run from the repository root: bash bench/run.sh
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPROXY=off GOTOOLCHAIN=local
go -C "$bench" build -o "$build/bench" . >&2
exec "$build/bench" "$@"
