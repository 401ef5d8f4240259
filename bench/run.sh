#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: `go run ./bench` with the toolchain's
# build cache and temporary files kept inside the checkout, so that a run
# reads and writes nothing outside it (and works where $HOME is read-only).
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
mkdir -p .bench_build/gocache .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
exec go run ./bench "$@"
