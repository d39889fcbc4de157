#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# BENCHMARK.json names this script as the benchmark's command; the
# driver appends --workload, --seed, --seconds and --trace.
#
# Everything the build leaves behind goes to .bench_build/ in the
# checkout (build cache included), everything a run leaves behind to
# bench/out/; both are in .gitignore. Without the library's sources next
# to bench/ the build fails and the script exits non-zero.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$build/bench" .

cd "$root"
exec "$build/bench" -dir bench/out "$@"
