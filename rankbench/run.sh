#!/usr/bin/env bash
# Builds the benchmark from the tree it sits in and runs it with the
# given arguments, from the repository root:
#
#   bash rankbench/run.sh --workload service-open --seed 3 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build
# in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go -C rankbench build -o "$build/bin/rankbench" .
exec "$build/bin/rankbench" "$@"
