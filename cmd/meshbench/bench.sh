#!/usr/bin/env bash
# Builds meshbench from this checkout and runs it with the given
# arguments, from the checkout root:
#
#   bash cmd/meshbench/bench.sh --workload scenarios --seed 1 --seconds 40 --trace 0
#
# Every build and run artifact (Go build cache, temp files, binaries,
# datasets) stays under .bench_build/ in the checkout, and the Go
# toolchain is kept local and offline.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/cmd/meshbench" build -o "$build/bin/meshbench" .
exec "$build/bin/meshbench" "$@"
