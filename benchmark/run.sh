#!/bin/sh
# Builds the benchmark inside the checkout and runs it. Everything the
# Go toolchain writes (build cache, temp files, binaries) goes under
# .bench_build/ at the repository root, so a run reads and writes only
# inside its checkout and needs nothing from the caller's environment
# but a go command on PATH.
set -e
bench=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
cd "$bench"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
