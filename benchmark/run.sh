#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. The binary, the Go build cache and everything else the
# toolchain writes stay under .bench_build, so nothing outside the checkout
# is touched.
set -euo pipefail
cd "$(dirname "$0")/.."
b=$PWD/.bench_build
mkdir -p "$b/tmp"
export GOCACHE=$b/gocache GOPATH=$b/gopath GOTMPDIR=$b/tmp XDG_CONFIG_HOME=$b/config
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd benchmark && go build -o "$b/benchmark" .)
BENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
exec "$b/benchmark" "$@"
