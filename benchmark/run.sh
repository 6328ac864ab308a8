#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and runs
# it with the arguments given (see BENCHMARK.json and benchmark/README.md).
# Everything the build and the run write — the Go build cache included — stays
# under .bench_build/, which .gitignore names.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/gotmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
# No network, no toolchain download, no workspace file of a later change.
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$here" -buildvcs=false -o "$build/benchmark" .
exec "$build/benchmark" -tmpdir "$build/tmp" "$@"
