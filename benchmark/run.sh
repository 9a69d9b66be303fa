#!/usr/bin/env bash
# Builds the benchmark from source and runs it from this directory, so
# relative outputs land in benchmark/out/. Everything the build writes
# (binary, Go build cache, Go's own config) stays under .bench_build/ at
# the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/xfaas-benchmark" .
exec "$build/xfaas-benchmark" "$@"
