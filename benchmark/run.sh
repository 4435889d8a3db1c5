#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the Go
# toolchain writes (build cache, temp files, telemetry counters under the user
# config directory, the binary) inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -C benchmark -o "$build/xmlbench" .
exec "$build/xmlbench" "$@"
