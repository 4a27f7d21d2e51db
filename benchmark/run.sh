#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark and hartd from
# source into .bench_build/ at the checkout root (Go caches and temp files
# included, so nothing is read or written outside the checkout), then runs
# the benchmark with the caller's arguments. Builds happen before any timer.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOENV=off
export HOME="$build/home" # where the go command keeps its telemetry counters
(cd "$here" && go build -o "$build/hartbm" .)
(cd "$root" && go build -o "$build/hartd" ./cmd/hartd)
cd "$root"
exec "$build/hartbm" -hartd "$build/hartd" -tmp "$build/tmp" "$@"
