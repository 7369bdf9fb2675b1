#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything it leaves behind stays in bench/out/, which is git-ignored:
# the binary, the Go build cache, the toolchain's usage counters
# (XDG_CONFIG_HOME) and temporary files in bench/out/build/, run-time
# files beside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/bench/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -buildvcs=false -o "$build/ptperf-bench" .)
cd "$root"
exec "$build/ptperf-bench" "$@"
