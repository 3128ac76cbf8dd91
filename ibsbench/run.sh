#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs one workload:
#
#   bash ibsbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write (Go build cache, binary, temp files,
# spill files, span dumps) stays under .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user's config directory.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-mod=mod
(cd ibsbench && go build -o "$out/bin/ibsbench" .)
exec "$out/bin/ibsbench" "$@"
