#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload paper16 --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare <parent-runs-dir> <change-runs-dir>
#
# Run it from the repository root. Everything the build and the runs
# write stays under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gopath" "$out/config"

# Keep the go command's cache, temporary files and telemetry counters
# (kept under the user config directory) inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
go telemetry off 2>/dev/null || true

(cd "$bench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
