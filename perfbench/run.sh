#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#   bash perfbench/run.sh --workload serve-dss --seed 1 --seconds 30 --trace 0
# Build outputs (binary and Go build cache) stay in .bench_build/ at the
# root of the tree; result files go to .bench_out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
