#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# executes it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload suite-stream --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, scratch directories and ledgers all
# stay under .bench_build/ in the checkout. Without the program's sources
# beside it the build fails, so the benchmark exits non-zero before
# printing any result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
