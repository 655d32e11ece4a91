#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; everything it builds or writes stays under .bench_build/ there.
#
#   bash perfbench/run.sh --workload tcp-expand-spill --seed 1 --seconds 10 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
