#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload matmul-spartan --seed 1 --seconds 35 --trace 0
#
# The binary, the Go build cache and Go's temporary files all live under
# .bench_build/ in the current directory, so a run writes nothing outside
# the tree. The build fails, and the script exits non-zero without a
# result, when the zkvc module (the repository root, ../ of perfbench) is
# missing.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
