#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash bench/run.sh -workload explore-crime -seed 1 -seconds 20 -trace 0
#   bash bench/run.sh compare -a before/ -b after/
#
# Every build artifact (compiler cache, temp files, the binary) and every
# file the benchmark writes stays under .bench_build/ in the current
# directory. The toolchain never touches the network.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go -C bench build -o "$build/sisd-bench" .
exec "$build/sisd-bench" "$@"
