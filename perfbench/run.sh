#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload twotier-steady --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build in the repository.
# The build needs the repository's own module one directory up, so the
# script fails, printing no result, in a copy that holds only the
# benchmark.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOENV=off GOWORK=off \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
