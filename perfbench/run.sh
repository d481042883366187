#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with
# the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload indices --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/config"
(
	cd perfbench
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
