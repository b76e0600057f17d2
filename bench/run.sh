#!/usr/bin/env bash
# Builds the erucaperf benchmark from source and runs one workload.
#
#   bash bench/run.sh --workload mix0-eruca --seed 42 --seconds 15 --trace 0
#
# Every flag is passed to erucaperf (see bench/README.md). The binary, the
# Go build cache, traces, profiles and scratch WAL directories all stay in
# bench/.bench_build/; nothing is fetched from the network.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/.bench_build"
mkdir -p "$build/tmp" "$build/home"
# Keep the toolchain's caches, temporary files and telemetry inside the
# checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
(cd bench && go build -o "$build/erucaperf" ./erucaperf)
exec "$build/erucaperf" -artifacts "$build" "$@"
