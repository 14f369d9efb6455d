#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload serve-map --seed 1 --seconds 20 --trace 0
#
# Every build product and Go cache lands in .bench_build/ at the repository
# root, so a run reads and writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$build/pimgo-bench" .
exec "$build/pimgo-bench" "$@"
