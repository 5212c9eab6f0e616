#!/usr/bin/env bash
# Builds the flow ledger from source into .bench_build/ and runs it
# with the arguments given. Run from the root of the checkout:
#   bash bench/run.sh --workload table2 --seed 1 --seconds 12 --trace 0
# Everything the go command writes (build cache, module cache,
# telemetry counters) is pointed inside .bench_build/, so that a run
# leaves nothing outside its checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	go build -C "$root/bench" -o "$build/flowbench" .
exec "$build/flowbench" "$@"
