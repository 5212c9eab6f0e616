#!/bin/sh
# Benchmark-pipeline smoke: one cheap flat-array benchmark run
# (BENCH_ROUTE_N=1, count 1) piped through benchjson must land the
# flat placement speedup pair, its confidence/noise verdict, stddev/CV fields
# and the pinned environment (gomaxprocs, workers) in the JSON.
# Guards the `make bench-route` plumbing — bench_route_test.go's
# fixtures and metrics plus cmd/benchjson's aggregation — without the
# cost of the full -count 5, N=3 measurement run.
set -eu
: "${GO:=go}"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

echo "bench-route-smoke: running the flat route+place benchmarks (N=1, count 1)"
BENCH_ROUTE_N=1 BENCH_ROUTE_J=4 $GO test -bench 'BenchmarkRouteFlat|BenchmarkPlaceFlat' \
	-count 1 -benchtime 1x -run '^$' . >"$dir/bench.out"
$GO run ./cmd/benchjson <"$dir/bench.out" >"$dir/bench.json"
cat "$dir/bench.json"

need() {
	grep -q "$1" "$dir/bench.json" || {
		echo "bench-route-smoke: FAIL: missing $1 in benchjson output" >&2
		exit 1
	}
}
need '"noise"'
need '"stddev_ns_per_op"'
need '"cv"'
need '"gomaxprocs"'
need '"workers": 4'
need '"place_cp_speedup/flat_parallel"'
need '"flat_place_serial_over_parallel"'

echo "bench-route-smoke: OK"
