#!/bin/sh
# harden-smoke: end-to-end check of the hierarchical hardened-macro
# flow. Hardens the tiny tile cold (populating the cache with the
# abstract), re-hardens warm and instantiates a 3×3 parent array off
# the cached abstract, asserting the stage-cache counters (three
# regions cold: harden, and the place and sign-off regions nested in
# it; the harden region alone warm), timing
# closure at the tile period, and a well-formed abstract LEF export;
# then runs the warm array again with -check, asserting a clean parent
# verification and every cached region re-run bit-identical. Fails on
# any mismatch.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

echo "harden-smoke: building cmd/macro3d"
$GO build -o "$dir/macro3d" ./cmd/macro3d

run="$dir/macro3d harden -config tiny -seed 7 -cache-dir $dir/stash"

echo "harden-smoke: cold harden (abstract hardened fresh)"
$run -o "$dir/abs.lef" >"$dir/cold.out" 2>"$dir/cold.err"
grep -q 'hardened,' "$dir/cold.out" || {
	echo "harden-smoke: FAIL: cold run should harden fresh" >&2
	cat "$dir/cold.out" >&2
	exit 1
}
# The harden region and the place and sign-off regions nested in it.
grep -q 'stage cache .*: 0 hits, 3 misses, 3 stored ' "$dir/cold.err" || {
	echo "harden-smoke: FAIL: cold stage-cache counters wrong" >&2
	cat "$dir/cold.err" >&2
	exit 1
}
grep -Eq '[1-9][0-9]* on _MD layers' "$dir/cold.out" || {
	echo "harden-smoke: FAIL: abstract carries no macro-die obstructions" >&2
	cat "$dir/cold.out" >&2
	exit 1
}
grep -q 'MACRO ' "$dir/abs.lef" && grep -q 'PROPERTY abstract' "$dir/abs.lef" \
	&& grep -q 'PROPERTY arc' "$dir/abs.lef" && grep -q 'OBS' "$dir/abs.lef" || {
	echo "harden-smoke: FAIL: abstract LEF missing macro/properties/obstructions" >&2
	exit 1
}

echo "harden-smoke: warm harden + 3x3 parent array"
$run -array 3 >"$dir/warm.out" 2>"$dir/warm.err"
grep -q '(cache,' "$dir/warm.out" || {
	echo "harden-smoke: FAIL: warm run should reload the abstract from cache" >&2
	cat "$dir/warm.out" >&2
	exit 1
}
# The harden region alone.
grep -q 'stage cache .*: 1 hits, 0 misses, ' "$dir/warm.err" || {
	echo "harden-smoke: FAIL: warm stage-cache counters wrong" >&2
	cat "$dir/warm.err" >&2
	exit 1
}
grep -q 'timing closes: true' "$dir/warm.out" || {
	echo "harden-smoke: FAIL: hierarchical array did not close at the tile period" >&2
	cat "$dir/warm.out" >&2
	exit 1
}

echo "harden-smoke: warm 3x3 parent array with -check"
$run -array 3 -check >"$dir/check.out" 2>"$dir/check.err"
grep -q 'verification   clean' "$dir/check.out" || {
	echo "harden-smoke: FAIL: parent array verification not clean" >&2
	cat "$dir/check.out" >&2
	exit 1
}
# The harden region re-runs, and so do the two regions nested in it:
# each hit is re-run and confirmed bit-identical, none evicted.
grep -q 'stage cache .*: 3 hits, 0 misses, 0 stored (0 dup), 0 evicted, 0 errors,' "$dir/check.err" || {
	echo "harden-smoke: FAIL: -check should re-run every cached region clean" >&2
	cat "$dir/check.err" >&2
	exit 1
}

echo "harden-smoke: PASS"
