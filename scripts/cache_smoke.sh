#!/bin/sh
# cache-smoke: end-to-end check of the content-addressed stage cache.
# Runs a tiny flow cold (populating the cache), warm (restoring every
# checkpoint by reading exactly the bytes the cold run wrote: one
# snapshot per region, each read once) and with -check, which re-runs
# every hit, asserting hit/miss counters and byte-identical PPA output;
# then under a -cache-max-bytes cap below the uncapped run's size (the
# largest snapshot's), asserting eviction, the cap on disk and
# byte-identical PPA; then that a capped invocation keeps every snapshot
# the invocation before it used (recency is last use on disk); then
# that a relative -cache-dir is created in the working directory and a
# second run over it is all hits. Fails on any mismatch.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

echo "cache-smoke: building cmd/macro3d"
$GO build -o "$dir/macro3d" ./cmd/macro3d

run="$dir/macro3d -flow macro3d -config tiny -seed 7"

echo "cache-smoke: cold run (empty cache)"
$run -cache-dir "$dir/stash" >"$dir/cold.out" 2>"$dir/cold.err"
grep -Eq 'stage cache .*: 0 hits, [1-9][0-9]* misses, [1-9][0-9]* stored' "$dir/cold.err" || {
	echo "cache-smoke: FAIL: cold run stats should show misses and stores, no hits" >&2
	cat "$dir/cold.err" >&2
	exit 1
}
ls "$dir/stash"/*.snap >/dev/null 2>&1 || { echo "cache-smoke: FAIL: no snapshots on disk" >&2; exit 1; }

echo "cache-smoke: warm run (every checkpoint restored)"
$run -cache-dir "$dir/stash" >"$dir/warm.out" 2>"$dir/warm.err"
grep -Eq 'stage cache .*: [1-9][0-9]* hits, 0 misses' "$dir/warm.err" || {
	echo "cache-smoke: FAIL: warm run stats should show hits and no misses" >&2
	cat "$dir/warm.err" >&2
	exit 1
}
cmp -s "$dir/cold.out" "$dir/warm.out" || {
	echo "cache-smoke: FAIL: warm PPA output differs from cold" >&2
	diff "$dir/cold.out" "$dir/warm.out" >&2 || true
	exit 1
}
written=$(sed -n 's/.* \([0-9][0-9]*\) B read, \([0-9][0-9]*\) B written$/\2/p' "$dir/cold.err")
read=$(sed -n 's/.* \([0-9][0-9]*\) B read, \([0-9][0-9]*\) B written$/\1/p' "$dir/warm.err")
[ -n "$written" ] && [ -n "$read" ] && [ "$read" -eq "$written" ] || {
	echo "cache-smoke: FAIL: the warm run read ${read:-?} B, the cold run wrote ${written:-?} B; each snapshot should be read once" >&2
	exit 1
}

echo "cache-smoke: -check pass (every hit re-run)"
$run -cache-dir "$dir/stash" -check >"$dir/verify.out" 2>"$dir/verify.err"
grep -Eq 'stage cache .*: [1-9][0-9]* hits, .* 0 errors' "$dir/verify.err" || {
	echo "cache-smoke: FAIL: verify run should confirm every hit without errors" >&2
	cat "$dir/verify.err" >&2
	exit 1
}
cmp -s "$dir/cold.out" "$dir/verify.out" || {
	echo "cache-smoke: FAIL: verify PPA output differs from cold" >&2
	exit 1
}

echo "cache-smoke: -cache-max-bytes below the uncapped run's size"
full=$(cat "$dir/stash"/*.snap | wc -c)
# The largest snapshot's size: a cap that holds any one, not all.
cap=$(for f in "$dir/stash"/*.snap; do wc -c <"$f"; done | sort -n | tail -n 1)
$run -cache-dir "$dir/capped" -cache-max-bytes "$cap" >"$dir/capped.out" 2>"$dir/capped.err"
grep -Eq 'stage cache .* [1-9][0-9]* evicted,' "$dir/capped.err" || {
	echo "cache-smoke: FAIL: a $cap B cap under a $full B run should evict" >&2
	cat "$dir/capped.err" >&2
	exit 1
}
kept=$(cat "$dir/capped"/*.snap | wc -c)
[ "$kept" -le "$cap" ] || { echo "cache-smoke: FAIL: $kept B of snapshots kept under a $cap B cap" >&2; exit 1; }
cmp -s "$dir/cold.out" "$dir/capped.out" || {
	echo "cache-smoke: FAIL: capped PPA output differs from cold" >&2
	exit 1
}

echo "cache-smoke: a capped invocation keeps what the one before it used"
$run -cache-dir "$dir/lru" >/dev/null 2>&1
need=$(cat "$dir/lru"/*.snap | wc -c)
$dir/macro3d -flow macro3d -config tiny -seed 8 -cache-dir "$dir/lru" >/dev/null 2>&1
# The seed-7 snapshots, written first, are used last: a cap that holds
# only them must evict the seed-8 ones at open, and leave the run all
# hits.
$run -cache-dir "$dir/lru" -cache-max-bytes $((need * 3)) >/dev/null 2>&1
$run -cache-dir "$dir/lru" -cache-max-bytes "$need" >"$dir/lru.out" 2>"$dir/lru.err"
grep -Eq 'stage cache .*: [1-9][0-9]* hits, 0 misses' "$dir/lru.err" || {
	echo "cache-smoke: FAIL: a $need B cap evicted snapshots the invocation before it used" >&2
	cat "$dir/lru.err" >&2
	exit 1
}
cmp -s "$dir/cold.out" "$dir/lru.out" || {
	echo "cache-smoke: FAIL: capped warm PPA output differs from cold" >&2
	exit 1
}

echo "cache-smoke: a relative -cache-dir in the working directory"
(cd "$dir" && ./macro3d -flow macro3d -config tiny -seed 7 -cache-dir .macro3d-stash >/dev/null 2>&1)
[ -d "$dir/.macro3d-stash" ] || { echo "cache-smoke: FAIL: -cache-dir .macro3d-stash did not create it" >&2; exit 1; }
(cd "$dir" && ./macro3d -flow macro3d -config tiny -seed 7 -cache-dir .macro3d-stash >resume.out 2>resume.err)
grep -Eq 'stage cache .*: [1-9][0-9]* hits, 0 misses' "$dir/resume.err" || {
	echo "cache-smoke: FAIL: second run over .macro3d-stash should be all hits" >&2
	cat "$dir/resume.err" >&2
	exit 1
}
cmp -s "$dir/cold.out" "$dir/resume.out" || {
	echo "cache-smoke: FAIL: PPA output over .macro3d-stash differs from cold" >&2
	exit 1
}

echo "cache-smoke: OK"
