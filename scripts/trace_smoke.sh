#!/bin/sh
# trace-smoke: end-to-end check of the execution tracer.
# Runs a tiny flow with -trace, validates the Chrome trace-event JSON,
# feeds it back through `macro3d trace-report -in`, asserts the
# bottleneck table names the engine phases and the route span carries
# its segment and via-cut counts, checks that two identical
# traced runs export byte-identical JSON once timestamps are normalized
# (the determinism contract from DESIGN.md §14), and that -trace and
# -events on one recorder agree on the stages.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM

echo "trace-smoke: building cmd/macro3d"
$GO build -o "$dir/macro3d" ./cmd/macro3d

echo "trace-smoke: running tiny macro3d flow twice with -trace"
"$dir/macro3d" -flow macro3d -config tiny -seed 7 -j 4 -trace "$dir/run1.trace.json" >"$dir/run1.out" 2>&1
"$dir/macro3d" -flow macro3d -config tiny -seed 7 -j 4 -trace "$dir/run2.trace.json" >"$dir/run2.out" 2>&1

echo "trace-smoke: validating Chrome trace-event JSON shape"
for f in run1 run2; do
	[ -s "$dir/$f.trace.json" ] || { echo "trace-smoke: FAIL: $f.trace.json is empty" >&2; exit 1; }
	head -c 16 "$dir/$f.trace.json" | grep -q '{"traceEvents"' || {
		echo "trace-smoke: FAIL: $f.trace.json does not open with a traceEvents array" >&2
		head -c 200 "$dir/$f.trace.json" >&2
		exit 1
	}
	for needle in '"ph":"M"' '"ph":"X"' '"name":"worker 0"' '"name":"stages"' '"cat":"route"' '"cat":"place"' '"segments":' '"via_cuts":'; do
		grep -q "$needle" "$dir/$f.trace.json" || {
			echo "trace-smoke: FAIL: $f.trace.json lacks $needle" >&2
			exit 1
		}
	done
done

echo "trace-smoke: checking normalized determinism of the two runs"
norm() { sed 's/"ts":[0-9.e+-]*/"ts":0/g; s/"dur":[0-9.e+-]*/"dur":0/g' "$1"; }
norm "$dir/run1.trace.json" >"$dir/run1.norm"
norm "$dir/run2.trace.json" >"$dir/run2.norm"
cmp -s "$dir/run1.norm" "$dir/run2.norm" || {
	echo "trace-smoke: FAIL: normalized traces of identical runs differ" >&2
	diff "$dir/run1.norm" "$dir/run2.norm" | head -20 >&2
	exit 1
}

echo "trace-smoke: running trace-report on the recorded trace"
"$dir/macro3d" trace-report -in "$dir/run1.trace.json" -top 10 >"$dir/report.txt"
cat "$dir/report.txt"
grep -q '^trace: wall' "$dir/report.txt" || { echo "trace-smoke: FAIL: report lacks the wall-clock header" >&2; exit 1; }
grep -q 'amdahl@inf' "$dir/report.txt" || { echo "trace-smoke: FAIL: report lacks the Amdahl columns" >&2; exit 1; }
for phase in route place; do
	grep -q "^$phase " "$dir/report.txt" || {
		echo "trace-smoke: FAIL: report lacks the $phase phase row" >&2
		exit 1
	}
done
grep -q 'serial segments by wall-clock share' "$dir/report.txt" || {
	echo "trace-smoke: FAIL: report lacks the serial-segment table" >&2
	exit 1
}

echo "trace-smoke: run a 2d flow with -trace, then report on its trace"
"$dir/macro3d" -flow 2d -config tiny -seed 7 -j 4 -trace "$dir/run2d.trace.json" >/dev/null 2>"$dir/report2.err"
"$dir/macro3d" trace-report -in "$dir/run2d.trace.json" -top 5 >"$dir/report2.txt" 2>>"$dir/report2.err"
grep -q '^trace: wall' "$dir/report2.txt" || { echo "trace-smoke: FAIL: 2d report lacks the wall-clock header" >&2; cat "$dir/report2.err" >&2; exit 1; }

echo "trace-smoke: one run with -trace and -events on one recorder"
"$dir/macro3d" -flow macro3d -config tiny -seed 7 -j 4 -trace "$dir/both.trace.json" -events "$dir/both.jsonl" >"$dir/both.out" 2>&1
"$dir/macro3d" trace-report -in "$dir/both.trace.json" >/dev/null || { echo "trace-smoke: FAIL: both.trace.json does not read back" >&2; exit 1; }
awk 'substr($0, 1, 1) != "{" || substr($0, length($0), 1) != "}" { print "trace-smoke: FAIL: malformed event line: " $0; bad = 1 } END { exit bad }' "$dir/both.jsonl"
# Stage spans are the flow root's children, "macro3d/<stage>"; their
# slices are the complete events on the stages track.
spans=$(grep -c '"ev":"span_close",[^}]*"span":"macro3d/[^/"]*"' "$dir/both.jsonl" || true)
tid=$(sed -n 's/.*"tid":\([0-9]*\),"name":"thread_name","args":{"name":"stages"}.*/\1/p' "$dir/both.trace.json")
slices=$(grep -c "\"ph\":\"X\",\"pid\":1,\"tid\":$tid," "$dir/both.trace.json" || true)
[ -n "$tid" ] && [ "$spans" -gt 0 ] && [ "$spans" -eq "$slices" ] || {
	echo "trace-smoke: FAIL: $spans stage span_close events but $slices stages slices" >&2
	exit 1
}

echo "trace-smoke: checking PPA is byte-identical with tracing off"
"$dir/macro3d" -flow macro3d -config tiny -seed 7 -j 4 >"$dir/off.out" 2>&1
cmp -s "$dir/run1.out" "$dir/off.out" || {
	echo "trace-smoke: FAIL: -trace changed the flow's output" >&2
	diff "$dir/run1.out" "$dir/off.out" >&2
	exit 1
}

echo "trace-smoke: OK"
