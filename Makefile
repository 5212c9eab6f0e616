GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt build test vet bench-mod race fuzz equiv faults bench bench-flow bench-pairs benchall qor qor-check tables-check obs-smoke cache-smoke harden-smoke trace-smoke

## check: the full gate — gofmt, vet, build, unit tests, the bench/
## module's vet and tests, the race-enabled fault-injection suite, a
## bounded fuzz of the snapshot decoder, the published tables checked,
## then the observability, stage-cache, hardened-macro and
## execution-tracer smoke tests (what CI should run).
check: fmt vet build test bench-mod race fuzz tables-check obs-smoke cache-smoke harden-smoke trace-smoke

## fmt: fails on any Go file gofmt would rewrite, and names it.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l: these files need gofmt -w:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

## bench-mod: vet (which builds) and test the flow ledger's own module
## under bench/. The root's `./...` stops at a nested module, so without
## this step a change that breaks an API bench/ calls fails only when the
## benchmark is run.
bench-mod:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

## race: race-enabled run of the hardened-runner, fault-harness and
## incremental-engine packages. Includes internal/report, whose driver
## runs an experiment's cells concurrently (TestDriverIdenticalAtEveryWorkers,
## TestDriverCancelStartsNoFurtherCell), and the flows determinism
## harness (TestDeterminism), which under -race keeps the small tile's
## -j 1 reference and its checks run (four workers, Config.Check):
## it audits placement's and extraction's fanned-out phases and the
## incremental engine's journals for data races while holding PPA row,
## state digest and stage sequence to the reference. internal/ddb runs
## its transaction tests, the equivalence property among them (random
## edit bundles on the five flows' tiny signed-off states, the five in
## parallel), in seconds. internal/flows also runs 2D and Macro-3D
## at once over one byte-capped stage cache (TestConcurrentRunsMatchSerial:
## the stash's per-key locks and LRU under concurrent flows), and
## internal/stash has its own contention tests. internal/place rides along for the
## placer's own digest, determinism and quality tests (its three
## passes per iteration at Workers 2 and 4), internal/extract and internal/sta for
## their per-chunk and engine-owned scratch, internal/slab,
## internal/netlist and internal/piton for the slab-backed design records
## (netlist also for the by-name indexes built on a composed design's
## first lookup, from racing readers, and for copies of a sealed template
## editing their own indexes over its shared one; TestConcurrentRunsMatchSerial
## runs whole flows that way), internal/cell for the shared pin
## index under concurrent readers,
## internal/route for the slab-backed router against its oracle, internal/par for the worker
## team itself (the hand-off, the join and a worker's contained panic),
## and internal/obs/... for the recorder and the timeline tracks a span's
## End appends to.
race:
	$(GO) test -race ./internal/faults/ ./internal/report/ ./internal/obs/... ./internal/stash/ ./internal/extract/ ./internal/sta/ ./internal/ddb/ ./internal/slab/ ./internal/netlist/ ./internal/piton/ ./internal/cell/ ./internal/par/
	$(GO) test -race -timeout 30m ./internal/flows/ ./internal/opt/ ./internal/place/ ./internal/route/

## fuzz: ten seconds each of FuzzDecodeResult, FuzzDecodeAbstract,
## FuzzDecodeSignoff and FuzzDecodePlacement — the routing-result
## decoder, the harden cache's abstract decoder, the signoff snapshot's
## net and timing-report decoders and the placement snapshot's
## instance-state decoder on arbitrary bytes: no panic, no allocation
## sized by a corrupt count, and whatever decodes re-encodes to the same
## bytes — of FuzzUnframe, the stage cache's snapshot frame reader:
## no panic, a frame of any payload unframes to it, and a frame with any
## one byte flipped fails — and of FuzzReadChrome, the trace-report -in
## reader: no panic, allocation within 16× the input plus 64 kB, a
## re-export that is a fixed point, no negative time in its analysis —
## and of FuzzParseLEF and FuzzParseDEF, the LEF and DEF readers: no
## panic, allocation within 16× the input plus 64 kB.
## `go test` runs only their seed corpora (a
## good encoding each, TestDecodeResultCorrupt's table, the abstract
## decoder's two count bombs, the signoff tail's truncations, one
## impossible instance state of each kind, two frames and a cut one, a
## trace export, an off-microsecond slice and a negative duration; an
## excerpt of the tiny tile's LEF and DEF, a DIEAREA cut short and a
## second DESIGN).
## The engine minimizes every
## input that reaches new code, an execution per byte and 60 s by
## default: capped at 1 s so the ten seconds mutate. A failing input is
## written to the package's testdata/fuzz/ — commit it.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/flows/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAbstract$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/flows/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSignoff$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/flows/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePlacement$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/flows/
	$(GO) test -run '^$$' -fuzz '^FuzzUnframe$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/stash/
	$(GO) test -run '^$$' -fuzz '^FuzzReadChrome$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/obs/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzParseLEF$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/lefdef/
	$(GO) test -run '^$$' -fuzz '^FuzzParseDEF$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/lefdef/

## equiv: just the determinism harness — every flow's -j 1 reference
## against four workers with Config.Check, on the small tile,
## held to an identical PPA row, state digest and stage sequence, run
## under the race detector. A focused subset of what `make check`
## already covers.
equiv:
	$(GO) test -race -timeout 30m -run TestDeterminism -v ./internal/flows/

## obs-smoke: end-to-end observability check — tiny flow with -events
## and -obs-addr, live /metrics and /debug/vars scrapes, JSONL and
## Prometheus snapshot validation. Fails on any malformed output.
obs-smoke:
	GO="$(GO)" sh scripts/obs_smoke.sh

## cache-smoke: end-to-end stage-cache check — tiny flow cold, warm and
## warm with -check, asserting hit counters and byte-identical PPA
## output, then under a -cache-max-bytes cap (eviction, the cap on disk,
## byte-identical PPA), plus the -resume default directory.
cache-smoke:
	GO="$(GO)" sh scripts/cache_smoke.sh

## harden-smoke: end-to-end hierarchical-flow check — harden the tiny
## tile cold into the cache, reload it warm into a 3×3 parent array,
## asserting harden-cache counters, closure at the tile period and a
## well-formed abstract LEF export, then once more with -check: clean
## verification, and the cached abstract re-run bit-identical.
harden-smoke:
	GO="$(GO)" sh scripts/harden_smoke.sh

## trace-smoke: end-to-end execution-tracer check — tiny flow with
## -trace, Chrome trace-event JSON validation, normalized-determinism
## comparison of two identical runs, the trace-report bottleneck table,
## byte-identical flow output with tracing off, and one run with -trace
## and -events together whose stage span_close events and stages
## slices agree in number.
trace-smoke:
	GO="$(GO)" sh scripts/trace_smoke.sh

## faults: just the fault-injection matrix, verbosely.
faults:
	$(GO) test -race -v -run 'TestInjection|TestOffGrid|TestCleanFlows' ./internal/faults/

## bench: the optimizer benchmarks — TableII end to end plus the
## Optimize, rollback and STA-update micro-benchmarks (EngineUpdateTopo:
## the Update after a topology edit, alone; TxnReroute: one committed
## move-and-reroute transaction, alone) — the placed large-cache tile's
## place and route stages at one worker (Place: HPWL and the descent's
## iters/op; RouteDesign: WL, overflow, segments and via cuts) — the
## free-space kernels in
## internal/place (NewFreeSpace: the map opt builds on entry; Legalize:
## the small 2D tile's row map and sweep) — the pseudo-3D flows' tier
## partition in internal/partition (PartitionTiers: the tier split, the
## per-bin balance and the per-die legalization of a pseudo-placed small
## tile) — the design construction
## benchmarks (Generate small/large; TileCopy small/large, the copy of
## a tile template every flow run starts from; Abut 4×4), the stash-codec kernel
## (ResultCodec encode/decode of the small Macro-3D tile's routing
## result) and the whole-design sign-off kernels on the signed-off small
## tile and its flat 4×4 array (CTSBuild tile/array4x4, AnalyzeArray4x4:
## one full sta.Analyze), all three in internal/flows — and the maze A*
## kernel in internal/route (MazeRoute: 64 windowed searches on a
## congested grid with no negotiation history, 0 allocs/op) and the
## worker team's fork-join in internal/par (TeamChunks: one hand-off and
## join at two workers, 0 allocs/op) — with B/op
## and allocs/op. A second run adds the placer's two per-iteration
## kernels in internal/place at the default -benchtime, since at 1x a
## 30 µs kernel's time is timer noise (WLGradient: all an iteration
## spends on wirelength — exponentials, net pass, cell pass;
## PoissonSolve: the density field; both 0 allocs/op). The two runs
## are recorded as one machine-readable BENCH_opt.json. It ends by
## comparing the new file with the one it replaces, benchmark by
## benchmark (time/op; allocs/op beyond max(2, 0.1 %) of the old count,
## the runtime's own jitter at -benchtime 1x), failing on a regression
## that is not noise.
bench:
	{ $(GO) test -bench 'TableII|Optimize|EngineUpdateTopo|TxnReroute|^BenchmarkPlace$$|^BenchmarkRouteDesign$$|NewFreeSpace|Legalize|PartitionTiers|Generate|TileCopy|Abut4x4|ResultCodec|CTSBuild|AnalyzeArray4x4|MazeRoute|TeamChunks' -benchmem -count 5 -benchtime 1x -run '^$$' . ./internal/flows ./internal/place ./internal/partition ./internal/route ./internal/par && \
	  $(GO) test -bench '^BenchmarkWLGradient$$|^BenchmarkPoissonSolve$$' -benchmem -count 5 -run '^$$' ./internal/place; } | $(GO) run ./cmd/benchjson -o BENCH_opt.new.json
	cat BENCH_opt.new.json
	$(GO) run ./cmd/benchjson -compare BENCH_opt.json BENCH_opt.new.json; s=$$?; mv BENCH_opt.new.json BENCH_opt.json; exit $$s

## bench-flow: the flow ledger (bench/, gated by BENCHMARK.json) — the
## seven end-to-end metrics of each of the four workloads, one JSON line
## per workload, collected into the gitignored BENCH_flow.jsonl and
## appended as one row (commit, go version, nproc, GOMAXPROCS, the
## metrics per workload) to the committed trajectory BENCH_flow.json —
## one row per PR; a re-run at the same FLOW_COMMIT replaces its row.
## The numbers a perf claim in CHANGES.md cites. It ends by comparing
## the row with the one before it: the gated metrics' deltas per
## workload, failing when a deterministic one (heap counts, QoR) is
## worse than its bound in BENCHMARK.json. Any two rows:
## `go run ./cmd/benchjson -ledger BENCH_flow.json -compare PR22 PR23`.
FLOW_WORKLOADS = table2 baselines-j1 table2-warm array-verify
FLOW_COMMIT   ?= $(shell git describe --always --dirty)
bench-flow:
	rm -f BENCH_flow.jsonl
	for w in $(FLOW_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 12 --trace 0 >> BENCH_flow.jsonl || exit 1; \
	done
	cat BENCH_flow.jsonl
	$(GO) run ./cmd/benchjson -ledger BENCH_flow.json -commit $(FLOW_COMMIT) $(FLOW_WORKLOADS) < BENCH_flow.jsonl
	$(GO) run ./cmd/benchjson -ledger BENCH_flow.json -compare $(FLOW_COMMIT)

## bench-pairs: the flow ledger's workload WL at two revisions, judged on
## interleaved pairs — bench/ built from BASE (a `git archive` under
## .bench_build/pairs/base) and from the working tree, each run in its
## own checkout N times, the side that goes first alternating pair by
## pair — then `benchjson -pairs`: per gated metric of BENCHMARK.json
## each side's median [Q1–Q3], the pairs the change won and a verdict
## (gain: ≥ 9/10 pairs won and a median gap wider than the base's IQR).
## It exits 1 on a loss. The runs stay in .bench_build/pairs/runs.txt.
## e.g. `make bench-pairs BASE=HEAD~1 WL=table2-warm N=10`.
BASE ?= HEAD
WL   ?= table2
N    ?= 10
PAIRS = .bench_build/pairs
bench-pairs:
	rm -rf $(PAIRS) && mkdir -p $(PAIRS)/base
	git archive $(BASE) | tar -x -C $(PAIRS)/base
	cd $(PAIRS)/base && bash bench/run.sh --manifest > /dev/null
	bash bench/run.sh --manifest > /dev/null
	for i in $$(seq 1 $(N)); do \
		order="base new"; [ $$((i % 2)) = 1 ] || order="new base"; \
		for side in $$order; do \
			dir=.; [ $$side = new ] || dir=$(PAIRS)/base; \
			printf '%s ' $$side; \
			(cd $$dir && .bench_build/flowbench --workload $(WL) --seed 1 --seconds 12 --trace 0) || exit 1; \
		done; \
	done > $(PAIRS)/runs.txt
	$(GO) run ./cmd/benchjson -pairs < $(PAIRS)/runs.txt

## qor: the seed ensemble — `macro3d -experiment seeds`, Tables I and II
## and C2D over seeds 1–10 (70 flow runs) — and Tables I–III at seed 1
## (`-experiment table1|table2|table3`, which write their cells beside
## it) rewrite BENCH_qor.json; then the ensemble is held against the
## committed file with benchjson's paired-seed sign test per flow × tile
## and metric, failing when one is worse on nine seeds in ten. Commit the
## new file with the change that moved it; TestExperimentsEnsembleTable
## and TestExperimentsTablesIToIII then say which EXPERIMENTS.md cells it
## left stale.
qor:
	git show HEAD:BENCH_qor.json > BENCH_qor.old.json
	$(GO) run ./cmd/macro3d -experiment seeds
	for e in table1 table2 table3; do $(GO) run ./cmd/macro3d -experiment $$e -seed 1 > /dev/null || exit 1; done
	$(GO) run ./cmd/benchjson -compare BENCH_qor.old.json BENCH_qor.json; s=$$?; rm -f BENCH_qor.old.json; exit $$s

## tables-check: Tables I–III as the CLI prints them (`macro3d
## -experiment table1|table2|table3`), plain and with -check —
## independent sign-off verification, the optimizer's incremental state
## held to a from-scratch recompute every iteration — failing unless a
## checked run passes and its stdout is cmp-identical to the plain one.
## About 6 s on two cores. The experiments rewrite BENCH_qor.json where
## they run, so they run in a temporary directory.
tables-check:
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/macro3d ./cmd/macro3d && cd $$dir && \
	for e in table1 table2 table3; do \
		./macro3d -experiment $$e > $$e.plain && ./macro3d -experiment $$e -check > $$e.check && cmp $$e.plain $$e.check || exit 1; \
	done

## qor-check: the seed ensemble checked — `macro3d -experiment seeds
## -check`: Tables I and II and C2D over seeds 1–10 on both tiles, every
## flow under Config.Check. About 32 s on two cores, so not part of
## `make check`. Runs in a temporary directory, as tables-check does.
qor-check:
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/macro3d ./cmd/macro3d && cd $$dir && ./macro3d -experiment seeds -check > /dev/null

## benchall: every benchmark, human-readable.
benchall:
	$(GO) test -bench=. -benchmem
