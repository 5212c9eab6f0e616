GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt build test noasm vet loc bench-mod race fuzz equiv faults bench bench-pairs benchall qor qor-check tables-check obs-smoke cache-smoke harden-smoke trace-smoke

## check: the full gate — gofmt, vet, build, unit tests, the placer
## without its vector kernel, the bench/
## module's vet and tests, the race-enabled fault-injection suite, a
## bounded fuzz of the snapshot decoder, the published tables checked,
## then the observability, stage-cache, hardened-macro and
## execution-tracer smoke tests (what CI should run).
check: fmt vet build test noasm bench-mod race fuzz tables-check obs-smoke cache-smoke harden-smoke trace-smoke

## fmt: fails on any Go file gofmt would rewrite, and names it.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l: these files need gofmt -w:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

## noasm: the placer without its AVX2 kernels (internal/place/*_amd64.s:
## the exponentials and the net pass). `go vet` on arm64 builds the
## pure-Go fallback, offline; under GODEBUG=cpu.fma=off math.Exp takes
## its plain path, the exponential kernel's probe shuts the kernels'
## gate, and the kernel and descent tests must pass on the scalar Go
## alone. (TestPlaceDigest is not among them: its pinned placements are
## those of math.Exp's FMA path.) `make vet`'s asmdecl pass checks the
## kernels' frames against their Go declarations.
noasm:
	GOARCH=arm64 $(GO) vet ./internal/place
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/place -run 'Exp|Descent'

## loc: the size of the Go code outside bench/, as ROADMAP.md quotes it
## at each re-anchor: its non-test lines, then all its lines, tests
## included. Counts the files in git's index.
loc:
	@echo "non-test $$(git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@echo "all      $$(git ls-files '*.go' | grep -v '^bench/' | xargs cat | wc -l)"

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
## the stash's per-key locks and its trims, which rank the directory's
## snapshots by modification time, under concurrent flows), and
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

## fuzz: ten seconds each of FuzzDecodeResult, FuzzDecodeSignoff and
## FuzzDecodePlacement — the routing-result decoder, the signoff
## snapshot's net and timing-report decoders and the placement snapshot's
## instance-state decoder on arbitrary bytes: no panic, no allocation
## sized by a corrupt count, and whatever decodes re-encodes to the same
## bytes — of FuzzUnframe, the stage cache's snapshot frame reader:
## no panic, a frame of any payload unframes to it, and a frame with any
## one byte flipped fails — and of FuzzReadChrome, the trace-report -in
## reader: no panic, allocation within 16× the input plus 64 kB, a
## re-export that is a fixed point, no negative time in its analysis —
## and of FuzzParseLEF and FuzzParseDEF, the LEF and DEF readers (the
## LEF one also reads the harden cache's abstracts): no panic,
## allocation within 16× the input plus 64 kB — and of
## FuzzComposeTags, the composer's proof of new names: up to eight tags
## are refused exactly when one is a prefix of another, and otherwise
## compose to names distinct per kind, each found under its name, with a
## name of the composer's own refused exactly when a tag prefixes it —
## and of FuzzReadPairs, the reader of bench-pairs' runs.txt: no panic,
## any line but a side (base or new) and a correct run's JSON line an
## error, and what it accepts an equal, non-zero number of runs a side.
## `go test` runs only their seed corpora (a
## good encoding each, TestDecodeResultCorrupt's table, the signoff
## tail's truncations, one
## impossible instance state of each kind, two frames and a cut one, a
## trace export, an off-microsecond slice and a negative duration; an
## excerpt of the tiny tile's LEF and DEF, a DIEAREA cut short and a
## second DESIGN; the empty tag, equal tags, a tag prefixing another
## and tags sharing a prefix; a pair of runs, blank and CRLF lines, an
## unknown side, a tab for the space, a failed run and an unpaired one).
## The engine minimizes every
## input that reaches new code, an execution per byte and 60 s by
## default: capped at 1 s so the ten seconds mutate. A failing input is
## written to the package's testdata/fuzz/ — commit it.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/flows/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSignoff$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/flows/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePlacement$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/flows/
	$(GO) test -run '^$$' -fuzz '^FuzzUnframe$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/stash/
	$(GO) test -run '^$$' -fuzz '^FuzzReadChrome$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/obs/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzParseLEF$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/lefdef/
	$(GO) test -run '^$$' -fuzz '^FuzzParseDEF$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/lefdef/
	$(GO) test -run '^$$' -fuzz '^FuzzComposeTags$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz '^FuzzReadPairs$$' -fuzztime 10s -fuzzminimizetime 1s ./cmd/benchjson/

## equiv: just the determinism harness — every flow's -j 1 reference
## against four workers with Config.Check, on the small tile,
## held to an identical PPA row, state digest and stage sequence, run
## under the race detector. A focused subset of what `make check`
## already covers.
equiv:
	$(GO) test -race -timeout 30m -run TestDeterminism -v ./internal/flows/

## obs-smoke: end-to-end observability check — tiny flow with -events
## and -obs-addr, live /metrics (the registry's one rendering) and
## /debug/vars scrapes, JSONL and Prometheus snapshot validation. Fails
## on any malformed output.
obs-smoke:
	GO="$(GO)" sh scripts/obs_smoke.sh

## cache-smoke: end-to-end stage-cache check — tiny flow cold, warm and
## warm with -check, asserting hit counters and byte-identical PPA
## output, then under a -cache-max-bytes cap (eviction, the cap on disk,
## byte-identical PPA), plus a relative -cache-dir made in the working
## directory.
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
## comparison of two identical runs, the trace-report -in bottleneck
## table (of a macro3d run's trace and of a 2d run's), byte-identical
## flow output with tracing off, and one run with -trace
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
## are recorded as one machine-readable BENCH_opt.new.json. It ends by
## comparing the new file with the committed BENCH_opt.json, benchmark by
## benchmark (time/op; allocs/op beyond max(2, 0.1 %) of the old count,
## the runtime's own jitter at -benchtime 1x). Only when the comparison
## passes does the new file replace the committed one; a regression that
## is not noise exits non-zero and leaves BENCH_opt.new.json beside it
## for inspection.
bench:
	{ $(GO) test -bench 'TableII|Optimize|EngineUpdateTopo|TxnReroute|^BenchmarkPlace$$|^BenchmarkRouteDesign$$|NewFreeSpace|Legalize|PartitionTiers|Generate|TileCopy|Abut4x4|ResultCodec|CTSBuild|AnalyzeArray4x4|MazeRoute|TeamChunks' -benchmem -count 5 -benchtime 1x -run '^$$' . ./internal/flows ./internal/place ./internal/partition ./internal/route ./internal/par && \
	  $(GO) test -bench '^BenchmarkWLGradient$$|^BenchmarkPoissonSolve$$' -benchmem -count 5 -run '^$$' ./internal/place; } | $(GO) run ./cmd/benchjson -o BENCH_opt.new.json
	cat BENCH_opt.new.json
	$(GO) run ./cmd/benchjson -compare BENCH_opt.json BENCH_opt.new.json
	mv BENCH_opt.new.json BENCH_opt.json

## bench-pairs: the flow ledger's workload WL at two revisions, judged on
## interleaved pairs on one host — the ledger's one record and verdict,
## the numbers a perf claim in CHANGES.md cites — bench/ built from BASE
## (a `git archive` under .bench_build/pairs/base) and from the working
## tree, each run in its own checkout N times, the side that goes first
## alternating pair by pair — then `benchjson -pairs`: per gated metric of BENCHMARK.json
## each side's median [Q1–Q3], the pairs the change won and a verdict
## (gain: ≥ 9/10 pairs won and a median gap wider than the base's IQR;
## no change: a gap inside that IQR, with neither side winning ≥ 9/10).
## It exits 1 on a loss. The runs stay in .bench_build/pairs/runs.txt,
## and the verdict table is appended as one row to the committed
## BENCH_pairs.json: BASE's revision, the working tree's (`git describe
## --dirty`), WL, N, the host, and per metric the medians, quartiles,
## pairs won and verdict; a re-run of the same three replaces its row,
## but a row whose change is a `-dirty` tree is never replaced (a second
## uncommitted change at one HEAD has the same name): remove it by hand.
## TRACE=1 runs traced reps instead: the verdicts are then on the run's
## wall and CPU time and on each stage's time, with no bound, and fail
## nothing.
## e.g. `make bench-pairs BASE=HEAD~1 WL=table2-warm N=10`.
BASE  ?= HEAD
WL    ?= table2
N     ?= 10
TRACE ?= 0
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
			(cd $$dir && .bench_build/flowbench --workload $(WL) --seed 1 --seconds 12 --trace $(TRACE)) || exit 1; \
		done; \
	done > $(PAIRS)/runs.txt
	$(GO) run ./cmd/benchjson -pairs -ledger BENCH_pairs.json $(WL) $$(git rev-parse --short $(BASE)) $$(git describe --always --dirty) < $(PAIRS)/runs.txt

## RENDERED: every experiment but the seed ensemble that writes its cells
## into BENCH_qor.json and renders a block of EXPERIMENTS.md from them
## (`macro3d -experiment NAME`); qor and tables-check run each of them.
RENDERED = table1 table2 table3 isoperf sweepblockage sweeppitch heterotech macropins

## qor: the seed ensemble — `macro3d -experiment seeds`, Tables I and II
## and C2D over seeds 1–10 (70 flow runs) — and every RENDERED experiment
## at seed 1, which write their cells beside it, rewrite BENCH_qor.json;
## then the ensemble is held against the committed file with benchjson's
## paired-seed sign test per flow × tile and metric, failing when one is
## worse on nine seeds in ten. Each run also re-renders EXPERIMENTS.md's
## tables from the merged file; commit both files with the change that
## moved them.
qor:
	git show HEAD:BENCH_qor.json > BENCH_qor.old.json
	$(GO) run ./cmd/macro3d -experiment seeds
	for e in $(RENDERED); do $(GO) run ./cmd/macro3d -experiment $$e -seed 1 > /dev/null || exit 1; done
	$(GO) run ./cmd/benchjson -compare BENCH_qor.old.json BENCH_qor.json; s=$$?; rm -f BENCH_qor.old.json; exit $$s

## tables-check: every RENDERED experiment as the CLI prints it
## (`macro3d -experiment NAME`), plain and with -check — independent
## sign-off verification, the optimizer's incremental state held to a
## from-scratch recompute every iteration — failing unless a checked run
## passes and its stdout is cmp-identical to the plain one, and the plain
## one to the experiment's rendered block in EXPERIMENTS.md. Every
## experiment is checked; the target fails at the end, naming each one
## that failed. About 25 s on two cores, the build included. The
## experiments rewrite BENCH_qor.json where they run, so they run in a
## temporary directory.
tables-check:
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o $$dir/macro3d ./cmd/macro3d && cd $$dir && \
	failed=; for e in $(RENDERED); do \
		sed -n "/^<!-- rendered:$$e -->$$/,/^<!-- \/rendered -->$$/p" $(CURDIR)/EXPERIMENTS.md | sed '1d;$$d' > $$e.doc; \
		./macro3d -experiment $$e > $$e.plain && ./macro3d -experiment $$e -check > $$e.check && \
		cmp $$e.plain $$e.check && cmp $$e.plain $$e.doc || failed="$$failed $$e"; \
	done; \
	[ -z "$$failed" ] || { echo "tables-check: failed:$$failed" >&2; exit 1; }

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
