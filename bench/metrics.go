package main

// metricDef declares one metric of the ledger. bound is the share of
// the parent's median by which an end-to-end metric may get worse
// before a change is rejected; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures (BENCHMARK.json
// run_seconds, passed back as --seconds).
const runSeconds = 12

// endToEnd are the gated metrics, the same seven on every workload.
// Wall and CPU time are not among them. On the 2-vCPU guest the host
// slows memory-bound code by up to 2× for ten minutes at a time (an
// ALU-bound probe stays flat meanwhile): ten runs through such a
// spell spread by 25–50 %, twice the widest bound the contract has,
// and no estimator inside a 12 s run can tell a slow host from a slow
// program (README.md, AGREEMENT.md). So time is reported per layer
// (bench.wall_s, bench.cpu_s and every stage) and the gates are the
// costs that repeat: bytes and objects allocated, the memory
// high-water mark and the three QoR figures. setup_s, which the
// contract requires, carries the widest bound.
var endToEnd = []metricDef{
	{"alloc_gb", "GB", "lower", 0.03},
	{"mallocs_m", "1e6", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"fclk_mhz", "MHz", "higher", 0.02},
	{"wl_m", "m", "lower", 0.02},
	{"emean_fj", "fJ", "lower", 0.02},
}

// perLayer are the metrics of single layers, taken in the traced run.
// Every workload reports all of them; a layer a workload does not
// reach reads 0.
var perLayer = []metricDef{
	// Stage time: where wall_s and cpu_s of table2 and baselines-j1 go.
	{Name: "piton.generate_s", Unit: "s", Better: "lower"},
	{Name: "floorplan.s", Unit: "s", Better: "lower"},
	{Name: "core.prepare_s", Unit: "s", Better: "lower"},
	{Name: "place.s", Unit: "s", Better: "lower"},
	{Name: "cts.s", Unit: "s", Better: "lower"},
	{Name: "route.s", Unit: "s", Better: "lower"},
	{Name: "partition.s", Unit: "s", Better: "lower"},
	{Name: "extract.s", Unit: "s", Better: "lower"},
	{Name: "opt.s", Unit: "s", Better: "lower"},
	{Name: "sta.s", Unit: "s", Better: "lower"},
	{Name: "power.s", Unit: "s", Better: "lower"},
	{Name: "flows.unattributed_s", Unit: "s", Better: "lower"},
	{Name: "flows.unattributed_ratio", Unit: "ratio", Better: "lower"},
	// Route.
	{Name: "route.nets_routed", Unit: "count", Better: "lower"},
	{Name: "route.negotiation_iters", Unit: "count", Better: "lower"},
	{Name: "route.ripup_nets", Unit: "count", Better: "lower"},
	{Name: "route.parallel_batches", Unit: "count", Better: "lower"},
	{Name: "route.batch_conflicts", Unit: "count", Better: "lower"},
	{Name: "route.worker_utilization", Unit: "ratio", Better: "higher"},
	{Name: "route.wl_m", Unit: "m", Better: "lower"},
	{Name: "route.overflow_gcells", Unit: "count", Better: "lower"},
	{Name: "route.f2f_bumps", Unit: "count", Better: "lower"},
	{Name: "route.serial_s", Unit: "s", Better: "lower"},
	{Name: "route.parallel_s", Unit: "s", Better: "lower"},
	{Name: "route.parallel_over_serial", Unit: "ratio", Better: "lower"},
	// Place.
	{Name: "place.hpwl_m", Unit: "m", Better: "lower"},
	{Name: "place.worker_utilization", Unit: "ratio", Better: "higher"},
	// Opt, ddb, sta.
	{Name: "opt.iterations", Unit: "count", Better: "lower"},
	{Name: "opt.rollbacks", Unit: "count", Better: "lower"},
	{Name: "opt.buffers", Unit: "count", Better: "lower"},
	{Name: "opt.resized", Unit: "count", Better: "lower"},
	{Name: "ddb.txn_commits", Unit: "count", Better: "higher"},
	{Name: "ddb.txn_rollbacks", Unit: "count", Better: "lower"},
	{Name: "ddb.commit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ddb.incremental_reroutes", Unit: "count", Better: "lower"},
	{Name: "sta.incremental_updates", Unit: "count", Better: "lower"},
	{Name: "sta.full_runs", Unit: "count", Better: "lower"},
	{Name: "extract.full_s", Unit: "s", Better: "lower"},
	{Name: "sta.full_s", Unit: "s", Better: "lower"},
	// Verify, core. Recorded, not gating.
	{Name: "verify.s", Unit: "s", Better: "lower"},
	{Name: "verify.violations", Unit: "count", Better: "lower"},
	{Name: "core.separate_s", Unit: "s", Better: "lower"},
	// Stash, flows: the cached workload.
	{Name: "stash.open_s", Unit: "s", Better: "lower"},
	{Name: "stash.hits", Unit: "count", Better: "higher"},
	{Name: "stash.misses", Unit: "count", Better: "lower"},
	{Name: "stash.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "stash.bytes_read_mb", Unit: "MB", Better: "lower"},
	{Name: "stash.puts", Unit: "count", Better: "lower"},
	{Name: "stash.bytes_written_mb", Unit: "MB", Better: "lower"},
	{Name: "flows.cached_stages", Unit: "count", Better: "higher"},
	{Name: "flows.recomputed_stages", Unit: "count", Better: "lower"},
	{Name: "flows.cached_load_s", Unit: "s", Better: "lower"},
	{Name: "flows.uncached_tail_s", Unit: "s", Better: "lower"},
	// Array.
	{Name: "flows.flat_verify_s", Unit: "s", Better: "lower"},
	{Name: "flows.hier_instantiate_s", Unit: "s", Better: "lower"},
	{Name: "piton.abut_s", Unit: "s", Better: "lower"},
	{Name: "piton.compose_abstract_s", Unit: "s", Better: "lower"},
	{Name: "cts.array_s", Unit: "s", Better: "lower"},
	{Name: "piton.array_instances", Unit: "count", Better: "lower"},
	// Size of the inputs, and the harness itself.
	{Name: "piton.instances", Unit: "count", Better: "lower"},
	{Name: "piton.nets", Unit: "count", Better: "lower"},
	{Name: "bench.wall_s", Unit: "s", Better: "lower"},
	{Name: "bench.cpu_s", Unit: "s", Better: "lower"},
	{Name: "bench.wall_median_s", Unit: "s", Better: "lower"},
	{Name: "bench.wall_max_s", Unit: "s", Better: "lower"},
	{Name: "bench.noise_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.reps", Unit: "count", Better: "higher"},
	{Name: "bench.gomaxprocs", Unit: "count", Better: "higher"},
}

// manifest is BENCHMARK.json, printed by -manifest so that the file
// and the program cannot drift apart (a test compares them).
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWL `json:"workloads"`
	EndToEnd   []metricDef  `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"` // no bound: exactly name, unit, better
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.name, w.why})
	}
	return m
}
