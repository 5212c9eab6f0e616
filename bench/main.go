// Command bench is the flow ledger: it runs one workload of the
// macro3d flows for a fixed time, checks what they produce, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// of one traced rep (--trace 1) as a JSON object on the last line of
// its output. Every layer is measured from outside, through the
// flows' public functions, flows.Config.AfterStage, Config.Obs,
// FlowState.Trace and stash.Store.Stats. See README.md.
//
//	bash bench/run.sh --workload table2 --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -agree 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// minReps is the least number of timed reps of a run, however short
// --seconds is: the per-step minimum needs a few executions to have
// seen one undisturbed. maxReps stops a workload with cheap reps
// (table2-warm) from spending the whole budget on ever more of them.
const (
	minReps = 3
	maxReps = 20
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	out      string
}

func main() {
	var o options
	var agree int
	var printManifest bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: table2, baselines-j1, table2-warm or array-verify")
	flag.Int64Var(&o.seed, "seed", 1, "orders the steps of every rep; the flows themselves always run at flow seed 1")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long to measure")
	traceN := flag.Int("trace", 0, "1 adds a traced rep and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.size, "size", "paper", "paper (the paper's tiles) or tiny (smoke test)")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for trace-<workload>.json and scratch state")
	flag.IntVar(&agree, "agree", 0, "run two interleaved sets of N runs per workload and compare them against the bounds")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json")
	flag.Parse()
	o.trace = *traceN != 0

	switch {
	case printManifest:
		b, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Println(string(b))
	case agree > 0:
		if err := runAgree(agree, o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	default:
		res, err := run(o, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		b, _ := json.Marshal(res)
		fmt.Println(string(b))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// run executes one workload and returns its result. Progress and the
// reasons of failed checks go to log.
func run(o options, log io.Writer) (*result, error) {
	wl := findWorkload(o.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	sz, ok := sizes[o.size]
	if !ok {
		return nil, fmt.Errorf("unknown size %q", o.size)
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	scratch := filepath.Join(o.out, fmt.Sprintf("scratch-%s-%d-%d", wl.name, o.seed, os.Getpid()))
	defer os.RemoveAll(scratch)

	// Set-up, several times over: generate the input tile, then what
	// the workload needs on top. setup_s is the median, and the last
	// set-up is the one measured.
	var pr *prepared
	var insts, nets int
	setupS := make([]float64, wl.setups)
	for i := range setupS {
		t0 := time.Now()
		var err error
		if insts, nets, err = tileSize(sz.small); err == nil {
			pr, err = wl.setup(sz, filepath.Join(scratch, fmt.Sprint(i)))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setupS[i] = time.Since(t0).Seconds()
	}

	m := measure(pr, o.seed, o.seconds, log)
	res := &result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]value{}}

	if !o.trace {
		vals := map[string]float64{
			"alloc_gb":    median(m.alloc) / 1e9,
			"mallocs_m":   median(m.mallocs) / 1e6,
			"peak_rss_mb": peakRSSMB(),
			"setup_s":     median(setupS),
			"fclk_mhz":    m.qor.fclkMHz,
			"wl_m":        m.qor.wlM,
			"emean_fj":    m.qor.emeanFJ,
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
		}
		res.Correct = res.Failed == 0
		return res, nil
	}

	layer := map[string]float64{}
	tr := &tracer{t0: time.Now(), workload: wl.name}
	tracedWall, out := tracedRep(tr, wl, pr, layer, log)
	res.Attempted += len(pr.steps)
	failed := judge(pr, out, m.ref, "traced rep", log)
	if pr.kernels != nil && failed == 0 {
		res.Attempted++
		if err := pr.kernels(tr, out, layer); err != nil {
			failed++
			fmt.Fprintf(log, "FAIL kernels: %v\n", err)
		}
	}
	res.Failed += failed
	foldSpans(tr.spans, layer)
	if err := tr.write(o.out); err != nil {
		return nil, err
	}

	layer["piton.instances"], layer["piton.nets"] = float64(insts), float64(nets)
	if n := layer["stash.hits"] + layer["stash.misses"]; n > 0 {
		layer["stash.hit_ratio"] = layer["stash.hits"] / n
	}
	layer["stash.puts"] = float64(pr.setup.Puts)
	layer["stash.bytes_written_mb"] = float64(pr.setup.BytesWritten) / 1e6
	if n := layer["ddb.txn_commits"] + layer["ddb.txn_rollbacks"]; n > 0 {
		layer["ddb.commit_ratio"] = layer["ddb.txn_commits"] / n
	}
	wall := sumOfMins(m.wall)
	totals := repTotals(m.wall)
	layer["bench.wall_s"], layer["bench.cpu_s"] = wall, sumOfMins(m.cpu)
	layer["bench.wall_median_s"] = median(totals)
	layer["bench.wall_max_s"] = maxOf(totals)
	if wall > 0 {
		layer["bench.noise_ratio"] = median(totals)/wall - 1
		layer["bench.trace_overhead_ratio"] = tracedWall/wall - 1
	}
	layer["bench.reps"] = float64(len(totals))
	layer["bench.gomaxprocs"] = float64(procs)
	for _, d := range perLayer {
		res.Metrics[d.Name] = value{layer[d.Name], d.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// judge applies every check to one rep's outcomes (nil where the
// step returned an error) and returns how many steps failed. The
// first outcome of a step becomes the reference in ref that every
// later one must reproduce.
func judge(pr *prepared, out, ref []*outcome, what string, log io.Writer) int {
	for i, o := range out {
		if o == nil {
			continue
		}
		checkOutcome(o)
		if ref[i] == nil {
			ref[i] = o
		} else if o.digest != ref[i].digest {
			o.fail("result differs from the first one:\n now   %s\n first %s", o.digest, ref[i].digest)
		}
	}
	if pr.check != nil {
		pr.check(out)
	}
	failed := 0
	for i, o := range out {
		if o == nil {
			failed++ // the error is already in the log
		} else if o.err != "" {
			failed++
			fmt.Fprintf(log, "FAIL %s, %s: %s\n", pr.steps[i].name, what, o.err)
		}
	}
	return failed
}

// measurement is what the timed reps produced.
type measurement struct {
	wall, cpu [][]float64 // [step][rep]
	alloc     []float64   // bytes allocated per rep
	mallocs   []float64   // heap objects allocated per rep
	qor       qor         // aggregate over the steps
	ref       []*outcome  // first outcome of every step
	attempted int
	failed    int
}

// measure runs reps of the steps until another would pass the time
// budget, at least minReps. seed orders the steps inside every rep:
// each step then meets different neighbours and heap states across
// reps, which the per-step minimum is there to see through.
func measure(pr *prepared, seed int64, seconds float64, log io.Writer) *measurement {
	n := len(pr.steps)
	m := &measurement{wall: make([][]float64, n), cpu: make([][]float64, n), ref: make([]*outcome, n)}
	rng := rand.New(rand.NewSource(seed))
	var ms runtime.MemStats
	start := time.Now()
	for rep := 0; ; rep++ {
		if rep >= minReps {
			elapsed := time.Since(start).Seconds()
			if rep >= maxReps || elapsed+elapsed/float64(rep) > seconds {
				break
			}
		}
		out := make([]*outcome, n)
		runtime.ReadMemStats(&ms)
		alloc0, mallocs0 := ms.TotalAlloc, ms.Mallocs
		for _, i := range rng.Perm(n) {
			s := pr.steps[i]
			m.attempted++
			w := startWatch()
			o, err := s.run(s.cfg)
			wall, cpu := w.stop()
			if err != nil {
				fmt.Fprintf(log, "FAIL %s, rep %d: %v\n", s.name, rep, err)
				continue
			}
			m.wall[i] = append(m.wall[i], wall)
			m.cpu[i] = append(m.cpu[i], cpu)
			fmt.Fprintf(log, "rep %d %s: wall %.4f s, cpu %.4f s\n", rep, s.name, wall, cpu)
			o.slim()
			out[i] = o
		}
		runtime.ReadMemStats(&ms)
		m.alloc = append(m.alloc, float64(ms.TotalAlloc-alloc0))
		m.mallocs = append(m.mallocs, float64(ms.Mallocs-mallocs0))
		m.failed += judge(pr, out, m.ref, fmt.Sprintf("rep %d", rep), log)
	}
	var fclk, emean []float64
	for _, o := range m.ref {
		if o == nil {
			continue
		}
		fclk = append(fclk, o.qor.fclkMHz)
		emean = append(emean, o.qor.emeanFJ)
		m.qor.wlM += o.qor.wlM
	}
	m.qor.fclkMHz, m.qor.emeanFJ = geomean(fclk), geomean(emean)
	return m
}
