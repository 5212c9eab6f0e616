package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"macro3d/internal/core"
	"macro3d/internal/cts"
	"macro3d/internal/extract"
	"macro3d/internal/flows"
	"macro3d/internal/geom"
	"macro3d/internal/obs"
	"macro3d/internal/piton"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
	"macro3d/internal/verify"
)

// span is one interval of the traced rep. Start and End are seconds
// since the run began; Parent is the id of the span that caused this
// one, -1 for a root. All spans of a run share its workload, and the
// spans of one flow call share its step.
type span struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Parent   int     `json:"parent"`
	Workload string  `json:"workload"`
	Step     string  `json:"step,omitempty"`
}

// tracer keeps the spans in memory; write puts them on disk once the
// run has ended.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
}

func (t *tracer) add(name, step string, parent int, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Workload: t.workload, Step: step,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// begin opens a span; end closes it.
func (t *tracer) begin(name, step string, parent int) int {
	now := time.Now()
	return t.add(name, step, parent, now, now)
}

func (t *tracer) end(id int) float64 {
	t.spans[id].End = time.Since(t.t0).Seconds()
	return t.spans[id].End - t.spans[id].Start
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, fn func() error) (float64, error) {
	id := t.begin(name, "", parent)
	err := fn()
	return t.end(id), err
}

func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), append(b, '\n'), 0o644)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children of one parent never
// overlap here: the flows run one stage at a time).
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			lo, hi := s.Start, s.End
			p := spans[s.Parent]
			if lo < p.Start {
				lo = p.Start
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				self[s.Parent] -= hi - lo
			}
		}
	}
	return self
}

// stageLayer maps a flow stage to the per-layer metric its time is
// booked on; the pseudo-design stages of S2D/C2D fold into their
// layer, transfer into partition.
func stageLayer(stage string) string {
	switch strings.TrimPrefix(stage, "pseudo-") {
	case flows.StageGenerate:
		return "piton.generate_s"
	case flows.StageFloorplan:
		return "floorplan.s"
	case flows.StagePrepare:
		return "core.prepare_s"
	case flows.StagePlace:
		return "place.s"
	case flows.StageCTS:
		return "cts.s"
	case flows.StageRoute:
		return "route.s"
	case flows.StagePartition, flows.StageTransfer:
		return "partition.s"
	case flows.StageExtract:
		return "extract.s"
	case flows.StageOpt:
		return "opt.s"
	case flows.StageSTA:
		return "sta.s"
	case flows.StagePower:
		return "power.s"
	}
	return ""
}

// cacheLoad prefixes the span of a region restored from the stage
// cache, so that it is not booked on the layer it replaced.
const cacheLoad = "cache-load:"

// tracedRep executes every step once more, in declaration order, with
// spans around each flow call and each of its stages, and with a
// fresh obs registry per step for the layers' own counts. It returns
// the rep's wall time and the outcomes, nil where a step returned an
// error.
func tracedRep(tr *tracer, wl *workload, pr *prepared, layer map[string]float64, log io.Writer) (float64, []*outcome) {
	rep := tr.begin("rep", "", -1)
	out := make([]*outcome, len(pr.steps))
	utilN := map[string]float64{}
	for i, s := range pr.steps {
		cfg := s.cfg
		rec := obs.New()
		cfg.Obs = rec
		sid := tr.begin("step", s.name, rep)
		last := time.Now()
		if wl.hook {
			cfg.AfterStage = func(_, stage string, st *flows.State) {
				now := time.Now()
				// The stage ends at this hook; its length is the
				// program's own record, so that what the runner spends
				// between stages stays visible as the step's self time.
				start := last
				if recs := st.Trace.Stages; len(recs) > 0 {
					if s := now.Add(-recs[len(recs)-1].Duration); s.After(start) {
						start = s
					}
				}
				tr.add(stage, s.name, sid, start, now)
				if stage == flows.StageRoute && st.Routes != nil {
					layer["route.wl_m"] += st.Routes.WL / 1e6
					layer["route.f2f_bumps"] += float64(st.Routes.F2FBumps)
					layer["route.overflow_gcells"] += float64(st.Routes.Overflow)
				}
				last = time.Now()
			}
		}
		o, err := s.run(cfg)
		stepEnd := time.Now()
		tr.end(sid)
		if err != nil {
			fmt.Fprintf(log, "FAIL %s, traced rep: %v\n", s.name, err)
			continue
		}
		out[i] = o
		if !wl.hook && o.state != nil && o.state.Trace != nil {
			// No hook on the cached workload: lay the program's stage
			// records end to end, finishing where the flow returned.
			recs := o.state.Trace.Stages
			at := stepEnd
			for j := len(recs) - 1; j >= 0; j-- {
				name := recs[j].Stage
				if recs[j].Cached {
					name = cacheLoad + name
				}
				start := at.Add(-recs[j].Duration)
				tr.add(name, s.name, sid, start, at)
				at = start
			}
		}
		foldRegistry(rec, layer, utilN)
		foldOutcome(o, layer)
	}
	for name, n := range utilN {
		layer[name] /= n
	}
	return tr.end(rep), out
}

// registryCounters maps the obs counters the ledger reads to their
// per-layer metric.
var registryCounters = map[string]string{
	"route_nets_routed_total":            "route.nets_routed",
	"route_negotiation_iterations_total": "route.negotiation_iters",
	"route_ripup_nets_total":             "route.ripup_nets",
	"route_parallel_batches_total":       "route.parallel_batches",
	"route_batch_conflicts_total":        "route.batch_conflicts",
	"opt_iterations_total":               "opt.iterations",
	"opt_rollbacks_total":                "opt.rollbacks",
	"ddb_txn_commits_total":              "ddb.txn_commits",
	"ddb_txn_rollbacks_total":            "ddb.txn_rollbacks",
	"ddb_incremental_reroutes_total":     "ddb.incremental_reroutes",
	"sta_incremental_updates_total":      "sta.incremental_updates",
	"sta_full_runs_total":                "sta.full_runs",
}

// foldRegistry adds one step's obs registry to the per-layer counts.
// Counters sum over steps; the two utilization gauges average.
func foldRegistry(rec *obs.Recorder, layer, utilN map[string]float64) {
	for _, m := range rec.Registry().Snapshot() {
		if to, ok := registryCounters[m.Name]; ok {
			layer[to] += m.Value
			continue
		}
		switch m.Name {
		case "place_hpwl_um":
			layer["place.hpwl_m"] += m.Value / 1e6
		case "route_worker_utilization_ratio":
			layer["route.worker_utilization"] += m.Value
			utilN["route.worker_utilization"]++
		case "place_worker_utilization_ratio":
			layer["place.worker_utilization"] += m.Value
			utilN["place.worker_utilization"]++
		}
	}
}

// foldOutcome adds what the step's own result says about the layers.
func foldOutcome(o *outcome, layer map[string]float64) {
	if o.ppa != nil {
		layer["opt.buffers"] += float64(o.ppa.Buffers)
		layer["opt.resized"] += float64(o.ppa.Resized)
	}
	if o.cache.Hits+o.cache.Misses > 0 {
		layer["stash.open_s"] += o.openS
		layer["stash.hits"] += float64(o.cache.Hits)
		layer["stash.misses"] += float64(o.cache.Misses)
		layer["stash.bytes_read_mb"] += float64(o.cache.BytesRead) / 1e6
	}
	if o.state != nil && o.state.Trace != nil && o.cache.Hits > 0 {
		for _, r := range o.state.Trace.Stages {
			if r.Cached {
				layer["flows.cached_stages"]++
				layer["flows.cached_load_s"] += r.Duration.Seconds()
			} else {
				layer["flows.recomputed_stages"]++
				layer["flows.uncached_tail_s"] += r.Duration.Seconds()
			}
		}
	}
	if o.arr != nil {
		layer["piton.array_instances"] += float64(len(o.arr.Design.Instances))
	}
}

// foldSpans books the traced rep's spans on the per-layer times:
// each stage span on its layer, each flow step's self time — what no
// stage span covers — on flows.unattributed_s. The two array steps
// have no stages and are layers themselves.
func foldSpans(spans []span, layer map[string]float64) {
	self := selfTimes(spans)
	steps := 0.0
	for i, s := range spans {
		switch {
		case s.Name == "step" && strings.HasPrefix(s.Step, "flat-"):
			layer["flows.flat_verify_s"] += self[i]
		case s.Name == "step" && strings.HasPrefix(s.Step, "hier-"):
			layer["flows.hier_instantiate_s"] += self[i]
		case s.Name == "step":
			steps += s.End - s.Start
			layer["flows.unattributed_s"] += self[i]
		case s.Step != "" && !strings.HasPrefix(s.Name, cacheLoad):
			if l := stageLayer(s.Name); l != "" {
				layer[l] += self[i]
			}
		}
	}
	if steps > 0 {
		layer["flows.unattributed_ratio"] = layer["flows.unattributed_s"] / steps
	}
}

// flowKernels times direct calls into single layers on the final
// state of Macro-3D on the large tile: the router from scratch at
// Workers 1 and at the default 0, full extraction, full STA, die
// separation and sign-off verification. verify is recorded and does
// not gate: at seed 1 the large tile already reports an overlap.
func flowKernels(tr *tracer, sz size, layer map[string]float64) error {
	root := tr.begin("kernels", "", -1)
	defer tr.end(root)
	cfg := flows.Config{Piton: sz.large, Seed: flowSeed, Workers: 1}
	var st *flows.State
	var md *core.MoLDesign
	if _, err := tr.timed("kernel-input:macro3d/"+sz.large.Name, root, func() (err error) {
		_, st, md, err = flows.RunMacro3D(cfg)
		return err
	}); err != nil {
		return err
	}
	reroute := func(workers int) func() error {
		return func() error {
			db := route.NewDB(st.Die, st.Beol, st.FP.RouteBlk, route.Options{Workers: workers})
			_, err := route.RouteDesign(st.Design, db)
			return err
		}
	}
	var err error
	if layer["route.serial_s"], err = tr.timed("route.serial", root, reroute(1)); err != nil {
		return err
	}
	if layer["route.parallel_s"], err = tr.timed("route.parallel", root, reroute(0)); err != nil {
		return err
	}
	layer["route.parallel_over_serial"] = layer["route.parallel_s"] / layer["route.serial_s"]

	t, err := tech.New28(6)
	if err != nil {
		return err
	}
	slow := t.CornerScaleFor(tech.CornerSlow)
	var ex *extract.Design
	layer["extract.full_s"], _ = tr.timed("extract.full", root, func() error {
		ex = extract.Extract(st.Design, st.Routes, st.DB, slow)
		return nil
	})
	if layer["sta.full_s"], err = tr.timed("sta.full", root, func() error {
		_, err := sta.Analyze(st.Design, ex, st.Report.MinPeriod, sta.Options{Corner: slow, Clock: st.Tree})
		return err
	}); err != nil {
		return err
	}
	var bumps []geom.Point
	if layer["core.separate_s"], err = tr.timed("core.separate", root, func() error {
		logic, _, err := core.Separate(md, st.Routes, st.DB)
		if err == nil {
			bumps = logic.Bumps
		}
		return err
	}); err != nil {
		return err
	}
	layer["verify.s"], _ = tr.timed("verify.full", root, func() error {
		layer["verify.violations"] = float64(verify.Full(st.Design, st.Die, st.Routes, bumps, t.F2F, nil).Total)
		return nil
	})
	return nil
}

// arrayKernels times the array layers on their own: abutment of the
// implemented tile, composition of the abstract, and the clock tree
// of the flat array the traced rep verified.
func arrayKernels(tr *tracer, hr *flows.HardenResult, flat *flows.ArrayReport, n int, layer map[string]float64) error {
	root := tr.begin("kernels", "", -1)
	defer tr.end(root)
	st := hr.State
	var err error
	if layer["piton.abut_s"], err = tr.timed("piton.abut", root, func() error {
		_, _, err := piton.Abut(st.Tile, st.Die, n, n)
		return err
	}); err != nil {
		return err
	}
	abs := hr.Abstract
	if layer["piton.compose_abstract_s"], err = tr.timed("piton.compose_abstract", root, func() error {
		_, _, err := piton.ComposeAbstract(hr.Tile, abs, geom.R(0, 0, abs.Width, abs.Height), n, n)
		return err
	}); err != nil {
		return err
	}
	arr := flat.Design
	src := flat.Die.LL()
	if p := arr.Port("clk_i"); p != nil {
		src = p.Loc
	}
	layer["cts.array_s"], _ = tr.timed("cts.array", root, func() error {
		cts.Build(arr, arr.Net("clk"), src, arr.Lib, st.Beol, cts.Options{})
		return nil
	})
	return nil
}
