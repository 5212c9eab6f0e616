package flows

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"macro3d/internal/obs"
	"macro3d/internal/stash"
)

// Canonical stage names, in the order the flows execute them. Pseudo
// phases of the S2D/C2D baselines prefix these with "pseudo-".
const (
	StageGenerate  = "generate"
	StageFloorplan = "floorplan"
	StagePrepare   = "prepare"
	StagePlace     = "place"
	StageCTS       = "cts"
	StageRoute     = "route"
	StagePartition = "partition"
	StageTransfer  = "transfer"
	StageExtract   = "extract"
	StageOpt       = "opt"
	StageSTA       = "sta"
	StagePower     = "power"
	StageSeparate  = "separate"
	StageVerify    = "verify"
	StageCompose   = "compose"  // the tile array's and the hierarchical parent's first
	StageCondense  = "condense" // a hardening run's last: the abstract of the signed-off tile
)

// StageError is the typed failure of one flow stage. Every error
// escaping Run2D/RunS2D/RunC2D/RunMacro3D, VerifyTileArray and
// InstantiateArray is a *StageError; panics raised inside a stage are
// contained and carried in Cause with the goroutine stack captured at
// the panic site.
type StageError struct {
	Flow   string // "2D", "S2D", "BF S2D", "C2D", "Macro-3D", "array", "hier"
	Stage  string // stage name, e.g. "place", "pseudo-route"
	Seed   uint64 // the seed the failing stage ran on
	Config string // benchmark configuration name
	Cause  error
	Stack  []byte // non-nil iff the stage panicked
}

func (e *StageError) Error() string {
	var b []byte
	b = fmt.Appendf(b, "flows: %s/%s stage %q (seed %d): %v", e.Flow, e.Config, e.Stage, e.Seed, e.Cause)
	if len(e.Stack) > 0 {
		b = fmt.Appendf(b, " [panic contained]")
	}
	return string(b)
}

func (e *StageError) Unwrap() error { return e.Cause }

// PanicError carries a recovered stage panic as an error.
type PanicError struct {
	Value any
	Stack []byte
}

func (p *PanicError) Error() string { return fmt.Sprintf("panic: %v", p.Value) }

// StageRecord is one executed stage in a RunReport.
type StageRecord struct {
	Stage    string
	Seed     uint64 // the seed the stage ran on
	Duration time.Duration
	Panicked bool
	Cached   bool   // region restored from the stage cache, not run
	Err      string // empty on success
}

// RunReport is the instrumented trace of a flow run: every stage in
// execution order, whether the run completed, and the terminal error if
// it did not. Flows attach it to State.Trace, so a failed run still
// documents how far it got.
type RunReport struct {
	Flow      string
	Config    string
	Stages    []StageRecord
	Completed bool
	Err       *StageError // terminal failure, nil when Completed
}

// String renders a compact one-line-per-stage trace.
func (r *RunReport) String() string {
	var b []byte
	b = fmt.Appendf(b, "%s/%s: %d stages, completed=%v\n", r.Flow, r.Config, len(r.Stages), r.Completed)
	for _, s := range r.Stages {
		status := "ok"
		if s.Cached {
			status = "ok (cached)"
		}
		if s.Err != "" {
			status = s.Err
			if s.Panicked {
				status = "PANIC " + status
			}
		}
		b = fmt.Appendf(b, "  %-14s seed %-20d %10s  %s\n",
			s.Stage, s.Seed, fmtDuration(s.Duration), status)
	}
	return string(b)
}

// fmtDuration renders a stage duration with adaptive precision: the
// rounding unit follows the magnitude, so sub-millisecond stages of
// tiny configs render as e.g. "740µs" instead of collapsing to "0s".
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond).String()
	default:
		return d.String()
	}
}

// runner executes named stages on behalf of one flow run: context
// checks at stage boundaries, panic containment, stage timing on its own
// clock (the RunReport durations), and the AfterStage hook. Spans, and
// the timeline slices they record, exist only with Config.Obs:
// unobserved, a run of any length costs three objects.
type runner struct {
	flow  string
	cfg   Config
	ctx   context.Context
	st    *State
	trace *RunReport

	// span is the flow's root observability span; cur is the span of
	// the stage currently executing (valid inside stage closures via
	// r.obs()). Both are nil when Config.Obs is.
	span *obs.Span
	cur  *obs.Span

	// key is the checkpoint chain's current cache key, zero until the
	// first region derives the root (rootKey); caching is set while the
	// run participates in stage checkpointing (Config.cacheEnabled).
	key     stash.Key
	caching bool
}

// flowSlug maps a flow display name to its span-path segment:
// "Macro-3D" → "macro3d", "BF S2D" → "bfs2d".
func flowSlug(flow string) string {
	s := strings.ToLower(flow)
	s = strings.ReplaceAll(s, " ", "")
	return strings.ReplaceAll(s, "-", "")
}

func newRunner(ctx context.Context, flow string, cfg Config, st *State) *runner {
	if ctx == nil {
		ctx = context.Background()
	}
	name := cfg.Piton.Name
	if cfg.Generator != nil && name == "" {
		name = "custom"
	}
	r := &runner{
		flow: flow, cfg: cfg, ctx: ctx, st: st,
		trace:   &RunReport{Flow: flow, Config: name},
		caching: cfg.cacheEnabled(),
	}
	if cfg.Obs != nil {
		r.span = cfg.Obs.StartSpan(flowSlug(flow), obs.KV("config", name))
	}
	st.Trace = r.trace
	return r
}

// obs returns the span of the currently executing stage, the
// parent under which engines hang their phase spans and find the
// run's metric registry. Safe to call from stage closures only.
func (r *runner) obs() *obs.Span { return r.cur }

// stage is one entry of a flow's stage list: a leaf with a body, or a
// checkpoint region wrapping the sub-stages a cache hit skips.
type stage struct {
	name string
	body func() error

	// seedOff offsets the seed the body runs on from Config.Seed (a
	// placement's); the stage's record, span and error carry the sum.
	seedOff uint64

	// region is evaluated when the entry is reached, not when the list
	// is built, so it may read state that earlier stages produce.
	region func() checkpoint
	sub    []stage

	// on, when set, is the State this and the later stages work on.
	on *State
}

func do(name string, body func() error) stage { return stage{name: name, body: body} }

func region(spec func() checkpoint, sub ...stage) stage {
	return stage{region: spec, sub: sub}
}

// exec runs a stage list in order and stops at the first error. The
// outermost list sizes the report's stage records once.
func (r *runner) exec(list []stage) error {
	if r.trace.Stages == nil {
		r.trace.Stages = make([]StageRecord, 0, leaves(list))
	}
	for _, s := range list {
		if s.on != nil { // the S2D/C2D phase B; whichever State a flow returns carries the trace
			r.st, s.on.Trace = s.on, r.trace
		}
		var err error
		switch {
		case s.region != nil:
			err = r.checkpointed(s.region(), s.sub)
		default:
			err = r.run(s.name, r.cfg.Seed+s.seedOff, s.body)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// leaves is the number of records a cold run of list leaves in its
// report: one per stage outside a region.
func leaves(list []stage) int {
	n := 0
	for _, s := range list {
		n += max(1, leaves(s.sub))
	}
	return n
}

// run executes one stage body on seed, the seed it runs on.
func (r *runner) run(name string, seed uint64, body func() error) error {
	// Cancellation and deadlines are honoured at stage boundaries: a
	// flow returns within one stage of the context ending.
	if err := r.ctx.Err(); err != nil {
		r.record(name, seed, 0, err)
		return r.fail(name, seed, err)
	}
	if r.span != nil {
		r.cur = r.span.Child(name, obs.KV("seed", seed))
	}
	start := time.Now()
	err := contain(body)
	dur := time.Since(start)
	if err != nil {
		r.cur.SetAttr("err", err.Error())
	}
	r.cur.End()
	r.cur = nil
	r.cfg.Obs.Sample()
	r.record(name, seed, dur, err)
	if err != nil {
		return r.fail(name, seed, err)
	}
	if r.cfg.AfterStage != nil {
		// The hook (instrumentation, fault injection) is contained too:
		// a panicking hook fails the stage instead of crashing the
		// process.
		if hookErr := contain(func() error {
			r.cfg.AfterStage(r.flow, name, r.st)
			return nil
		}); hookErr != nil {
			r.record(name, seed, dur, hookErr)
			return r.fail(name, seed, hookErr)
		}
	}
	return nil
}

func (r *runner) record(stage string, seed uint64, dur time.Duration, err error) {
	rec := StageRecord{Stage: stage, Seed: seed, Duration: dur}
	if err != nil {
		var pe *PanicError
		rec.Err, rec.Panicked = err.Error(), errors.As(err, &pe)
	}
	r.trace.Stages = append(r.trace.Stages, rec)
}

func (r *runner) fail(stage string, seed uint64, cause error) error {
	se := &StageError{
		Flow: r.flow, Stage: stage, Seed: seed,
		Config: r.trace.Config, Cause: cause,
	}
	var pe *PanicError
	if errors.As(cause, &pe) {
		se.Stack = pe.Stack
	}
	r.trace.Completed = false
	r.trace.Err = se
	r.span.SetAttr("completed", false)
	r.span.SetAttr("failed_stage", stage)
	r.span.End()
	return se
}

// finish marks the trace complete and closes the flow span.
func (r *runner) finish() {
	r.trace.Completed = true
	r.span.SetAttr("completed", true)
	r.span.End()
	if reg := r.cfg.Obs.Registry(); reg != nil {
		reg.Counter("flow_runs_completed_total",
			"Flow runs that reached the end of their stage sequence.").Inc()
	}
	r.cfg.Obs.Sample()
}

// contain runs fn, converting a panic into a *PanicError with the
// stack captured at the panic site.
func contain(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return fn()
}
