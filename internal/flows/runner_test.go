package flows

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"macro3d/internal/par"
	"macro3d/internal/piton"
	"macro3d/internal/stash"
)

func TestPerturbSeed(t *testing.T) {
	if PerturbSeed(42, 1) != 42 {
		t.Fatal("attempt 1 must use the seed unchanged")
	}
	a2, a3 := PerturbSeed(42, 2), PerturbSeed(42, 3)
	if a2 == 42 || a3 == 42 || a2 == a3 {
		t.Fatalf("retry seeds not distinct: %d %d", a2, a3)
	}
	if a2 != PerturbSeed(42, 2) {
		t.Fatal("perturbation not deterministic")
	}
}

func TestPanicContainedAsStageError(t *testing.T) {
	cfg := Config{
		Generator: func() (*piton.Tile, error) { panic("boom: synthetic generator fault") },
	}
	_, st, err := Run2D(cfg)
	if err == nil {
		t.Fatal("panicking generator did not fail the flow")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a *StageError: %T %v", err, err)
	}
	if se.Stage != StageGenerate || se.Flow != "2D" {
		t.Fatalf("wrong stage attribution: %+v", se)
	}
	if len(se.Stack) == 0 {
		t.Fatal("contained panic lost its stack")
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "boom: synthetic generator fault" {
		t.Fatalf("panic value not preserved: %v", err)
	}
	if st == nil || st.Trace == nil || st.Trace.Completed {
		t.Fatal("failed run must leave an incomplete trace")
	}
	if !st.Trace.Stages[len(st.Trace.Stages)-1].Panicked {
		t.Fatal("trace did not record the panic")
	}
}

// TestWorkerPanicContained: a panic in a fan-out chunk on a resident
// worker — not on the stage goroutine — surfaces on the caller once the
// fork-join ends, so the stage's contain turns it into a *PanicError
// carrying the original value instead of the process dying.
func TestWorkerPanicContained(t *testing.T) {
	var team par.Team
	team.Start(2, nil)
	defer team.Close()
	err := contain(func() error {
		team.Chunks("test/panic", 2, func(w, lo, hi int) {
			if w == 1 {
				panic("boom: worker 1")
			}
		})
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "boom: worker 1" {
		t.Fatalf("worker panic not contained as its value: %v", err)
	}
}

func TestCancelledContextStopsAtStageBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st, _, err := Run(ctx, "2d", Config{Piton: piton.Tiny(), Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageGenerate {
		t.Fatalf("cancellation not attributed to the first stage: %v", err)
	}
	if st.Trace == nil || len(st.Trace.Stages) != 1 {
		t.Fatalf("pre-cancelled run executed stages: %+v", st.Trace)
	}
}

func TestCancelMidFlowReturnsWithinOneStage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a partial tiny flow")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Piton: piton.Tiny(), Seed: 1}
	cfg.AfterStage = func(flow, stage string, st *State) {
		if stage == StagePlace {
			cancel()
		}
	}
	_, st, _, err := Run(ctx, "2d", cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The cancel fired after "place" completed; the very next stage
	// boundary (cts) must observe it.
	if last := st.Trace.LastStage(); last != StageCTS {
		t.Fatalf("flow ran past the cancellation boundary: last stage %q\n%s", last, st.Trace)
	}
}

func TestSeededRetryPerturbsSeedAndRecordsAttempts(t *testing.T) {
	cfg := Config{Piton: piton.Tiny(), Seed: 9, Retry: RetryPolicy{MaxAttempts: 3}}.withDefaults()
	st := &State{}
	r := newRunner(context.Background(), "test", cfg, st)
	var seeds []uint64
	err := r.exec([]stage{seeded(StagePlace, 9, func(seed uint64) error {
		seeds = append(seeds, seed)
		if len(seeds) < 3 {
			return fmt.Errorf("synthetic stochastic failure %d", len(seeds))
		}
		return nil
	})})
	if err != nil {
		t.Fatalf("stage failed despite retry budget: %v", err)
	}
	if len(seeds) != 3 || seeds[0] != 9 || seeds[1] == 9 || seeds[2] == 9 || seeds[1] == seeds[2] {
		t.Fatalf("retry seeds wrong: %v", seeds)
	}
	if len(st.Trace.Stages) != 3 {
		t.Fatalf("every attempt must be recorded, got %d", len(st.Trace.Stages))
	}
	for i, rec := range st.Trace.Stages {
		if rec.Attempt != i+1 || rec.Seed != seeds[i] {
			t.Fatalf("attempt record %d wrong: %+v", i, rec)
		}
	}
	if st.Trace.Stages[0].Err == "" || st.Trace.Stages[2].Err != "" {
		t.Fatalf("attempt outcomes wrong: %+v", st.Trace.Stages)
	}
}

// TestRunnerAllocs bounds what the runner itself allocates on an
// unobserved run (Obs and Trace nil): its own record, the report and the
// report's stage records, however long the list — no span, timeline
// argument, error target or record growth per stage. The tile array and
// the hierarchical parent run through it inside a ledger rep of ≈1 100
// objects, so a per-stage object shows there.
func TestRunnerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are not the runner's")
	}
	cfg := Config{Piton: piton.Tiny()}.withDefaults()
	list := make([]stage, 10)
	for i := range list {
		list[i] = do(fmt.Sprint("s", i), func() error { return nil })
	}
	st := &State{}
	allocs := testing.AllocsPerRun(50, func() {
		r := newRunner(context.Background(), "test", cfg, st)
		if err := r.exec(list); err != nil {
			t.Fatal(err)
		}
		r.finish()
	})
	if allocs > 5 {
		t.Fatalf("a 10-stage list allocates %v objects in the runner, want ≤ 5", allocs)
	}
	if len(st.Trace.Stages) != 10 || !st.Trace.Completed {
		t.Fatalf("trace %+v", st.Trace)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	cfg := Config{Piton: piton.Tiny(), Seed: 9, Retry: RetryPolicy{MaxAttempts: 2}}.withDefaults()
	r := newRunner(context.Background(), "test", cfg, &State{})
	calls := 0
	err := r.exec([]stage{seeded(StagePlace, 9, func(seed uint64) error {
		calls++
		return fmt.Errorf("always fails")
	})})
	var se *StageError
	if !errors.As(err, &se) || se.Attempt != 2 || calls != 2 {
		t.Fatalf("budget handling wrong: calls=%d err=%v", calls, err)
	}
	if se.Seed != PerturbSeed(9, 2) {
		t.Fatalf("StageError must carry the failing attempt's seed, got %d", se.Seed)
	}
}

// TestPanickingAfterStageHookIsContained: a hook that panics once a
// stage completes fails that stage with a *StageError carrying the stack
// and a *PanicError cause; the process keeps running.
func TestPanickingAfterStageHookIsContained(t *testing.T) {
	cfg := Config{Piton: piton.Tiny(), Seed: 1}
	cfg.AfterStage = func(flow, stage string, st *State) {
		if stage == StageFloorplan {
			panic("hook fault")
		}
	}
	_, _, err := Run2D(cfg)
	var se *StageError
	if !errors.As(err, &se) || len(se.Stack) == 0 {
		t.Fatalf("hook panic not contained as StageError: %v", err)
	}
	if se.Stage != StageFloorplan {
		t.Errorf("StageError.Stage = %q, want %q", se.Stage, StageFloorplan)
	}
	var pe *PanicError
	if !errors.As(se.Cause, &pe) {
		t.Errorf("StageError.Cause is not a *PanicError: %v", se.Cause)
	}
}

func TestCleanTinyFlowTraceCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full tiny flow")
	}
	cfg := Config{Piton: piton.Tiny(), Seed: 5, Verify: true}
	_, st, err := Run2D(cfg)
	if err != nil {
		t.Fatalf("clean tiny 2D flow failed: %v", err)
	}
	if st.Trace == nil || !st.Trace.Completed || st.Trace.Err != nil {
		t.Fatalf("trace not completed: %+v", st.Trace)
	}
	want := []string{StageGenerate, StageFloorplan, StagePlace, StageCTS, StageRoute,
		StageExtract, StageOpt, StageSTA, StagePower, StageVerify}
	var got []string
	for _, rec := range st.Trace.Stages {
		got = append(got, rec.Stage)
	}
	if len(got) != len(want) {
		t.Fatalf("stage sequence %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage sequence %v, want %v", got, want)
		}
	}
}

// TestRunReportSubMillisecondDurations pins the adaptive-precision
// rendering: a sub-millisecond stage (the norm on tiny configs) must
// not collapse to "0s" in the trace, and every magnitude keeps at
// least two significant digits.
func TestRunReportSubMillisecondDurations(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{737 * time.Microsecond, "737µs"},
		{737*time.Microsecond + 432*time.Nanosecond, "737.43µs"},
		{950 * time.Nanosecond, "950ns"},
		{12*time.Millisecond + 345*time.Microsecond, "12.35ms"},
		{3*time.Second + 456*time.Millisecond, "3.46s"},
		{2*time.Minute + 3*time.Second, "2m3s"},
	}
	for _, c := range cases {
		if got := fmtDuration(c.d); got != c.want {
			t.Errorf("fmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}

	rep := &RunReport{Flow: "2D", Config: "tiny", Completed: true, Stages: []StageRecord{
		{Stage: StagePlace, Attempt: 1, Seed: 7, Duration: 737 * time.Microsecond},
	}}
	s := rep.String()
	if strings.Contains(s, " 0s ") || strings.Contains(s, "\t0s") {
		t.Errorf("sub-millisecond stage rendered as 0s:\n%s", s)
	}
	if !strings.Contains(s, "737µs") {
		t.Errorf("trace does not show the sub-ms duration:\n%s", s)
	}

	// With Obs nil the runner opens no span; stage and cache-hit records
	// are still timed (the ledger's flows.cached_load_s reads them).
	store, err := stash.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Piton: piton.Tiny(), Seed: 7, Cache: store}.withDefaults()
	short := func() { time.Sleep(time.Microsecond) }
	list := []stage{region(func() checkpoint {
		return checkpoint{
			name: "region",
			save: func(e *stash.Enc) error { e.Int(1); return nil },
			load: func(dec *stash.Dec) error { dec.Int(); short(); return dec.Done() },
		}
	}, do("sub", func() error { short(); return nil }))}
	for _, want := range []string{"sub", "region*"} {
		st := &State{}
		if err := newRunner(context.Background(), "test", cfg, st).exec(list); err != nil {
			t.Fatal(err)
		}
		if got := renderStages(st.Trace); got != want || st.Trace.Stages[0].Duration <= 0 {
			t.Errorf("unobserved run recorded %q in %v, want %q in a non-zero time", got, st.Trace.Stages[0].Duration, want)
		}
	}
}
