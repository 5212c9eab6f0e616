package faults_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"macro3d/internal/core"
	"macro3d/internal/faults"
	"macro3d/internal/flows"
	"macro3d/internal/geom"
	"macro3d/internal/obs"
	"macro3d/internal/piton"
	"macro3d/internal/stash"
	"macro3d/internal/tech"
	"macro3d/internal/verify"
)

// assertFaultTrail parses the run's JSONL event stream and checks the
// injected fault left its audit pair: a fault_injected event naming
// the class and stage, and a fault_caught event naming the catching
// mechanism.
func assertFaultTrail(t *testing.T, events, class, stage string) {
	t.Helper()
	var sawInjected, sawCaught bool
	for _, line := range strings.Split(strings.TrimSpace(events), "\n") {
		var ev struct {
			Ev    string         `json:"ev"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("malformed JSONL event line %q: %v", line, err)
		}
		switch ev.Ev {
		case "fault_injected":
			if ev.Attrs["class"] == class && ev.Attrs["stage"] == stage {
				sawInjected = true
			}
		case "fault_caught":
			if ev.Attrs["class"] == class && ev.Attrs["caught_by"] != "" &&
				ev.Attrs["caught_by"] != "uncaught" {
				sawCaught = true
			}
		}
	}
	if !sawInjected {
		t.Errorf("event trail lacks fault_injected for %s at %s", class, stage)
	}
	if !sawCaught {
		t.Errorf("event trail lacks fault_caught for %s", class)
	}
}

// runNamed runs a flow by name and hands back its State.
func runNamed(name string) func(context.Context, flows.Config) (*flows.State, error) {
	return func(ctx context.Context, cfg flows.Config) (*flows.State, error) {
		_, st, _, err := flows.Run(ctx, name, cfg)
		return st, err
	}
}

// flowVariants drives each of the flows the paper compares through a
// uniform signature for the injection matrix.
var flowVariants = []struct {
	name string
	run  func(ctx context.Context, cfg flows.Config) (*flows.State, error)
}{
	{"2D", runNamed("2d")},
	{"Macro-3D", runNamed("macro3d")},
	{"S2D", runNamed("s2d")},
	{"BF S2D", runNamed("bfs2d")},
	{"C2D", runNamed("c2d")},
}

// TestCleanFlowsPassVerify is the control arm: with no corruption
// injected, every flow variant must finish its full trace including
// independent sign-off.
func TestCleanFlowsPassVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five tiny flows")
	}
	for _, fv := range flowVariants {
		fv := fv
		t.Run(fv.name, func(t *testing.T) {
			t.Parallel()
			cfg := flows.Config{Piton: piton.Tiny(), Seed: 7, Check: true}
			st, err := fv.run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("clean %s run failed sign-off: %v", fv.name, err)
			}
			if st.Trace == nil || !st.Trace.Completed {
				t.Fatalf("clean %s run left an incomplete trace", fv.name)
			}
		})
	}
}

// TestInjectionMatrix injects every corruption class into every flow
// variant and asserts each is caught: by the verify stage with the
// class's violation kind, or by an earlier stage as a typed
// *flows.StageError. A corruption that returns err == nil slipped
// through sign-off; a corruption that panics out of the flow escaped
// containment. Both fail the test.
func TestInjectionMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full flows × faults matrix of tiny flows")
	}
	for _, class := range faults.Classes() {
		class := class
		for _, fv := range flowVariants {
			fv := fv
			t.Run(class.Name+"/"+fv.name, func(t *testing.T) {
				t.Parallel()
				injected := false
				// Record the run so the injection leaves an auditable
				// JSONL trail alongside the span stream.
				var events bytes.Buffer
				rec := obs.New()
				rec.SetSink(&events)
				cfg := flows.Config{Piton: piton.Tiny(), Seed: 7, Check: true, Obs: rec}
				cfg.AfterStage = func(flow, stage string, st *flows.State) {
					if stage != class.Stage || injected {
						return
					}
					if !class.Inject(st) {
						t.Errorf("injector %s found no target after %s", class.Name, stage)
						return
					}
					injected = true
					faults.TagInjected(rec, fv.name, class.Name, stage)
				}
				st, err := fv.run(context.Background(), cfg)
				if !injected {
					t.Fatalf("stage %q never ran, corruption was not injected", class.Stage)
				}
				if err == nil {
					t.Fatalf("corruption %s in %s flow went undetected", class.Name, fv.name)
				}
				faults.TagCaught(rec, fv.name, class.Name, faults.CaughtBy(err))
				if err := rec.Close(); err != nil {
					t.Fatalf("event sink: %v", err)
				}
				assertFaultTrail(t, events.String(), class.Name, class.Stage)
				var se *flows.StageError
				if !errors.As(err, &se) {
					t.Fatalf("failure is not a typed *StageError: %T %v", err, err)
				}
				if st == nil || st.Trace == nil || st.Trace.Completed {
					t.Fatalf("failed run must leave an incomplete trace, got %+v", st)
				}
				switch {
				case se.Stage == flows.StageVerify:
					var ve *verify.Error
					if !errors.As(err, &ve) {
						t.Fatalf("verify stage failed without a *verify.Error: %v", err)
					}
					if class.Kind == "" {
						t.Fatalf("%s was expected to fail before verify, got %v", class.Name, err)
					}
					found := false
					for _, v := range ve.Report.Violations {
						if v.Kind == class.Kind {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("verify caught %s but without kind %q: %v",
							class.Name, class.Kind, err)
					}
				case class.Name == "nan-parasitics":
					if se.Stage != flows.StageExtract {
						t.Fatalf("NaN parasitics must fail the extract stage, failed %q: %v", se.Stage, err)
					}
					if !strings.Contains(err.Error(), "non-finite") {
						t.Fatalf("extract failure does not name the non-finite quantity: %v", err)
					}
				default:
					// Degraded gracefully before verify (e.g. die
					// separation rejecting a degenerate macro) — the
					// typed StageError with full attribution suffices.
					if se.Flow == "" || se.Stage == "" {
						t.Fatalf("StageError lacks attribution: %+v", se)
					}
				}
			})
		}
	}
}

// TestOffGridBumpsCaught checks the bump corruption against the
// verifier directly: a legal bonding grid passes, the corrupted copy
// is flagged as a pitch violation.
func TestOffGridBumpsCaught(t *testing.T) {
	f2f := tech.DefaultF2F()
	var bumps []geom.Point
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			bumps = append(bumps, geom.Pt(float64(i)*f2f.Pitch, float64(j)*f2f.Pitch))
		}
	}
	clean := &verify.Report{}
	verify.BumpRules(clean, bumps, f2f)
	if !clean.Clean() {
		t.Fatalf("legal bonding grid flagged: %v", clean.Violations)
	}
	bad := &verify.Report{}
	verify.BumpRules(bad, faults.OffGridBumps(bumps, f2f), f2f)
	if bad.Clean() {
		t.Fatal("off-grid bump accepted")
	}
	for _, v := range bad.Violations {
		if v.Kind != "bump-pitch" {
			t.Fatalf("unexpected violation kind: %v", v)
		}
	}
}

// TestOffGridBumpsOnRealDesign corrupts the bump list of a genuine
// Macro-3D separation and asserts the verifier rejects it while
// accepting the original.
func TestOffGridBumpsOnRealDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a tiny Macro-3D flow")
	}
	cfg := flows.Config{Piton: piton.Tiny(), Seed: 7}
	_, st, md, err := flows.RunMacro3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logicPart, _, err := core.Separate(md, st.Routes, st.DB)
	if err != nil {
		t.Fatal(err)
	}
	f2f := tech.DefaultF2F()
	clean := &verify.Report{}
	verify.BumpRules(clean, logicPart.Bumps, f2f)
	if !clean.Clean() {
		t.Fatalf("real bump list flagged: %v", clean.Violations)
	}
	bad := &verify.Report{}
	verify.BumpRules(bad, faults.OffGridBumps(logicPart.Bumps, f2f), f2f)
	if bad.Clean() {
		t.Fatal("corrupted real bump list accepted")
	}
}

// TestPanicHookContained injects a panic after placement and asserts
// the flow runner converts it into a typed *flows.StageError carrying
// the panic stack and a *flows.PanicError cause, rather than letting it
// escape the flow.
func TestPanicHookContained(t *testing.T) {
	cfg := flows.Config{Piton: piton.Tiny(), Seed: 1}
	cfg.AfterStage = func(_, st string, _ *flows.State) {
		if st == flows.StagePlace {
			panic("injected panic after place")
		}
	}
	_, _, _, err := flows.Run(context.Background(), "2d", cfg)
	if err == nil {
		t.Fatal("injected panic produced no error")
	}
	var se *flows.StageError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a *flows.StageError: %v", err)
	}
	if se.Stage != flows.StagePlace {
		t.Errorf("StageError.Stage = %q, want %q", se.Stage, flows.StagePlace)
	}
	if len(se.Stack) == 0 {
		t.Error("contained panic lost its stack")
	}
	var pe *flows.PanicError
	if !errors.As(se.Cause, &pe) {
		t.Errorf("StageError.Cause is not a *flows.PanicError: %v", se.Cause)
	}
}

// TestCorruptSnapshots asserts the cache-corruption injection flips
// every snapshot into a checksummed miss: reads never return the
// corrupt bytes, the entries are evicted, and a clean re-Put restores
// service — corruption costs a recompute, never a wrong result.
func TestCorruptSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, err := stash.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]stash.Key, 3)
	payload := bytes.Repeat([]byte("snapshot"), 64)
	for i := range keys {
		keys[i] = stash.NewKey([]byte{byte(i)})
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
	}
	n, err := faults.CorruptSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(keys) {
		t.Fatalf("corrupted %d snapshots, want %d", n, len(keys))
	}
	for i, k := range keys {
		if got, ok := s.Get(k); ok {
			t.Errorf("key %d: corrupt snapshot served as a hit (%d bytes)", i, len(got))
		}
	}
	// Every corrupt entry was evicted from disk by the failed read.
	left, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d corrupt snapshots left on disk after eviction", len(left))
	}
	// Recompute path: a clean re-Put restores hits.
	for _, k := range keys {
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, payload) {
			t.Error("re-Put after corruption did not restore the entry")
		}
	}
}

// TestCorruptSnapshotsEmptyDir is the degenerate case: nothing to
// corrupt is not an error.
func TestCorruptSnapshotsEmptyDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	n, err := faults.CorruptSnapshots(dir)
	if err != nil || n != 0 {
		t.Fatalf("CorruptSnapshots on empty dir = (%d, %v), want (0, nil)", n, err)
	}
}
