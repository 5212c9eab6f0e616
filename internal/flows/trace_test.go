package flows

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"macro3d/internal/obs"
	"macro3d/internal/obs/trace"
	"macro3d/internal/piton"
	"macro3d/internal/stash"
)

// tracedRun executes the tiny Macro-3D flow with an execution tracer
// attached to its recorder and returns its State and the tracer, for the
// tests that read the timeline.
func tracedRun(t *testing.T) (*State, *trace.Tracer) {
	t.Helper()
	tr := trace.New()
	rec := obs.New()
	rec.SetTimeline(tr)
	cfg := Config{Piton: piton.Tiny(), Seed: 7, Workers: 4, Check: true, Obs: rec}
	_, st, _, err := RunMacro3D(cfg)
	if err != nil {
		t.Fatalf("traced run failed: %v", err)
	}
	return st, tr
}

// TestTraceChromeExportIsDeterministic is the golden-determinism
// contract at the flow level: two identical runs export byte-identical
// Chrome trace JSON once wall-clock timestamps and durations are
// normalized — same tracks in the same order, same slices in the same
// order, same step ids and args. This is what makes traces diffable
// across commits.
func TestTraceChromeExportIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two tiny flows")
	}
	export := func() []byte {
		t.Helper()
		_, tr := tracedRun(t)
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		return trace.NormalizeChrome(buf.Bytes())
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				lo := max(0, i-120)
				t.Fatalf("normalized Chrome exports diverge at byte %d:\nrun1: …%s\nrun2: …%s",
					i, a[lo:min(len(a), i+120)], b[lo:min(len(b), i+120)])
			}
		}
		t.Fatalf("normalized Chrome exports differ in length: %d vs %d bytes", len(a), len(b))
	}
}

// TestTraceCoversFlowStructure checks the recorded timeline has the
// shape the analyzer and the timeline viewer rely on: a stage track
// naming every executed stage in order, per-worker engine tracks, and
// an analyzer report with route and place phases plus serial segments.
func TestTraceCoversFlowStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a tiny flow")
	}
	st, tr := tracedRun(t)

	byName := map[string][]trace.Slice{}
	for _, trk := range tr.Tracks() {
		byName[trk.Name()] = trk.Slices()
	}
	var stageNames []string
	for _, sl := range byName["stages"] {
		stageNames = append(stageNames, sl.Name)
	}
	var want []string
	for _, s := range st.Trace.Stages {
		want = append(want, s.Stage)
	}
	if !reflect.DeepEqual(stageNames, want) {
		t.Errorf("stage track does not match RunReport:\ntrack:  %v\nreport: %v", stageNames, want)
	}
	if len(byName["worker 0"]) == 0 {
		t.Error("no slices on worker 0's track")
	}

	rep := trace.Analyze(tr)
	if rep.WallNS <= 0 {
		t.Fatalf("analyzer wall clock %d", rep.WallNS)
	}
	phases := map[string]bool{}
	for _, ph := range rep.Phases {
		phases[ph.Phase] = true
		if ph.Occupancy < 0 || ph.Occupancy > 1 {
			t.Errorf("phase %s occupancy %v out of range", ph.Phase, ph.Occupancy)
		}
		if ph.SerialFrac < 0 || ph.SerialFrac > 1 {
			t.Errorf("phase %s serial fraction %v out of range", ph.Phase, ph.SerialFrac)
		}
	}
	for _, p := range []string{"route", "place"} {
		if !phases[p] {
			t.Errorf("analyzer report lacks the %s phase (got %v)", p, rep.Phases)
		}
	}
	if len(rep.Serial) == 0 {
		t.Error("analyzer found no serial segments in a full flow run")
	}
}

// TestTimelineMatchesSpanTree: with the JSONL sink and the timeline on
// one recorder, one begin/end per stage attempt reaches both. Cold, the
// stage span_close sequence, the stages track's slice names and the
// RunReport's stages are one list; warm, against the stage cache the
// cold run filled, they still are, and every restored region is one
// cache-category slice, its span tagged hit.
func TestTimelineMatchesSpanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two tiny flows")
	}
	cache, err := stash.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		var events bytes.Buffer
		tr := trace.New()
		rec := obs.New()
		rec.SetSink(&events)
		rec.SetTimeline(tr)
		cfg := tinyCacheCfg()
		cfg.Obs, cfg.Cache = rec, cache
		_, st, _, err := RunMacro3D(cfg)
		if err != nil {
			t.Fatalf("%s run: %v", pass, err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		var spans, slices, report, cacheSlices, cached, restores []string
		var root int64
		for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
			var e struct {
				Ev, Span   string
				ID, Parent int64
				Attrs      struct{ Cache string }
			}
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("malformed JSONL line %q: %v", line, err)
			}
			switch {
			case e.Ev == "span_open" && e.Parent == 0:
				root = e.ID
			case e.Ev == "span_close" && e.Parent == root:
				spans = append(spans, strings.TrimPrefix(e.Span, "macro3d/"))
				if e.Attrs.Cache != "" {
					restores = append(restores, e.Attrs.Cache)
				}
			}
		}
		if want := []string{"hit", "hit"}; pass == "warm" && !reflect.DeepEqual(restores, want) {
			t.Errorf("warm: restored spans tagged %v, want %v", restores, want)
		}
		for _, sl := range tr.Track("stages").Slices() {
			slices = append(slices, sl.Name)
			if sl.Cat == "cache" {
				cacheSlices = append(cacheSlices, sl.Name)
			}
		}
		for _, rec := range st.Trace.Stages {
			report = append(report, rec.Stage)
			if rec.Cached {
				cached = append(cached, rec.Stage)
			}
		}
		if !reflect.DeepEqual(spans, report) || !reflect.DeepEqual(slices, report) {
			t.Errorf("%s: stage lists differ:\nspans:  %v\nslices: %v\nreport: %v", pass, spans, slices, report)
		}
		if !reflect.DeepEqual(cacheSlices, cached) || (len(cached) > 0) != (pass == "warm") {
			t.Errorf("%s: cache slices %v, restored regions %v", pass, cacheSlices, cached)
		}
	}
}
