package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"macro3d/internal/obs"
	"macro3d/internal/obs/trace"
)

// rawEvent mirrors the JSONL line shape for test-side decoding.
type rawEvent struct {
	T          int64          `json:"t"`
	Ev         string         `json:"ev"`
	ID         int64          `json:"id"`
	Parent     int64          `json:"parent"`
	Span       string         `json:"span"`
	Metric     string         `json:"metric"`
	Value      float64        `json:"value"`
	DurNS      int64          `json:"dur_ns"`
	AllocBytes uint64         `json:"alloc_bytes"`
	Attrs      map[string]any `json:"attrs"`
}

func decodeEvents(t *testing.T, buf string) []rawEvent {
	t.Helper()
	var out []rawEvent
	for _, line := range strings.Split(strings.TrimSpace(buf), "\n") {
		if line == "" {
			continue
		}
		var ev rawEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("malformed JSONL line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// TestSpanTreeJSONL opens a three-level span tree with metric samples
// interleaved and checks the event stream: well-formed JSON per line,
// monotonic timestamps, parent links matching the tree, durations and
// attributes on close events.
func TestSpanTreeJSONL(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.New()
	rec.SetSink(&buf)

	c := rec.Registry().Counter("test_ops_total", "ops")
	root := rec.StartSpan("macro3d", obs.KV("config", "tiny"))
	stage := root.Child("route")
	phase := stage.Child("rip-up-iter", obs.KV("iter", 1))
	c.Inc()
	rec.Sample()
	phase.SetAttr("overflow", 3)
	phase.End()
	phase.End() // idempotent
	stage.End()
	root.SetAttr("completed", true)
	root.End()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	evs := decodeEvents(t, buf.String())
	var last int64 = -1
	ids := map[string]int64{}    // span path -> id
	parents := map[int64]int64{} // id -> parent
	var closes []rawEvent
	for _, ev := range evs {
		if ev.T < last {
			t.Fatalf("timestamps not monotonic: %d after %d", ev.T, last)
		}
		last = ev.T
		switch ev.Ev {
		case "span_open":
			ids[ev.Span] = ev.ID
			parents[ev.ID] = ev.Parent
		case "span_close":
			closes = append(closes, ev)
		}
	}

	wantPaths := []string{"macro3d", "macro3d/route", "macro3d/route/rip-up-iter"}
	for _, p := range wantPaths {
		if _, ok := ids[p]; !ok {
			t.Fatalf("span %q never opened; have %v", p, ids)
		}
	}
	if parents[ids["macro3d/route"]] != ids["macro3d"] {
		t.Errorf("route's parent is %d, want macro3d's id %d", parents[ids["macro3d/route"]], ids["macro3d"])
	}
	if parents[ids["macro3d/route/rip-up-iter"]] != ids["macro3d/route"] {
		t.Errorf("rip-up-iter's parent is %d, want route's id %d",
			parents[ids["macro3d/route/rip-up-iter"]], ids["macro3d/route"])
	}

	if len(closes) != 3 {
		t.Fatalf("got %d span_close events, want 3 (End must be idempotent): %+v", len(closes), closes)
	}
	// Children close before parents; the innermost close carries the
	// attribute set on the span.
	if closes[0].Span != "macro3d/route/rip-up-iter" || closes[2].Span != "macro3d" {
		t.Errorf("close order wrong: %q, %q, %q", closes[0].Span, closes[1].Span, closes[2].Span)
	}
	if closes[0].DurNS < 0 {
		t.Errorf("negative duration on close: %+v", closes[0])
	}
	if v, ok := closes[0].Attrs["overflow"]; !ok || v != float64(3) {
		t.Errorf("rip-up-iter close lacks overflow attr: %+v", closes[0].Attrs)
	}
	if v, ok := closes[2].Attrs["completed"]; !ok || v != true {
		t.Errorf("root close lacks completed attr: %+v", closes[2].Attrs)
	}

	// The metric sample is in the stream.
	found := false
	for _, ev := range evs {
		if ev.Ev == "sample" && ev.Metric == "test_ops_total" && ev.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Error("sample event for test_ops_total missing from the stream")
	}
}

// TestNilSafety drives the full API surface through nil receivers: a
// nil Recorder, the nil Registry and metrics it hands out, and the nil
// Span it hands out. Nothing may panic, and a disabled Recorder opens no
// span (the flow runner times its stages on its own clock).
func TestNilSafety(t *testing.T) {
	var rec *obs.Recorder
	rec.SetSink(&bytes.Buffer{})
	rec.SetTimeline(trace.New())
	rec.Emit("ev", obs.KV("k", "v"))
	rec.Sample()
	if err := rec.Close(); err != nil {
		t.Fatalf("nil Recorder Close: %v", err)
	}

	reg := rec.Registry()
	if reg != nil {
		t.Fatalf("nil Recorder's Registry() = %v, want nil", reg)
	}
	reg.Counter("c", "").Inc()
	reg.Counter("c", "").Add(5)
	if v := reg.Counter("c", "").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	reg.Gauge("g", "").Set(1)
	if v := reg.Gauge("g", "").Value(); v != 0 {
		t.Errorf("nil gauge value = %v", v)
	}
	if s := reg.Snapshot(); s != nil {
		t.Errorf("nil registry snapshot = %v", s)
	}
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}

	// A nil Recorder opens no span, and the nil *Span it returns is
	// valid everywhere.
	sp := rec.StartSpan("flow", obs.KV("a", 1))
	if sp != nil {
		t.Fatalf("StartSpan on nil Recorder = %v, want nil", sp)
	}
	if got := sp.Child("x"); got != nil {
		t.Errorf("nil span Child = %v", got)
	}
	sp.SetAttr("k", 1)
	sp.End()
	if ws := sp.Workers(2); ws != nil {
		t.Errorf("nil span Workers = %v", ws)
	}
	if r := sp.Reg(); r != nil {
		t.Errorf("nil span registry = %v", r)
	}
	sp.Reg().Counter("via_nil_span", "").Inc()
}

// TestRecorderWithoutSink exercises spans and metrics with no sink
// configured: everything must work, nothing must block.
func TestRecorderWithoutSink(t *testing.T) {
	rec := obs.New()
	sp := rec.StartSpan("flow")
	sp.Child("stage").End()
	if ws := sp.Workers(2); ws != nil {
		t.Errorf("Workers without a timeline = %v", ws)
	}
	sp.End()
	rec.Registry().Counter("c_total", "").Inc()
	rec.Sample()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if v := rec.Registry().Counter("c_total", "").Value(); v != 1 {
		t.Fatalf("counter lost without sink: %d", v)
	}
}

// TestSpanTimeline pins where ended spans land on an attached
// timeline: the root has none; a stage attempt goes on "stages" as
// "stage", or "cache" with a cache attribute; an engine phase goes on
// "main" as "stage" when it opened children, else as its stage — the
// category its worker chunks get too; int attributes become args, in
// order. Phases end from several goroutines at once (`make race`).
func TestSpanTimeline(t *testing.T) {
	tl := trace.New()
	rec := obs.New()
	rec.SetTimeline(tl)
	root := rec.StartSpan("macro3d")
	stage := root.Child("route", obs.KV("attempt", 1), obs.KV("seed", uint64(7)))
	ws := stage.Workers(2)
	ws.NextStep()
	ws.Add(1, "route/prep", time.Now(), time.Now(), trace.N("items", 3))
	iter := stage.Child("rip-up-iter", obs.KV("iter", 0), obs.KV("overflow", 3))
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			iter.Child("pass").End()
		}()
	}
	wg.Wait()
	iter.End()
	stage.SetAttr("err", "none")
	stage.End()
	root.Child("place", obs.KV("cache", "hit"), obs.KV("bytes", 42)).End()
	root.End()

	got := map[string][]string{}
	var tracks []string
	for _, k := range tl.Tracks() {
		tracks = append(tracks, k.Name())
		for _, sl := range k.Slices() {
			got[k.Name()] = append(got[k.Name()], fmt.Sprint(sl.Cat, " ", sl.Name, " ", sl.Args))
		}
	}
	pass := "route route/rip-up-iter/pass []"
	want := map[string][]string{
		"worker 1": {"route route/prep [{items 3}]"},
		"main":     {pass, pass, pass, pass, "stage route/rip-up-iter [{iter 0} {overflow 3}]"},
		"stages":   {"stage route [{attempt 1}]", "cache place [{bytes 42}]"},
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(tracks, []string{"worker 0", "worker 1", "main", "stages"}) {
		t.Errorf("timeline %v\n%v\nwant tracks worker 0, worker 1, main, stages\n%v", tracks, got, want)
	}
}

// TestSinkStickyError checks that a failing writer never surfaces
// mid-flow: the first error is remembered and returned from Close.
func TestSinkStickyError(t *testing.T) {
	rec := obs.New()
	rec.SetSink(failWriter{})
	sp := rec.StartSpan("flow")
	// Overflow the 32 KiB buffer so the writer is actually hit.
	for i := 0; i < 2000; i++ {
		sp.Child("s").End()
	}
	sp.End()
	if err := rec.Close(); err == nil {
		t.Fatal("Close did not surface the sink write error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errWrite }

var errWrite = errFixed("disk full")

type errFixed string

func (e errFixed) Error() string { return string(e) }
