package flows

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"macro3d/internal/obs"
	"macro3d/internal/obs/obshttp"
	"macro3d/internal/piton"
)

// recordedRun executes the tiny Macro-3D flow with a live recorder and
// returns its State, the recorder and the captured JSONL stream, for the
// tests that read the events.
func recordedRun(t *testing.T) (*State, *obs.Recorder, string) {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.New()
	rec.SetSink(&buf)
	cfg := Config{Piton: piton.Tiny(), Seed: 7, Check: true, Obs: rec}
	_, st, _, err := RunMacro3D(cfg)
	if err != nil {
		t.Fatalf("recorded run failed: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("event sink: %v", err)
	}
	return st, rec, buf.String()
}

// TestSpanTreeMatchesRunReport cross-checks the two views of the same
// run: the JSONL span tree (flow root, one child span per stage
// attempt) must list exactly the stages the RunReport recorded, in the
// same order, and the flow root must close last, marked completed.
func TestSpanTreeMatchesRunReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a tiny flow")
	}
	st, _, events := recordedRun(t)

	type ev struct {
		T      int64          `json:"t"`
		Ev     string         `json:"ev"`
		ID     int64          `json:"id"`
		Parent int64          `json:"parent"`
		Span   string         `json:"span"`
		Metric string         `json:"metric"`
		Attrs  map[string]any `json:"attrs"`
	}
	var rootID, lastT int64 = 0, -1
	var stageSpans []string
	var rootClosed bool
	var rootAttrs map[string]any
	sawCompletedSample := false
	for _, line := range strings.Split(strings.TrimSpace(events), "\n") {
		var e ev
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("malformed JSONL line %q: %v", line, err)
		}
		if e.T < lastT {
			t.Fatalf("timestamps not monotonic at %q", line)
		}
		lastT = e.T
		switch {
		case e.Ev == "span_open" && e.Span == "macro3d" && e.Parent == 0:
			rootID = e.ID
		case e.Ev == "span_close" && e.Parent == rootID && rootID != 0:
			// Direct children of the flow root are stage spans named
			// "macro3d/<stage>"; engine phase spans sit deeper.
			stageSpans = append(stageSpans, strings.TrimPrefix(e.Span, "macro3d/"))
		case e.Ev == "span_close" && e.ID == rootID && rootID != 0:
			rootClosed = true
			rootAttrs = e.Attrs
		case e.Ev == "sample" && e.Metric == "flow_runs_completed_total":
			sawCompletedSample = true
		}
	}

	var want []string
	for _, s := range st.Trace.Stages {
		want = append(want, s.Stage)
	}
	if !reflect.DeepEqual(stageSpans, want) {
		t.Errorf("span tree stage sequence does not match RunReport:\nspans:  %v\nreport: %v", stageSpans, want)
	}
	if !rootClosed {
		t.Fatal("flow root span never closed")
	}
	if v, ok := rootAttrs["completed"]; !ok || v != true {
		t.Errorf("flow root close lacks completed=true: %v", rootAttrs)
	}
	if !sawCompletedSample {
		t.Error("no sample event for flow_runs_completed_total in the stream")
	}
}

// TestMetricsEndpointServesEngineFamilies runs a recorded flow and
// scrapes the live handler: /metrics must be parseable Prometheus text
// exposition carrying at least the router, placer, STA and design-
// database metric families (the STA's dirty-frontier count among them),
// every metric a counter or a gauge. /metrics is the registry's one
// rendering: there is no JSON snapshot beside it.
func TestMetricsEndpointServesEngineFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a tiny flow")
	}
	_, rec, _ := recordedRun(t)

	get := func(path string) (int, string) {
		t.Helper()
		w := httptest.NewRecorder()
		obshttp.Handler(rec).ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Code, w.Body.String()
	}

	code, text := get("/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics: status %d", code)
	}
	for _, family := range []string{"route_", "place_", "sta_", "ddb_", "verify_", "flow_runs_completed_total", "sta_dirty_frontier_nodes_total "} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics lacks the %s family:\n%s", family, text)
		}
	}
	// Every line is a comment or "<name> <value>", and every metric a
	// counter or a gauge.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if kind, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if f := strings.Fields(kind); len(f) != 2 || (f[1] != "counter" && f[1] != "gauge") {
				t.Errorf("metric of a third kind: %q", line)
			}
		}
		if strings.HasPrefix(line, "# ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
	if code, _ := get("/metrics.json"); code != 404 {
		t.Errorf("GET /metrics.json: status %d, want 404 (one rendering of the registry)", code)
	}

	code, body := get("/debug/vars")
	if code != 200 {
		t.Fatalf("GET /debug/vars: status %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars lacks memstats")
	}
}

// TestBaselineObservability records a tiny BF S2D run, whose sign-off
// budget is frozen, and reads what its artifacts say:
//   - the three opt gauges describe the signed-off design — the analysed
//     period and no edits — though the frozen optimization makes none
//     and the pseudo-opt stage before it resized cells;
//   - pseudo-opt runs under its stage span, with the optimizer's phases;
//   - the partition stage shows its three phases and per-die
//     legalization as spans, and carries the cut, flip, spill and
//     displacement results as attributes.
func TestBaselineObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a tiny flow")
	}
	var buf bytes.Buffer
	rec := obs.New()
	rec.SetSink(&buf)
	_, st, _, err := Run(context.Background(), "bfs2d", Config{Piton: piton.Tiny(), Seed: 7, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("event sink: %v", err)
	}
	gauges := map[string]float64{}
	for _, m := range rec.Registry().Snapshot() {
		if m.Kind == "gauge" {
			gauges[m.Name] = m.Value
		}
	}
	for name, want := range map[string]float64{"opt_min_period_ps": st.Report.MinPeriod, "opt_resized_cells": 0, "opt_inserted_buffers": 0} {
		if got, ok := gauges[name]; !ok || got != want {
			t.Errorf("gauge %s = %v (published: %v), want %v", name, got, ok, want)
		}
	}

	closed := map[string]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e struct {
			Ev    string         `json:"ev"`
			Span  string         `json:"span"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("malformed JSONL line %q: %v", line, err)
		}
		if e.Ev == "span_close" {
			closed[e.Span] = e.Attrs
		}
	}
	for _, span := range []string{
		"bfs2d/pseudo-opt/setup", "bfs2d/pseudo-opt/timing",
		"bfs2d/partition/tier-split", "bfs2d/partition/bin-balance",
		"bfs2d/partition/legalize-macro-die", "bfs2d/partition/legalize-logic-die",
	} {
		if _, ok := closed[span]; !ok {
			t.Errorf("no span %s in the event stream", span)
		}
	}
	attrs := closed["bfs2d/partition"]
	for _, key := range []string{"cut_nets", "bin_flips", "spilled", "mean_disp_um", "max_disp_um"} {
		if _, ok := attrs[key]; !ok {
			t.Errorf("partition span lacks %s: %v", key, attrs)
		}
	}
	if cut, _ := attrs["cut_nets"].(float64); cut <= 0 {
		t.Errorf("partition cut_nets = %v, want > 0", attrs["cut_nets"])
	}
	if disp, _ := attrs["max_disp_um"].(float64); disp <= 0 {
		t.Errorf("partition max_disp_um = %v, want > 0", attrs["max_disp_um"])
	}
}
