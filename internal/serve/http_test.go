package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"macro3d/internal/faults"
	"macro3d/internal/flows"
	"macro3d/internal/piton"
	"macro3d/internal/route"
	"macro3d/internal/stash"
)

// httpServer spins up a Server behind httptest and returns a tiny
// client API. Shutdown is registered as cleanup.
func httpServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, base string, spec JobSpec) (*http.Response, JobView) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp, v
}

func getJob(t *testing.T, base, id string) JobView {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// awaitJob polls the job endpoint until the record is terminal.
func awaitJob(t *testing.T, base, id string, within time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		v := getJob(t, base, id)
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.State, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHTTPRoundTrip exercises the full API surface against a stub
// runner: submit, list, fetch, cancel, health, metrics, validation.
func TestHTTPRoundTrip(t *testing.T) {
	gate := make(chan struct{})
	_, ts := httpServer(t, Config{Workers: 1, QueueDepth: 8,
		Runner: func(ctx context.Context, job *Job) (string, error) {
			select {
			case <-gate:
				return "result body", nil
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}})

	resp, v := postJob(t, ts.URL, stubSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", resp.StatusCode)
	}
	if v.ID == "" || v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("unexpected accepted view: %+v", v)
	}

	// A second job, canceled while the first blocks the worker.
	_, v2 := postJob(t, ts.URL, stubSpec())
	cresp, err := http.Post(ts.URL+"/jobs/"+v2.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", cresp.StatusCode)
	}

	close(gate)
	done := awaitJob(t, ts.URL, v.ID, 5*time.Second)
	if done.State != StateDone || done.Result != "result body" {
		t.Fatalf("job 1: %+v", done)
	}
	if got := awaitJob(t, ts.URL, v2.ID, 5*time.Second); got.State != StateCanceled {
		t.Fatalf("job 2 state %s, want canceled", got.State)
	}

	// List returns both in submission order.
	lresp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobView
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list) != 2 || list[0].ID != v.ID || list[1].ID != v2.ID {
		t.Fatalf("GET /jobs: %+v", list)
	}

	// Health reports ok and counts.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthView
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if h.Status != "ok" || h.Jobs[StateDone] != 1 || h.Jobs[StateCanceled] != 1 {
		t.Fatalf("healthz: %+v", h)
	}

	// Metrics expose the server counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	_, _ = mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(mbuf.String(), "serve_jobs_submitted_total") {
		t.Error("metrics missing serve_jobs_submitted_total")
	}

	// Unknown job and invalid spec reject cleanly.
	nresp, _ := http.Get(ts.URL + "/jobs/zzz")
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job: %d", nresp.StatusCode)
	}
	nresp.Body.Close()
	bresp, _ := postJob(t, ts.URL, JobSpec{})
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST invalid spec: %d", bresp.StatusCode)
	}
}

// TestHTTPBackpressure fills the queue and asserts the API answers 429
// with a Retry-After hint, then admits again once capacity frees.
func TestHTTPBackpressure(t *testing.T) {
	gate := make(chan struct{})
	_, ts := httpServer(t, Config{Workers: 1, QueueDepth: 1,
		Runner: func(ctx context.Context, job *Job) (string, error) {
			select {
			case <-gate:
				return "ok", nil
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}})

	// Saturate: 1 running + 1 queued (retry while the worker picks up).
	var ids []string
	deadline := time.Now().Add(5 * time.Second)
	for len(ids) < 2 {
		resp, v := postJob(t, ts.URL, stubSpec())
		if resp.StatusCode == http.StatusAccepted {
			ids = append(ids, v.ID)
		} else if time.Now().After(deadline) {
			t.Fatal("could not saturate queue")
		}
	}
	// Let the worker claim the first so the queue is exactly full.
	time.Sleep(50 * time.Millisecond)

	resp, _ := postJob(t, ts.URL, stubSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(gate)
	for _, id := range ids {
		awaitJob(t, ts.URL, id, 5*time.Second)
	}
	if resp, _ := postJob(t, ts.URL, stubSpec()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST after drain: %d, want 202", resp.StatusCode)
	}
}

// TestHTTPDraining asserts a draining server answers 503.
func TestHTTPDraining(t *testing.T) {
	s, ts := httpServer(t, Config{Workers: 1,
		Runner: func(context.Context, *Job) (string, error) { return "", nil }})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJob(t, ts.URL, stubSpec())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: %d, want 503", resp.StatusCode)
	}
}

// TestRealFlowWarmCache runs two identical tiny flows through the real
// runner against a shared byte-capped stash: the second job must be
// served from the first job's snapshots (cross-tenant warm hit) and
// both must produce byte-identical results.
func TestRealFlowWarmCache(t *testing.T) {
	cache, err := stash.OpenLimited(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := httpServer(t, Config{Workers: 1, QueueDepth: 8, Cache: cache})

	spec := JobSpec{Flow: "2d", Config: "tiny", Seed: 3}
	_, v1 := postJob(t, ts.URL, spec)
	done1 := awaitJob(t, ts.URL, v1.ID, 60*time.Second)
	if done1.State != StateDone {
		t.Fatalf("job 1: %+v", done1)
	}
	miss := cache.Stats()
	if miss.Puts == 0 {
		t.Fatal("first run stored no snapshots — cache not wired through")
	}

	_, v2 := postJob(t, ts.URL, spec)
	done2 := awaitJob(t, ts.URL, v2.ID, 60*time.Second)
	if done2.State != StateDone {
		t.Fatalf("job 2: %+v", done2)
	}
	if done1.Result == "" || done1.Result != done2.Result {
		t.Error("warm and cold runs disagree")
	}
	warm := cache.Stats()
	if warm.Hits <= miss.Hits {
		t.Errorf("second job hit the cache %d times, want > %d", warm.Hits, miss.Hits)
	}

	// /stashz reflects the shared store.
	resp, err := http.Get(ts.URL + "/stashz")
	if err != nil {
		t.Fatal(err)
	}
	var sv stashView
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sv.Enabled || sv.Stats.Hits == 0 || sv.MaxBytes != 64<<20 {
		t.Errorf("stashz: %+v", sv)
	}
}

// TestFaultPanicJobIsolated submits a fault=panic job through the real
// runner: the job fails with the panic recorded as a typed stage
// error, and the daemon keeps serving — the next job completes.
func TestFaultPanicJobIsolated(t *testing.T) {
	_, ts := httpServer(t, Config{Workers: 1, QueueDepth: 8, AllowFaults: true})

	_, v := postJob(t, ts.URL, JobSpec{Flow: "2d", Config: "tiny", Fault: "panic"})
	done := awaitJob(t, ts.URL, v.ID, 60*time.Second)
	if done.State != StateFailed {
		t.Fatalf("panicking job state %s, want failed", done.State)
	}
	if done.StageError == nil || !done.StageError.Panicked {
		t.Fatalf("panic not recorded as a typed stage error: %+v", done)
	}

	// The daemon survived: a clean job right after completes.
	_, v2 := postJob(t, ts.URL, JobSpec{Flow: "2d", Config: "tiny"})
	if got := awaitJob(t, ts.URL, v2.ID, 60*time.Second); got.State != StateDone {
		t.Fatalf("job after panic: %+v", got)
	}
}

// TestFaultHangJobAbandoned submits a fault=hang job with a short
// per-job timeout: the stage ignores cancellation, so the daemon must
// abandon the job after the grace period and keep the worker alive.
func TestFaultHangJobAbandoned(t *testing.T) {
	_, ts := httpServer(t, Config{Workers: 1, QueueDepth: 8, AllowFaults: true,
		AbandonGrace: 100 * time.Millisecond, HangDuration: 2 * time.Second})

	spec := JobSpec{Flow: "2d", Config: "tiny", Fault: "hang", TimeoutMS: 200}
	_, v := postJob(t, ts.URL, spec)
	done := awaitJob(t, ts.URL, v.ID, 60*time.Second)
	if done.State != StateFailed || !done.Abandoned {
		t.Fatalf("hung job state=%s abandoned=%v, want failed/true", done.State, done.Abandoned)
	}

	// Worker slot freed: the next job runs to completion.
	_, v2 := postJob(t, ts.URL, JobSpec{Flow: "2d", Config: "tiny"})
	if got := awaitJob(t, ts.URL, v2.ID, 60*time.Second); got.State != StateDone {
		t.Fatalf("job after abandoned hang: %+v", got)
	}
}

// TestCorruptCacheRecompute corrupts every shared snapshot between two
// identical jobs: the second job must detect the corruption (checksum
// misses), recompute, and still produce the identical result.
func TestCorruptCacheRecompute(t *testing.T) {
	dir := t.TempDir()
	cache, err := stash.OpenLimited(dir, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := httpServer(t, Config{Workers: 1, QueueDepth: 8, Cache: cache})

	spec := JobSpec{Flow: "2d", Config: "tiny", Seed: 5}
	_, v1 := postJob(t, ts.URL, spec)
	done1 := awaitJob(t, ts.URL, v1.ID, 60*time.Second)
	if done1.State != StateDone {
		t.Fatalf("job 1: %+v", done1)
	}
	n, err := faults.CorruptSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing to corrupt — cache not populated")
	}

	_, v2 := postJob(t, ts.URL, spec)
	done2 := awaitJob(t, ts.URL, v2.ID, 60*time.Second)
	if done2.State != StateDone {
		t.Fatalf("job 2 after corruption: %+v", done2)
	}
	if done1.Result != done2.Result {
		t.Error("recompute after corruption changed the result")
	}
}

// TestEventsEndpoint asserts a real job's observability stream is
// served as JSONL with span events in it.
func TestEventsEndpoint(t *testing.T) {
	_, ts := httpServer(t, Config{Workers: 1})
	_, v := postJob(t, ts.URL, JobSpec{Flow: "2d", Config: "tiny"})
	awaitJob(t, ts.URL, v.ID, 60*time.Second)

	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "span_open") {
		t.Fatalf("events stream lacks span events (%d bytes)", buf.Len())
	}
	// Every line parses as JSON.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var any map[string]any
		if err := json.Unmarshal([]byte(line), &any); err != nil {
			t.Fatalf("malformed JSONL line %q: %v", line, err)
		}
	}

	// Follow mode on a finished job returns immediately with the bytes.
	fresp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	var fbuf bytes.Buffer
	_, _ = fbuf.ReadFrom(fresp.Body)
	fresp.Body.Close()
	if fbuf.Len() != buf.Len() {
		t.Errorf("follow mode returned %d bytes, snapshot %d", fbuf.Len(), buf.Len())
	}
}

// TestConcurrentTenants is the in-process load shape: N tenants with
// overlapping specs hammer a shared capped cache concurrently. Every
// job must finish done, identical specs must agree byte-for-byte, and
// the store must stay under its cap.
func TestConcurrentTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-flow load test")
	}
	cache, err := stash.OpenLimited(t.TempDir(), 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := httpServer(t, Config{Workers: 4, QueueDepth: 32, Cache: cache})

	// 8 tenants, 2 distinct specs → heavy cross-tenant overlap.
	const tenants = 8
	specs := make([]JobSpec, tenants)
	ids := make([]string, tenants)
	for i := range specs {
		specs[i] = JobSpec{Flow: "2d", Config: "tiny", Seed: uint64(1 + i%2)}
		resp, v := postJob(t, ts.URL, specs[i])
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("tenant %d rejected: %d", i, resp.StatusCode)
		}
		ids[i] = v.ID
	}
	results := make(map[uint64]string)
	for i, id := range ids {
		v := awaitJob(t, ts.URL, id, 120*time.Second)
		if v.State != StateDone {
			t.Fatalf("tenant %d: %+v", i, v)
		}
		seed := specs[i].Seed
		if prev, ok := results[seed]; ok && prev != v.Result {
			t.Errorf("tenant %d: result for seed %d diverged", i, seed)
		}
		results[seed] = v.Result
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Error("no cross-tenant cache hits under overlapping load")
	}
	if total, max := cache.Usage(); total > max {
		t.Errorf("cache %d bytes over its %d cap", total, max)
	}
}

// TestUnaddressableGridJobFails runs a real flow whose die is stretched
// past the grid a route.Node addresses: the job fails cleanly at the
// route stage with the router's error — no panic, no abandoned worker —
// and the daemon completes the next job.
func TestUnaddressableGridJobFails(t *testing.T) {
	const stretched = 1 // the seed of the job whose die is stretched
	_, ts := httpServer(t, Config{Workers: 1, QueueDepth: 8,
		Runner: func(ctx context.Context, job *Job) (string, error) {
			fc := flows.Config{Piton: piton.Tiny(), Seed: job.Spec().Seed}
			if fc.Seed == stretched {
				fc.AfterStage = func(_, stage string, st *flows.State) {
					if stage == flows.StageCTS {
						st.Die.Ux = st.Die.Lx + 15*float64(route.MaxGridDim+1)
					}
				}
			}
			ppa, _, err := flows.Run2DCtx(ctx, fc)
			if err != nil {
				return "", err
			}
			return renderPPA(ppa), nil
		}})

	_, v := postJob(t, ts.URL, JobSpec{Flow: "2d", Config: "tiny", Seed: stretched})
	done := awaitJob(t, ts.URL, v.ID, 60*time.Second)
	if done.State != StateFailed || done.Abandoned {
		t.Fatalf("job over an unaddressable grid: %+v", done)
	}
	if done.StageError == nil || done.StageError.Stage != flows.StageRoute || done.StageError.Panicked {
		t.Fatalf("want a clean route-stage failure, got %+v", done.StageError)
	}
	if !strings.Contains(done.Error, "exceeds the addressable") {
		t.Errorf("job error does not say why: %q", done.Error)
	}

	_, v2 := postJob(t, ts.URL, JobSpec{Flow: "2d", Config: "tiny", Seed: stretched + 1})
	if got := awaitJob(t, ts.URL, v2.ID, 60*time.Second); got.State != StateDone {
		t.Fatalf("job after the failure: %+v", got)
	}
}
