package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"macro3d/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with one metric of each kind and
// deterministic values, covering the three Prometheus output shapes.
func goldenRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.New().Registry()
	reg.Counter("route_nets_routed_total", "nets routed in the initial pass").Add(42)
	reg.Gauge("route_overflow_gcells", "gcell-layers over capacity").Set(3.5)
	h := reg.Histogram("sta_dirty_frontier_nodes", "dirty frontier size per incremental update", 1, 10, 100)
	for _, v := range []float64{0.5, 7, 50, 10000} {
		h.Observe(v)
	}
	return reg
}

// TestPrometheusGolden locks the Prometheus text exposition down to a
// golden file: HELP/TYPE headers, counter and gauge lines, cumulative
// le-labelled buckets with _sum and _count. Regenerate with -update.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry(t).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Prometheus output drifted from golden.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestRegistryConcurrency hammers one registry from GOMAXPROCS
// goroutines — concurrent get-or-create, counter/gauge/histogram
// updates, snapshots and exports — and asserts the totals. Run under
// -race this is the concurrency-safety proof for the metrics layer.
func TestRegistryConcurrency(t *testing.T) {
	reg := obs.New().Registry()
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const iters = 2000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Get-or-create inside the loop on purpose: the lookup path
			// must be as safe as the update path.
			for i := 0; i < iters; i++ {
				reg.Counter("hammer_ops_total", "ops").Inc()
				reg.Gauge("hammer_level", "level").Set(float64(i))
				reg.Histogram("hammer_sizes", "sizes").Observe(float64(i % 100))
				if i%500 == 0 {
					reg.Snapshot()
					reg.WritePrometheus(&bytes.Buffer{})
				}
			}
		}()
	}
	wg.Wait()

	total := uint64(workers) * iters
	if v := reg.Counter("hammer_ops_total", "ops").Value(); v != total {
		t.Errorf("counter = %d, want %d", v, total)
	}
	if v := reg.Gauge("hammer_level", "level").Value(); v != iters-1 {
		t.Errorf("gauge = %v, want %d", v, iters-1)
	}
	snap := reg.Snapshot()
	for _, m := range snap {
		if m.Name == "hammer_sizes" {
			if m.Count != total {
				t.Errorf("histogram count = %d, want %d", m.Count, total)
			}
			last := m.Buckets[len(m.Buckets)-1]
			if last.Count != total {
				t.Errorf("+Inf cumulative bucket = %d, want %d", last.Count, total)
			}
		}
	}
}

// TestKindMismatchPanics pins the contract that re-registering a name
// as a different metric kind is a programming error.
func TestKindMismatchPanics(t *testing.T) {
	reg := obs.New().Registry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "")
}

// TestHistogramBounds pins bucket-edge behaviour: a value equal to a
// bound lands in that bound's bucket (le is an upper inclusive bound).
func TestHistogramBounds(t *testing.T) {
	reg := obs.New().Registry()
	h := reg.Histogram("edge", "", 10, 20)
	h.Observe(10) // le="10"
	h.Observe(15) // le="20"
	h.Observe(25) // +Inf
	snap := reg.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot size %d", len(snap))
	}
	got := snap[0].Buckets
	want := []uint64{1, 2, 3} // cumulative
	for i, b := range got {
		if b.Count != want[i] {
			t.Errorf("bucket %d cumulative count = %d, want %d", i, b.Count, want[i])
		}
	}
}

// TestWriteJSONNonFinite is the regression test for the snapshot JSON
// export: histograms always carry a +Inf bucket bound and a gauge can
// hold NaN, neither of which has a JSON literal — the export must
// still produce valid JSON (non-finite values spelled as strings).
func TestWriteJSONNonFinite(t *testing.T) {
	reg := obs.New().Registry()
	reg.Gauge("ratio", "").Set(math.NaN())
	reg.Histogram("h_sizes", "", 1).Observe(2)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Metrics []struct {
			Name    string `json:"name"`
			Value   any    `json:"value"`
			Buckets []struct {
				LE any `json:"le"`
			} `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, m := range doc.Metrics {
		switch m.Name {
		case "ratio":
			if m.Value != "NaN" {
				t.Errorf("NaN gauge exported as %v, want the string NaN", m.Value)
			}
		case "h_sizes":
			last := m.Buckets[len(m.Buckets)-1]
			if last.LE != "+Inf" {
				t.Errorf("+Inf bound exported as %v", last.LE)
			}
		}
	}
}
