package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"macro3d/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry of counters and gauges with
// deterministic values, a gauge not yet updated (NaN) among them.
func goldenRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.New().Registry()
	reg.Counter("route_nets_routed_total", "nets routed in the initial pass").Add(42)
	reg.Gauge("route_overflow_gcells", "gcell-layers over capacity").Set(3.5)
	reg.Counter("sta_dirty_frontier_nodes_total", "nodes marked dirty over all incremental updates").Add(10057)
	reg.Gauge("sta_incremental_ratio", "").Set(math.NaN())
	return reg
}

// TestPrometheusGolden locks the Prometheus text exposition down to a
// golden file: HELP/TYPE headers, counter and gauge lines, NaN spelled
// out. Regenerate with -update.
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
// goroutines — concurrent get-or-create, counter and gauge updates,
// snapshots and exports — and asserts the totals. Run under
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

// TestSampleNonFinite: a gauge can hold NaN or ±Inf, which have no JSON
// literal; its sample event must still be a valid JSON line, with the
// value spelled as the string Prometheus uses.
func TestSampleNonFinite(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.New()
	rec.SetSink(&buf)
	rec.Registry().Gauge("ratio", "").Set(math.NaN())
	rec.Registry().Gauge("ceiling", "").Set(math.Inf(1))
	rec.Sample()
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			Metric string `json:"metric"`
			Value  any    `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("sample line is not valid JSON: %v\n%s", err, line)
		}
		got[ev.Metric] = ev.Value
	}
	if got["ratio"] != "NaN" || got["ceiling"] != "+Inf" {
		t.Errorf("non-finite gauges sampled as %v, want the strings NaN and +Inf", got)
	}
}
