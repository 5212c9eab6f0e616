package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedTracer builds a small deterministic trace with an explicit
// epoch: a stage container, a serial main-track slice, and one
// two-worker fan-out step — enough to exercise export, import and
// every analyzer path.
func fixedTracer() *Tracer {
	epoch := time.Unix(100, 0)
	t := NewAt(epoch)
	at := func(ms int64) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	t.Track("stages").Add("stage", "route", at(0), at(100))
	main := t.Track("main")
	main.Add("route", "route/plan", at(0), at(10), N("nets", 40))
	step := t.NextStep()
	w0, w1 := t.Track("worker 0"), t.Track("worker 1")
	w0.addSlice(Slice{Name: "route/batch", Cat: "route", Start: 10e6, Dur: 60e6, Step: step, Args: []Arg{{"nets", 20}}})
	w1.addSlice(Slice{Name: "route/batch", Cat: "route", Start: 10e6, Dur: 40e6, Step: step, Args: []Arg{{"nets", 20}}})
	main.Add("route", "route/commit", at(70), at(90), N("nets", 40))
	return t
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Track("x") != nil {
		t.Fatal("nil tracer must return nil track")
	}
	if tr.WorkerSet("route", 4) != nil {
		t.Fatal("nil tracer must return nil set")
	}
	if tr.NextStep() != 0 {
		t.Fatal("nil tracer NextStep must return 0")
	}
	var k *Track
	k.Add("c", "n", time.Now(), time.Now()) // must not panic
	if k.Slices() != nil || k.Name() != "" {
		t.Fatal("nil track must be inert")
	}
	var s *Set
	s.NextStep()
	s.Add(0, "n", time.Now(), time.Now())
	rep := Analyze(nil)
	if rep.WallNS != 0 || len(rep.Phases) != 0 {
		t.Fatal("nil tracer must analyze to an empty report")
	}
}

// TestSpanRecordsSlice: an ended span's slice, as obs records it, is
// its interval relative to the epoch with its args, on step 0.
func TestSpanRecordsSlice(t *testing.T) {
	tr := New()
	k := tr.Track("main")
	start := time.Now()
	time.Sleep(time.Millisecond)
	k.Add("route", "work", start, time.Now(), N("nets", 7))
	got := k.Slices()
	if len(got) != 1 {
		t.Fatalf("got %d slices, want 1", len(got))
	}
	sl := got[0]
	if sl.Name != "work" || sl.Cat != "route" || sl.Step != 0 {
		t.Fatalf("bad slice %+v", sl)
	}
	if sl.Dur < int64(time.Millisecond) || sl.Start != start.Sub(tr.epoch).Nanoseconds() {
		t.Fatalf("slice %+v does not span the interval", sl)
	}
	if len(sl.Args) != 1 || sl.Args[0] != (Arg{"nets", 7}) {
		t.Fatalf("bad args %+v", sl.Args)
	}
}

func TestWorkerSetSharesStepAndTracks(t *testing.T) {
	tr := New()
	now := time.Now()
	s := tr.WorkerSet("route", 3)
	s.NextStep()
	for w := 0; w < 3; w++ {
		s.Add(w, "chunk", now, now)
	}
	s.NextStep()
	s.Add(1, "chunk", now, now)
	// Same tracer, different phase: worker tracks are shared.
	p := tr.WorkerSet("place", 3)
	p.NextStep()
	p.Add(0, "solve", now, now)

	tracks := tr.Tracks()
	if len(tracks) != 3 {
		t.Fatalf("got %d tracks, want 3 shared worker tracks", len(tracks))
	}
	w0 := tr.Track("worker 0").Slices()
	if len(w0) != 2 || w0[0].Step != 1 || w0[1].Step != 3 || w0[1].Cat != "place" {
		t.Fatalf("bad worker-0 slices %+v", w0)
	}
	w1 := tr.Track("worker 1").Slices()
	if len(w1) != 2 || w1[1].Step != 2 {
		t.Fatalf("bad worker-1 slices %+v", w1)
	}
	// Out-of-range worker ids clamp instead of panicking.
	s.Add(99, "stray", now, now)
	s.Add(-1, "stray", now, now)
}

func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedTracer().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export drifted from golden\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// And it must be valid JSON of the documented shape.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 10 { // 1 process + 4 tracks + 5 slices
		t.Fatalf("got %d events, want 10", len(doc.TraceEvents))
	}
}

func TestNormalizeChromeMasksOnlyTimes(t *testing.T) {
	var a, b bytes.Buffer
	tr1 := fixedTracer()
	if err := tr1.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	// Same structure, different epoch offsets — as two identical runs
	// would produce.
	epoch := time.Unix(200, 0)
	tr2 := NewAt(epoch)
	at := func(ms int64) time.Time { return epoch.Add(time.Duration(ms)*time.Millisecond + 137*time.Microsecond) }
	tr2.Track("stages").Add("stage", "route", at(0), at(103))
	main := tr2.Track("main")
	main.Add("route", "route/plan", at(0), at(11), N("nets", 40))
	step := tr2.NextStep()
	tr2.Track("worker 0").addSlice(Slice{Name: "route/batch", Cat: "route", Start: 11e6, Dur: 61e6, Step: step, Args: []Arg{{"nets", 20}}})
	tr2.Track("worker 1").addSlice(Slice{Name: "route/batch", Cat: "route", Start: 11e6, Dur: 41e6, Step: step, Args: []Arg{{"nets", 20}}})
	main.Add("route", "route/commit", at(72), at(91), N("nets", 40))
	if err := tr2.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("test premise broken: raw traces should differ in timestamps")
	}
	if !bytes.Equal(NormalizeChrome(a.Bytes()), NormalizeChrome(b.Bytes())) {
		t.Fatalf("normalized traces differ:\n%s\n---\n%s",
			NormalizeChrome(a.Bytes()), NormalizeChrome(b.Bytes()))
	}
}

// oddTimes is a trace whose times are not whole microseconds: a slice
// at 1 001 ns lasting 2 002 ns, then one every 997 ns up to 3 ms, and
// one past an hour.
func oddTimes() *Tracer {
	t := NewAt(time.Unix(0, 0))
	k := t.Track("main")
	k.addSlice(Slice{Name: "odd", Cat: "route", Start: 1001, Dur: 2002})
	for ns := int64(1); ns <= 3e6; ns += 997 {
		k.addSlice(Slice{Name: "odd", Cat: "route", Start: ns, Dur: 3e6 - ns})
	}
	k.addSlice(Slice{Name: "odd", Cat: "route", Start: 3600e9 + 1001, Dur: 3e6 - 1})
	return t
}

// The two inputs the first decoder got wrong: a slice at 1 001 ns
// lasting 2 002 ns read back as 1 000 / 2 001, and a negative duration
// was accepted, for Analyze to report a negative wall and busy time.
const (
	oddSlice    = mainThread + `{"ph":"X","pid":1,"tid":0,"name":"odd","cat":"route","ts":1.001,"dur":2.002}]}`
	negativeDur = mainThread + `{"ph":"X","pid":1,"tid":0,"name":"x","cat":"route","ts":1,"dur":-3}]}`
	mainThread  = `{"traceEvents":[{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"main"}},`
)

func TestReadChromeRoundtrip(t *testing.T) {
	for _, orig := range []*Tracer{fixedTracer(), oddTimes()} {
		var buf bytes.Buffer
		if err := orig.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadChrome(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var reBuf bytes.Buffer
		if err := back.WriteChrome(&reBuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), reBuf.Bytes()) {
			t.Fatalf("roundtrip drifted:\n%s\n---\n%s", buf.Bytes(), reBuf.Bytes())
		}
		// Every time reads back to the nanosecond.
		for i, k := range orig.Tracks() {
			if got, want := back.Tracks()[i].Slices(), k.Slices(); !reflect.DeepEqual(got, want) {
				t.Fatalf("track %s read back as\n%+v\nwant\n%+v", k.Name(), got[:min(len(got), 3)], want[:min(len(want), 3)])
			}
		}
		// Analysis of the imported trace must match the original's.
		a, b := Analyze(orig), Analyze(back)
		if a.WallNS != b.WallNS || len(a.Phases) != len(b.Phases) || len(a.Serial) != len(b.Serial) {
			t.Fatalf("imported analysis differs: %+v vs %+v", a, b)
		}
	}
	// Outside the dialect: a negative, missing or out-of-range time, an
	// unnamed thread, a string arg, a cut document, another key.
	good := mainThread + `{"ph":"X","tid":0,"name":"x","ts":1,"dur":3}]}`
	if _, err := ReadChrome(strings.NewReader(good)); err != nil {
		t.Fatalf("ReadChrome refused %s: %v", good, err)
	}
	for _, in := range []string{
		negativeDur,
		mainThread + `{"ph":"X","tid":0,"name":"x","ts":-1,"dur":3}]}`,
		mainThread + `{"ph":"X","tid":0,"name":"x","ts":1}]}`,
		mainThread + `{"ph":"X","tid":0,"name":"x","ts":1e300,"dur":3}]}`,
		mainThread + `{"ph":"X","tid":0,"name":"x","ts":0,"dur":2e12}]}`,
		mainThread + `{"ph":"X","tid":1,"name":"x","ts":0,"dur":3}]}`,
		mainThread + `{"ph":"X","tid":0,"name":"x","ts":0,"dur":3,"args":{"n":"s"}}]}`,
		good[:len(good)-1],
		`{"displayTimeUnit":"ns",` + good[1:],
	} {
		if tr, err := ReadChrome(strings.NewReader(in)); err == nil {
			t.Errorf("ReadChrome accepted %s: %+v", in, Analyze(tr))
		}
	}
}

// FuzzReadChrome holds the decoder of `trace-report -in` to the
// contract of the repository's other decoders: whatever the bytes, no
// panic and no allocation past 16× the input plus 64 kB; a decoded
// trace re-exports to a fixed point after one pass; and its analysis
// reports no negative wall, busy or critical-path time. Seeded with the
// fixed trace's export and the two inputs the parent decoder got wrong
// (times off by a nanosecond, a negative duration); `go test` runs the
// seeds, `make fuzz` fuzzes for a bounded time.
func FuzzReadChrome(f *testing.F) {
	var buf bytes.Buffer
	if err := fixedTracer().WriteChrome(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(oddSlice))
	f.Add([]byte(negativeDur))
	f.Fuzz(func(t *testing.T, b []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr, err := ReadChrome(bytes.NewReader(b))
		runtime.ReadMemStats(&m1)
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(16*len(b)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(b), got, limit)
		}
		if err != nil {
			return
		}
		rep := Analyze(tr)
		if rep.WallNS < 0 {
			t.Fatalf("negative wall %d", rep.WallNS)
		}
		for _, ps := range rep.Phases {
			if ps.WallNS < 0 || ps.BusyNS < 0 || ps.CritPathNS < 0 {
				t.Fatalf("phase %s: wall %d, busy %d, critical path %d", ps.Phase, ps.WallNS, ps.BusyNS, ps.CritPathNS)
			}
		}
		var once, twice bytes.Buffer
		if err := tr.WriteChrome(&once); err != nil {
			t.Fatal(err)
		}
		back, err := ReadChrome(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-export does not decode: %v\n%s", err, once.Bytes())
		}
		if err := back.WriteChrome(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-export is not a fixed point:\n%s\n---\n%s", once.Bytes(), twice.Bytes())
		}
	})
}

func TestAnalyzeFixedTrace(t *testing.T) {
	rep := Analyze(fixedTracer())
	if rep.WallNS != 100e6 {
		t.Fatalf("wall %d, want 100ms", rep.WallNS)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Phase != "route" {
		t.Fatalf("phases %+v", rep.Phases)
	}
	ps := rep.Phases[0]
	// Tracks: main and worker 0 (one goroutine), worker 1.
	if ps.Workers != 2 || ps.Steps != 1 || ps.Slices != 4 {
		t.Fatalf("got workers=%d steps=%d slices=%d", ps.Workers, ps.Steps, ps.Slices)
	}
	if ps.WallNS != 90e6 {
		t.Fatalf("phase wall %d, want 90ms", ps.WallNS)
	}
	if ps.BusyNS != (10+60+40+20)*1e6 {
		t.Fatalf("busy %d", ps.BusyNS)
	}
	// Concurrency timeline: plan 0-10 (1 active), 10-50 (2 active),
	// 50-70 (1 active: worker 0 tail), 70-90 commit (1 active).
	if ps.SerialNS != 50e6 {
		t.Fatalf("serial %d, want 50ms", ps.SerialNS)
	}
	// CP = plan 10 + max(60,40) + commit 20 = 90ms.
	if ps.CritPathNS != 90e6 {
		t.Fatalf("critical path %d, want 90ms", ps.CritPathNS)
	}
	wantS := 50.0 / 90.0
	if math.Abs(ps.SerialFrac-wantS) > 1e-9 {
		t.Fatalf("serial fraction %f, want %f", ps.SerialFrac, wantS)
	}
	wantOcc := 130.0 / (90.0 * 2)
	if math.Abs(ps.Occupancy-wantOcc) > 1e-9 {
		t.Fatalf("occupancy %f, want %f", ps.Occupancy, wantOcc)
	}
	wantCeil := 1 / (wantS + (1-wantS)/2)
	if math.Abs(ps.AmdahlAtW-wantCeil) > 1e-9 {
		t.Fatalf("amdahl@W %f, want %f", ps.AmdahlAtW, wantCeil)
	}
	if math.Abs(ps.AmdahlInf-1/wantS) > 1e-9 {
		t.Fatalf("amdahl@inf %f, want %f", ps.AmdahlInf, 1/wantS)
	}
	// Serial segments: plan and commit (step 0) plus the stage's
	// uncovered tail (90-100ms).
	if len(rep.Serial) != 3 {
		t.Fatalf("serial segments %+v", rep.Serial)
	}
	byName := map[string]SerialSeg{}
	for _, s := range rep.Serial {
		byName[s.Name] = s
	}
	if byName["route/commit"].TotalNS != 20e6 || byName["route/plan"].TotalNS != 10e6 {
		t.Fatalf("segments %+v", rep.Serial)
	}
	if got := byName["route (uninstrumented)"]; got.TotalNS != 10e6 || got.Phase != "stage" {
		t.Fatalf("uninstrumented segment %+v", got)
	}
	// Ranked by total: commit (20) first.
	if rep.Serial[0].Name != "route/commit" {
		t.Fatalf("ranking %+v", rep.Serial)
	}
	out := rep.Format(10)
	for _, want := range []string{"route", "occupancy", "serial segments", "route/commit"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeSingleChunkFanoutIsSerial(t *testing.T) {
	tr := NewAt(time.Unix(0, 0))
	step := tr.NextStep()
	tr.Track("worker 0").addSlice(Slice{Name: "place/solve", Cat: "place", Start: 0, Dur: 5e6, Step: step})
	rep := Analyze(tr)
	if len(rep.Serial) != 1 || rep.Serial[0].Name != "place/solve" || rep.Serial[0].TotalNS != 5e6 {
		t.Fatalf("single-chunk fan-out not counted serial: %+v", rep.Serial)
	}
	if rep.Phases[0].SerialFrac != 1 {
		t.Fatalf("serial fraction %f, want 1", rep.Phases[0].SerialFrac)
	}
	if rep.Phases[0].AmdahlInf != 1 {
		t.Fatalf("amdahl ceiling %f, want 1", rep.Phases[0].AmdahlInf)
	}
}

// TestAnalyzeMainIsWorkerZero: a phase whose serial spans go on main and
// whose one-worker fan-out goes on worker 0 ran on one goroutine, and
// reads as one worker, fully occupied.
func TestAnalyzeMainIsWorkerZero(t *testing.T) {
	tr := NewAt(time.Unix(0, 0))
	tr.Track("main").addSlice(Slice{Name: "place/spread", Cat: "place", Start: 0, Dur: 2e6})
	tr.Track("worker 0").addSlice(Slice{Name: "place/descend", Cat: "place", Start: 2e6, Dur: 3e6, Step: tr.NextStep()})
	ps := Analyze(tr).Phases[0]
	if ps.Workers != 1 || ps.Occupancy != 1 {
		t.Fatalf("main + worker 0 read as %d workers at %.0f %% occupancy, want 1 at 100 %%", ps.Workers, 100*ps.Occupancy)
	}
}
