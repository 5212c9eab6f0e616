package flows

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/obs/trace"
	"macro3d/internal/piton"
	"macro3d/internal/stash"
)

// digest is SHA-256 over a tile flow's state, written by the checkpoint
// regions' encoders, each piece behind a presence byte. It holds the
// extraction's per-net records, not its running totals, and no power
// (DESIGN.md §20).
func digest(st *State) [32]byte {
	e := stash.NewEnc()
	piece := func(present bool, enc func()) {
		e.Bool(present)
		if present {
			enc()
		}
	}
	d, tr, ex := st.Design, st.Tree, st.ExSlow
	piece(d != nil, func() {
		e.Int(len(d.Instances))
		for _, inst := range d.Instances {
			encodeInstState(e, inst, true)
		}
		encodeNets(e, d.Nets, 0)
	})
	piece(st.Routes != nil, func() { encodeResult(e, st.Routes) })
	piece(st.DB != nil, func() { encodeDynState(e, st.DB) })
	piece(st.Report != nil, func() { encodeReport(e, st.Report) })
	piece(tr != nil, func() {
		e.Int(tr.Depth)
		e.Int(tr.Buffers)
		e.F64(tr.Wirelength)
		e.F64(tr.Skew)
	})
	piece(ex != nil, func() {
		e.Int(len(ex.Nets))
		for _, rc := range ex.Nets {
			piece(rc != nil, func() {
				e.F64(rc.WireC)
				e.F64(rc.WireR)
				e.F64(rc.PinC)
				e.F64s(rc.ElmoreTo)
			})
		}
	})
	return sha256.Sum256(e.Bytes())
}

// A harnessTile is one of the harness's tiles and the seed its cells
// run at.
type harnessTile struct {
	pc   piton.Config
	seed uint64
}

var (
	tinyTile  = harnessTile{piton.Tiny(), 7}
	smallTile = harnessTile{piton.SmallCache(), 1}
	largeTile = harnessTile{piton.LargeCache(), 1}
)

// TestDeterminism: a run depends on its flow, tile and seed, and not on
// -j, the stage cache, Check or attached instrumentation.
// Each flow × tile runs once as the reference (Workers 1, nothing
// attached); each axis is one more run, held to it on the exact PPA row,
// the final state's digest and the stage sequence. DESIGN.md §20 gives
// the axes, and why only a mismatch pays for per-stage digests.
func TestDeterminism(t *testing.T) {
	tiles := []struct {
		harnessTile
		axes []string
	}{
		{tinyTile, []string{"checks", "instrumented", "cache-cold", "cache-warm"}},
		{smallTile, []string{"checks", "default-j"}},
		{largeTile, []string{"checks"}},
	}
	switch {
	case raceEnabled: // the fanned-out phases under the detector
		tiles = tiles[1:2]
		tiles[0].axes = []string{"checks"}
	case testing.Short():
		tiles = tiles[:2]
	}
	for _, tile := range tiles {
		holdAll(t, tile.harnessTile, func(key string) string { return tile.pc.Name + "/" + key }, tile.axes...)
	}
}

// The five tests below each hold one property of the harness by name:
// the axes that say it, on TestDeterminism's cells and runs.

// TestWorkerEquivalence: the two stages that fan out, placement and
// extraction, leave every flow's state as the serial reference leaves it
// at four workers (checks) and at every CPU (default-j), on the small
// and large tiles.
func TestWorkerEquivalence(t *testing.T) {
	name := func(tile string) func(string) string {
		return func(key string) string {
			if key == "bfs2d" {
				key = "bf-s2d"
			}
			return tile + "/" + key
		}
	}
	if raceEnabled {
		holdAll(t, smallTile, name("small"), "checks")
		return
	}
	holdAll(t, smallTile, name("small"), "checks", "default-j")
	if !testing.Short() {
		holdAll(t, largeTile, name("large"), "checks")
	}
}

// TestStageCacheEquivalence: a cold cached run and a warm one end in the
// uncached run's state, the cold run storing every region and the warm
// one serving every region from the cache.
func TestStageCacheEquivalence(t *testing.T) {
	holdAll(t, tinyTile, flowName, "cache-cold", "cache-warm")
}

// TestWarmRunRestoresFullState: a warm run, which reads no snapshot
// another covers (route under sign-off), ends in the reference's state
// byte for byte, reads fewer bytes than the cold run wrote and opens no
// design database.
func TestWarmRunRestoresFullState(t *testing.T) {
	holdAll(t, tinyTile, flowName, "cache-warm")
}

// TestObsDisabledIsByteIdentical: a recorder with a live event sink
// observes a flow and never steers it. The instrumented axis attaches
// the recorder together with a timeline, so the timeline's test holds
// the same run.
func TestObsDisabledIsByteIdentical(t *testing.T) {
	holdAll(t, tinyTile, flowName, "instrumented")
}

// TestTraceDisabledIsByteIdentical: an execution timeline records a flow
// and never steers it (the instrumented axis, as above).
func TestTraceDisabledIsByteIdentical(t *testing.T) {
	holdAll(t, tinyTile, flowName, "instrumented")
}

func flowName(key string) string { return key }

// holdAll holds the axes of every flow's cell on tile: each flow in the
// parallel subtest name(key), each axis in a subtest of that.
func holdAll(t *testing.T, tile harnessTile, name func(key string) string, axes ...string) {
	for _, key := range Names() {
		t.Run(name(key), func(t *testing.T) {
			t.Parallel()
			c := cellOf(tile, key)
			for _, axis := range axes {
				t.Run(axis, func(t *testing.T) { c.hold(t, axis) })
			}
		})
	}
}

// A harnessCell is one flow × tile. It makes each of its runs once,
// whichever test asks first, and keeps only what a run is held to.
type harnessCell struct {
	mu   sync.Mutex
	key  string
	ref  Config
	runs map[string]outcome
}

// outcome is what the harness keeps of a run: its PPA row, its final
// state's digest, its stage sequence and whether it left a design
// database open; or the run's error. check is what the axis's own check
// of the attached observers or cache found.
type outcome struct {
	ppa    PPA
	sum    [32]byte
	stages string
	ddb    bool
	err    error
	check  error
}

var cells struct {
	sync.Mutex
	m map[string]*harnessCell
}

// cellOf is the package's one cell of flow key on tile.
func cellOf(tile harnessTile, key string) *harnessCell {
	cells.Lock()
	defer cells.Unlock()
	name := tile.pc.Name + "/" + key
	c := cells.m[name]
	if c == nil {
		c = &harnessCell{key: key, ref: Config{Piton: tile.pc, Seed: tile.seed, Workers: 1}, runs: map[string]outcome{}}
		if cells.m == nil {
			cells.m = map[string]*harnessCell{}
		}
		cells.m[name] = c
	}
	return c
}

// hold holds the named axis's run to the reference's on the stage
// sequence, the exact PPA row and the final state's digest.
func (c *harnessCell) hold(t *testing.T, axis string) {
	t.Helper()
	ref, got := c.run(t, "reference"), c.run(t, axis)
	if ref.err != nil {
		t.Fatalf("reference: %v", ref.err)
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.check != nil {
		t.Error(got.check)
	}
	if want := axisStages(axis, c.key, ref.stages); got.stages != want {
		t.Errorf("stage sequence\n got %s\nwant %s", got.stages, want)
	}
	if got.ppa != ref.ppa {
		t.Errorf("PPA row differs from the reference's:\n got %+v\nwant %+v", got.ppa, ref.ppa)
	}
	if got.sum != ref.sum {
		t.Errorf("final state differs from the reference's; %s", c.divergence(t, axis, got.stages))
	}
	if axis == "cache-warm" && got.ddb {
		t.Error("a warm run opened a design database, which nothing after a restored sign-off reads")
	}
}

// run is the outcome of the named axis's run ("reference" for the
// reference's), made on the first call. The cache axes run together,
// cold then warm, over a fresh stash directory.
func (c *harnessCell) run(t *testing.T, axis string) outcome {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if o, ok := c.runs[axis]; ok {
		return o
	}
	switch axis {
	case "default-j": // the run other tests share
		f, _ := runSmall(t, c.key)
		c.runs[axis] = outcomeOf(f.ppa, f.st)
	case "cache-cold", "cache-warm":
		dir, err := os.MkdirTemp("", "determinism")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		var cold stash.Stats
		for _, axis := range []string{"cache-cold", "cache-warm"} {
			c.runs[axis] = c.exec(axisConfig(axis, c.ref, dir, &cold))
		}
	default:
		c.runs[axis] = c.exec(axisConfig(axis, c.ref, "", nil))
	}
	return c.runs[axis]
}

// exec runs the cell's flow under cfg and then the axis's check.
func (c *harnessCell) exec(cfg Config, check func() error, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	ppa, st, _, err := Run(context.Background(), c.key, cfg)
	if err != nil {
		return outcome{err: err}
	}
	o := outcomeOf(ppa, st)
	o.check = check()
	return o
}

func outcomeOf(ppa *PPA, st *State) outcome {
	return outcome{ppa: *ppa, sum: digest(st), stages: renderStages(st.Trace), ddb: st.DDB != nil}
}

// mustRun runs the named flow and returns its PPA row and State.
func mustRun(t *testing.T, key string, cfg Config) (*PPA, *State) {
	t.Helper()
	ppa, st, _, err := Run(context.Background(), key, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ppa, st
}

// axisConfig is the configuration of the named axis's run of the cell
// whose reference configuration is ref, and the check to make of what
// the run attached once it is done. The cache axes open a store over
// dir; the cold run's statistics go to *cold, where the warm run's check
// reads them.
func axisConfig(axis string, ref Config, dir string, cold *stash.Stats) (Config, func() error, error) {
	cfg, check := ref, func() error { return nil }
	switch axis {
	case "checks": // four workers fan out at any GOMAXPROCS
		cfg.Workers, cfg.Check = 4, true
	case "default-j":
		cfg.Workers = 0
	case "instrumented":
		var events bytes.Buffer
		tl := trace.New()
		cfg.Obs = obs.New()
		cfg.Obs.SetSink(&events)
		cfg.Obs.SetTimeline(tl)
		check = func() error {
			if err := cfg.Obs.Close(); err != nil || events.Len() == 0 || len(tl.Tracks()) == 0 {
				return fmt.Errorf("sink error %v, %d event bytes, %d timeline tracks", err, events.Len(), len(tl.Tracks()))
			}
			return nil
		}
	case "cache-cold", "cache-warm":
		s, err := stash.Open(dir)
		if err != nil {
			return cfg, nil, err
		}
		cfg.Cache = s
		check = func() error {
			st, isCold := s.Stats(), axis == "cache-cold"
			if isCold {
				*cold = st
			}
			// A warm run reads each snapshot the cold run wrote, once.
			if isCold && (st.Misses == 0 || st.Puts == 0 || st.Hits != 0) ||
				!isCold && (st.Hits == 0 || st.Misses != 0 || st.BytesRead != cold.BytesWritten) {
				return fmt.Errorf("stash stats %+v, the cold run's %+v", st, *cold)
			}
			return nil
		}
	}
	return cfg, check, nil
}

// axisStages is the stage sequence the axis's run records when the
// reference's records ref: Check appends separate (two dies) and verify,
// as goldenStages' cold rows (run with Check) show, and a warm run
// restores each region whole, as its warm rows show.
func axisStages(axis, key, ref string) string {
	for _, g := range goldenStages {
		switch {
		case g.cli != "-flow "+key:
		case axis == "checks":
			return ref + strings.TrimPrefix(g.cold, ref)
		case axis == "cache-warm":
			return g.warm
		}
	}
	return ref
}

// divergence re-runs the reference and the axis with a digest after
// every stage and names the first stage whose digests differ. That hook
// disables the stage cache, so a cache axis names what it restored, from
// its stage sequence.
func (c *harnessCell) divergence(t *testing.T, axis, stages string) string {
	if strings.HasPrefix(axis, "cache-") {
		return "the run restored the regions marked *: " + stages
	}
	trail := func(cfg Config) (stages []string, sums [][32]byte) {
		cfg.AfterStage = func(_, stage string, st *State) {
			stages, sums = append(stages, stage), append(sums, digest(st))
		}
		mustRun(t, c.key, cfg)
		return stages, sums
	}
	cfg, _, _ := axisConfig(axis, c.ref, "", nil)
	a, aSums := trail(c.ref)
	b, bSums := trail(cfg)
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] || aSums[i] != bSums[i] {
			return "first divergent stage: " + a[i]
		}
	}
	return "no stage differs on a re-run with per-stage digests"
}

// TestDigestSeesWhatPPAMisses: one movable cell moved one ulp leaves the
// PPA row the finished state signs off to as it was, and its digest not.
func TestDigestSeesWhatPPAMisses(t *testing.T) {
	f, _ := runSmall(t, "2d")
	ppa, sum := f.ppa, digest(f.st)
	defer func() { f.ppa = ppa }()
	cells := f.st.Design.StdCells()
	inst := cells[slices.IndexFunc(cells, func(c *netlist.Instance) bool { return !c.Fixed })]
	x := inst.Loc.X
	inst.Loc.X = math.Nextafter(x, math.Inf(1))
	if err := f.power(); err != nil {
		t.Fatal(err)
	}
	moved := digest(f.st)
	inst.Loc.X = x
	if *f.ppa != *ppa || moved == sum || digest(f.st) != sum {
		t.Errorf("one ulp on %s: PPA row kept %v, digest moved %v, restored %v",
			inst.Name, *f.ppa == *ppa, moved != sum, digest(f.st) == sum)
	}
}
