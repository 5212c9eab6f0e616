package flows

import (
	"context"
	"errors"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/opt"
	"macro3d/internal/piton"
	"macro3d/internal/place"
	"macro3d/internal/tech"
)

// tinyCfg keeps flow-level tests fast.
func tinyCfg() Config {
	return Config{Piton: piton.Tiny(), Seed: 5}
}

// The PPA rows of the three pseudo-3D flows on the tiny tile, as commit
// 6951ce7 produced them with -analytic-place, the placer that has since
// become the only one. Its flat-table rewrite reproduced them to the
// bit; the unshifted wirelength kernel moves them in the 13th digit
// (checkPinnedPPA). BF S2D's was re-pinned when routes began to treat a
// macro obstruction as a wall (DESIGN.md, "Routing contract"), and again
// when a wall's pin access began to count as capacity, not overflow.
var (
	tinyS2D   = PPA{Flow: "S2D", Config: "piton_tiny", FclkMHz: 922.0667107901871, MinPeriodPs: 1084.520228631859, EmeanFJ: 5911.76683896666, PowerUW: 5451.04340416449, LeakageUW: 5.862899999999996, FootprintMM2: 0.10624390135750694, LogicCellAreaMM2: 0.02000000000000018, MetalAreaMM2: 1.2749268162900833, TotalWLm: 0.07097016395751322, F2FBumps: 1383, CpinNF: 0.0029239500000000033, CwireNF: 0.016801125970768542, ClkDepth: 7, ClkSkewPs: 25, CritPathWLmm: 0.5326928452017184, CritPathPs: 1330.1203835982344, RouteOverflow: 0, Dies: 2, MacroPins: 128, HoldWNSps: -299.1562738761921, HoldViolations: 32, Resized: 0, Buffers: 0}
	tinyBFS2D = PPA{Flow: "BF S2D", Config: "piton_tiny", FclkMHz: 1057.0189232536495, MinPeriodPs: 946.0568566945449, EmeanFJ: 5778.9812391303485, PowerUW: 6108.492526888603, LeakageUW: 5.949699999999998, FootprintMM2: 0.10624390135750694, LogicCellAreaMM2: 0.02000000000000018, MetalAreaMM2: 1.2749268162900833, TotalWLm: 0.06781294173099806, F2FBumps: 1186, CpinNF: 0.0029520100000000036, CwireNF: 0.01601033839999725, ClkDepth: 7, ClkSkewPs: 25, CritPathWLmm: 0.31338174697001664, CritPathPs: 1207.6116620393234, RouteOverflow: 0, Dies: 2, MacroPins: 128, HoldWNSps: -328.48493256749185, HoldViolations: 32, Resized: 0, Buffers: 0}
	tinyC2D   = PPA{Flow: "C2D", Config: "piton_tiny", FclkMHz: 1111.2445984541714, MinPeriodPs: 899.8918882405176, EmeanFJ: 5816.897120623826, PowerUW: 6463.995505056849, LeakageUW: 6.083899999999996, FootprintMM2: 0.10624390135750694, LogicCellAreaMM2: 0.02029333784622346, MetalAreaMM2: 1.2749268162900833, TotalWLm: 0.06767748525905343, F2FBumps: 1310, CpinNF: 0.0029432900000000034, CwireNF: 0.015940758859776225, ClkDepth: 7, ClkSkewPs: 25, CritPathWLmm: 0.38912534343278554, CritPathPs: 1138.5684512909659, RouteOverflow: 0, Dies: 2, MacroPins: 128, HoldWNSps: -293.94659257248156, HoldViolations: 32, Resized: 14, Buffers: 4}
)

// ppaRelTol is how far a float of a PPA row may sit from its pinned
// value: well above what reordering the placer's arithmetic moves, well
// below what a different placement does.
const ppaRelTol = 1e-9

// checkPinnedPPA holds a PPA row to a pinned one: strings and integers
// equal, floats within tol of the pinned value, relative. A rewrite that
// rounds differently keeps every discrete figure and moves the floats in
// their last digits only; a retune does not.
func checkPinnedPPA(t *testing.T, ppa *PPA, want PPA, tol float64) {
	t.Helper()
	got, pin := reflect.ValueOf(*ppa), reflect.ValueOf(want)
	for i := range got.NumField() {
		g, w, name := got.Field(i), pin.Field(i), got.Type().Field(i).Name
		if g.Kind() != reflect.Float64 {
			if !g.Equal(w) {
				t.Errorf("%s %s = %v, pinned %v", want.Flow, name, g, w)
			}
		} else if d := math.Abs(g.Float() - w.Float()); d > tol*math.Abs(w.Float()) {
			t.Errorf("%s %s moved: %v, pinned %v (%.1e relative)", want.Flow, name, g, w, d/math.Abs(w.Float()))
		}
	}
}

// TestKernelRewriteKeepsQoR holds all five flows on the small tile at
// seed 1 — the rows the paper tables and the flow ledger are made of — to
// what parent commit 6102dd1 produced before the placer's wirelength
// kernel was rewritten (exponentials once per point, no max-shift): every
// integer equal, every float within ppaRelTol — but for MoL S2D, the one
// row that moves further under rounding alone. Writing the *parent's*
// (x−f)/γ as (x−f)·(1/γ) moves its CritPathWLmm by 3.3e-9 and its
// HoldWNSps by 2.0e-9, every other row by < 5e-11 (DESIGN.md §16). C2D's
// row moved once since, by ≤ 2.6e-9, when its post-partition optimizer
// got a free-space map per die (TestC2DFreeSpaceSeesBothDies). The 2D and
// BF S2D rows were re-pinned when every route, the optimizer's ECO
// reroutes included, began to treat a macro obstruction as a wall
// (DESIGN.md, "Routing contract"): they no longer cross SRAMs. The BF
// S2D row moved again when a wall's pin access began to count as
// capacity, not overflow: negotiation no longer fights it.
func TestKernelRewriteKeepsQoR(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("five full small-tile flows")
	}
	for _, c := range []struct {
		key  string
		tol  float64
		want PPA
	}{
		{"2d", ppaRelTol, PPA{Flow: "2D", Config: "piton_small", FclkMHz: 692.0570601606809, MinPeriodPs: 1444.967557686387, EmeanFJ: 55289.766690035016, PowerUW: 38263.67339247557, LeakageUW: 92.03900000000057, FootprintMM2: 1.2312490622396546, LogicCellAreaMM2: 0.3771924870876255, MetalAreaMM2: 7.387494373437928, TotalWLm: 1.255532681061984, F2FBumps: 0, CpinNF: 0.03702747999999931, CwireNF: 0.2697502373495614, ClkDepth: 13, ClkSkewPs: 25, CritPathWLmm: 2.4156081810282988, CritPathPs: 2103.598507050227, RouteOverflow: 0, Dies: 1, MacroPins: 876, HoldWNSps: -736.6458450721449, HoldViolations: 384, Resized: 563, Buffers: 816}},
		{"macro3d", ppaRelTol, PPA{Flow: "Macro-3D", Config: "piton_small", FclkMHz: 767.019599163908, MinPeriodPs: 1303.7476501122696, EmeanFJ: 42715.62927873663, PowerUW: 32763.72484741066, LeakageUW: 78.86760000000056, FootprintMM2: 0.6157677688962984, LogicCellAreaMM2: 0.34682052282623704, MetalAreaMM2: 7.38921322675558, TotalWLm: 0.879822374089867, F2FBumps: 899, CpinNF: 0.03552497999999905, CwireNF: 0.1854792442592821, ClkDepth: 12, ClkSkewPs: 25, CritPathWLmm: 0.9950677616373524, CritPathPs: 1934.7949134200676, RouteOverflow: 0, Dies: 2, MacroPins: 876, HoldWNSps: -691.2234413483519, HoldViolations: 384, Resized: 945, Buffers: 522}},
		{"s2d", 1e-7, PPA{Flow: "S2D", Config: "piton_small", FclkMHz: 186.2103797682144, MinPeriodPs: 5370.26991322799, EmeanFJ: 54015.798520887925, PowerUW: 10058.302356057897, LeakageUW: 51.41030000000053, FootprintMM2: 0.6157677688962984, LogicCellAreaMM2: 0.2916142012008488, MetalAreaMM2: 7.38921322675558, TotalWLm: 1.485874428760639, F2FBumps: 14880, CpinNF: 0.03169017999999891, CwireNF: 0.34907376316984773, ClkDepth: 12, ClkSkewPs: 25, CritPathWLmm: 1.7905958251487784, CritPathPs: 6088.118102599541, RouteOverflow: 0, Dies: 2, MacroPins: 876, HoldWNSps: -780.5078659294907, HoldViolations: 384, Resized: 0, Buffers: 0}},
		{"bfs2d", ppaRelTol, PPA{Flow: "BF S2D", Config: "piton_small", FclkMHz: 240.98974142724492, MinPeriodPs: 4149.554226157386, EmeanFJ: 42134.51787935977, PowerUW: 10153.98656890854, LeakageUW: 51.63730000000076, FootprintMM2: 0.6157677688962984, LogicCellAreaMM2: 0.29148608999443143, MetalAreaMM2: 7.38921322675558, TotalWLm: 0.8340362051436547, F2FBumps: 14764, CpinNF: 0.03179520999999912, CwireNF: 0.2023633264278357, ClkDepth: 12, ClkSkewPs: 25, CritPathWLmm: 1.0365450948266253, CritPathPs: 4823.387362766988, RouteOverflow: 0, Dies: 2, MacroPins: 876, HoldWNSps: -743.5552533465394, HoldViolations: 384, Resized: 0, Buffers: 0}},
		{"c2d", 1e-8, PPA{Flow: "C2D", Config: "piton_small", FclkMHz: 234.78557957034246, MinPeriodPs: 4259.20536444359, EmeanFJ: 51560.19397821137, PowerUW: 12105.59002593364, LeakageUW: 53.47500000000063, FootprintMM2: 0.6157677688962984, LogicCellAreaMM2: 0.2955808444295456, MetalAreaMM2: 7.38921322675558, TotalWLm: 1.3497740154665858, F2FBumps: 14573, CpinNF: 0.03207204999999895, CwireNF: 0.3176530587707546, ClkDepth: 12, ClkSkewPs: 25, CritPathWLmm: 2.2565073254920334, CritPathPs: 5010.687057767604, RouteOverflow: 0, Dies: 2, MacroPins: 876, HoldWNSps: -815.8045377326016, HoldViolations: 384, Resized: 11, Buffers: 29}},
	} {
		f, _ := runSmall(t, c.key)
		checkPinnedPPA(t, f.ppa, c.want, c.tol)
	}
}

// TestPseudoSpecs pins what tells the three pseudo-3D rows apart.
func TestPseudoSpecs(t *testing.T) {
	for _, c := range []struct {
		flow    string
		style   floorplan.Style
		seedOff uint64
		area, s float64
		budget  opt.Options
	}{
		{"S2D", floorplan.StyleMoL, 3, 0.5, 1, opt.Options{Frozen: true}},
		{"BF S2D", floorplan.StyleBalanced, 3, 0.5, 1, opt.Options{Frozen: true}},
		{"C2D", floorplan.StyleMoL, 4, 1, math.Sqrt2, opt.Options{MaxIters: 2, MaxMovesPerIter: 8}},
	} {
		spec, ok := pseudoSpecs[c.flow]
		if !ok {
			t.Errorf("no pseudoSpecs row for %s", c.flow)
			continue
		}
		if spec.style != c.style || spec.seedOff != c.seedOff || spec.area != c.area || spec.s != c.s || spec.budget != c.budget {
			t.Errorf("%s row = %+v, want %+v", c.flow, spec, c)
		}
	}
	if len(pseudoSpecs) != 3 {
		t.Errorf("%d pseudoSpecs rows, want 3", len(pseudoSpecs))
	}
	// The pseudo BEOLs: S2D shrinks geometry and keeps per-µm RC, C2D
	// keeps geometry and scales per-µm RC by 1/s.
	tk, err := tech.New28(6)
	if err != nil {
		t.Fatal(err)
	}
	s2d := pseudoSpecs["S2D"].beol(tk.Logic, 1)
	s := pseudoSpecs["C2D"].s
	c2d := pseudoSpecs["C2D"].beol(tk.Logic, s)
	for i, l := range tk.Logic.Layers {
		if g := s2d.Layers[i]; g.Pitch != l.Pitch*0.7071 || g.RPerUm != l.RPerUm || g.CPerUm != l.CPerUm {
			t.Errorf("S2D pseudo BEOL %s = %+v, from %+v", l.Name, g, l)
		}
		if g := c2d.Layers[i]; g.Pitch != l.Pitch || g.RPerUm != l.RPerUm*(1/s) || g.CPerUm != l.CPerUm*(1/s) {
			t.Errorf("C2D pseudo BEOL %s = %+v, from %+v", l.Name, g, l)
		}
	}
}

func TestRunS2DTiny(t *testing.T) {
	ppa, st, err := RunS2D(tinyCfg(), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(ppa)
	checkPinnedPPA(t, ppa, tinyS2D, ppaRelTol)
	if ppa.Flow != "S2D" || ppa.Dies != 2 {
		t.Fatalf("identity: %+v", ppa)
	}
	if ppa.F2FBumps == 0 {
		t.Fatal("S2D produced no bumps despite tier partitioning")
	}
	// The frozen sign-off must not have inserted buffers or resized.
	if ppa.Resized != 0 || ppa.Buffers != 0 {
		t.Fatalf("frozen S2D sign-off made %d/%d edits", ppa.Resized, ppa.Buffers)
	}
	// Cells ended up on both dies (bin-balanced partitioning).
	onMacro := 0
	for _, c := range st.Design.StdCells() {
		if c.Die == netlist.MacroDie {
			onMacro++
		}
	}
	if onMacro == 0 {
		t.Fatal("no cells on the macro die after partitioning")
	}
	// Macro-die cells carry _MD pin layers.
	for _, c := range st.Design.StdCells() {
		if c.Die == netlist.MacroDie {
			if !strings.HasSuffix(c.Master.Pins[0].Layer, "_MD") {
				t.Fatalf("macro-die cell %s pins on %s", c.Name, c.Master.Pins[0].Layer)
			}
			break
		}
	}
}

func TestRunBFS2DTiny(t *testing.T) {
	ppa, st, err := RunS2D(tinyCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(ppa)
	checkPinnedPPA(t, ppa, tinyBFS2D, ppaRelTol)
	if ppa.Flow != "BF S2D" {
		t.Fatalf("flow name %q", ppa.Flow)
	}
	// Balanced floorplan: macros on both dies.
	nl, nm := 0, 0
	for _, m := range st.Design.Macros() {
		if m.Die == netlist.LogicDie {
			nl++
		} else {
			nm++
		}
	}
	if nl == 0 || nm == 0 {
		t.Fatalf("BF floorplan not balanced: %d/%d", nl, nm)
	}
}

func TestRunC2DTiny(t *testing.T) {
	ppa, _, err := RunC2D(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(ppa)
	checkPinnedPPA(t, ppa, tinyC2D, ppaRelTol)
	if ppa.Flow != "C2D" || ppa.Dies != 2 {
		t.Fatalf("identity: %+v", ppa)
	}
	if ppa.F2FBumps == 0 {
		t.Fatal("C2D produced no bumps")
	}
}

func TestBaselinesDoNotBeat2DOnTiny(t *testing.T) {
	// Even at the tiny scale the pseudo-flows should not outperform
	// the 2D baseline (the paper's macro-heavy regime holds: tiny is
	// still >50 % macro area).
	p2d, _, err := Run2D(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	ps2d, _, err := RunS2D(tinyCfg(), false)
	if err != nil {
		t.Fatal(err)
	}
	if ps2d.FclkMHz > p2d.FclkMHz*1.05 {
		t.Fatalf("S2D (%f) beat 2D (%f) — mechanism broken", ps2d.FclkMHz, p2d.FclkMHz)
	}
}

func TestMacro3DTinyAndSeparation(t *testing.T) {
	ppa, st, md, err := RunMacro3D(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(ppa)
	if md.EditedMacros == 0 || ppa.F2FBumps == 0 {
		t.Fatal("Macro-3D identity broken")
	}
	// Footprint halves against 2D with the same seed.
	p2d, _, err := Run2D(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := ppa.FootprintMM2 / p2d.FootprintMM2
	if r < 0.45 || r > 0.55 {
		t.Fatalf("footprint ratio = %v", r)
	}
	_ = st
}

func TestGeneratorHookSensor(t *testing.T) {
	cfg := Config{Seed: 7, Generator: func() (*piton.Tile, error) {
		sc := piton.DefaultSensorSoC()
		sc.Sensors = 4
		sc.Stages = 2
		sc.StageWidth = 8
		sc.TargetLogicArea = 0.01e6
		return piton.GenerateSensorSoC(sc)
	}}
	p2d, _, err := Run2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MacroDieMetals = 4
	p3d, _, _, err := RunMacro3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sensor tiny: 2D %.0f MHz vs M3D %.0f MHz", p2d.FclkMHz, p3d.FclkMHz)
	if p3d.FootprintMM2 >= p2d.FootprintMM2 {
		t.Fatal("sensor 3D footprint not reduced")
	}
	if p3d.MetalAreaMM2 >= p2d.MetalAreaMM2*2 {
		t.Fatal("heterogeneous stack shows no metal saving vs doubled 2D")
	}
	// S2D must reject custom generators.
	if _, _, err := RunS2D(cfg, false); err == nil {
		t.Fatal("S2D accepted a custom generator")
	}
	if _, _, err := RunC2D(cfg); err == nil {
		t.Fatal("C2D accepted a custom generator")
	}
}

// A macro-die metal count the technology lacks fails where it did in
// the hand-written scripts — Macro-3D at generate, the pseudo flows at
// prepare — and no 3D flow shows a BEOL in its State before prepare. A
// macro die with fewer metals than its macros' pins use — the tiny
// tile's SRAMs reach M4, so three — fails at prepare too, naming the
// macro and the layer, rather than after placement, in the router.
func TestBadMacroDieMetalsFailingStage(t *testing.T) {
	for _, c := range []struct {
		flow   string
		metals int
		stage  string
	}{
		{"macro3d", 99, StageGenerate},
		{"s2d", 99, StagePrepare},
		{"c2d", 99, StagePrepare},
		{"macro3d", 3, StagePrepare},
		{"s2d", 3, StagePrepare},
	} {
		cfg := tinyCfg()
		cfg.MacroDieMetals = c.metals
		cfg.AfterStage = func(flow, stage string, st *State) {
			if st.Beol != nil && !strings.HasPrefix(stage, "pseudo-") && stage != StageTransfer {
				t.Errorf("%s: State.Beol set after %s, before prepare", c.flow, stage)
			}
		}
		_, st, md, err := Run(context.Background(), c.flow, cfg)
		var se *StageError
		if !errors.As(err, &se) || se.Stage != c.stage {
			t.Fatalf("%s: got %v, want a failure at %s", c.flow, err, c.stage)
		}
		if md != nil {
			t.Errorf("%s: a combined stack without a macro-die BEOL", c.flow)
		}
		if last := st.Trace.Stages[len(st.Trace.Stages)-1]; last.Stage != c.stage {
			t.Errorf("%s: trace ends at %s, want %s", c.flow, last.Stage, c.stage)
		}
		if c.metals != 3 {
			continue
		}
		m := regexp.MustCompile(`core: macro (\S+): .* on M4: `).FindStringSubmatch(err.Error())
		if m == nil {
			t.Fatalf("%s: %v names no macro and M4", c.flow, err)
		}
		if inst := st.Design.Instance(m[1]); inst == nil || !inst.IsMacro() || inst.Die != netlist.MacroDie {
			t.Errorf("%s: %q is no macro on the macro die", c.flow, m[1])
		}
	}
}

// TestIsoPerformanceTargetPeriod is the paper's iso-performance
// experiment where the paper runs it: on the small-cache tile, where
// Macro-3D has margin over 2D (+9.9 % fclk at this seed), so 2D's
// minimum period is a target Macro-3D can meet. The tiny tile this test
// used to run on has none: there the two flows' ordering is seed noise
// (seed 5: 2D 651 ps, max-performance Macro-3D 739 ps), and
// TestTargetPeriodOutOfReach covers that case.
func TestIsoPerformanceTargetPeriod(t *testing.T) {
	if testing.Short() {
		t.Skip("full flows in -short mode")
	}
	f2d, _ := runSmall(t, "2d")
	p2d := f2d.ppa
	cfg := smallCfg()
	cfg.TargetPeriod = p2d.MinPeriodPs
	p3dIso, _, _, err := RunMacro3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Iso run reports at the target frequency…
	if p3dIso.FclkMHz != 1e6/p2d.MinPeriodPs {
		t.Fatalf("iso fclk %.1f, want %.1f", p3dIso.FclkMHz, 1e6/p2d.MinPeriodPs)
	}
	// …and meets the target.
	if p3dIso.MinPeriodPs > p2d.MinPeriodPs*1.001 {
		t.Fatalf("iso run missed target: %.0f > %.0f", p3dIso.MinPeriodPs, p2d.MinPeriodPs)
	}
	// Iso power ≤ max-performance power (less aggressive sizing).
	f3d, _ := runSmall(t, "macro3d")
	if p3dMax := f3d.ppa; p3dIso.PowerUW > p3dMax.PowerUW*1.05 {
		t.Fatalf("iso power %.1f exceeds max-perf power %.1f", p3dIso.PowerUW, p3dMax.PowerUW)
	}
}

// TestTargetPeriodOutOfReach: a target the design cannot meet must not
// make the optimizer give up any earlier than it does unconstrained.
// With TargetPeriod set, STA runs at that period instead of a relaxed
// one and the loop only gains an early exit, so an out-of-reach target
// has to end on the max-performance design: same minimum period to the
// last bit, same edits. (Tiny tile, seed 5: 2D reaches 651 ps, Macro-3D
// stops at 739 ps with or without the target.)
func TestTargetPeriodOutOfReach(t *testing.T) {
	p3dMax, _, _, err := RunMacro3D(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	cfg.TargetPeriod = p3dMax.MinPeriodPs * 0.8
	p3d, _, _, err := RunMacro3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p3d.MinPeriodPs != p3dMax.MinPeriodPs || p3d.Resized != p3dMax.Resized || p3d.Buffers != p3dMax.Buffers {
		t.Fatalf("out-of-reach target ended at %v ps (%d resized, %d buffers), unconstrained at %v ps (%d, %d)",
			p3d.MinPeriodPs, p3d.Resized, p3d.Buffers, p3dMax.MinPeriodPs, p3dMax.Resized, p3dMax.Buffers)
	}
	if p3d.FclkMHz != 1e6/cfg.TargetPeriod {
		t.Fatalf("fclk %.1f, want the target's %.1f", p3d.FclkMHz, 1e6/cfg.TargetPeriod)
	}
}

func TestTableIIIShapeTiny(t *testing.T) {
	// M6–M4 ablation on the tiny tile: fclk within a few percent,
	// metal area exactly −16.7 %.
	c6 := tinyCfg()
	c6.MacroDieMetals = 6
	p6, _, _, err := RunMacro3D(c6)
	if err != nil {
		t.Fatal(err)
	}
	c4 := tinyCfg()
	c4.MacroDieMetals = 4
	p4, _, _, err := RunMacro3D(c4)
	if err != nil {
		t.Fatal(err)
	}
	if r := p4.MetalAreaMM2 / p6.MetalAreaMM2; r < 0.82 || r > 0.85 {
		t.Fatalf("metal ratio = %v, want 10/12", r)
	}
	if r := p4.FclkMHz / p6.FclkMHz; r < 0.85 || r > 1.15 {
		t.Fatalf("fclk ratio = %v, ablation should be nearly free", r)
	}
}

func TestArrayTimingClosure2D(t *testing.T) {
	// The §V-1 claim: a tile signed off with half-cycle inter-tile
	// constraints composes into arrays that meet the tile frequency.
	cfg := tinyCfg()
	_, st, err := Run2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tech6, _ := tech.New28(6)
	rep, err := VerifyTileArray(cfg, st, tech6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("2x2 array: tile %.0f ps vs array %.0f ps (closes=%v), route overflow %d vs the tile's %d",
		rep.TilePeriod, rep.ArrayPeriod, rep.ClosesAtTile, rep.RouteOverflow, st.Routes.Overflow)
	if !rep.ClosesAtTile {
		t.Fatalf("array misses tile timing: %.0f > %.0f ps", rep.ArrayPeriod, rep.TilePeriod)
	}
	if rep.F2FBumps != 0 {
		t.Fatal("2D array has F2F bumps")
	}
	// Abutment adds no congestion: the array has four times the tile's
	// overflow, not a gcell more.
	if rep.RouteOverflow != 4*st.Routes.Overflow {
		t.Fatalf("2x2 array overflow %d, 4 × the tile's %d", rep.RouteOverflow, st.Routes.Overflow)
	}
}

func TestArrayTimingClosureMacro3D(t *testing.T) {
	cfg := tinyCfg()
	_, st, _, err := RunMacro3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tech6, _ := tech.New28(6)
	rep, err := VerifyTileArray(cfg, st, tech6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("3D 2x2 array: tile %.0f ps vs array %.0f ps, %d bumps",
		rep.TilePeriod, rep.ArrayPeriod, rep.F2FBumps)
	if !rep.ClosesAtTile {
		t.Fatalf("3D array misses tile timing: %.0f > %.0f ps", rep.ArrayPeriod, rep.TilePeriod)
	}
	// Each of the 4 tiles contributes its macro-access bumps.
	if rep.F2FBumps == 0 {
		t.Fatal("3D array lost its F2F bumps")
	}
	if rep.RouteOverflow != 4*st.Routes.Overflow {
		t.Fatalf("3D 2x2 array overflow %d, 4 × the tile's %d", rep.RouteOverflow, st.Routes.Overflow)
	}
}

func TestSignoffIsPhysicallyLegal(t *testing.T) {
	// The optimizer's ECO placement must leave every flow's result
	// legal: re-check independently (same checks internal/verify runs;
	// spelled out here to avoid an import cycle).
	for _, run := range []struct {
		name string
		st   func() (*State, error)
	}{
		{"2D", func() (*State, error) { _, st, err := Run2D(tinyCfg()); return st, err }},
		{"Macro3D", func() (*State, error) { _, st, _, err := RunMacro3D(tinyCfg()); return st, err }},
	} {
		st, err := run.st()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		type box struct {
			r    geom.Rect
			name string
			die  netlist.Die
		}
		var cells []box
		for _, inst := range st.Design.Instances {
			if !inst.Placed || inst.IsMacro() {
				continue
			}
			b := inst.Bounds()
			if !st.Die.ContainsRect(b.Expand(-1e-7)) {
				t.Errorf("%s: %s off-die at %v", run.name, inst.Name, b)
			}
			cells = append(cells, box{b, inst.Name, inst.Die})
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].r.Lx < cells[j].r.Lx })
		overlaps := 0
		for i := 0; i < len(cells); i++ {
			for j := i + 1; j < len(cells) && cells[j].r.Lx < cells[i].r.Ux-1e-9; j++ {
				if cells[i].die == cells[j].die &&
					cells[i].r.Expand(-1e-7).Intersects(cells[j].r) {
					overlaps++
					if overlaps < 4 {
						t.Errorf("%s: %s overlaps %s", run.name, cells[i].name, cells[j].name)
					}
				}
			}
		}
		if overlaps > 0 {
			t.Fatalf("%s: %d overlaps after sign-off", run.name, overlaps)
		}
	}
}

// TestPseudoFlowsHonourF2FOverride: Config.F2F reaches the prepare step
// of the pseudo-3D flows, so the combined stack, the route checkpoint's
// key and the bump-pitch check all see the same via technology.
func TestPseudoFlowsHonourF2FOverride(t *testing.T) {
	f2f := tech.DefaultF2F()
	f2f.Pitch = 2
	cfg := tinyCfg()
	cfg.F2F = &f2f
	cfg.Check = true
	_, st, err := RunS2D(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Beol.Vias[st.Beol.F2FViaIndex()].Pitch; got != 2 {
		t.Errorf("combined BEOL's F2F via has pitch %v µm, override says 2", got)
	}
}

// TestC2DFreeSpaceSeesBothDies: C2D is the one pseudo-3D flow that
// optimises after partition, and place.NewFreeSpace is the map its
// optimizer claims ECO space from. The post-partition standard cells of
// the two dies legally share (x, y), so the map keeps one row map per
// die: on the C2D/small design as opt.Optimize receives it, neither
// die's map refuses a cell — one map of both refused 2 216 of 6 882 and
// left the uncovered part of each refused cell free for the next Alloc.
// The optimizer runs under Check, so every iteration holds its
// journaled maps == a from-scratch NewFreeSpace of the partitioned
// design; and after it, no ECO edit overlaps a cell of its own die.
func TestC2DFreeSpaceSeesBothDies(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow in -short mode")
	}
	tc, err := tech.New28(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	cfg.Check = true
	seen := 0
	cfg.AfterStage = func(_, stage string, st *State) {
		if stage != StageExtract && stage != StageOpt {
			return
		}
		seen++
		macroCells := 0
		for _, c := range st.Design.StdCells() {
			if c.Placed && c.Die == netlist.MacroDie {
				macroCells++
			}
		}
		if macroCells == 0 {
			t.Fatalf("after %s: the partition left no standard cell on the macro die: nothing to check", stage)
		}
		if n := place.NewFreeSpace(st.Design, st.FP, tc.RowHeight).Refused(); n != 0 {
			t.Errorf("after %s: the per-die maps refuse %d cells (%d standard cells on the macro die)", stage, n, macroCells)
		}
	}
	if _, _, _, err := Run(context.Background(), "c2d", cfg); err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("the extract and opt stages ran %d times between them, want 2", seen)
	}
}
