package piton

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
)

func TestGenerateSmallCache(t *testing.T) {
	tile, err := Generate(SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	st := d.ComputeStats()
	t.Logf("small: %d insts (%d std, %d macro, %d seq), %d nets, %d ports, logic %.3f mm², macro %.3f mm²",
		st.NumInstances, st.NumStdCells, st.NumMacros, st.NumSeq,
		st.NumNets, st.NumPorts, st.StdCellArea/1e6, st.MacroArea/1e6)
	if st.NumStdCells < 2000 {
		t.Fatalf("too few std cells: %d", st.NumStdCells)
	}
	// Logic area calibrated to the paper's 0.29 mm² (±5 %).
	if st.StdCellArea < 0.27e6 || st.StdCellArea > 0.31e6 {
		t.Fatalf("logic area = %.3f mm², want ≈0.29", st.StdCellArea/1e6)
	}
	// Memory macros must occupy >50 % of the combined cell area — the
	// regime the paper identifies even for small caches.
	if st.MacroArea <= st.StdCellArea {
		t.Fatalf("macros (%.3f mm²) do not dominate logic (%.3f mm²)",
			st.MacroArea/1e6, st.StdCellArea/1e6)
	}
	// Cache capacity check: 8+16+16+256 kB in banks.
	total := 0
	for _, m := range d.Macros() {
		total += m.Master.Macro.CapacityBytes
	}
	want := (8 + 16 + 16 + 256) * 1024
	if total != want {
		t.Fatalf("total cache = %d bytes, want %d", total, want)
	}
}

func TestGenerateLargeCache(t *testing.T) {
	tile, err := Generate(LargeCache())
	if err != nil {
		t.Fatal(err)
	}
	st := tile.Design.ComputeStats()
	t.Logf("large: %d insts (%d std, %d macro), logic %.3f mm², macro %.3f mm²",
		st.NumInstances, st.NumStdCells, st.NumMacros,
		st.StdCellArea/1e6, st.MacroArea/1e6)
	if st.StdCellArea < 0.44e6 || st.StdCellArea > 0.50e6 {
		t.Fatalf("logic area = %.3f mm², want ≈0.47", st.StdCellArea/1e6)
	}
	total := 0
	for _, m := range tile.Design.Macros() {
		total += m.Master.Macro.CapacityBytes
	}
	want := (16 + 16 + 128 + 1024) * 1024
	if total != want {
		t.Fatalf("total cache = %d bytes, want %d", total, want)
	}
	// Large config has strictly more macro area than small.
	small, _ := Generate(SmallCache())
	if st.MacroArea <= small.Design.ComputeStats().MacroArea {
		t.Fatal("large cache macro area not larger than small")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Design.ComputeStats(), b.Design.ComputeStats()
	if sa != sb {
		t.Fatalf("stats differ between identical runs:\n%+v\n%+v", sa, sb)
	}
	if a.Design.Instances[100].Name != b.Design.Instances[100].Name {
		t.Fatal("instance order differs")
	}
}

func TestClockNetReachesAllSequentials(t *testing.T) {
	tile, err := Generate(SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	clk := tile.Design.Net("clk")
	if clk == nil || !clk.Clock {
		t.Fatal("no clock net")
	}
	sinks := make(map[string]bool)
	for _, s := range clk.Sinks {
		sinks[s.String()] = true
	}
	for _, inst := range tile.Design.Instances {
		if inst.Master.IsSequential() {
			ck := inst.Master.ClockPin()
			if !sinks[inst.Name+"/"+ck.Name] {
				t.Fatalf("sequential %s not on clock net", inst.Name)
			}
		}
	}
}

func TestNoFloatingInputs(t *testing.T) {
	tile, err := Generate(SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	driven := make(map[string]bool)
	for _, n := range tile.Design.Nets {
		for _, s := range n.Sinks {
			if s.Inst != nil {
				driven[s.String()] = true
			}
		}
	}
	for _, inst := range tile.Design.Instances {
		for _, p := range inst.Master.Pins {
			if p.Dir == cell.DirIn && !driven[inst.Name+"/"+p.Name] {
				t.Fatalf("floating input %s/%s", inst.Name, p.Name)
			}
		}
	}
}

func TestPortGroupsAlignable(t *testing.T) {
	tile, err := Generate(SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tile.Config
	// 3 NoCs × 4 edges × 2 (in groups + out groups).
	want := cfg.NoCs * 4 * 2
	if len(tile.Groups) != want {
		t.Fatalf("groups = %d, want %d", len(tile.Groups), want)
	}
	// Every group on an edge has a same-pair partner on the opposite
	// edge with the same size.
	type key struct {
		e    Edge
		pair int
	}
	byKey := make(map[key]PortGroup)
	for _, gr := range tile.Groups {
		byKey[key{gr.Edge, gr.Pair}] = gr
	}
	for _, gr := range tile.Groups {
		partner, ok := byKey[key{gr.Edge.Opposite(), gr.Pair}]
		if !ok {
			t.Fatalf("group %v pair %d has no opposite partner", gr.Edge, gr.Pair)
		}
		if len(partner.Names) != len(gr.Names) {
			t.Fatalf("pair %d size mismatch", gr.Pair)
		}
	}
	// All group ports exist, are half-cycle constrained, on M6.
	for _, gr := range tile.Groups {
		for _, nm := range gr.Names {
			p := tile.Design.Port(nm)
			if p == nil {
				t.Fatalf("group references unknown port %s", nm)
			}
			if !p.HalfCycle {
				t.Fatalf("port %s not half-cycle constrained", nm)
			}
			if p.Layer != "M6" {
				t.Fatalf("port %s on %s, want M6 (paper: all pins in M6)", nm, p.Layer)
			}
		}
	}
}

func TestSramBanksSplitting(t *testing.T) {
	specs := sramBanks("l3", 256*1024, 32)
	if len(specs) != 8 {
		t.Fatalf("256 kB banks = %d, want 8", len(specs))
	}
	per := 0
	for _, s := range specs {
		per += s.CapacityBytes()
	}
	if per != 256*1024 {
		t.Fatalf("bank capacity sums to %d", per)
	}
	// 1 MB stays at 8 banks of 128 kB.
	specs = sramBanks("l3", 1024*1024, 32)
	if len(specs) != 8 || specs[0].CapacityBytes() != 128*1024 {
		t.Fatalf("1 MB split: %d banks of %d", len(specs), specs[0].CapacityBytes())
	}
	// Small cache stays one bank.
	specs = sramBanks("l1i", 8*1024, 32)
	if len(specs) != 1 {
		t.Fatalf("8 kB split into %d banks", len(specs))
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	bad := SmallCache()
	bad.DataWidth = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("zero-width config accepted")
	}
	bad = SmallCache()
	bad.CoreStages = 1
	if _, err := Generate(bad); err == nil {
		t.Fatal("1-stage core accepted")
	}
}

func TestEdgeOpposite(t *testing.T) {
	if North.Opposite() != South || East.Opposite() != West ||
		South.Opposite() != North || West.Opposite() != East {
		t.Fatal("Opposite wrong")
	}
	if North.String() != "N" || West.String() != "W" {
		t.Fatal("edge names wrong")
	}
}

func TestMacroNamesCarryLevel(t *testing.T) {
	tile, err := Generate(SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	levels := map[string]int{}
	for _, m := range tile.Design.Macros() {
		for _, lv := range []string{"l1i", "l1d", "l2", "l3"} {
			if strings.HasPrefix(m.Name, lv+"_") {
				levels[lv]++
			}
		}
	}
	if levels["l3"] != 8 || levels["l1i"] != 1 || levels["l1d"] != 1 || levels["l2"] != 1 {
		t.Fatalf("bank counts per level: %v", levels)
	}
}

func TestSharedBusFanout(t *testing.T) {
	// The L3 address nets must fan out to all 8 banks — the banked-bus
	// structure that creates the paper's long 2D critical paths.
	tile, err := Generate(SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range tile.Design.Nets {
		if !strings.HasPrefix(n.Name, "n_l3_a_") {
			continue
		}
		found = true
		macroSinks := 0
		for _, s := range n.Sinks {
			if s.Inst != nil && s.Inst.IsMacro() {
				macroSinks++
			}
		}
		if macroSinks != 8 {
			t.Fatalf("L3 addr net %s reaches %d banks, want 8", n.Name, macroSinks)
		}
	}
	if !found {
		t.Fatal("no L3 address nets found")
	}
}

func TestClockPortIsInput(t *testing.T) {
	tile, err := Generate(SmallCache())
	if err != nil {
		t.Fatal(err)
	}
	p := tile.Design.Port(tile.ClockPort)
	if p == nil || p.Dir != cell.DirIn {
		t.Fatal("clock port missing or not input")
	}
}

// structuralDigest hashes everything about a generated netlist that
// downstream stages read: every instance's name and master, every
// port, and every net's name, driver and sinks in order.
func structuralDigest(d *netlist.Design) string {
	h := sha256.New()
	for _, inst := range d.Instances {
		fmt.Fprintf(h, "i %s %s\n", inst.Name, inst.Master.Name)
	}
	for _, p := range d.Ports {
		fmt.Fprintf(h, "p %s %d %v\n", p.Name, p.Dir, p.HalfCycle)
	}
	for _, n := range d.Nets {
		fmt.Fprintf(h, "n %s %v %s", n.Name, n.Clock, n.Driver)
		for _, s := range n.Sinks {
			fmt.Fprintf(h, " %s", s)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateStructurePinned: the generator's bookkeeping (which pins
// are driven, which driver owns which net) may change representation,
// but the netlist — names, ids, order, every rng draw behind them —
// may not. The digests were taken before the maps were keyed by identity
// and the names cut from the arena.
func TestGenerateStructurePinned(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{SmallCache(), "91623ade92180edc686738615a80995c2bdea8418f8e622e9d2e88b4bf1dd65a"},
		{LargeCache(), "806940f3762e1542934c6810eafdd00277a1f0c49cd68690978eb2f3ec5b54bd"},
	} {
		tile, err := Generate(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := structuralDigest(tile.Design); got != c.want {
			t.Fatalf("%s netlist digest %s, pinned %s", c.cfg.Name, got, c.want)
		}
	}
	soc, err := GenerateSensorSoC(DefaultSensorSoC())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := structuralDigest(soc.Design), "fade9a4bbc5e8ace60e3b18b5e85c18868886b6f7b89691e85b2c37ce0aa3ee2"; got != want {
		t.Fatalf("sensor SoC netlist digest %s, pinned %s", got, want)
	}
}

// TestGenerateBuildsNoNameIndex: the generator proves its names distinct
// by construction, so a generated tile holds no by-name index until its
// first by-name use builds one over every record; and two of the names
// the generator does not number that coincide are refused at generation.
func TestGenerateBuildsNoNameIndex(t *testing.T) {
	hetero := Tiny()
	hetero.MacroProcess = MacroProcess{ClkQScale: 1.4, EnergyScale: 0.8, LeakageScale: 0.1}
	generators := []func() (*Tile, error){
		func() (*Tile, error) { return Generate(Tiny()) },
		func() (*Tile, error) { return Generate(SmallCache()) },
		func() (*Tile, error) { return Generate(LargeCache()) },
		func() (*Tile, error) { return Generate(hetero) },
		func() (*Tile, error) { return GenerateSensorSoC(DefaultSensorSoC()) },
	}
	for _, generate := range generators {
		tile, err := generate()
		if err != nil {
			t.Fatal(err)
		}
		d := tile.Design
		if i, n, p := d.OwnNames(); i+n+p != 0 {
			t.Fatalf("%s: generation built a name index of %d/%d/%d names", d.Name, i, n, p)
		}
		if d.Port(tile.ClockPort) == nil {
			t.Fatalf("%s: clock port %s not found", d.Name, tile.ClockPort)
		}
		if i, n, p := d.OwnNames(); i != len(d.Instances) || n != len(d.Nets) || p != len(d.Ports) {
			t.Fatalf("%s: index of %d/%d/%d names over %d/%d/%d records", d.Name, i, n, p,
				len(d.Instances), len(d.Nets), len(d.Ports))
		}
	}

	refused := func(what string, build func(g *gen)) {
		t.Helper()
		g := newGen("dup", Tiny(), 1, 1)
		build(g)
		if err := g.checkNames(); err == nil {
			t.Fatalf("%s: accepted", what)
		}
	}
	refused("two ports of one name", func(g *gen) {
		g.addPort("clk_i", cell.DirIn)
		g.addPort(g.seqName("", "noc0_N_in", 0), cell.DirIn)
		g.addPort("noc0_N_in_0", cell.DirOut)
	})
	refused("two macros of one name", func(g *gen) {
		for i := 0; i < 2; i++ {
			m, err := cell.NewSensor(fmt.Sprintf("sensor_macro_%d", i), 10, 10, 2)
			if err != nil {
				t.Fatal(err)
			}
			g.addMacro("sens_0", m)
		}
	})
	refused("a macro under the numbered prefix", func(g *gen) {
		g.dff("core")
		m, err := cell.NewSensor("sensor_macro", 10, 10, 2)
		if err != nil {
			t.Fatal(err)
		}
		g.addMacro("u_core_ff_1", m)
	})
	refused("two clock nets", func(g *gen) {
		p := g.addPort("clk_i", cell.DirIn)
		g.addClock(p)
		g.addClock(p)
	})
}

// TestAbutPortIndex: the port → net index Abut stitches through names,
// for every port, the net a scan of all drivers and sinks finds first;
// and the 2×2 array it produces is the one the per-lookup scan
// produced (digest taken before the index replaced it).
func TestAbutPortIndex(t *testing.T) {
	tile, err := Generate(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	src := tile.Design
	for i, p := range src.Ports {
		p.Loc = geom.Pt(float64(i+1), 1) // Abut only asks that ports are assigned
	}
	scan := func(port string) *netlist.Net {
		for _, n := range src.Nets {
			if n.Driver.Port != nil && n.Driver.Port.Name == port {
				return n
			}
			for _, s := range n.Sinks {
				if s.Port != nil && s.Port.Name == port {
					return n
				}
			}
		}
		return nil
	}
	idx := portNets(src)
	for _, p := range src.Ports {
		if idx[p.Name] != scan(p.Name) {
			t.Fatalf("port %s indexed to a different net than the scan finds", p.Name)
		}
	}
	out, _, err := Abut(tile, geom.R(0, 0, 100, 100), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := structuralDigest(out), "f851cab848f948a9144680ba0cdd071d8fd97f740dd3856a59bbe313cff3771d"; got != want {
		t.Fatalf("2x2 array digest %s, pinned %s", got, want)
	}
}
