package piton

import (
	"fmt"
	"reflect"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/netlist"
)

// The two-pass generator one-pass generation replaced, kept as the
// oracle: pass 1 builds the whole design against the unscaled library
// only to sum its standard-cell area, pass 2 builds it again — fresh
// library, fresh macros, fresh generator — at the scale that hits the
// target, and pass 1 is thrown away. It keeps its own bookkeeping of the
// net at each pin, the map the dense pinTable replaced.

// pinID identifies a connection point by the records behind it — the
// instance and its master's pin, or the port.
type pinID struct {
	inst *netlist.Instance
	pin  *cell.Pin
	port *netlist.Port
}

func idOf(r netlist.PinRef) pinID {
	if r.Port != nil {
		return pinID{port: r.Port}
	}
	return pinID{inst: r.Inst, pin: r.MasterPin()}
}

// pinMap is the oracle's pinNets.
type pinMap map[pinID]*netlist.Net

func (m pinMap) net(r netlist.PinRef) *netlist.Net    { return m[idOf(r)] }
func (m pinMap) set(r netlist.PinRef, n *netlist.Net) { m[idOf(r)] = n }

func oracleGen(name string, cfg Config, seed uint64, areaScale float64) *gen {
	g := newGen(name, cfg, seed, areaScale)
	g.pins = pinMap{}
	return g
}

// twoPass runs build on a fresh generator at scale 1 and, when a target
// area is set, again at target/raw.
func twoPass(target float64, build func(areaScale float64) (*gen, error)) (*Tile, error) {
	g, err := build(1.0)
	if err != nil {
		return nil, err
	}
	if target > 0 {
		raw := g.d.ComputeStats().StdCellArea
		if raw <= 0 {
			return nil, fmt.Errorf("piton: generated no logic area")
		}
		if g, err = build(target / raw); err != nil {
			return nil, err
		}
	}
	if err := g.d.Validate(); err != nil {
		return nil, err
	}
	return g.tile, nil
}

func generateOracle(cfg Config) (*Tile, error) {
	if cfg.CloudDepth < 1 {
		cfg.CloudDepth = 5
	}
	return twoPass(cfg.TargetLogicArea, func(areaScale float64) (*gen, error) {
		g := oracleGen(cfg.Name, cfg, cfg.Seed, areaScale)
		return g, g.buildTile()
	})
}

func generateSensorOracle(cfg SensorConfig) (*Tile, error) {
	if cfg.CloudDepth < 1 {
		cfg.CloudDepth = 4
	}
	return twoPass(cfg.TargetLogicArea, func(areaScale float64) (*gen, error) {
		g := oracleGen(cfg.Name, Config{CloudDepth: cfg.CloudDepth}, cfg.Seed, areaScale)
		return g, g.buildSensor(cfg)
	})
}

// refKey flattens a pin reference to values comparable across designs.
func refKey(r netlist.PinRef) string {
	if r.Port != nil {
		return fmt.Sprintf("port %d %s", r.Port.ID, r.Port.Name)
	}
	return fmt.Sprintf("inst %d %s/%s", r.Inst.ID, r.Inst.Name, r.Pin())
}

// sameTile demands got == want: every instance (name, id, placement
// state, master name and every master field), port, port group, net
// (name, id, driver, sinks in order, clock flag, weight) and the
// library's cell set.
func sameTile(t *testing.T, got, want *Tile) {
	t.Helper()
	g, w := got.Design, want.Design
	if g.Name != w.Name || got.ClockPort != want.ClockPort || !reflect.DeepEqual(got.Config, want.Config) {
		t.Fatalf("tile header differs: %q/%q/%+v vs %q/%q/%+v",
			g.Name, got.ClockPort, got.Config, w.Name, want.ClockPort, want.Config)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatal("port groups differ")
	}
	if len(g.Instances) != len(w.Instances) || len(g.Nets) != len(w.Nets) || len(g.Ports) != len(w.Ports) {
		t.Fatalf("size %d/%d/%d, oracle %d/%d/%d", len(g.Instances), len(g.Nets), len(g.Ports),
			len(w.Instances), len(w.Nets), len(w.Ports))
	}
	for i, wi := range w.Instances {
		gi := g.Instances[i]
		gm, wm := gi.Master, wi.Master
		gi.Master, wi.Master = nil, nil
		same := *gi == *wi
		gi.Master, wi.Master = gm, wm
		if !same {
			t.Fatalf("instance %d = %+v, oracle %+v", i, *gi, *wi)
		}
		if !reflect.DeepEqual(gm, wm) {
			t.Fatalf("instance %s: master %+v, oracle %+v", wi.Name, *gm, *wm)
		}
		if g.Lib.Cell(gm.Name) != gm {
			t.Fatalf("instance %s: master %s is not the design library's", gi.Name, gm.Name)
		}
		if g.Instance(gi.Name) != gi {
			t.Fatalf("instance %s not indexed by name", gi.Name)
		}
	}
	for i, wp := range w.Ports {
		if *g.Ports[i] != *wp {
			t.Fatalf("port %d = %+v, oracle %+v", i, *g.Ports[i], *wp)
		}
	}
	for i, wn := range w.Nets {
		gn := g.Nets[i]
		if gn.Name != wn.Name || gn.ID != wn.ID || gn.Clock != wn.Clock || gn.Weight != wn.Weight ||
			refKey(gn.Driver) != refKey(wn.Driver) || len(gn.Sinks) != len(wn.Sinks) {
			t.Fatalf("net %d = %s (%d sinks, driver %s), oracle %s (%d sinks, driver %s)", i,
				gn.Name, len(gn.Sinks), refKey(gn.Driver), wn.Name, len(wn.Sinks), refKey(wn.Driver))
		}
		for si := range wn.Sinks {
			if refKey(gn.Sinks[si]) != refKey(wn.Sinks[si]) {
				t.Fatalf("net %s sink %d = %s, oracle %s", wn.Name, si, refKey(gn.Sinks[si]), refKey(wn.Sinks[si]))
			}
		}
	}
	gc, wc := g.Lib.Cells(), w.Lib.Cells()
	if g.Lib.Name != w.Lib.Name || len(gc) != len(wc) {
		t.Fatalf("library %s with %d cells, oracle %s with %d", g.Lib.Name, len(gc), w.Lib.Name, len(wc))
	}
	for i := range wc {
		if !reflect.DeepEqual(gc[i], wc[i]) {
			t.Fatalf("library cell %s = %+v, oracle %+v", wc[i].Name, *gc[i], *wc[i])
		}
		if !reflect.DeepEqual(g.Lib.Family(gc[i].Family), w.Lib.Family(wc[i].Family)) {
			t.Fatalf("library family %q differs", wc[i].Family)
		}
	}
}

// TestGenerateMatchesTwoPassOracle: one-pass generation — build once at
// scale 1, re-point at the scaled library — yields exactly the design
// the two-pass generator built, on every paper tile, the CI tile, a
// heterogeneous-node tile and an uncalibrated one.
func TestGenerateMatchesTwoPassOracle(t *testing.T) {
	hetero := Tiny()
	hetero.MacroProcess = MacroProcess{ClkQScale: 1.4, EnergyScale: 0.8, LeakageScale: 0.1}
	unscaled := Tiny()
	unscaled.TargetLogicArea = 0
	for _, cfg := range []Config{SmallCache(), LargeCache(), Tiny(), hetero, unscaled} {
		got, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := generateOracle(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameTile(t, got, want)
	}
}

func TestGenerateSensorMatchesTwoPassOracle(t *testing.T) {
	got, err := GenerateSensorSoC(DefaultSensorSoC())
	if err != nil {
		t.Fatal(err)
	}
	want, err := generateSensorOracle(DefaultSensorSoC())
	if err != nil {
		t.Fatal(err)
	}
	sameTile(t, got, want)
}

// TestGenerateAllocs: a generated tile costs its slab and name chunks,
// the libraries and macros, and the few nets that outgrow their arena
// room — not one object per instance, net, name and sink list (0.29 per
// record measured).
func TestGenerateAllocs(t *testing.T) {
	cfg := SmallCache()
	tile, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := len(tile.Design.Instances) + len(tile.Design.Nets)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Generate(SmallCache): %.0f objects for %d instances + nets", allocs, records)
	if allocs > 0.5*float64(records) {
		t.Fatalf("Generate allocates %.0f objects for %d instances + nets, want ≤ 0.5 per record", allocs, records)
	}
}
