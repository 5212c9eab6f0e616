package piton

import (
	"slices"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
)

func mustGenerate(t *testing.T, cfg Config) *Tile {
	t.Helper()
	tile, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tile
}

// ownsRecords demands that c share no instance, net or port record with
// src and that every pin reference of c point at c's record of its ID.
func ownsRecords(t *testing.T, c, src *Tile) {
	t.Helper()
	d, s := c.Design, src.Design
	for i := range d.Instances {
		if d.Instances[i] == s.Instances[i] {
			t.Fatalf("instance %d is the source's record", i)
		}
	}
	for i := range d.Ports {
		if d.Ports[i] == s.Ports[i] {
			t.Fatalf("port %d is the source's record", i)
		}
	}
	for i, n := range d.Nets {
		if n == s.Nets[i] {
			t.Fatalf("net %d is the source's record", i)
		}
		for k := 0; k < n.NumPins(); k++ {
			r := n.PinAt(k)
			if (r.Inst != nil && d.Instances[r.Inst.ID] != r.Inst) || (r.Port != nil && d.Ports[r.Port.ID] != r.Port) {
				t.Fatalf("net %s pin %d (%s) is not on a record of the copy", n.Name, k, r)
			}
		}
	}
}

// TestCloneMatchesGenerate: a copy of a copy of a generated tile is,
// record for record, the tile a fresh Generate builds — IDs, names,
// masters, placement state, pin references by ID, ports and port groups
// — on every tile the flows run, and it owns every record it holds.
func TestCloneMatchesGenerate(t *testing.T) {
	for _, cfg := range []Config{Tiny(), SmallCache(), LargeCache()} {
		t.Run(cfg.Name, func(t *testing.T) {
			tmpl := mustGenerate(t, cfg).Clone()
			c := tmpl.Clone()
			fresh := mustGenerate(t, cfg)
			sameTile(t, tmpl, fresh)
			sameTile(t, c, fresh)
			ownsRecords(t, c, tmpl)
			if err := c.Design.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCloneIsolation: every edit a flow makes to its copy — placement
// state, a new instance and net, a resize, a sink appended to a net whose
// neighbour's sinks follow it in the arena, a rollback — leaves the
// template and a sibling copy exactly the tile Generate builds.
func TestCloneIsolation(t *testing.T) {
	want := mustGenerate(t, Tiny())
	tmpl := mustGenerate(t, Tiny()).Clone()
	a, b := tmpl.Clone(), tmpl.Clone()
	d := a.Design
	nI, nN := d.Counts()

	d.Instances[0].Loc, d.Instances[0].Die = geom.Pt(12, 34), netlist.MacroDie
	var sized *netlist.Instance
	for _, inst := range d.Instances {
		fam := d.Lib.Family(inst.Master.Family)
		if i := slices.IndexFunc(fam, func(c *cell.Cell) bool { return c.Name == inst.Master.Name }); i >= 0 && i+1 < len(fam) {
			if err := d.Resize(inst, fam[i+1]); err != nil {
				t.Fatal(err)
			}
			sized = inst
			break
		}
	}
	if sized == nil {
		t.Fatal("no resizable instance")
	}
	buf := d.AddInstance("eco_buf", d.Lib.MustCell("BUF_X1"))
	d.AddNet("eco_net", netlist.IPin(buf, "Y"))
	grown, next := d.Nets[0], d.Nets[1]
	grown.Sinks = append(grown.Sinks, netlist.IPin(buf, "A"))
	for k, s := range next.Sinks {
		if w := want.Design.Nets[1].Sinks[k]; s.Inst.ID != w.Inst.ID || s.Pin() != w.Pin() {
			t.Fatalf("appending to net 0 of the copy overwrote net 1's sink %d", k)
		}
	}
	d.TruncateTo(nI, nN)
	if d.Instance("eco_buf") != nil || d.Net("eco_net") != nil || len(d.Instances) != nI {
		t.Fatal("rollback left the added records")
	}

	sameTile(t, tmpl, want)
	sameTile(t, b, want)
	if tmpl.Design.Instances[sized.ID].Master == sized.Master {
		t.Fatal("the resize reached the template")
	}
}

// TestCloneAllocs: a copy of the small tile is a constant handful of
// objects — the design and tile headers, three record tables, a slab
// chunk and its chunk list per record kind, the port groups — not one
// per record. Measured: 14.
func TestCloneAllocs(t *testing.T) {
	tile := mustGenerate(t, SmallCache()).Clone()
	allocs := testing.AllocsPerRun(5, func() { tile.Clone() })
	if allocs > 15 {
		t.Fatalf("copying the small tile allocates %.0f objects, want ≤ 15", allocs)
	}
}
