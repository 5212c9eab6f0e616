package extract_test

import (
	"context"
	"testing"

	"macro3d/internal/extract"
	"macro3d/internal/flows"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// TestCapsMatchesExtract: Caps is ExtractOn's CWireTotal and CPinTotal
// (==, no tolerance) at all three corners — on the oracle's random nets,
// via stacks of up to three cuts and unrouted nets among them; on the
// five flows' signed-off states on the tiny tile, where the PPA row's
// C_pin and C_wire are Caps' typical-corner sums plus the clock tree's;
// and on a flat array's slow-corner extraction, whose records for the
// tile copies are the tile's own, lent (Source).
func TestCapsMatchesExtract(t *testing.T) {
	tc, err := tech.New28(6)
	if err != nil {
		t.Fatal(err)
	}
	corners := []tech.Corner{tech.CornerTypical, tech.CornerSlow, tech.CornerFast}
	same := func(t *testing.T, d *netlist.Design, res *route.Result, db *route.DB, from ...extract.Source) {
		t.Helper()
		for _, c := range corners {
			ex := extract.Extract(d, res, db, tc.CornerScaleFor(c), from...)
			if wire, pin := extract.Caps(d, res, db, tc.CornerScaleFor(c)); wire != ex.CWireTotal || pin != ex.CPinTotal {
				t.Fatalf("%v corner: Caps %v / %v fF, ExtractOn %v / %v", c, wire, pin, ex.CWireTotal, ex.CPinTotal)
			}
		}
	}

	t.Run("random", func(t *testing.T) {
		d, db, res, stacks := extract.RandomDesign(t, 2025, 2000)
		if stacks == 0 {
			t.Fatal("no multi-cut via stack among the random routes")
		}
		same(t, d, res, db)
	})

	if testing.Short() {
		t.Skip("runs the five tiny flows and a flat array")
	}
	cfg := flows.Config{Piton: piton.Tiny(), Seed: 5}
	var tile *flows.State
	for _, name := range flows.Names() {
		t.Run(name, func(t *testing.T) {
			ppa, st, _, err := flows.Run(context.Background(), name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			same(t, st.Design, st.Routes, st.DB)
			wire, pin := extract.Caps(st.Design, st.Routes, st.DB, tc.CornerScaleFor(tech.CornerTypical))
			if ppa.CwireNF != (wire+st.Tree.WireCap)/1e6 || ppa.CpinNF != (pin+st.Tree.PinCap)/1e6 {
				t.Fatalf("PPA C_wire / C_pin %v / %v nF, Caps' typical sums with the clock tree's %v / %v",
					ppa.CwireNF, ppa.CpinNF, (wire+st.Tree.WireCap)/1e6, (pin+st.Tree.PinCap)/1e6)
			}
			if name == "macro3d" {
				tile = st
			}
		})
	}

	t.Run("array", func(t *testing.T) {
		if tile == nil {
			t.Skip("the macro3d tile did not sign off")
		}
		var at flows.State
		acfg := cfg
		acfg.AfterStage = func(flow, stage string, s *flows.State) {
			if flow == "array" && stage == flows.StageExtract {
				at = *s
			}
		}
		if _, err := flows.VerifyTileArray(acfg, tile, tc, 2, 2); err != nil {
			t.Fatal(err)
		}
		if at.ExSlow == nil {
			t.Fatal("the array flow ran no extract stage")
		}
		wire, pin := extract.Caps(at.Design, at.Routes, at.DB, tc.CornerScaleFor(tech.CornerSlow))
		if wire != at.ExSlow.CWireTotal || pin != at.ExSlow.CPinTotal {
			t.Fatalf("slow corner: Caps %v / %v fF, the array's extraction %v / %v", wire, pin, at.ExSlow.CWireTotal, at.ExSlow.CPinTotal)
		}
		arr, err := piton.AbutArray(tile.Tile, tile.Die, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		same(t, at.Design, at.Routes, at.DB, extract.Source{Ex: tile.ExSlow, Routes: tile.Routes, NetID: arr.NetID})
	})
}
