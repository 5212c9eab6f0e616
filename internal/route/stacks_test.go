package route_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"macro3d/internal/extract"
	"macro3d/internal/flows"
	"macro3d/internal/piton"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// TestViaStacksExpandToCuts: in every flow on the tiny and small tiles,
// the routes the route stage stores, each via stack expanded into its
// cuts, are element for element the routes of the per-cut oracle router
// (oracle_test.go) replayed on a fresh database of the stage's inputs,
// with the same per-net and total metrics; and the slow-corner
// extraction the flow signs off on equals, bit for bit, an extraction of
// the oracle's per-cut routes. The stored routes hold fewer segments
// than the per-cut ones wherever a stack has two cuts or more.
func TestViaStacksExpandToCuts(t *testing.T) {
	tiles := []piton.Config{piton.Tiny(), piton.SmallCache()}
	if testing.Short() {
		tiles = tiles[:1]
	}
	t28, err := tech.New28(6)
	if err != nil {
		t.Fatal(err)
	}
	slow := t28.CornerScaleFor(tech.CornerSlow)
	for _, pc := range tiles {
		for _, key := range flows.Names() {
			t.Run(pc.Name+"/"+key, func(t *testing.T) {
				t.Parallel()
				checked := false
				cfg := flows.Config{Piton: pc, Seed: 1, Workers: 1}
				cfg.AfterStage = func(_, stage string, st *flows.State) {
					if stage != flows.StageExtract {
						return
					}
					checked = true
					checkStacks(t, st, slow)
				}
				if _, _, _, err := flows.Run(context.Background(), key, cfg); err != nil {
					t.Fatal(err)
				}
				if !checked {
					t.Fatal("the flow ran no extract stage")
				}
			})
		}
	}
}

// checkStacks holds st — a flow just past its extract stage, whose
// routes are the route stage's — to the per-cut oracle.
func checkStacks(t *testing.T, st *flows.State, corner tech.CornerScale) {
	t.Helper()
	d, res := st.Design, st.Routes
	ref, _, err := route.RouteDesignOracle(d, route.NewDB(st.Die, st.Beol, st.FP.RouteBlk, route.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.WL != ref.WL || res.Vias != ref.Vias || res.F2FBumps != ref.F2FBumps || res.Overflow != ref.Overflow ||
		!slices.Equal(res.WLPerLayer, ref.WLPerLayer) {
		t.Fatalf("totals WL %v vias %d F2F %d overflow %d, oracle %v / %d / %d / %d",
			res.WL, res.Vias, res.F2FBumps, res.Overflow, ref.WL, ref.Vias, ref.F2FBumps, ref.Overflow)
	}
	segs, cuts, multi := 0, 0, 0
	for id, r := range res.Routes {
		rr := ref.Routes[id]
		if (r == nil) != (rr == nil) {
			t.Fatalf("net %d: presence differs from the oracle", id)
		}
		if r == nil {
			continue
		}
		if got := route.ExpandCuts(r.Segments); !slices.Equal(got, rr.Segments) {
			t.Fatalf("net %s: expanded segments %v, oracle %v", d.Nets[id].Name, got, rr.Segments)
		}
		if r.WL != rr.WL || r.Vias != rr.Vias || r.F2F != rr.F2F {
			t.Fatalf("net %s: metrics %v / %d / %d, oracle %v / %d / %d", d.Nets[id].Name, r.WL, r.Vias, r.F2F, rr.WL, rr.Vias, rr.F2F)
		}
		segs += len(r.Segments)
		cuts += len(rr.Segments)
		for _, s := range r.Segments {
			if s.Cuts() > 1 {
				multi++
			}
		}
	}
	t.Logf("%d segments, %d one cut at a time (%d via cuts); %d stacks of two cuts or more", segs, cuts, res.Vias, multi)
	if multi == 0 || segs >= cuts {
		t.Fatalf("%d segments against %d per cut, %d multi-cut stacks: nothing to compare", segs, cuts, multi)
	}
	want := extract.Extract(d, ref, st.DB, corner)
	for id, rc := range st.ExSlow.Nets {
		w := want.Nets[id]
		if (rc == nil) != (w == nil) {
			t.Fatalf("net %d: extraction presence differs", id)
		}
		if rc != nil && !sameRC(rc, w) {
			t.Fatalf("net %s: extracted %+v, per-cut extraction %+v", d.Nets[id].Name, *rc, *w)
		}
	}
}

// sameRC compares two records bit for bit.
func sameRC(a, b *extract.NetRC) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return same(a.WireC, b.WireC) && same(a.WireR, b.WireR) && same(a.PinC, b.PinC) &&
		slices.EqualFunc(a.ElmoreTo, b.ElmoreTo, same)
}
