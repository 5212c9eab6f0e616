package place

import (
	"testing"

	"macro3d/internal/floorplan"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
)

// tileFixture builds the piton tile floorplan for the given cache
// config, so the quality bound runs on both cache sizes.
func tileFixture(t *testing.T, cfg piton.Config) (*netlist.Design, *floorplan.Floorplan) {
	t.Helper()
	tile, err := piton.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := tile.Design
	sz, err := floorplan.SizeDesign(d, 0.70, 1.0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := floorplan.PlaceMacros(d, sz.Die2D, floorplan.Style2D)
	if err != nil {
		t.Fatal(err)
	}
	floorplan.BuildBlockages(fp, d, netlist.LogicDie)
	floorplan.AssignPorts(tile, sz.Die2D)
	return d, fp
}

// TestPlaceAnalyticQuality is the engine's headline bound on both cache
// sizes: the analytic placement must be legal and its post-legalization
// HPWL must be no worse than the default quadratic placer's on the same
// tile.
func TestPlaceAnalyticQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("full tile placement in -short mode")
	}
	for _, tc := range []struct {
		name string
		cfg  piton.Config
	}{
		{"small-cache", piton.SmallCache()},
		{"large-cache", piton.LargeCache()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dRef, fpRef := tileFixture(t, tc.cfg)
			ref, err := Place(dRef, fpRef, 1.2, Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			dAn, fpAn := tileFixture(t, tc.cfg)
			an, err := Place(dAn, fpAn, 1.2, Options{Seed: 5, Analytic: true})
			if err != nil {
				t.Fatal(err)
			}
			if viol := CheckLegal(dAn, fpAn); len(viol) > 0 {
				t.Fatalf("analytic placement illegal: %d violations, e.g. %v", len(viol), viol[0])
			}
			if an.HPWL > ref.HPWL {
				t.Fatalf("analytic HPWL %.3f m worse than quadratic %.3f m (%.2f%%)",
					an.HPWL/1e6, ref.HPWL/1e6, 100*(an.HPWL/ref.HPWL-1))
			}
			t.Logf("analytic HPWL %.3f m vs quadratic %.3f m (%.2f%%), disp %.1f vs %.1f µm, ovf %.4f",
				an.HPWL/1e6, ref.HPWL/1e6, 100*(an.HPWL/ref.HPWL-1),
				an.Displacement, ref.Displacement, an.Overflow)
		})
	}
}

// TestPlaceAnalyticDeterminism pins the bit-identity contract inside
// the analytic engine: Workers 1, 4 and 0 (GOMAXPROCS) place every
// instance identically and report identical PPA.
func TestPlaceAnalyticDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full tile placement in -short mode")
	}
	var ref *Result
	var refD *netlist.Design
	for _, w := range []int{1, 4, 0} {
		d, fp := tileFixture(t, piton.SmallCache())
		r, err := Place(d, fp, 1.2, Options{Seed: 5, Workers: w, Analytic: true})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refD = r, d
			continue
		}
		if *r != *ref {
			t.Fatalf("analytic result diverged at workers=%d: %+v vs %+v", w, *r, *ref)
		}
		for i := range d.Instances {
			if d.Instances[i].Loc != refD.Instances[i].Loc {
				t.Fatalf("analytic instance %s placed differently at workers=%d: %v vs %v",
					d.Instances[i].Name, w, d.Instances[i].Loc, refD.Instances[i].Loc)
			}
		}
	}
}

// TestPlaceAnalyticChain is the cheap smoke: the analytic engine on a
// tiny serial-path design still produces a legal, fully placed result.
func TestPlaceAnalyticChain(t *testing.T) {
	d, fp := chainDesign(50)
	res, err := Place(d, fp, 1.2, Options{Seed: 1, Analytic: true})
	if err != nil {
		t.Fatal(err)
	}
	if viol := CheckLegal(d, fp); len(viol) > 0 {
		t.Fatalf("illegal analytic placement: %v", viol[0])
	}
	if res.HPWL <= 0 || res.HPWL > 400 {
		t.Fatalf("analytic chain HPWL = %.1f µm", res.HPWL)
	}
	for _, inst := range d.Instances {
		if !inst.Fixed && !inst.Placed {
			t.Fatalf("instance %s left unplaced", inst.Name)
		}
	}
}
