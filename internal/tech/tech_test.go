package tech

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustBEOL(t *testing.T, name string, n int) *BEOL {
	t.Helper()
	b, err := NewBEOL28(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBEOL28Structure(t *testing.T) {
	b := mustBEOL(t, "logic", 6)
	if got := b.NumLayers(); got != 6 {
		t.Fatalf("layers = %d", got)
	}
	if len(b.Vias) != 5 {
		t.Fatalf("vias = %d", len(b.Vias))
	}
	if b.Layers[0].Name != "M1" || b.Layers[len(b.Layers)-1].Name != "M6" {
		t.Fatalf("layer naming wrong: %v", b)
	}
	// HVH alternation.
	for i, l := range b.Layers {
		want := DirHorizontal
		if i%2 == 1 {
			want = DirVertical
		}
		if l.Dir != want {
			t.Fatalf("layer %s dir = %v", l.Name, l.Dir)
		}
	}
	if DirHorizontal.String() != "H" || DirVertical.String() != "V" {
		t.Fatal("Dir names wrong")
	}
	// Upper metals are less resistive than lower.
	if b.Layers[5].RPerUm >= b.Layers[0].RPerUm {
		t.Fatal("M6 not less resistive than M1")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewBEOL28Bounds(t *testing.T) {
	if _, err := NewBEOL28("x", 1); err == nil {
		t.Fatal("1-layer stack accepted")
	}
	if _, err := NewBEOL28("x", 9); err == nil {
		t.Fatal("9-layer stack accepted")
	}
	for n := 2; n <= 8; n++ {
		if _, err := NewBEOL28("x", n); err != nil {
			t.Fatalf("%d layers rejected: %v", n, err)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	b := mustBEOL(t, "x", 4)
	b.Layers[2].Name = "M2" // duplicate
	if err := b.Validate(); err == nil {
		t.Fatal("duplicate layer name accepted")
	}
	b = mustBEOL(t, "x", 4)
	b.Vias = b.Vias[:2]
	if err := b.Validate(); err == nil {
		t.Fatal("missing via accepted")
	}
	b = mustBEOL(t, "x", 4)
	b.Layers[0].Pitch = 0
	if err := b.Validate(); err == nil {
		t.Fatal("zero pitch accepted")
	}
	empty := &BEOL{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty stack accepted")
	}
}

func TestCombineLayerOrder(t *testing.T) {
	logic := mustBEOL(t, "logic", 6)
	macro := mustBEOL(t, "macro", 4)
	c, err := Combine(logic, macro, DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NumLayers(); got != 10 {
		t.Fatalf("combined layers = %d", got)
	}
	if got := len(c.Vias); got != 9 {
		t.Fatalf("combined vias = %d", got)
	}
	// Logic layers first, unrenamed.
	for i := 0; i < 6; i++ {
		if c.Layers[i].MacroDie {
			t.Fatalf("logic layer %d marked macro-die", i)
		}
		if strings.HasSuffix(c.Layers[i].Name, MDSuffix) {
			t.Fatalf("logic layer renamed: %s", c.Layers[i].Name)
		}
	}
	// F2F via sits between the dies.
	fi := c.F2FViaIndex()
	if fi != 5 {
		t.Fatalf("F2F via index = %d", fi)
	}
	if c.Vias[fi].Name != F2FLayerName || !c.Vias[fi].F2F {
		t.Fatalf("F2F via wrong: %+v", c.Vias[fi])
	}
	// Macro die flipped: traversal order after the F2F via is M4_MD
	// (its top metal) down to M1_MD.
	wantOrder := []string{"M4_MD", "M3_MD", "M2_MD", "M1_MD"}
	for i, want := range wantOrder {
		l := c.Layers[6+i]
		if l.Name != want {
			t.Fatalf("macro layer %d = %s, want %s", i, l.Name, want)
		}
		if !l.MacroDie {
			t.Fatalf("macro layer %s not marked", l.Name)
		}
	}
	if got := c.LogicDieLayers(); got != 6 {
		t.Fatalf("LogicDieLayers = %d", got)
	}
	if got := c.MacroDieLayers(); got != 4 {
		t.Fatalf("MacroDieLayers = %d", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCombineUsesF2FSpec(t *testing.T) {
	logic := mustBEOL(t, "logic", 4)
	macro := mustBEOL(t, "macro", 2)
	spec := DefaultF2F()
	c, err := Combine(logic, macro, spec)
	if err != nil {
		t.Fatal(err)
	}
	v := c.Vias[c.F2FViaIndex()]
	if v.R != spec.R || v.C != spec.C || v.Pitch != spec.Pitch {
		t.Fatalf("F2F via parasitics not applied: %+v", v)
	}
}

func TestCombineRejectsDoubleCombine(t *testing.T) {
	logic := mustBEOL(t, "logic", 4)
	macro := mustBEOL(t, "macro", 2)
	c, err := Combine(logic, macro, DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Combine(c, macro, DefaultF2F()); err == nil {
		t.Fatal("combining a combined stack accepted")
	}
}

func TestSeparate(t *testing.T) {
	logic := mustBEOL(t, "logic", 6)
	macro := mustBEOL(t, "macro", 4)
	c, _ := Combine(logic, macro, DefaultF2F())
	ll, ml, err := Separate(c)
	if err != nil {
		t.Fatal(err)
	}
	// Both parts include the F2F layer (shared bonding layer).
	if ll[len(ll)-1] != F2FLayerName || ml[len(ml)-1] != F2FLayerName {
		t.Fatalf("F2F layer missing from a part: %v / %v", ll, ml)
	}
	if len(ll) != 7 || len(ml) != 5 {
		t.Fatalf("part sizes: %d / %d", len(ll), len(ml))
	}
	for _, n := range ml[:4] {
		if !strings.HasSuffix(n, MDSuffix) {
			t.Fatalf("macro part contains non-MD layer %s", n)
		}
	}
	if _, _, err := Separate(logic); err == nil {
		t.Fatal("separating a plain stack accepted")
	}
}

func TestDefaultF2FMatchesPaper(t *testing.T) {
	f := DefaultF2F()
	if f.Pitch != 1.0 || f.Size != 0.5 || f.Height != 0.17 {
		t.Fatalf("geometry %+v", f)
	}
	// 44 mΩ and 1.0 fF.
	if math.Abs(f.R-44e-6) > 1e-12 || f.C != 1.0 {
		t.Fatalf("parasitics %+v", f)
	}
}

func TestNew28(t *testing.T) {
	tc, err := New28(6)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Logic.NumLayers() != 6 {
		t.Fatalf("logic metals = %d", tc.Logic.NumLayers())
	}
	if tc.VDD != 0.9 || tc.RowHeight <= 0 || tc.SiteWidth <= 0 {
		t.Fatalf("tech params %+v", tc)
	}
	slow := tc.CornerScaleFor(CornerSlow)
	typ := tc.CornerScaleFor(CornerTypical)
	if slow.CellDelay <= typ.CellDelay {
		t.Fatal("slow corner not slower than typical")
	}
	fast := tc.CornerScaleFor(CornerFast)
	if fast.CellDelay >= typ.CellDelay {
		t.Fatal("fast corner not faster than typical")
	}
	// Unknown corner falls back to identity.
	unk := (&Tech{}).CornerScaleFor(CornerSlow)
	if unk.CellDelay != 1 || unk.WireC != 1 {
		t.Fatalf("fallback scale %+v", unk)
	}
}

func TestScaleParasitics(t *testing.T) {
	b := mustBEOL(t, "x", 6)
	f := 1 / math.Sqrt2
	s := ScaleParasitics(b, f)
	for i := range b.Layers {
		if math.Abs(s.Layers[i].RPerUm-b.Layers[i].RPerUm*f) > 1e-12 {
			t.Fatalf("layer %d R not scaled", i)
		}
		if math.Abs(s.Layers[i].CPerUm-b.Layers[i].CPerUm*f) > 1e-12 {
			t.Fatalf("layer %d C not scaled", i)
		}
	}
	// Original untouched.
	if b.Layers[0].RPerUm != metals28[0].r {
		t.Fatal("ScaleParasitics mutated input")
	}
}

func TestShrinkGeometry(t *testing.T) {
	b := mustBEOL(t, "x", 4)
	s := ShrinkGeometry(b, 0.5)
	for i := range b.Layers {
		if math.Abs(s.Layers[i].Pitch-b.Layers[i].Pitch*0.5) > 1e-12 {
			t.Fatalf("layer %d pitch not shrunk", i)
		}
	}
	if b.Layers[0].Pitch != metals28[0].pitch {
		t.Fatal("ShrinkGeometry mutated input")
	}
}

func TestCloneIndependence(t *testing.T) {
	b := mustBEOL(t, "x", 4)
	c := b.Clone()
	c.Layers[0].RPerUm = 99
	if b.Layers[0].RPerUm == 99 {
		t.Fatal("clone shares layer storage")
	}
}

// Property: combining any valid pair of 28nm stacks yields a valid
// stack whose layer count is the sum and which separates back into
// parts of the original sizes (+1 for the shared F2F layer each).
func TestCombineSeparateProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		na := 2 + int(a)%7
		nb := 2 + int(b)%7
		logic, err1 := NewBEOL28("l", na)
		macro, err2 := NewBEOL28("m", nb)
		if err1 != nil || err2 != nil {
			return false
		}
		c, err := Combine(logic, macro, DefaultF2F())
		if err != nil {
			return false
		}
		if c.NumLayers() != na+nb || c.Validate() != nil {
			return false
		}
		ll, ml, err := Separate(c)
		if err != nil {
			return false
		}
		return len(ll) == na+1 && len(ml) == nb+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCornerString(t *testing.T) {
	if CornerSlow.String() != "slow" || CornerTypical.String() != "typical" || CornerFast.String() != "fast" {
		t.Fatal("corner names wrong")
	}
}

func TestShrinkGeometryIncreasesRouterCapacity(t *testing.T) {
	// The S2D premise: shrinking wire geometry by 1/√2 raises track
	// counts — verified at the stack level via pitches.
	b := mustBEOL(t, "x", 6)
	s := ShrinkGeometry(b, 0.7071)
	for i := range b.Layers {
		if s.Layers[i].Pitch >= b.Layers[i].Pitch {
			t.Fatalf("layer %d pitch did not shrink", i)
		}
	}
	// Parasitics untouched by the geometry shrink.
	if s.Layers[0].RPerUm != b.Layers[0].RPerUm {
		t.Fatal("geometry shrink changed parasitics")
	}
}

func TestLayerIndexAndTop(t *testing.T) {
	b := mustBEOL(t, "x", 6)
	if b.LayerIndex("M3") != 2 || b.LayerIndex("M9") != -1 {
		t.Fatal("LayerIndex wrong")
	}
	if b.Layers[len(b.Layers)-1].Name != "M6" {
		t.Fatal("top layer wrong")
	}
	logic := mustBEOL(t, "l", 6)
	macro := mustBEOL(t, "m", 4)
	c, err := Combine(logic, macro, DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	if c.LayerIndex("M4_MD") != 6 {
		t.Fatalf("M4_MD index = %d (flipped traversal: top macro metal first)", c.LayerIndex("M4_MD"))
	}
}

func TestMacroDieName(t *testing.T) {
	logic, _ := NewBEOL28("logic", 6)
	macro, _ := NewBEOL28("macro", 6)
	combined, err := Combine(logic, macro, DefaultF2F())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ in, want string }{
		{"M1", "M1_MD"},
		{"M6", "M6_MD"},
		{"M4_MD", "M4_MD"}, // already a macro-die layer
		{F2FLayerName, F2FLayerName},
	} {
		got, err := combined.MacroDieName(tc.in)
		if err != nil {
			t.Fatalf("MacroDieName(%s): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("MacroDieName(%s) = %s, want %s", tc.in, got, tc.want)
		}
	}
	if _, err := combined.MacroDieName("M9"); err == nil {
		t.Fatal("MacroDieName accepted a layer the combined stack does not have")
	}
	// On an uncombined stack no _MD layer exists, so remapping fails
	// loudly instead of fabricating a name.
	if _, err := logic.MacroDieName("M1"); err == nil {
		t.Fatal("MacroDieName on a plain logic stack should fail")
	}
}
