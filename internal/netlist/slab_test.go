package netlist

import (
	"fmt"
	"testing"
)

// chain builds n inverters in a row behind an input port, every net
// with one sink.
func chain(n int) *Design {
	lib := testLib()
	d := NewDesign("chain", lib)
	inv := lib.MustCell("INV_X1")
	prev := PPin(d.AddPort("in", 0))
	for i := 0; i < n; i++ {
		u := d.AddInstance(fmt.Sprintf("u%d", i), inv)
		d.AddNet(fmt.Sprintf("n%d", i), prev, IPin(u, "A"))
		prev = IPin(u, "Y")
	}
	return d
}

// TestRecordsStayPutAcrossChunks: the pointers AddInstance and AddNet
// return stay valid and distinct while the slabs grow through many
// chunks — a record is never moved, so what was written through an
// early pointer is what the design's tables show at the end.
func TestRecordsStayPutAcrossChunks(t *testing.T) {
	const n = 3000 // crosses the 64/64/128/… chunk boundaries several times
	lib := testLib()
	d := NewDesign("grow", lib)
	inv := lib.MustCell("INV_X1")
	insts, nets := make([]*Instance, n), make([]*Net, n)
	for i := range insts {
		insts[i] = d.AddInstance(fmt.Sprintf("u%d", i), inv)
		insts[i].Loc.X = float64(i)
		nets[i] = d.AddNet(fmt.Sprintf("n%d", i), IPin(insts[i], "Y"))
		nets[i].Weight = float64(i)
	}
	seenI, seenN := map[*Instance]bool{}, map[*Net]bool{}
	for i := range insts {
		if d.Instances[i] != insts[i] || d.Nets[i] != nets[i] {
			t.Fatalf("record %d moved", i)
		}
		if seenI[insts[i]] || seenN[nets[i]] {
			t.Fatalf("record %d handed out twice", i)
		}
		seenI[insts[i]], seenN[nets[i]] = true, true
		name := fmt.Sprintf("u%d", i)
		if insts[i].Name != name || insts[i].ID != i || insts[i].Loc.X != float64(i) ||
			d.Instance(name) != insts[i] {
			t.Fatalf("instance %d = %+v", i, *insts[i])
		}
		if nets[i].ID != i || nets[i].Weight != float64(i) || nets[i].Driver.Inst != insts[i] ||
			d.Net(fmt.Sprintf("n%d", i)) != nets[i] {
			t.Fatalf("net %d = %+v", i, *nets[i])
		}
	}
}

// TestTruncateRewindsSlabs: TruncateTo releases the dropped records
// zeroed, the next adds reuse exactly those records, and the name
// indices follow — across a chunk boundary too.
func TestTruncateRewindsSlabs(t *testing.T) {
	for _, base := range []int{3, 60} { // 60 + 10 straddles the first chunk
		d := chain(base)
		nI, nN := d.Counts()
		buf := d.Lib.MustCell("BUF_X1")
		var dropped []*Instance
		var droppedNets []*Net
		for i := 0; i < 10; i++ {
			u := d.AddInstance(fmt.Sprintf("x%d", i), buf)
			u.Loc.X, u.Fixed, u.Placed = 7, true, true
			dropped = append(dropped, u)
			n := d.AddNet(fmt.Sprintf("xn%d", i), IPin(u, "Y"), IPin(d.Instances[0], "A"))
			n.Clock, n.Weight = true, 3
			droppedNets = append(droppedNets, n)
		}
		d.TruncateTo(nI, nN)
		for i, u := range dropped {
			if *u != (Instance{}) {
				t.Fatalf("base %d: released instance %d not zeroed: %+v", base, i, *u)
			}
			if n := droppedNets[i]; n.Name != "" || n.Sinks != nil || n.Driver != (PinRef{}) || n.Clock || n.Weight != 0 {
				t.Fatalf("base %d: released net %d not zeroed: %+v", base, i, *n)
			}
			if d.Instance(fmt.Sprintf("x%d", i)) != nil || d.Net(fmt.Sprintf("xn%d", i)) != nil {
				t.Fatalf("base %d: dropped name %d still indexed", base, i)
			}
		}
		for i := range dropped {
			u := d.AddInstance(fmt.Sprintf("y%d", i), buf)
			n := d.AddNet(fmt.Sprintf("yn%d", i), IPin(u, "Y"))
			if u != dropped[i] || n != droppedNets[i] {
				t.Fatalf("base %d: re-add %d did not reuse the released record", base, i)
			}
			if u.ID != nI+i || u.Loc.X != 0 || u.Fixed || u.Placed || n.ID != nN+i || n.Clock || n.Weight != 1 {
				t.Fatalf("base %d: reused records carry old state: %+v / %+v", base, *u, *n)
			}
			if d.Instance(u.Name) != u || d.Net(n.Name) != n {
				t.Fatalf("base %d: re-added name %d not indexed", base, i)
			}
		}
		// The records before the checkpoint never moved or changed.
		for i := 0; i < base; i++ {
			if u := d.Instances[i]; u.Name != fmt.Sprintf("u%d", i) || u.ID != i {
				t.Fatalf("base %d: surviving instance %d = %+v", base, i, *u)
			}
		}
	}
}

// TestSinkSpansAreDisjoint: a net over an arena span grows by copying
// out, never into the next net's span.
func TestSinkSpansAreDisjoint(t *testing.T) {
	d := chain(4)
	a, b := d.SinkSpan(2), d.SinkSpan(2)
	a[0], a[1] = IPin(d.Instances[0], "A"), IPin(d.Instances[1], "A")
	b[0], b[1] = IPin(d.Instances[2], "A"), IPin(d.Instances[3], "A")
	na := d.AddNet("a", PPin(d.Ports[0]), a...)
	nb := d.AddNet("b", PPin(d.Ports[0]), b...)
	na.Sinks = append(na.Sinks, IPin(d.Instances[3], "A"))
	if nb.Sinks[0].Inst != d.Instances[2] || nb.Sinks[1].Inst != d.Instances[3] || len(na.Sinks) != 3 {
		t.Fatal("growing one net's arena span overwrote its neighbour")
	}
}

// TestReserveBuildsWithoutGrowth: a builder that Reserves its size adds
// its records without another slab, table or name-index allocation —
// what is left per record is the caller's own name string.
func TestReserveBuildsWithoutGrowth(t *testing.T) {
	const n = 2000
	lib := testLib()
	inv := lib.MustCell("INV_X1")
	names := make([]string, 2*n)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
	}
	allocs := testing.AllocsPerRun(5, func() {
		d := NewDesign("r", lib)
		d.Reserve(n, n, n)
		for i := 0; i < n; i++ {
			u := d.AddInstance(names[i], inv)
			s := d.SinkSpan(1)
			s[0] = IPin(u, "A")
			d.AddNet(names[n+i], IPin(u, "Y"), s...)
		}
	})
	if allocs > 40 {
		t.Fatalf("reserved build of %d instances and nets allocates %.0f objects, want a constant (≤ 40)", n, allocs)
	}
}

// TestAdjacencyAndValidateAllocs: NetsOfInstance is a count, one flat
// array and row views; Validate's double-driver check keys a presized
// map by the comparable PinRef — neither allocates per pin, so a design
// twenty times larger costs the same objects (the map's buckets aside).
func TestAdjacencyAndValidateAllocs(t *testing.T) {
	small, large := chain(250), chain(5000)
	if a := testing.AllocsPerRun(5, func() { large.NetsOfInstance() }); a > 4 {
		t.Fatalf("NetsOfInstance allocates %.0f objects on 5000 instances, want ≤ 4", a)
	}
	validate := func(d *Design) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	as, al := validate(small), validate(large)
	t.Logf("Validate allocs: %.0f at 250 instances, %.0f at 5000", as, al)
	if al > as+8 {
		t.Fatalf("Validate allocates %.0f objects at 5000 instances, %.0f at 250: want no growth with design size", al, as)
	}
}

// TestNetsOfInstanceRows: rows keep net order, one entry per pin, and
// are exact-size views — growing a row must not clobber the next.
func TestNetsOfInstanceRows(t *testing.T) {
	d := chain(3)
	adj := d.NetsOfInstance()
	for i := 0; i < 3; i++ {
		want := []*Net{d.Nets[i]}
		if i+1 < 3 {
			want = append(want, d.Nets[i+1])
		}
		if len(adj[i]) != len(want) || cap(adj[i]) != len(want) {
			t.Fatalf("row %d: len %d cap %d, want %d", i, len(adj[i]), cap(adj[i]), len(want))
		}
		for k := range want {
			if adj[i][k] != want[k] {
				t.Fatalf("row %d entry %d = %s, want %s", i, k, adj[i][k].Name, want[k].Name)
			}
		}
	}
	adj[0] = append(adj[0], d.Nets[2])
	if adj[1][0] != d.Nets[1] {
		t.Fatal("growing a row overwrote the next one")
	}
}

// TestCloneRepointsByID: a clone holds records of its own, each equal to
// its source's, and every pin reference points at the clone's record of
// the same ID. A clone of an unsealed design starts without name indexes
// and builds them on first use; one of a sealed template starts with the
// template's as its base and an empty index of its own, and finds its
// own records through the base. A reference to a record outside the
// design panics.
func TestCloneRepointsByID(t *testing.T) {
	d := tiny(t)
	c := d.Clone()
	if c.byName.Load() != nil || c.base.inst != nil {
		t.Fatal("clone of an unsealed design built its name indexes up front")
	}
	tmpl := d.Clone()
	tmpl.Seal()
	sc := tmpl.Clone()
	if i, n, p := sc.OwnNames(); i+n+p != 0 || sc.base.inst == nil {
		t.Fatalf("clone of a sealed template: own index %d/%d/%d, base built %v", i, n, p, sc.base.inst != nil)
	}
	if sc.Instance("ff") != sc.Instances[1] || sc.Net("clk") != sc.Nets[2] || sc.Port("dout") != sc.Ports[2] {
		t.Fatal("clone of a sealed template does not find its own records through the base")
	}
	if i, n, p := sc.OwnNames(); i+n+p != 0 {
		t.Fatalf("lookups through the base filled the copy's own index: %d/%d/%d", i, n, p)
	}
	for i, src := range d.Instances {
		if got := c.Instances[i]; got == src || *got != *src {
			t.Fatalf("instance %d: %p %+v, source %p %+v", i, got, *got, src, *src)
		}
	}
	for i, src := range d.Ports {
		if got := c.Ports[i]; got == src || *got != *src {
			t.Fatalf("port %d: %+v, source %+v", i, *got, *src)
		}
	}
	owned := func(r PinRef) bool {
		return (r.Inst == nil || c.Instances[r.Inst.ID] == r.Inst) && (r.Port == nil || c.Ports[r.Port.ID] == r.Port)
	}
	for i, src := range d.Nets {
		n := c.Nets[i]
		if n == src || n.Name != src.Name || n.ID != src.ID || n.Clock != src.Clock || n.Weight != src.Weight ||
			len(n.Sinks) != len(src.Sinks) || cap(n.Sinks) != len(n.Sinks) {
			t.Fatalf("net %d: %+v, source %+v", i, *n, *src)
		}
		for k := 0; k < n.NumPins(); k++ {
			if got, want := n.PinAt(k), src.PinAt(k); !owned(got) || got.String() != want.String() {
				t.Fatalf("net %s pin %d: %s, source %s", n.Name, k, got, want)
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Instance("ff") != c.Instances[1] || c.Net("clk") != c.Nets[2] || c.Port("dout") != c.Ports[2] {
		t.Fatal("clone's lookups do not find its own records")
	}

	d.Nets[1].Sinks[0] = IPin(chain(1).Instances[0], "A")
	defer func() {
		if recover() == nil {
			t.Fatal("cloning a design with a foreign pin reference did not panic")
		}
	}()
	d.Clone()
}
