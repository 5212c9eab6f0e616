package netlist

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
)

// composeSource is a small Add*-built design: a port-driven chain of
// inverters ending in a port.
func composeSource(t *testing.T, gates int) *Design {
	t.Helper()
	lib := testLib()
	d := NewDesign("src", lib)
	in, out := d.AddPort("in", cell.DirIn), d.AddPort("out", cell.DirOut)
	in.Loc, out.Loc = geom.Pt(0, 5), geom.Pt(100, 5)
	prev := PPin(in)
	for i := 0; i < gates; i++ {
		u := d.AddInstance(fmt.Sprintf("u%d", i), lib.MustCell("INV_X1"))
		u.Loc, u.Placed = geom.Pt(float64(i), 1), true
		d.AddNet(fmt.Sprintf("n%d", i), prev, IPin(u, "A"))
		prev = IPin(u, "Y")
	}
	d.AddNet("n_out", prev, PPin(out))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// composed builds copies of src side by side, each a replica of the
// chain with its own ports, plus one port and one net of the design's own.
func composed(t *testing.T, src *Design, tags ...string) *Design {
	t.Helper()
	copies := make([]Copy, len(tags))
	for i, tag := range tags {
		copies[i] = Copy{Tag: tag, Offset: geom.Pt(1000*float64(i), 0)}
	}
	d := NewDesign("arr", src.Lib)
	b, err := d.Compose(src, copies)
	if err != nil {
		t.Fatal(err)
	}
	en := b.AddPort("en", cell.DirIn)
	composeCopies(b, d, src, len(copies))
	b.AddNet("en_net", PPin(en))
	return d
}

// composeCopies adds the given number of copies of the chain src to d
// through b: every copy's instances, then every copy's nets over its own
// ports.
func composeCopies(b *Composer, d, src *Design, copies int) {
	for c := 0; c < copies; c++ {
		for _, inst := range src.Instances {
			b.Instance(c, inst)
		}
	}
	for c := 0; c < copies; c++ {
		base := c * len(src.Instances)
		ref := func(r PinRef) PinRef {
			if r.Port != nil {
				return PPin(b.Port(c, r.Port))
			}
			return IPin(d.Instances[base+r.Inst.ID], r.Pin())
		}
		for _, n := range src.Nets {
			b.Net(c, n, ref(n.Driver), ref(n.Sinks[0]))
		}
	}
}

func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", what)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q, want one mentioning %q", what, msg, want)
		}
	}()
	f()
}

// TestComposeLeavesIndexesUnbuilt: a composed design is complete and
// valid by ID with no by-name index in existence; the first by-name
// lookup builds them and finds every name of every kind; a translated
// copy carries its offset.
func TestComposeLeavesIndexesUnbuilt(t *testing.T) {
	src := composeSource(t, 40)
	tags := []string{"t0_0_", "t1_0_", "t10_0_"}
	d := composed(t, src, tags...)
	if d.byName.Load() != nil {
		t.Fatal("composition built the by-name indexes")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.byName.Load() != nil {
		t.Fatal("Validate built the by-name indexes")
	}
	if got, want := len(d.Instances), 3*len(src.Instances); got != want {
		t.Fatalf("%d instances, want %d", got, want)
	}
	for c, tag := range tags {
		for _, inst := range src.Instances {
			got := d.Instance(tag + inst.Name)
			if got == nil || got != d.Instances[c*len(src.Instances)+inst.ID] {
				t.Fatalf("lookup of %s%s misses copy %d of instance %d", tag, inst.Name, c, inst.ID)
			}
			if got.Loc != inst.Loc.Add(geom.Pt(1000*float64(c), 0)) || got.Master != inst.Master || !got.Placed {
				t.Fatalf("copy %s is not the translated source instance: %+v", got.Name, got)
			}
		}
		for _, n := range src.Nets {
			if got := d.Net(tag + n.Name); got == nil || got != d.Nets[c*len(src.Nets)+n.ID] {
				t.Fatalf("lookup of net %s%s misses", tag, n.Name)
			}
		}
		for _, p := range src.Ports {
			got := d.Port(tag + p.Name)
			if got == nil || got.Dir != p.Dir || got.Loc != p.Loc.Add(geom.Pt(1000*float64(c), 0)) {
				t.Fatalf("lookup of port %s%s: %+v", tag, p.Name, got)
			}
		}
	}
	if d.Port("en") == nil || d.Net("en_net") == nil || d.Net("en_net").ID != len(d.Nets)-1 {
		t.Fatal("the design's own port and net are not found")
	}
	if d.Instance("u0") != nil || d.Net("t0_0_") != nil {
		t.Fatal("lookup finds a name the design does not hold")
	}
}

// TestComposeThenAddChecksDuplicates: after a composition, Add* is the
// checked path it always was — a name a copy already carries panics, a
// new one is added and found, and TruncateTo keeps the indexes current
// whether or not they were built.
func TestComposeThenAddChecksDuplicates(t *testing.T) {
	src := composeSource(t, 8)
	d := composed(t, src, "a_", "b_")
	inv := d.Lib.MustCell("INV_X1")
	mustPanic(t, "AddInstance of a composed name", `duplicate instance "b_u3"`, func() { d.AddInstance("b_u3", inv) })
	mustPanic(t, "AddNet of a composed name", `duplicate net "a_n_out"`, func() { d.AddNet("a_n_out", PinRef{}) })
	mustPanic(t, "AddPort of a composed name", `duplicate port "a_in"`, func() { d.AddPort("a_in", cell.DirIn) })
	mustPanic(t, "AddNet of the design's own name", `duplicate net "en_net"`, func() { d.AddNet("en_net", PinRef{}) })

	ni, nn := d.Counts()
	buf := d.AddInstance("buf1", inv)
	d.AddNet("buf1_out", IPin(buf, "Y"))
	if d.Instance("buf1") != buf || d.Net("buf1_out") == nil {
		t.Fatal("a record added after the composition is not found")
	}
	d.TruncateTo(ni, nn)
	if d.Instance("buf1") != nil || d.Net("buf1_out") != nil || d.Instance("b_u7") == nil {
		t.Fatal("TruncateTo left the indexes out of step with the records")
	}

	// Truncation before anything asked for the indexes.
	e := composed(t, src, "a_", "b_")
	e.TruncateTo(len(e.Instances)-2, len(e.Nets)-1)
	if e.byName.Load() != nil {
		t.Fatal("TruncateTo built the indexes")
	}
	if e.Instance("b_u7") != nil || e.Instance("b_u6") != nil || e.Net("en_net") != nil || e.Instance("b_u5") == nil {
		t.Fatal("indexes built after a truncation hold truncated records")
	}
}

// TestComposeRejectsUnprovableNames: tags that could make two names
// collide are refused up front, and a record outside what the proof
// covers — out of order, not the source's, carrying a tag, doubled —
// panics like an Add* duplicate.
func TestComposeRejectsUnprovableNames(t *testing.T) {
	src := composeSource(t, 4)
	for _, tags := range [][]string{
		{"t1_", "t1_"},         // equal
		{"t1_", "t1_1_"},       // "t1_"+"1_x" == "t1_1_"+"x"
		{"t1_1_", "t0_", "t1"}, // a later tag prefixes an earlier one
		{"a_", ""},             // the empty tag prefixes every name
	} {
		copies := make([]Copy, len(tags))
		for i := range tags {
			copies[i].Tag = tags[i]
		}
		if _, err := NewDesign("x", src.Lib).Compose(src, copies); err == nil || !strings.Contains(err.Error(), "is a prefix of") {
			t.Fatalf("tags %q: err = %v, want a prefix error", tags, err)
		}
	}
	used := NewDesign("used", src.Lib)
	used.AddPort("p", cell.DirIn)
	if _, err := used.Compose(src, []Copy{{Tag: "a_"}}); err == nil {
		t.Fatal("composition into a design that holds records accepted")
	}

	d := NewDesign("arr", src.Lib)
	b, err := d.Compose(src, []Copy{{Tag: "a_"}, {Tag: "b_"}})
	if err != nil {
		t.Fatal(err)
	}
	other := composeSource(t, 4)
	b.Instance(0, src.Instances[1])
	mustPanic(t, "instance twice", "out of order", func() { b.Instance(0, src.Instances[1]) })
	mustPanic(t, "instance backwards", "out of order", func() { b.Instance(0, src.Instances[0]) })
	mustPanic(t, "foreign instance", "not the source's", func() { b.Instance(1, other.Instances[2]) })
	b.Instance(1, src.Instances[0])
	mustPanic(t, "earlier copy", "out of order", func() { b.Instance(0, src.Instances[3]) })
	b.Net(0, src.Nets[2], PinRef{})
	mustPanic(t, "net twice", "out of order", func() { b.Net(0, src.Nets[2], PinRef{}) })
	mustPanic(t, "foreign net", "not the source's", func() { b.Net(1, other.Nets[3], PinRef{}) })
	mustPanic(t, "foreign port", "not the source's", func() { b.Port(1, other.Ports[0]) })
	if p := b.Port(1, src.Ports[0]); p != b.Port(1, src.Ports[0]) || p.Name != "b_in" {
		t.Fatalf("a copy's port is made twice, or misnamed: %+v", p)
	}
	b.AddNet("clk", PinRef{})
	mustPanic(t, "own net twice", `duplicate net "clk"`, func() { b.AddNet("clk", PinRef{}) })
	mustPanic(t, "own net under a tag", "carries the tag", func() { b.AddNet("b_n0", PinRef{}) })
	mustPanic(t, "own port under a tag", "carries the tag", func() { b.AddPort("a_", cell.DirIn) })
}

// TestComposeKeepsABuiltIndexCurrent: a by-name use in the middle of a
// composition builds the indexes; the records composed after it land in
// them, duplicate check included.
func TestComposeKeepsABuiltIndexCurrent(t *testing.T) {
	src := composeSource(t, 4)
	d := NewDesign("arr", src.Lib)
	b, err := d.Compose(src, []Copy{{Tag: "a_"}, {Tag: "b_"}})
	if err != nil {
		t.Fatal(err)
	}
	b.Instance(0, src.Instances[0])
	if d.Instance("a_u0") == nil { // builds the indexes
		t.Fatal("first composed instance not found")
	}
	d.AddInstance("b_u2", src.Lib.MustCell("INV_X1")) // an Add* under a copy's tag
	b.Instance(0, src.Instances[1])
	if d.Instance("a_u1") == nil {
		t.Fatal("an instance composed after the indexes were built is not in them")
	}
	mustPanic(t, "composed name taken by an Add*", `duplicate instance "b_u2"`, func() { b.Instance(1, src.Instances[2]) })
}

// TestComposeConcurrentFirstLookups: goroutines racing to be the first
// by-name reader of a composed design all see complete indexes (run
// under -race).
func TestComposeConcurrentFirstLookups(t *testing.T) {
	src := composeSource(t, 200)
	for round := 0; round < 5; round++ {
		d := composed(t, src, "a_", "b_", "c_")
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					k := (i*7 + g) % 200
					if d.Instance(fmt.Sprintf("b_u%d", k)) == nil || d.Net(fmt.Sprintf("c_n%d", k)) == nil || d.Port("a_out") == nil {
						t.Errorf("goroutine %d: lookup %d missed", g, k)
						return
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
	}
}

// TestValidateDoubleDriverNamesBothNets: the first and the second net at
// a doubly-driven pin are named even when other nets lie between them,
// and a structural fault in a later net is reported first.
func TestValidateDoubleDriverNamesBothNets(t *testing.T) {
	lib := testLib()
	d := NewDesign("dd", lib)
	var u [4]*Instance
	for i := range u {
		u[i] = d.AddInstance(fmt.Sprintf("u%d", i), lib.MustCell("NAND2_X1"))
	}
	d.AddNet("first", IPin(u[0], "Y"), IPin(u[1], "A"), IPin(u[3], "B"))
	d.AddNet("between", IPin(u[1], "Y"), IPin(u[2], "A"), IPin(u[2], "B"))
	d.AddNet("second", IPin(u[2], "Y"), IPin(u[3], "A"), IPin(u[3], "B"))
	third := d.AddNet("third", IPin(u[3], "Y"), IPin(u[3], "B"))
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), `pin u3/B driven by both "first" and "second"`) {
		t.Fatalf("doubly-driven pin: %v", err)
	}
	third.Sinks[0] = IPin(u[3], "Y")
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), `net "third" sinks at non-input`) {
		t.Fatalf("a structural fault after the double driver: %v", err)
	}
}

// TestBuilderLeavesIndexesUnbuilt: a Builder starts only on an empty
// design and adds records without an index; the first lookup builds the
// index over all of them and the builder keeps it current from then on,
// duplicate check included; a duplicate the builder's caller let through
// panics when the index is built.
func TestBuilderLeavesIndexesUnbuilt(t *testing.T) {
	lib := testLib()
	if _, err := tiny(t).Build(); err == nil {
		t.Fatal("Build of a design with records succeeded")
	}
	d := NewDesign("built", lib)
	b, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := b.AddPort("in", cell.DirIn)
	u := b.AddInstance("u0", lib.MustCell("INV_X1"))
	b.AddNet("n0", PPin(in), IPin(u, "A"))
	if i, n, p := d.OwnNames(); i+n+p != 0 || d.byName.Load() != nil {
		t.Fatal("the builder built the by-name indexes")
	}
	if d.Instance("u0") != u || d.Port("in") != in {
		t.Fatal("the first lookup misses a built record")
	}
	if i, n, p := d.OwnNames(); i != 1 || n != 1 || p != 1 {
		t.Fatalf("index holds %d/%d/%d names, want 1/1/1", i, n, p)
	}
	v := b.AddInstance("u1", lib.MustCell("INV_X1"))
	if d.Instance("u1") != v {
		t.Fatal("an add after the index was built is not indexed")
	}
	mustPanic(t, "builder duplicate after the index", "duplicate instance", func() { b.AddInstance("u1", lib.MustCell("INV_X1")) })

	dup := NewDesign("dup", lib)
	db, err := dup.Build()
	if err != nil {
		t.Fatal(err)
	}
	db.AddInstance("x", lib.MustCell("INV_X1"))
	db.AddInstance("x", lib.MustCell("INV_X1"))
	mustPanic(t, "index over a duplicate", "duplicate names", func() { dup.Instance("x") })
}

// FuzzComposeTags holds Compose's proof of new names to arbitrary tags.
// The first input, split at each zero byte, gives up to eight tags of up
// to 16 bytes; the second names a port and a net of the composer's own.
// Compose refuses exactly when one tag is a prefix of another, equal tags
// included. Otherwise every copy of a small chain composes to names
// distinct per kind, each found under its name; and the own name panics
// with the compose message when a tag is a prefix of it, and is admitted
// and found when none is.
func FuzzComposeTags(f *testing.F) {
	f.Add([]byte(""), "en")                     // the empty tag: a prefix of every name
	f.Add([]byte("a_\x00a_"), "en")             // equal tags
	f.Add([]byte("t1_\x00t1_0_"), "t1_0_en")    // a tag that is a prefix of another
	f.Add([]byte("t1_\x00t10_\x00t0_1_"), "t1") // a shared prefix, no tag a prefix of another
	f.Fuzz(func(t *testing.T, raw []byte, own string) {
		parts := bytes.Split(raw, []byte{0})
		copies := make([]Copy, min(len(parts), 8))
		for i := range copies {
			copies[i] = Copy{Tag: string(parts[i][:min(len(parts[i]), 16)]), Offset: geom.Pt(1000*float64(i), 0)}
		}
		prefixed := func(name string, skip int) bool {
			for i, c := range copies {
				if i != skip && strings.HasPrefix(name, c.Tag) {
					return true
				}
			}
			return false
		}
		refuse := false
		for i, c := range copies {
			refuse = refuse || prefixed(c.Tag, i)
		}
		src := composeSource(t, 3)
		d := NewDesign("arr", src.Lib)
		b, err := d.Compose(src, copies)
		if refuse != (err != nil) {
			t.Fatalf("tags %q: Compose error %v, want one: %v", raw, err, refuse)
		}
		if err != nil {
			return
		}
		composeCopies(b, d, src, len(copies))
		if len(d.Instances) != len(copies)*len(src.Instances) || len(d.Nets) != len(copies)*len(src.Nets) || len(d.Ports) != len(copies)*len(src.Ports) {
			t.Fatalf("tags %q: composed %d instances, %d nets, %d ports", raw, len(d.Instances), len(d.Nets), len(d.Ports))
		}
		instances, nets, ports := map[string]bool{}, map[string]bool{}, map[string]bool{}
		for _, inst := range d.Instances {
			if instances[inst.Name] || d.Instance(inst.Name) != inst {
				t.Fatalf("tags %q: instance %q is not the one record of its name", raw, inst.Name)
			}
			instances[inst.Name] = true
		}
		for _, n := range d.Nets {
			if nets[n.Name] || d.Net(n.Name) != n {
				t.Fatalf("tags %q: net %q is not the one record of its name", raw, n.Name)
			}
			nets[n.Name] = true
		}
		for _, p := range d.Ports {
			if ports[p.Name] || d.Port(p.Name) != p {
				t.Fatalf("tags %q: port %q is not the one record of its name", raw, p.Name)
			}
			ports[p.Name] = true
		}

		if prefixed(own, -1) {
			mustPanic(t, "own port under a tag", "carries the tag", func() { b.AddPort(own, cell.DirIn) })
			mustPanic(t, "own net under a tag", "carries the tag", func() { b.AddNet(own, PinRef{}) })
			return
		}
		if p, n := b.AddPort(own, cell.DirIn), b.AddNet(own, PinRef{}); d.Port(own) != p || d.Net(own) != n {
			t.Fatalf("tags %q: own port and net %q are not found under their name", raw, own)
		}
	})
}
