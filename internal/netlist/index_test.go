package netlist

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
)

// sealedChain is chain(n) copied and sealed: a template as the flows'
// tile table stores one.
func sealedChain(n int) *Design {
	tmpl := chain(n).Clone()
	tmpl.Seal()
	return tmpl
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// idOf is a record's ID, or -1 for none.
func idOf[T any](r *T, id func(*T) int) int {
	if r == nil {
		return -1
	}
	return id(r)
}

// TestSealedTemplateIsReadOnly: a sealed design refuses every edit, and
// no edit of any of its copies — adds, truncations below the template's
// own size, re-adds of truncated names — writes its index.
func TestSealedTemplateIsReadOnly(t *testing.T) {
	tmpl := sealedChain(100)
	inv := tmpl.Lib.MustCell("INV_X1")
	mustPanic(t, "AddInstance", "sealed", func() { tmpl.AddInstance("x", inv) })
	mustPanic(t, "AddNet", "sealed", func() { tmpl.AddNet("x", PinRef{}) })
	mustPanic(t, "AddPort", "sealed", func() { tmpl.AddPort("x", cell.DirIn) })
	mustPanic(t, "Reserve", "sealed", func() { tmpl.Reserve(1, 1, 1) })
	mustPanic(t, "TruncateTo", "sealed", func() { tmpl.TruncateTo(1, 1) })

	ix := tmpl.byName.Load()
	inst, net, port := maps.Clone(ix.inst), maps.Clone(ix.net), maps.Clone(ix.port)
	if len(inst) != 100 || len(net) != 100 || len(port) != 1 {
		t.Fatalf("template index holds %d/%d/%d names", len(inst), len(net), len(port))
	}
	for k := 0; k < 3; k++ {
		c := tmpl.Clone()
		for i := 0; i < 10; i++ {
			u := c.AddInstance(fmt.Sprintf("b%d", i), inv)
			c.AddNet(fmt.Sprintf("bn%d", i), IPin(u, "Y"))
		}
		c.AddPort("p", cell.DirOut)
		c.TruncateTo(90-k, 95)
		c.AddInstance("u97", inv)
		c.AddNet("n99", PinRef{})
		if got := c.Instance("u97"); got == nil || got.ID != 90-k {
			t.Fatalf("copy %d: re-added u97 is %+v", k, got)
		}
	}
	if !maps.Equal(ix.inst, inst) || !maps.Equal(ix.net, net) || !maps.Equal(ix.port, port) {
		t.Fatal("an edit of a copy wrote the template's index")
	}
	if tmpl.byName.Load() != ix {
		t.Fatal("the template's index was replaced")
	}
}

// TestCopyIndexMatchesFresh: on a copy of a sealed template, whose index
// is the template's base plus its own, every lookup and every duplicate
// panic equals those on a copy of the same design that builds a whole
// index of its own — through a seeded run of adds, re-adds of template
// names and truncations, below the template's size too.
func TestCopyIndexMatchesFresh(t *testing.T) {
	const n = 200
	src := chain(n)
	tmpl := src.Clone()
	tmpl.Seal()
	shared, fresh := tmpl.Clone(), src.Clone()
	inv := src.Lib.MustCell("INV_X1")
	rng := geom.NewRNG(11)
	instID := func(i *Instance) int { return i.ID }
	netID := func(n *Net) int { return n.ID }
	portID := func(p *Port) int { return p.ID }
	both := func(what string, f func(d *Design)) {
		t.Helper()
		if a, b := panics(func() { f(shared) }), panics(func() { f(fresh) }); a != b {
			t.Fatalf("%s: panics %v on the copy, %v on a fresh index", what, a, b)
		}
	}
	truncations := 0
	for step := 0; step < 400; step++ {
		name := fmt.Sprint(rng.Intn(n + 60)) // template names and new ones
		switch r := rng.Intn(8); {
		case r < 3:
			both("AddInstance u"+name, func(d *Design) { d.AddInstance("u"+name, inv) })
		case r < 6:
			both("AddNet n"+name, func(d *Design) { d.AddNet("n"+name, PinRef{}) })
		case r < 7:
			port := []string{"in", "p" + name}[rng.Intn(2)]
			both("AddPort "+port, func(d *Design) { d.AddPort(port, cell.DirIn) })
		default:
			ni, nn := shared.Counts()
			ni, nn = ni-rng.Intn(min(ni, 40)), nn-rng.Intn(min(nn, 40))
			shared.TruncateTo(ni, nn)
			fresh.TruncateTo(ni, nn)
			if ni < n {
				truncations++
			}
		}
		for i := 0; i < n+60; i++ {
			s := fmt.Sprint(i)
			if a, b := idOf(shared.Instance("u"+s), instID), idOf(fresh.Instance("u"+s), instID); a != b {
				t.Fatalf("step %d: instance u%s is %d on the copy, %d on a fresh index", step, s, a, b)
			}
			if a, b := idOf(shared.Net("n"+s), netID), idOf(fresh.Net("n"+s), netID); a != b {
				t.Fatalf("step %d: net n%s is %d on the copy, %d on a fresh index", step, s, a, b)
			}
			if a, b := idOf(shared.Port("p"+s), portID), idOf(fresh.Port("p"+s), portID); a != b {
				t.Fatalf("step %d: port p%s is %d on the copy, %d on a fresh index", step, s, a, b)
			}
		}
	}
	if truncations == 0 {
		t.Fatal("no truncation went below the template's size")
	}
	ownI, ownN, _ := shared.OwnNames()
	if ownI >= len(shared.Instances) || ownN >= len(shared.Nets) {
		t.Fatalf("the copy's own index holds %d/%d names of its %d/%d records: it rebuilt the base", ownI, ownN, len(shared.Instances), len(shared.Nets))
	}
}

// TestCopiesShareIndexConcurrently: copies of one template, edited and
// looked up on their own goroutines, read the shared index and write only
// their own (`make race` runs this under the detector).
func TestCopiesShareIndexConcurrently(t *testing.T) {
	tmpl := sealedChain(300)
	inv := tmpl.Lib.MustCell("INV_X1")
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tmpl.Clone()
			ni, nn := c.Counts()
			for i := 0; i < 50; i++ {
				u := c.AddInstance(fmt.Sprintf("g%d_b%d", g, i), inv)
				c.AddNet(fmt.Sprintf("g%d_n%d", g, i), IPin(u, "Y"))
			}
			for i := 0; i < 300; i++ {
				if u := c.Instance(fmt.Sprintf("u%d", i)); u != c.Instances[i] {
					errs <- fmt.Errorf("copy %d: u%d is %v", g, i, u)
					return
				}
			}
			c.TruncateTo(ni, nn)
			if c.Instance(fmt.Sprintf("g%d_b0", g)) != nil {
				errs <- fmt.Errorf("copy %d: a truncated name is still found", g)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
