// Package partition implements the tier-partitioning step of the
// Shrunk-2D and Compact-2D baseline flows: an area-balanced
// Fiduccia–Mattheyses-style min-cut bipartition assigning each
// standard cell to the logic or macro die, followed by per-die overlap
// legalization against the *real* macro extents.
//
// The legalization step is where the paper's observed S2D/C2D failure
// materializes: the pseudo-2D placement honoured only coarse partial
// blockages, so after partitioning, cells assigned to a die can sit on
// top of that die's macros and must be displaced — sometimes far —
// degrading timing that the frozen post-partition netlist can no
// longer recover (paper §III).
package partition

import (
	"cmp"
	"fmt"
	"slices"

	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/obs"
	"macro3d/internal/place"
)

// balanceTol is the allowed deviation of either side from half the
// movable area.
const balanceTol = 0.10

// maxPasses bounds the improvement passes.
const maxPasses = 6

// Result reports partition quality.
type Result struct {
	CutNets   int
	AreaLogic float64 // µm² of movable cells on the logic die
	AreaMacro float64
	Moves     int // improvement moves applied
}

// TierPartition assigns Die to every movable standard cell, from a
// seeded random start. Macros keep their floorplanned die; ports anchor
// to the logic die.
func TierPartition(d *netlist.Design, seed uint64) (*Result, error) {
	rng := geom.NewRNG(seed + 13)

	movable := d.StdCells()
	if len(movable) == 0 {
		return &Result{}, nil
	}
	var total float64
	for _, c := range movable {
		total += c.Master.Area()
	}
	half := total / 2
	tol := total * balanceTol / 2

	// Initial assignment: zig-zag over a spatially sorted order so the
	// starting cut is locality-aware, then balance by area.
	order := append([]*netlist.Instance(nil), movable...)
	// By centre — not a total order (cells of a pseudo placement can share
	// one), and the zig-zag below assigns dies in this order. Ties fall
	// where pdqsort leaves them, as they did under sort.Slice
	// (place.TestSortFuncKeepsSortSliceTies).
	slices.SortFunc(order, func(p, q *netlist.Instance) int {
		cp, cq := p.Center(), q.Center()
		if c := cmp.Compare(cp.X, cq.X); c != 0 {
			return c
		}
		return cmp.Compare(cp.Y, cq.Y)
	})
	var areaA float64 // logic die
	for _, c := range order {
		if areaA < half {
			c.Die = netlist.LogicDie
			areaA += c.Master.Area()
		} else {
			c.Die = netlist.MacroDie
		}
	}

	adj := d.NetsOfInstance()

	// dieOf resolves any pin's die (ports → logic die).
	dieOf := func(p netlist.PinRef) netlist.Die {
		if p.Port != nil {
			return netlist.LogicDie
		}
		return p.Inst.Die
	}
	// Gain of flipping c: nets where c is the sole pin on its side
	// become uncut (+1); nets currently uncut become cut (−1).
	gain := func(c *netlist.Instance) int {
		g := 0
		for _, id := range adj.Of(c.ID) {
			n := d.Nets[id]
			if n.Clock {
				continue
			}
			same, other := 0, 0
			for i, np := 0, n.NumPins(); i < np; i++ {
				p := n.PinAt(i)
				if p.Inst == c {
					continue
				}
				if dieOf(p) == c.Die {
					same++
				} else {
					other++
				}
			}
			if other == 0 && same > 0 {
				g-- // flipping cuts this net
			}
			if same == 0 && other > 0 {
				g++ // flipping uncuts it
			}
		}
		return g
	}

	res := &Result{}
	idx := make([]int, len(movable)) // the sweep order, refilled each pass
	for pass := 0; pass < maxPasses; pass++ {
		moved := 0
		// Random sweep order decorrelates passes.
		for i := range idx {
			idx[i] = i
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			c := movable[i]
			g := gain(c)
			if g <= 0 {
				continue
			}
			// Balance check.
			a := c.Master.Area()
			newAreaA := areaA
			if c.Die == netlist.LogicDie {
				newAreaA -= a
			} else {
				newAreaA += a
			}
			if newAreaA < half-tol || newAreaA > half+tol {
				continue
			}
			if c.Die == netlist.LogicDie {
				c.Die = netlist.MacroDie
			} else {
				c.Die = netlist.LogicDie
			}
			areaA = newAreaA
			moved++
		}
		res.Moves += moved
		if moved == 0 {
			break
		}
	}

	// Final accounting.
	for _, c := range movable {
		if c.Die == netlist.LogicDie {
			res.AreaLogic += c.Master.Area()
		} else {
			res.AreaMacro += c.Master.Area()
		}
	}
	res.CutNets = CountCutNets(d)
	return res, nil
}

// BinBalance enforces the published S2D/C2D tier-partitioning rule
// that cell area is balanced *per bin*, not just globally — both
// substrates are meant to be used everywhere. Cells flip dies in
// unbalanced bins. This locality is exactly what lands cells on the
// other die's macros when partial blockages were rasterized too
// coarsely (the paper's overlap mechanism).
//
// The cells are counting-sorted by bin into one array, each bin an
// exact-size window of it in StdCells order, so the allocations do not
// grow with the bin count.
func BinBalance(d *netlist.Design, die geom.Rect, binPitch float64) int {
	if binPitch <= 0 {
		binPitch = 40
	}
	g := geom.NewGrid(die, binPitch)
	cells := d.StdCells()
	binOf := make([]int32, len(cells))
	start := make([]int32, g.Bins()+1) // bin i's cells: byBin[start[i]:start[i+1]]
	type area struct{ a, b float64 }
	areas := make([]area, g.Bins())
	for k, c := range cells {
		i := g.Index(g.Locate(c.Center()))
		binOf[k] = int32(i)
		start[i+1]++
		if c.Die == netlist.LogicDie {
			areas[i].a += c.Master.Area()
		} else {
			areas[i].b += c.Master.Area()
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	byBin := make([]*netlist.Instance, len(cells))
	next := slices.Clone(start[:g.Bins()])
	for k, c := range cells {
		byBin[next[binOf[k]]] = c
		next[binOf[k]]++
	}
	flips := 0
	for i := range areas {
		bin := &areas[i]
		total := bin.a + bin.b
		if total == 0 {
			continue
		}
		// Flip smallest cells from the heavy side until within 30 %.
		// By area only; ties as in the initial assignment above.
		window := byBin[start[i]:start[i+1]]
		slices.SortFunc(window, func(p, q *netlist.Instance) int {
			return cmp.Compare(p.Master.Area(), q.Master.Area())
		})
		for _, c := range window {
			imbalance := bin.a - bin.b
			if imbalance < 0 {
				imbalance = -imbalance
			}
			if imbalance <= 0.3*total {
				break
			}
			area := c.Master.Area()
			if bin.a > bin.b && c.Die == netlist.LogicDie {
				c.Die = netlist.MacroDie
				bin.a -= area
				bin.b += area
				flips++
			} else if bin.b > bin.a && c.Die == netlist.MacroDie {
				c.Die = netlist.LogicDie
				bin.b -= area
				bin.a += area
				flips++
			}
		}
	}
	return flips
}

// CountCutNets counts nets spanning both dies (each needs at least one
// F2F bump).
func CountCutNets(d *netlist.Design) int {
	cut := 0
	for _, n := range d.Nets {
		if n.Clock {
			continue
		}
		sawLogic, sawMacro := false, false
		for i, np := 0, n.NumPins(); i < np; i++ {
			p := n.PinAt(i)
			die := netlist.LogicDie
			if p.Inst != nil {
				die = p.Inst.Die
			}
			if die == netlist.LogicDie {
				sawLogic = true
			} else {
				sawMacro = true
			}
		}
		if sawLogic && sawMacro {
			cut++
		}
	}
	return cut
}

// TierLegalization is LegalizeTiers' per-die displacement statistics:
// the overlap-fixing cost the paper describes.
type TierLegalization struct {
	MeanDisp  float64
	MaxDisp   float64
	Displaced int // cells moved more than one row height
	Spilled   int // cells that found no space and changed dies
}

// LegalizeTiers re-legalizes each die's cells against that die's real
// macro extents, the macro die first: cells that do not fit there spill
// to the logic die and legalize with everything else. rowHeight sizes
// the rows. Each die's pass runs under a phase span of sp
// ("legalize-macro-die", "legalize-logic-die"); sp may be nil.
func LegalizeTiers(d *netlist.Design, die geom.Rect, rowHeight float64, sp *obs.Span) (*TierLegalization, error) {
	all := d.StdCells()
	macros := d.Macros()
	// before holds every standard cell's start by instance ID: the macro
	// die's pass moves only the cells it places, and a cell that spills
	// keeps its location, so the logic die's pass starts from it too.
	before := make([]geom.Point, len(d.Instances))
	for _, c := range all {
		before[c.ID] = c.Loc
	}
	out := &TierLegalization{}
	var sum float64
	var n int
	account := func(cells []*netlist.Instance) {
		for _, c := range cells {
			disp := before[c.ID].Manhattan(c.Loc)
			sum += disp
			n++
			if disp > out.MaxDisp {
				out.MaxDisp = disp
			}
			if disp > rowHeight {
				out.Displaced++
			}
		}
	}
	// tier collects the die's cells into cells, in StdCells order, and
	// returns its floorplan: the real macros of that die are hard
	// blockages now.
	cells := make([]*netlist.Instance, 0, len(all))
	tier := func(t netlist.Die) *floorplan.Floorplan {
		cells = cells[:0]
		for _, c := range all {
			if c.Die == t {
				cells = append(cells, c)
			}
		}
		fp := &floorplan.Floorplan{Die: die, PlaceBlk: make([]floorplan.Blockage, 0, len(macros))}
		for _, m := range macros {
			if m.Die == t {
				fp.PlaceBlk = append(fp.PlaceBlk, floorplan.Blockage{Rect: m.Bounds(), Fraction: 1})
			}
		}
		return fp
	}

	psp := sp.Child("legalize-macro-die")
	fp := tier(netlist.MacroDie)
	var failed []*netlist.Instance
	if len(cells) > 0 {
		var err error
		if _, _, failed, err = place.LegalizeBestEffort(cells, fp, rowHeight); err != nil {
			psp.End()
			return nil, fmt.Errorf("partition: macro tier legalization: %w", err)
		}
		for _, f := range failed {
			f.Die = netlist.LogicDie
		}
		account(slices.DeleteFunc(cells, func(c *netlist.Instance) bool { return c.Die != netlist.MacroDie }))
		out.Spilled = len(failed)
	}
	psp.End()

	psp = sp.Child("legalize-logic-die")
	defer psp.End()
	fp = tier(netlist.LogicDie)
	// Every spilled cell changed dies above, so the rescan must have
	// picked it up — a miss would leave it unlegalized on top of a
	// macro, the exact overlap this pass exists to fix.
	for _, s := range failed {
		if s.Die != netlist.LogicDie {
			return nil, fmt.Errorf("partition: spilled cell %s missed the logic-die legalization pass", s.Name)
		}
	}
	if len(cells) > 0 {
		_, _, failed, err := place.LegalizeBestEffort(cells, fp, rowHeight)
		if err != nil {
			return nil, fmt.Errorf("partition: logic tier legalization: %w", err)
		}
		if len(failed) > 0 {
			return nil, fmt.Errorf("partition: %d cells fit neither die", len(failed))
		}
		account(cells)
	}
	if n > 0 {
		out.MeanDisp = sum / float64(n)
	}
	return out, nil
}
