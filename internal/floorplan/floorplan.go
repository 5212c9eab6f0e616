// Package floorplan builds die outlines, places hard macros, assigns
// perimeter ports (with the inter-tile alignment the OpenPiton case
// study requires), and derives the placement/routing blockages that
// the placer and router honour.
//
// Three macro-placement styles are provided, matching the paper's
// experiments: the 2D style (macros ringing the periphery, logic in
// the centre — Fig. 4 left), the macro-on-logic style (all memories
// packed on the macro die — Fig. 4 right), and the balanced style used
// for the best-case S2D comparison (macros overlapping in z so partial
// blockages become full ones).
package floorplan

import (
	"fmt"
	"math"
	"sort"

	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
)

// Style selects the macro floorplanning strategy.
type Style uint8

// Floorplan styles.
const (
	// Style2D places every macro on the single logic die, ringing the
	// periphery so the centre stays free for standard cells.
	Style2D Style = iota
	// StyleMoL moves every memory macro to the macro die, shelf-packed
	// across its full area; the logic die keeps only standard cells.
	StyleMoL
	// StyleBalanced distributes macros across both dies so that macro
	// extents overlap in z as much as possible (the paper's "balanced
	// floorplan" giving S2D its best case, at the cost of losing MoL's
	// manufacturing advantages).
	StyleBalanced
)

func (s Style) String() string {
	switch s {
	case Style2D:
		return "2D"
	case StyleMoL:
		return "MoL"
	case StyleBalanced:
		return "balanced"
	}
	return fmt.Sprintf("Style(%d)", uint8(s))
}

// Blockage is a partial or full placement blockage: Fraction of the
// area under Rect is unusable for standard cells (1.0 = hard block).
type Blockage struct {
	Rect     geom.Rect
	Fraction float64
}

// RouteBlockage removes routing capacity on one layer under Rect.
type RouteBlockage struct {
	Layer string
	Rect  geom.Rect
}

// Floorplan is the physical canvas handed to placement and routing.
type Floorplan struct {
	Die geom.Rect

	// Place blockages seen by the standard-cell placer.
	PlaceBlk []Blockage
	// Routing blockages from macro internals.
	RouteBlk []RouteBlockage
}

// DieForArea returns a die rectangle of the given area (µm²) and
// aspect ratio (width/height), origin at (0,0), snapped to whole rows.
func DieForArea(area, aspect, rowHeight float64) (geom.Rect, error) {
	if area <= 0 || aspect <= 0 || math.IsNaN(area) || math.IsNaN(aspect) {
		return geom.Rect{}, fmt.Errorf("floorplan: die area %g µm² and aspect %g must be positive", area, aspect)
	}
	if rowHeight <= 0 || math.IsNaN(rowHeight) {
		return geom.Rect{}, fmt.Errorf("floorplan: row height %g µm must be positive", rowHeight)
	}
	w := math.Sqrt(area * aspect)
	h := area / w
	h = geom.SnapUp(h, rowHeight)
	return geom.R(0, 0, w, h), nil
}

// Sizing computes the 2D and 3D die outlines for a design following
// the paper's fairness rule: the 2D footprint is exactly 2× the 3D
// footprint, so both use the same silicon area.
type Sizing struct {
	Die2D geom.Rect
	Die3D geom.Rect
}

// SizeDesign determines the die outlines by trial packing: the 3D die
// is grown from the analytic lower bound until shelf packing fits all
// macros (the macro die is the binding constraint of MoL stacking),
// then the 2D die is grown from 2× that area until the periphery ring
// fits, and the 3D die is finally set to exactly half the 2D area —
// the paper's fairness rule. Only macro locations are touched
// (scratch placements); callers re-place macros per flow.
func SizeDesign(d *netlist.Design, util, aspect, rowHeight float64) (Sizing, error) {
	if util <= 0 || util > 1 || math.IsNaN(util) {
		return Sizing{}, fmt.Errorf("floorplan: utilization %g must be in (0,1]", util)
	}
	st := d.ComputeStats()
	macros := d.Macros()

	// 3D die: grow until the macro die holds all macros.
	area3D := math.Max(st.StdCellArea/util, st.MacroArea/0.90)
	var die3D geom.Rect
	fit := false
	for i := 0; i < 60; i++ {
		var err error
		if die3D, err = DieForArea(area3D, aspect, rowHeight); err != nil {
			return Sizing{}, err
		}
		if placeShelves(macros, die3D) == nil {
			fit = true
			break
		}
		area3D *= 1.03
	}
	if !fit {
		return Sizing{}, fmt.Errorf("floorplan: macros never fit a macro die (%.2f mm²)", area3D/1e6)
	}

	// 2D die: grow from the fairness bound until the ring fits with
	// enough centre area for the logic.
	area2D := 2 * die3D.Area()
	var die2D geom.Rect
	fit = false
	for i := 0; i < 60; i++ {
		var err error
		if die2D, err = DieForArea(area2D, aspect, rowHeight); err != nil {
			return Sizing{}, err
		}
		if placeRing(macros, die2D) == nil && centreHoldsLogic(macros, die2D, st.StdCellArea, util) {
			fit = true
			break
		}
		area2D *= 1.03
	}
	if !fit {
		return Sizing{}, fmt.Errorf("floorplan: macros never fit a 2D ring (%.2f mm²)", area2D/1e6)
	}
	// Final fairness: 3D footprint is exactly half the 2D footprint.
	var err error
	if die3D, err = DieForArea(die2D.Area()/2, aspect, rowHeight); err != nil {
		return Sizing{}, err
	}
	return Sizing{Die2D: die2D, Die3D: die3D}, nil
}

// centreHoldsLogic checks that the area left after ring placement can
// hold the standard cells at the target utilization.
func centreHoldsLogic(macros []*netlist.Instance, die geom.Rect, stdArea, util float64) bool {
	free := die.Area()
	for _, m := range macros {
		free -= m.Bounds().Area()
	}
	return free*util >= stdArea
}

// PlaceMacros assigns locations and dies to every macro instance of
// the design according to the style, and returns the floorplan of the
// die. Macros are marked Fixed and Placed.
func PlaceMacros(d *netlist.Design, die geom.Rect, style Style) (*Floorplan, error) {
	macros := d.Macros()
	switch style {
	case Style2D:
		if err := placeRing(macros, die); err != nil {
			return nil, err
		}
		for _, m := range macros {
			m.Die = netlist.LogicDie
			m.Fixed, m.Placed = true, true
		}
	case StyleMoL:
		if err := placeShelves(macros, die); err != nil {
			return nil, err
		}
		for _, m := range macros {
			m.Die = netlist.MacroDie
			m.Fixed, m.Placed = true, true
		}
	case StyleBalanced:
		// Alternate macros between dies after sorting by size so the
		// two dies carry similar macro area, then stack each pair at
		// the same (x, y) to maximize z-overlap (full blockages).
		sorted := append([]*netlist.Instance(nil), macros...)
		sort.Slice(sorted, func(i, j int) bool {
			return sorted[i].Master.Area() > sorted[j].Master.Area()
		})
		var a, b []*netlist.Instance
		for i, m := range sorted {
			if i%2 == 0 {
				a = append(a, m)
			} else {
				b = append(b, m)
			}
		}
		if err := placeShelves(a, die); err != nil {
			return nil, err
		}
		// Stack die-B macros congruent with die-A partners where they
		// fit; overflow goes through shelf packing over the remainder.
		for i, m := range b {
			if i < len(a) {
				m.Loc = a[i].Loc
			}
		}
		var spill []*netlist.Instance
		for i, m := range b {
			if i >= len(a) || !die.ContainsRect(m.Bounds()) {
				spill = append(spill, m)
			}
		}
		if len(spill) > 0 {
			if err := placeShelves(spill, die); err != nil {
				return nil, err
			}
		}
		for _, m := range a {
			m.Die = netlist.LogicDie
			m.Fixed, m.Placed = true, true
		}
		for _, m := range b {
			m.Die = netlist.MacroDie
			m.Fixed, m.Placed = true, true
		}
	default:
		return nil, fmt.Errorf("floorplan: unknown style %v", style)
	}
	return &Floorplan{Die: die}, nil
}

// macroMargin keeps macros off the die edge so perimeter ports stay
// reachable.
const macroMargin = 5.0

// placeRing packs macros around the die periphery, largest first,
// walking the four edges. It fails when the ring cannot hold them.
func placeRing(macros []*netlist.Instance, die geom.Rect) error {
	sorted := append([]*netlist.Instance(nil), macros...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Master.Area() != sorted[j].Master.Area() {
			return sorted[i].Master.Area() > sorted[j].Master.Area()
		}
		return sorted[i].Name < sorted[j].Name
	})
	inner := die.Expand(-macroMargin)
	var placed []geom.Rect
	// blockedUntil returns the far coordinate of any placed rect
	// overlapping r, so cursors can slide past obstructions.
	tryPlace := func(r geom.Rect) (geom.Rect, bool) {
		if !die.ContainsRect(r) {
			return geom.Rect{}, false
		}
		for _, p := range placed {
			if p.Intersects(r) {
				return p, false
			}
		}
		return r, true
	}
	// Cursors along the four edges.
	bottomX, topX := inner.Lx, inner.Lx
	leftY, rightY := inner.Ly, inner.Ly
	for _, m := range sorted {
		w, h := m.Master.Width, m.Master.Height
		var r geom.Rect
		ok := false
		// Bottom band, sliding right past obstructions.
		for x := bottomX; x+w <= inner.Ux && !ok; {
			cand := geom.RectWH(geom.Pt(x, inner.Ly), w, h)
			if hit, good := tryPlace(cand); good {
				r, ok = cand, true
				bottomX = x + w + macroMargin
			} else if !hit.Empty() {
				x = hit.Ux + macroMargin
			} else {
				break
			}
		}
		// Top band.
		for x := topX; x+w <= inner.Ux && !ok; {
			cand := geom.RectWH(geom.Pt(x, inner.Uy-h), w, h)
			if hit, good := tryPlace(cand); good {
				r, ok = cand, true
				topX = x + w + macroMargin
			} else if !hit.Empty() {
				x = hit.Ux + macroMargin
			} else {
				break
			}
		}
		// Left column, sliding up.
		for y := leftY; y+h <= inner.Uy && !ok; {
			cand := geom.RectWH(geom.Pt(inner.Lx, y), w, h)
			if hit, good := tryPlace(cand); good {
				r, ok = cand, true
				leftY = y + h + macroMargin
			} else if !hit.Empty() {
				y = hit.Uy + macroMargin
			} else {
				break
			}
		}
		// Right column.
		for y := rightY; y+h <= inner.Uy && !ok; {
			cand := geom.RectWH(geom.Pt(inner.Ux-w, y), w, h)
			if hit, good := tryPlace(cand); good {
				r, ok = cand, true
				rightY = y + h + macroMargin
			} else if !hit.Empty() {
				y = hit.Uy + macroMargin
			} else {
				break
			}
		}
		if !ok {
			return fmt.Errorf("floorplan: periphery ring cannot hold macro %s (%.0f×%.0f µm) on die %v",
				m.Name, w, h, die)
		}
		m.Loc = r.LL()
		placed = append(placed, r)
	}
	return nil
}

// placeShelves packs macros into shelves (rows of decreasing height),
// the classic strip-packing heuristic. Used for the macro die, where
// the whole area is available.
func placeShelves(macros []*netlist.Instance, die geom.Rect) error {
	sorted := append([]*netlist.Instance(nil), macros...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Master.Height != sorted[j].Master.Height {
			return sorted[i].Master.Height > sorted[j].Master.Height
		}
		return sorted[i].Name < sorted[j].Name
	})
	inner := die.Expand(-macroMargin)
	x, y := inner.Lx, inner.Ly
	shelfH := 0.0
	for _, m := range sorted {
		w, h := m.Master.Width, m.Master.Height
		if x+w > inner.Ux { // next shelf
			x = inner.Lx
			y += shelfH + macroMargin
			shelfH = 0
		}
		if y+h > inner.Uy || x+w > inner.Ux {
			return fmt.Errorf("floorplan: shelf packing overflows die for macro %s", m.Name)
		}
		m.Loc = geom.Pt(x, y)
		x += w + macroMargin
		if h > shelfH {
			shelfH = h
		}
	}
	return nil
}

// BuildBlockages fills a floorplan's placement and routing blockages
// from the design's placed macros. Macros on the logic die block
// placement fully; macro obstructions become routing blockages on
// their (possibly _MD-suffixed) layers. Pass the die the floorplan
// describes.
func BuildBlockages(fp *Floorplan, d *netlist.Design, die netlist.Die) {
	for _, m := range d.Macros() {
		if !m.Placed {
			continue
		}
		b := m.Bounds()
		if m.Die == die && die == netlist.LogicDie {
			fp.PlaceBlk = append(fp.PlaceBlk, Blockage{Rect: b, Fraction: 1})
		}
		if m.Die == die {
			for _, o := range m.Master.Obstructions {
				fp.RouteBlk = append(fp.RouteBlk, RouteBlockage{
					Layer: o.Layer,
					Rect:  o.Rect.Translate(m.Loc),
				})
			}
		}
	}
}

// AssignPorts places the tile's port groups on the die perimeter with
// the alignment guarantee of §V-1: pair i on an edge gets the same
// cross-coordinate span as pair i on the opposite edge, so abutted
// tile instances connect without additional routing. The clock port
// (and any other ungrouped port) goes to the west edge.
func AssignPorts(t *piton.Tile, die geom.Rect) {
	d := t.Design
	// Index groups by edge and pair.
	type key struct {
		e    piton.Edge
		pair int
	}
	groups := make(map[key]piton.PortGroup)
	pairsSeen := make(map[int]bool)
	var pairs []int
	for _, gr := range t.Groups {
		groups[key{gr.Edge, gr.Pair}] = gr
		if !pairsSeen[gr.Pair] {
			pairsSeen[gr.Pair] = true
			pairs = append(pairs, gr.Pair)
		}
	}
	sort.Ints(pairs)

	assigned := make(map[string]bool)
	nPairs := len(pairs)
	for pi, pair := range pairs {
		// Cross-coordinate span of this pair: an equal slice of the
		// edge, shared by both opposite edges.
		for _, e := range []piton.Edge{piton.North, piton.South, piton.East, piton.West} {
			gr, ok := groups[key{e, pair}]
			if !ok {
				continue
			}
			n := len(gr.Names)
			for i, name := range gr.Names {
				p := d.Port(name)
				// Position within the pair's slice.
				frac := (float64(pi) + (0.5+float64(i))/float64(n)) / float64(nPairs)
				switch e {
				case piton.North:
					p.Loc = geom.Pt(die.Lx+frac*die.W(), die.Uy)
				case piton.South:
					p.Loc = geom.Pt(die.Lx+frac*die.W(), die.Ly)
				case piton.East:
					p.Loc = geom.Pt(die.Ux, die.Ly+frac*die.H())
				case piton.West:
					p.Loc = geom.Pt(die.Lx, die.Ly+frac*die.H())
				}
				assigned[name] = true
			}
		}
	}
	// Remaining ports (clock, config) spread along the west edge inset
	// from the corners.
	var rest []*netlist.Port
	for _, p := range d.Ports {
		if !assigned[p.Name] {
			rest = append(rest, p)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Name < rest[j].Name })
	for i, p := range rest {
		fr := (0.5 + float64(i)) / float64(len(rest))
		p.Loc = geom.Pt(die.Lx, die.Ly+fr*die.H())
	}
}

// PartialBlockageMap discretizes macro coverage onto a grid of the
// given resolution, yielding the fraction of each bin blocked for
// placement. This is how S2D/C2D communicate macro area to the 2D
// engine; the paper observes that the coarse spatial resolution of
// partial blockages in commercial tools causes cell/macro overlaps
// after tier partitioning — so the resolution here is deliberately a
// parameter, and flows using it inherit that error mechanism.
type PartialBlockageMap struct {
	Grid     geom.Grid
	Fraction []float64 // per bin, 0..1 blocked
}

// NewPartialBlockageMap rasterizes per-die macro rectangles. A bin
// covered by macros in one die gets +0.5 per the S2D/C2D convention
// (half the stacked capacity is gone); covered in both dies → 1.0.
// Coverage within a bin is quantized to {0, 0.5, 1} exactly as the
// blockage insertion scripts of the reference flows do.
func NewPartialBlockageMap(die geom.Rect, resolution float64, logicDie, macroDie []geom.Rect) *PartialBlockageMap {
	g := geom.NewGrid(die, resolution)
	m := &PartialBlockageMap{Grid: g, Fraction: make([]float64, g.Bins())}
	cover := func(rects []geom.Rect) []bool {
		cov := make([]bool, g.Bins())
		for _, r := range rects {
			x0, y0, x1, y1, ok := g.CoverRange(r)
			if !ok {
				continue
			}
			for iy := y0; iy <= y1; iy++ {
				for ix := x0; ix <= x1; ix++ {
					// A bin counts as covered when the macro overlaps
					// the majority of it — the quantization step that
					// loses fine detail at coarse resolutions.
					bin := g.BinRect(ix, iy)
					if r.Intersect(bin).Area() >= 0.5*bin.Area() {
						cov[g.Index(ix, iy)] = true
					}
				}
			}
		}
		return cov
	}
	cl := cover(logicDie)
	cm := cover(macroDie)
	for i := range m.Fraction {
		switch {
		case cl[i] && cm[i]:
			m.Fraction[i] = 1.0
		case cl[i] || cm[i]:
			m.Fraction[i] = 0.5
		}
	}
	return m
}

// FractionAt returns the blocked fraction of the bin containing p.
func (m *PartialBlockageMap) FractionAt(p geom.Point) float64 {
	ix, iy := m.Grid.Locate(p)
	return m.Fraction[m.Grid.Index(ix, iy)]
}

// Blockages converts the map to placer blockages (one per non-free
// bin).
func (m *PartialBlockageMap) Blockages() []Blockage {
	var out []Blockage
	for i, f := range m.Fraction {
		if f > 0 {
			ix, iy := m.Grid.Coords(i)
			out = append(out, Blockage{Rect: m.Grid.BinRect(ix, iy), Fraction: f})
		}
	}
	return out
}
