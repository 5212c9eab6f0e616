package flows

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/lefdef"
	"macro3d/internal/piton"
	"macro3d/internal/sta"
	"macro3d/internal/stash"
	"macro3d/internal/tech"
)

// Hardening flow kinds accepted by Harden.
const (
	HardenMacro3D = "macro3d" // sub-block signed off with the paper's 3D flow
	Harden2D      = "2d"      // sub-block signed off with the 2D baseline
)

// HardenResult is the outcome of hardening a sub-block: the abstract
// master ready for re-instantiation, plus the sub-block's full
// implementation when it was actually run (nil on a warm cache hit —
// the whole point of the cache is not having it).
type HardenResult struct {
	// Abstract is the hardened macro: boundary pins with entry caps
	// and timing arcs, per-layer routing obstructions, and the
	// AbstractInfo provenance record. Local frame origin (0,0).
	Abstract *cell.Cell

	// Tile is a fresh (un-implemented) handle of the hardened
	// benchmark, carrying the netlist-level facts composition needs:
	// port directions, abutment groups, half-cycle flags, clock port.
	// Its library is its own (ownLibrary): composition registers the
	// abstract in it.
	Tile *piton.Tile

	// PPA and State hold the sub-block signoff when the flow ran;
	// both are nil when the abstract came out of the cache.
	PPA   *PPA
	State *State

	// Trace is the hardening run's stage trace, a warm one's included.
	Trace *RunReport

	CacheHit bool
	Elapsed  time.Duration
}

// Harden runs a sub-block flow to signoff and condenses the result
// into an abstract master (LEF-style boundary view: pins, per-layer
// obstructions, boundary timing model) that a parent flow instantiates
// as an opaque macro. The run is the flow's own stage list with every
// stage after generate inside one "harden" checkpoint region, which
// ends in the condense stage: with cfg.Cache set, a repeated harden of a
// configuration restores the abstract and runs generate alone (the
// tile is needed either way). Concurrent cold runs each harden; the
// store keeps one copy of what they put.
func Harden(cfg Config, flow string) (*HardenResult, error) {
	return HardenCtx(context.Background(), cfg, flow)
}

// HardenCtx is Harden with run cancellation.
func HardenCtx(ctx context.Context, cfg Config, flow string) (*HardenResult, error) {
	if flow == "" {
		flow = HardenMacro3D
	}
	i := slices.IndexFunc(flowTable, func(e flowRow) bool { return e.key == flow })
	if i < 0 || flow != HardenMacro3D && flow != Harden2D {
		return nil, fmt.Errorf("harden: unknown flow %q (want %q or %q)", flow, HardenMacro3D, Harden2D)
	}
	start := time.Now()
	f, list := flowTable[i].start(ctx, cfg)
	var abs *cell.Cell
	condense := do(StageCondense, func() (err error) {
		abs, err = buildAbstract(f.st, f.ppa, f.t)
		return err
	})
	harden := region(func() checkpoint {
		return checkpoint{
			name:     "harden",
			material: hardenMaterial(f.cfg, f.t),
			save:     func(e *stash.Enc) error { return WriteAbstractLEF(e, abs) },
			load:     func(d *stash.Dec) (err error) { abs, err = readAbstractLEF(d.Rest()); return err },
		}
	}, append(list[1:], condense)...)
	if err := f.exec([]stage{list[0], harden}); err != nil { // list[0] is generate
		return nil, err
	}
	f.finish()
	hr := &HardenResult{Abstract: abs, Tile: ownLibrary(f.st.Tile), Trace: f.trace, Elapsed: time.Since(start)}
	if f.ppa == nil { // the region was restored, not run
		hr.CacheHit = true
	} else {
		hr.PPA, hr.State = f.ppa, f.st
	}
	return hr, nil
}

// hardenMaterial is what the abstract depends on beyond the root: the
// optimization target and the 3D stack, then the payload's format. The
// payload is the abstract's LEF; an entry written as the binary record
// that came before it must miss, not fail to decode.
func hardenMaterial(cfg Config, t *tech.Tech) []byte {
	m := stash.NewEnc()
	m.F64(cfg.TargetPeriod)
	m.Blob(stackMaterial(cfg, t))
	m.Str("abstract LEF")
	return m.Bytes()
}

// ownLibrary gives a hardened tile a library of its own, for
// piton.ComposeAbstract to register the abstract in: a run's library is
// the one its tile template shares with every other copy (newTile).
func ownLibrary(t *piton.Tile) *piton.Tile {
	t.Design.Lib = t.Design.Lib.Clone()
	return t
}

// buildAbstract condenses a signed-off implementation into its
// abstract master. The local frame is the die translated to origin
// (0,0); pins keep the signoff port locations so abutment composition
// reproduces the §V-1 alignment invariant exactly.
func buildAbstract(st *State, ppa *PPA, t *tech.Tech) (*cell.Cell, error) {
	d := st.Design
	tile := st.Tile
	origin := st.Die.LL()
	slow := t.CornerScaleFor(tech.CornerSlow)

	arcs, err := sta.BoundaryArcs(d, st.ExSlow, sta.Options{Corner: slow, Clock: st.Tree})
	if err != nil {
		return nil, fmt.Errorf("boundary arcs: %w", err)
	}

	// Entry cap of an input pin is everything the parent drives
	// through it: the port's internal net, wire plus sink pins, at
	// the signoff extraction.
	inNet := map[int]int{}  // port ID → net ID driven by the port
	outNet := map[int]int{} // port ID → net ID sunk by the port
	for _, n := range d.Nets {
		if n.Clock {
			continue
		}
		if n.Driver.IsPort() {
			inNet[n.Driver.Port.ID] = n.ID
		}
		for _, s := range n.Sinks {
			if s.IsPort() {
				outNet[s.Port.ID] = n.ID
			}
		}
	}

	abs := &cell.Cell{
		Name:   d.Name + "_abs",
		Kind:   cell.KindMacro,
		Width:  st.Die.W(),
		Height: st.Die.H(),
		// The block's standing power; its dynamic energy lives in
		// AbstractInfo and is accounted per cycle by the parent flow.
		Leakage: ppa.LeakageUW * 1000, // µW → nW
		Abstract: &cell.AbstractInfo{
			SourceFlow:       ppa.Flow,
			SourceConfig:     ppa.Config,
			MinPeriodPs:      ppa.MinPeriodPs,
			EnergyPerCycleFJ: ppa.EmeanFJ,
			LeakageUW:        ppa.LeakageUW,
			F2FBumps:         ppa.F2FBumps,
		},
	}

	clkCap := clockEntryCap(d.Lib)
	for _, p := range d.Ports {
		pin := cell.Pin{
			Name:   p.Name,
			Dir:    p.Dir,
			Offset: p.Loc.Sub(origin),
			Layer:  p.Layer,
			Clock:  p.Name == tile.ClockPort,
		}
		arc := arcs[p.Name]
		switch {
		case pin.Clock:
			pin.Cap = clkCap
		case p.Dir == cell.DirIn:
			if id, ok := inNet[p.ID]; ok && st.ExSlow.Nets[id] != nil {
				pin.Cap = st.ExSlow.Nets[id].CTotal()
			}
			pin.Setup = arc.SetupPs
		default:
			pin.ClkQ = arc.ClkQPs
			if id, ok := outNet[p.ID]; ok {
				n := d.Nets[id]
				if !n.Driver.IsPort() {
					if r := n.Driver.Inst.Master.DriveRes; r > abs.DriveRes {
						abs.DriveRes = r
					}
				}
			}
		}
		abs.Pins = append(abs.Pins, pin)
	}
	abs.IndexPins()
	if abs.ClockPin() == nil {
		return nil, fmt.Errorf("abstract %s has no clock pin", abs.Name)
	}

	// Per-layer obstructions: every gcell the implementation actually
	// uses (or fully blocks), per layer — including the _MD macro-die
	// layers of a Macro-3D-hardened block — so the parent router sees
	// exactly the residual capacity over the instance.
	for _, b := range st.DB.UsedObstructions() {
		abs.Obstructions = append(abs.Obstructions, cell.Obstruction{
			Layer: b.Layer,
			Rect:  b.Rect.Translate(geom.Point{}.Sub(origin)),
		})
	}
	return abs, nil
}

// clockEntryCap is the load a parent clock tree sees at the abstract's
// clock pin: the input of the hardened block's root clock buffer (the
// biggest buffer in its library; the internal tree behind it is
// already folded into the boundary arcs via the mean-latency
// reference).
func clockEntryCap(lib *cell.Library) float64 {
	best := 2.0
	drive := -1
	for _, c := range lib.Cells() {
		if c.Kind != cell.KindBuf || c.Drive <= drive {
			continue
		}
		for i := range c.Pins {
			if c.Pins[i].Dir == cell.DirIn {
				best, drive = c.Pins[i].Cap, c.Drive
				break
			}
		}
	}
	return best
}

// WriteAbstractLEF writes a hardened abstract as a single-macro library
// LEF: the file `macro3d harden -o` exports, and the harden region's
// payload.
func WriteAbstractLEF(w io.Writer, abs *cell.Cell) error {
	lib := cell.NewLibrary(abs.Name + "_lib")
	lib.Add(abs)
	return lefdef.WriteLEF(w, nil, lib)
}

// readAbstractLEF reads a harden region's payload back: one BLOCK macro
// carrying its abstract record, and nothing else.
func readAbstractLEF(b []byte) (*cell.Cell, error) {
	lef, err := lefdef.ParseLEF(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("harden: %w", err)
	}
	cells := lef.Lib.Cells()
	if lef.Beol != nil || len(cells) != 1 || cells[0].Kind != cell.KindMacro || cells[0].Abstract == nil {
		return nil, fmt.Errorf("harden: snapshot is not one hardened BLOCK macro")
	}
	c := cells[0]
	if c.Name == "" || c.Width <= 0 || c.Height <= 0 || len(c.Pins) == 0 {
		return nil, fmt.Errorf("harden: snapshot decodes to degenerate abstract")
	}
	c.IndexPins()
	return c, nil
}
