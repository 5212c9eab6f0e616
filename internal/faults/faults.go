// Package faults is the fault-injection harness for the hardened flow
// engine: a catalogue of physical-design corruptions that can be
// injected into a running flow through Config.AfterStage, between two
// named stages. Each class either must be flagged by the independent
// sign-off verifier or must fail an earlier stage with a typed
// *flows.StageError — the harness test asserts that no corruption
// slips through silently and that no corruption escapes as an
// uncontained panic.
package faults

import (
	"errors"
	"math"
	"os"
	"path/filepath"

	"macro3d/internal/ddb"
	"macro3d/internal/flows"
	"macro3d/internal/geom"
	"macro3d/internal/obs"
	"macro3d/internal/route"
	"macro3d/internal/tech"
)

// edit begins a transaction on the run's design database. A flow whose
// sign-off budget is frozen opens none — it only analyses — so edit
// opens one over the signed-off state.
func edit(st *flows.State) *ddb.Txn {
	if st.DDB == nil {
		st.DDB = ddb.New(st.Design, st.DB, st.Routes, st.ExSlow, st.ExSlow.Corner)
	}
	return st.DDB.Begin()
}

// TagInjected records the injection of a fault class into a running
// flow in the observability event stream, so a fault-matrix run with
// -events produces an auditable JSONL trail of what was corrupted
// where. Nil-safe on the recorder.
func TagInjected(rec *obs.Recorder, flow, class, stage string) {
	rec.Emit("fault_injected",
		obs.KV("flow", flow), obs.KV("class", class), obs.KV("stage", stage))
}

// TagCaught records which mechanism caught an injected fault
// (typically CaughtBy of the flow's error), completing the trail a
// TagInjected event opened.
func TagCaught(rec *obs.Recorder, flow, class, caughtBy string) {
	rec.Emit("fault_caught",
		obs.KV("flow", flow), obs.KV("class", class), obs.KV("caught_by", caughtBy))
}

// CaughtBy names the mechanism that caught an injected fault, derived
// from the error the corrupted flow returned: the failing stage of a
// typed *flows.StageError (the verify stage reporting as "verify"),
// or "uncaught" when the flow completed despite the corruption.
func CaughtBy(err error) string {
	if err == nil {
		return "uncaught"
	}
	var se *flows.StageError
	if errors.As(err, &se) {
		return se.Stage
	}
	return "untyped-error"
}

// Post-extraction corruptions (everything injected at StagePower) flow
// through the design database's change journal — the same ddb.Txn path
// the optimizer uses — so the harness also exercises the journal's
// unchecked mutation surface. The nan-parasitics class fires at
// StageRoute, before the database exists, and stays a direct mutation;
// so do route-through-obstruction and wire-past-capacity, as the journal
// has no edit that adds a segment to a route.

// Class is one injectable corruption.
type Class struct {
	// Name identifies the corruption in reports and test output.
	Name string

	// Stage names the flow stage after which Inject fires (matched
	// against the AfterStage hook's stage argument). All classes use
	// stages every flow executes exactly once in its real (non-pseudo)
	// phase, so one injection corrupts each flow variant identically.
	Stage string

	// Kind is the verify violation kind the corruption surfaces as
	// when it survives to the verify stage. Empty when the fault is
	// expected to fail an earlier stage (NaN parasitics are caught by
	// the extraction finiteness guard, never reaching verify).
	Kind string

	// Inject corrupts the flow state in place. It reports false when
	// the state lacks the prerequisites (e.g. fewer than two same-die
	// standard cells), which the harness treats as a setup error.
	Inject func(st *flows.State) bool
}

// Classes returns the corruption catalogue. Each call builds fresh
// closures, so catalogues are safe to use concurrently across tests.
func Classes() []Class {
	return []Class{
		{
			// Two placed same-die standard cells forced onto the same
			// location — an illegal placement the legalizer would never
			// produce.
			Name:  "overlapping-instances",
			Stage: flows.StagePower,
			Kind:  "overlap",
			Inject: func(st *flows.State) bool {
				var first *struct {
					loc geom.Point
					die int
				}
				for _, c := range st.Design.StdCells() {
					if !c.Placed {
						continue
					}
					if first == nil {
						first = &struct {
							loc geom.Point
							die int
						}{c.Loc, int(c.Die)}
						continue
					}
					if int(c.Die) == first.die {
						txn := edit(st)
						txn.SetLoc(c, first.loc)
						txn.Commit()
						return true
					}
				}
				return false
			},
		},
		{
			// A routed signal net loses its route entirely — the
			// connectivity check must report it open.
			Name:  "dangling-net",
			Stage: flows.StagePower,
			Kind:  "open-net",
			Inject: func(st *flows.State) bool {
				for _, n := range st.Design.Nets {
					if n.Clock || len(n.Sinks) == 0 {
						continue
					}
					if n.ID < len(st.Routes.Routes) && st.Routes.Routes[n.ID] != nil {
						txn := edit(st)
						txn.DropRoute(n)
						txn.Commit()
						return true
					}
				}
				return false
			},
		},
		{
			// A macro master degenerates to a zero-area footprint (the
			// kind of damage a broken LEF round-trip produces).
			Name:  "zero-area-macro",
			Stage: flows.StagePower,
			Kind:  "zero-area",
			Inject: func(st *flows.State) bool {
				ms := st.Design.Macros()
				if len(ms) == 0 {
					return false
				}
				degenerate := *ms[0].Master // private copy; the master is shared
				degenerate.Width, degenerate.Height = 0, 0
				txn := edit(st)
				err := txn.SetMaster(ms[0], &degenerate)
				txn.Commit()
				return err == nil
			},
		},
		{
			// A routed signal net gains a via whose lower landing lies in
			// a gcell-layer a macro obstruction fills whole, away from
			// its pins: a wire into an SRAM, which the obstruction check
			// must report.
			Name:  "route-through-obstruction",
			Stage: flows.StagePower,
			Kind:  "obstruction",
			Inject: func(st *flows.State) bool {
				if st.DB == nil || st.FP == nil {
					return false
				}
				g := st.DB.Grid
				for _, rb := range st.FP.RouteBlk {
					l := st.DB.LayerIndex(rb.Layer)
					ix, iy := g.Locate(rb.Rect.Center())
					if l < 0 || l+1 >= st.DB.Beol.NumLayers() || !rb.Rect.ContainsRect(g.BinRect(ix, iy)) {
						continue
					}
					at := route.At(ix, iy, l)
				nets:
					for _, r := range st.Routes.Routes {
						if r == nil || len(r.Segments) == 0 {
							continue
						}
						for _, p := range r.PinNode {
							if p.X == at.X && p.Y == at.Y {
								continue nets
							}
						}
						r.Segments = append(r.Segments, route.Seg{A: at, B: route.At(ix, iy, l+1)})
						return true
					}
				}
				return false
			},
		},
		{
			// The first gcell-layer a routed wire crosses takes one
			// wire past its track capacity — filled to capacity with
			// copies of a one-gcell wire first, if it has room — which
			// the result's overflow does not report: congestion the
			// capacity check's recount must find.
			Name:  "wire-past-capacity",
			Stage: flows.StagePower,
			Kind:  "capacity",
			Inject: func(st *flows.State) bool {
				if st.DB == nil {
					return false
				}
				for _, r := range st.Routes.Routes {
					if r == nil {
						continue
					}
					for _, s := range r.Segments {
						if s.IsVia() {
							continue
						}
						c, used := st.DB.Tracks(s.A)
						if c == 0 {
							continue
						}
						for range c - used + 1 {
							r.Segments = append(r.Segments, route.Seg{A: s.A, B: s.A})
						}
						return true
					}
				}
				return false
			},
		},
		{
			// A tile port slides a nanometre along its edge, off the
			// coordinate of the port it faces on the adjacent tile: the
			// tiles no longer abut (§V-1), which the port-alignment
			// check must report.
			Name:  "misaligned-port",
			Stage: flows.StagePower,
			Kind:  "port-align",
			Inject: func(st *flows.State) bool {
				if st.Tile == nil {
					return false
				}
				first := ""
				for name := range st.Tile.Partners() {
					if first == "" || name < first {
						first = name
					}
				}
				p := st.Design.Port(first)
				if p == nil {
					return false
				}
				if p.Loc.Y == st.Die.Ly || p.Loc.Y == st.Die.Uy {
					p.Loc.X += 1e-3
				} else {
					p.Loc.Y += 1e-3
				}
				return true
			},
		},
		{
			// The routing stack's layer tables turn NaN after routing,
			// so the sign-off extraction computes NaN parasitics. The
			// extraction finiteness guard must fail the extract stage;
			// the NaNs must never reach the PPA tables.
			Name:  "nan-parasitics",
			Stage: flows.StageRoute,
			Kind:  "", // caught before verify, at the extract stage
			Inject: func(st *flows.State) bool {
				if st.DB == nil || st.DB.Beol == nil {
					return false
				}
				for i := range st.DB.Beol.Layers {
					st.DB.Beol.Layers[i].CPerUm = math.NaN()
					st.DB.Beol.Layers[i].RPerUm = math.NaN()
				}
				return true
			},
		},
	}
}

// CorruptSnapshots bit-flips the final byte of every stage-cache
// snapshot under dir — a shared artifact store returning corrupt
// frames. Every corrupted entry must read back as a miss (checksum
// mismatch), be evicted, and cost only a recompute. Returns how many
// snapshots were corrupted.
func CorruptSnapshots(dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil || len(b) == 0 {
			continue
		}
		b[len(b)-1] ^= 0x55
		if err := os.WriteFile(p, b, 0o644); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// OffGridBumps corrupts an F2F bump list by pushing the first bump
// off the bonding grid to half the minimum pitch from its neighbour —
// the geometry verify.BumpRules must reject. The input is not
// modified. Returns nil when fewer than two bumps exist.
func OffGridBumps(bumps []geom.Point, f2f tech.F2FSpec) []geom.Point {
	if len(bumps) < 2 {
		return nil
	}
	out := make([]geom.Point, len(bumps))
	copy(out, bumps)
	out[0] = geom.Pt(out[1].X+f2f.Pitch/2, out[1].Y)
	return out
}
