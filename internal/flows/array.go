package flows

import (
	"context"
	"fmt"

	"macro3d/internal/extract"
	"macro3d/internal/floorplan"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/piton"
	"macro3d/internal/route"
	"macro3d/internal/sta"
	"macro3d/internal/tech"
)

// ArrayReport is the outcome of composing a signed-off tile into an
// nx×ny array and re-verifying it flat.
type ArrayReport struct {
	Nx, Ny        int
	Design        *netlist.Design
	Die           geom.Rect
	TilePeriod    float64 // ps, the single tile's sign-off period
	ArrayPeriod   float64 // ps, the flat array's minimum period
	ClosesAtTile  bool    // array period ≤ tile period (+2 % tolerance)
	F2FBumps      int
	StitchedNets  int // inter-tile abutment connections
	RouteOverflow int // gcell-layers over capacity: nx·ny × the tile's
	Critical      sta.Path
}

// VerifyTileArray executes the paper's §V-1 argument: a tile signed
// off with aligned, half-cycle-constrained inter-tile pins composes by
// abutment into arbitrary-size arrays that still meet the tile's
// frequency. Exactly as the paper argues, the tile layout — including
// its routing — replicates verbatim per copy ("tile instances can be
// connected without additional routing"); only the stitched abutment
// nets are new, and they are pin-to-pin touches at shared coordinates.
// The flat array then gets a fresh clock tree and full STA: the stage
// list compose → route → cts → extract → sta. As a copy's route is the
// tile's own record, so is its RC tree: extraction shares the tile's
// slow-corner records and extracts the stitched nets alone.
func VerifyTileArray(cfg Config, st *State, t *tech.Tech, nx, ny int) (*ArrayReport, error) {
	return verifyArray(cfg, st, t, func() (*piton.Array, error) { return piton.AbutArray(st.Tile, st.Die, nx, ny) })
}

// verifyArray re-verifies the array abut composes flat. It walks the
// array by its tables (piton.Array): no name of the array is formatted or
// looked up, so its by-name indexes are never built.
func verifyArray(cfg Config, tile *State, t *tech.Tech, abut func() (*piton.Array, error)) (*ArrayReport, error) {
	f := &flow{runner: newRunner(context.Background(), "array", cfg.withDefaults(), &State{Beol: tile.Beol}), t: t}
	var arr *piton.Array
	stitched := 0
	err := f.exec([]stage{
		do(StageCompose, func() (err error) {
			arr, err = abut()
			if err == nil {
				f.st.Design, f.st.Die = arr.Design, arr.Die
				f.lend = []extract.Source{{Ex: tile.ExSlow, Routes: tile.Routes, NetID: arr.NetID}}
			}
			return err
		}),
		do(StageRoute, func() (err error) {
			f.st.DB, f.st.Routes, stitched, err = routeArray(f.cfg.routeOptions(f.obs()), tile, arr)
			return err
		}),
		do(StageCTS, func() error { return f.clockTree(arr.Clock, arr.ClockPort.Loc) }),
		do(StageExtract, f.extract),
		do(StageSTA, func() (err error) {
			f.st.Report, err = f.sta(tile.Report.MinPeriod, false)
			return err
		}),
	})
	if err != nil {
		return nil, err
	}
	f.finish()
	st := f.st
	return &ArrayReport{
		Nx: arr.Nx, Ny: arr.Ny,
		Design:        st.Design,
		Die:           st.Die,
		TilePeriod:    tile.Report.MinPeriod,
		ArrayPeriod:   st.Report.MinPeriod,
		ClosesAtTile:  st.Report.MinPeriod <= tile.Report.MinPeriod*1.02,
		F2FBumps:      st.Routes.F2FBumps,
		StitchedNets:  stitched,
		RouteOverflow: st.Routes.Overflow,
		Critical:      st.Report.Critical,
	}, nil
}

// routeArray builds the array's routing database and result. A route is
// a shape: every copy's nets are placed on the tile's own records at the
// copy's offset (route.Result.Place), read-only, and their usage is
// committed there; only the stitched nets, which it counts, are routed.
func routeArray(ropt route.Options, st *State, arr *piton.Array) (*route.DB, *route.Result, int, error) {
	nx, ny, d := arr.Nx, arr.Ny, arr.Design

	// Array routing grid: an exact nx×ny tiling of the tile's grid so
	// tile routes place in whole gcells.
	tg := st.DB.Grid
	ag := geom.Grid{
		Region: arr.Die,
		NX:     tg.NX * nx, NY: tg.NY * ny,
		DX: tg.DX, DY: tg.DY,
	}

	ropt.Grid = &ag
	db := route.NewDB(arr.Die, st.Beol, routeBlockages(d.Macros()), ropt)
	if err := db.Err(); err != nil {
		return nil, nil, 0, fmt.Errorf("array %d×%d: %w", nx, ny, err)
	}

	res := &route.Result{
		Routes:     make([]*route.NetRoute, len(d.Nets)),
		WLPerLayer: make([]float64, st.Beol.NumLayers()),
	}
	var stitched []*netlist.Net
	for c := 0; c < nx*ny; c++ {
		for _, n := range st.Tile.Design.Nets {
			if n.Clock {
				continue
			}
			an := arr.Net(c, n)
			if an == nil {
				// Absorbed by the stitch — or lost by the composition, which
				// would drop the net's route without a trace.
				if !arr.Stitched(c, n) {
					return nil, nil, 0, fmt.Errorf("array %d×%d: copy %d of tile net %s has no array net and faces no neighbour", nx, ny, c, n.Name)
				}
				continue
			}
			if sameShape(n, an) && st.Routes.Routes[n.ID] != nil {
				res.Place(an.ID, st.Routes.Routes[n.ID], c%nx*tg.NX, c/nx*tg.NY)
				db.CommitRoute(res, an.ID)
			} else {
				stitched = append(stitched, an)
			}
		}
	}
	for _, n := range stitched {
		if _, err := db.RouteNet(res, n); err != nil {
			return nil, nil, 0, fmt.Errorf("array stitch route %s: %w", n.Name, err)
		}
	}
	res.Recount(db)
	return db, res, len(stitched), nil
}

// routeBlockages are the routing obstructions of insts where they are
// placed, instance by instance.
func routeBlockages(insts []*netlist.Instance) []floorplan.RouteBlockage {
	n := 0
	for _, m := range insts {
		n += len(m.Master.Obstructions)
	}
	blk := make([]floorplan.RouteBlockage, 0, n)
	for _, m := range insts {
		for _, o := range m.Master.Obstructions {
			blk = append(blk, floorplan.RouteBlockage{Layer: o.Layer, Rect: o.Rect.Translate(m.Loc)})
		}
	}
	return blk
}

// sameShape reports whether the array net has the same pin structure
// as its tile source (no port↔instance substitution happened — i.e.
// the net was not stitched across tiles).
func sameShape(a, b *netlist.Net) bool {
	if len(a.Sinks) != len(b.Sinks) {
		return false
	}
	if a.Driver.IsPort() != b.Driver.IsPort() {
		return false
	}
	for i := range a.Sinks {
		if a.Sinks[i].IsPort() != b.Sinks[i].IsPort() {
			return false
		}
	}
	return true
}
