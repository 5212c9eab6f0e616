package flows

import (
	"fmt"

	"macro3d/internal/cts"
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
// The flat array then gets a fresh clock tree and full STA.
func VerifyTileArray(cfg Config, st *State, t *tech.Tech, nx, ny int) (*ArrayReport, error) {
	arr, err := piton.AbutArray(st.Tile, st.Die, nx, ny)
	if err != nil {
		return nil, err
	}
	return verifyArray(cfg.withDefaults(), st, t, arr)
}

// verifyArray re-verifies an abutted array flat. It walks the array by
// its tables (piton.Array): no name of the array is formatted or looked
// up, so its by-name indexes are never built.
func verifyArray(cfg Config, st *State, t *tech.Tech, arr *piton.Array) (*ArrayReport, error) {
	d := arr.Design
	db, res, stitched, err := routeArray(cfg, st, arr)
	if err != nil {
		return nil, err
	}
	out := &ArrayReport{
		Nx: arr.Nx, Ny: arr.Ny,
		Design:        d,
		Die:           arr.Die,
		TilePeriod:    st.Report.MinPeriod,
		F2FBumps:      res.F2FBumps,
		RouteOverflow: res.Overflow,
		StitchedNets:  stitched,
	}

	// Extraction is the last reader of the routes and the routing grid:
	// nothing below holds them, so they are garbage while the timing graph
	// — the pass's other large structure — is built.
	tree := cts.Build(d, arr.Clock, arr.ClockPort.Loc, d.Lib, st.Beol, cts.Options{})
	slow := t.CornerScaleFor(tech.CornerSlow)
	ex := extract.Extract(d, res, db, slow)
	rep, err := sta.Analyze(d, ex, st.Report.MinPeriod, sta.Options{
		Corner: slow, Clock: tree,
	})
	if err != nil {
		return nil, fmt.Errorf("array STA: %w", err)
	}
	out.ArrayPeriod, out.Critical = rep.MinPeriod, rep.Critical
	out.ClosesAtTile = rep.MinPeriod <= st.Report.MinPeriod*1.02
	return out, nil
}

// routeArray builds the array's routing database and result. A route is
// a shape: every copy's nets are placed on the tile's own records at the
// copy's offset (route.Result.Place), read-only, and their usage is
// committed there; only the stitched nets, which it counts, are routed.
func routeArray(cfg Config, st *State, arr *piton.Array) (*route.DB, *route.Result, int, error) {
	nx, ny, d := arr.Nx, arr.Ny, arr.Design

	// Array routing grid: an exact nx×ny tiling of the tile's grid so
	// tile routes place in whole gcells.
	tg := st.DB.Grid
	ag := geom.Grid{
		Region: arr.Die,
		NX:     tg.NX * nx, NY: tg.NY * ny,
		DX: tg.DX, DY: tg.DY,
	}

	// Routing blockages from every macro copy.
	macros, nBlk := d.Macros(), 0
	for _, m := range macros {
		nBlk += len(m.Master.Obstructions)
	}
	blk := make([]floorplan.RouteBlockage, 0, nBlk)
	for _, m := range macros {
		for _, o := range m.Master.Obstructions {
			blk = append(blk, floorplan.RouteBlockage{Layer: o.Layer, Rect: o.Rect.Translate(m.Loc)})
		}
	}
	ropt := cfg.routeOptions(nil)
	ropt.Grid = &ag
	db := route.NewDB(arr.Die, st.Beol, blk, ropt)
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
