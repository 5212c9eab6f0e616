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
	Nx, Ny       int
	Design       *netlist.Design
	Die          geom.Rect
	TilePeriod   float64 // ps, the single tile's sign-off period
	ArrayPeriod  float64 // ps, the flat array's minimum period
	ClosesAtTile bool    // array period ≤ tile period (+2 % tolerance)
	F2FBumps     int
	StitchedNets int // inter-tile abutment connections
	Critical     sta.Path
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
	cfg = cfg.withDefaults()
	arr, arrayDie, err := piton.Abut(st.Tile, st.Die, nx, ny)
	if err != nil {
		return nil, err
	}

	// Array routing grid: an exact nx×ny tiling of the tile's grid so
	// tile routes translate in whole gcells.
	tg := st.DB.Grid
	ag := geom.Grid{
		Region: arrayDie,
		NX:     tg.NX * nx, NY: tg.NY * ny,
		DX: tg.DX, DY: tg.DY,
	}

	// Routing blockages from every macro copy.
	fp := &floorplan.Floorplan{Die: arrayDie}
	for _, m := range arr.Macros() {
		for _, o := range m.Master.Obstructions {
			fp.RouteBlk = append(fp.RouteBlk, floorplan.RouteBlockage{
				Layer: o.Layer, Rect: o.Rect.Translate(m.Loc),
			})
		}
	}
	ropt := cfg.routeOptions(nil)
	ropt.Grid = &ag
	db := route.NewDB(arrayDie, st.Beol, fp.RouteBlk, ropt)
	if err := db.Err(); err != nil {
		return nil, fmt.Errorf("array %d×%d: %w", nx, ny, err)
	}

	res := &route.Result{
		Routes:     make([]*route.NetRoute, len(arr.Nets)),
		WLPerLayer: make([]float64, st.Beol.NumLayers()),
	}

	// Replicate tile routes; collect stitched nets for fresh routing.
	// Every copy adds at most the tile's routes, so the result's slabs
	// are sized once.
	src := st.Tile.Design
	var tileRoutes, tilePins, tileSegs int
	for _, r := range st.Routes.Routes {
		if r != nil {
			tileRoutes++
			tilePins += len(r.PinNode)
			tileSegs += len(r.Segments)
		}
	}
	res.Reserve(nx*ny*tileRoutes, nx*ny*tilePins, nx*ny*tileSegs)
	var stitched []*netlist.Net
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			tag := fmt.Sprintf("t%d_%d_", ix, iy)
			for _, n := range src.Nets {
				if n.Clock {
					continue
				}
				an := arr.Net(tag + n.Name)
				if an == nil {
					continue // interior port net, absorbed by the stitch
				}
				if sameShape(n, an) && st.Routes.Routes[n.ID] != nil {
					db.CommitRoute(res.Translate(an, st.Routes.Routes[n.ID], ix*tg.NX, iy*tg.NY))
				} else {
					stitched = append(stitched, an)
				}
			}
		}
	}
	for _, n := range stitched {
		if _, err := db.RouteNet(res, n); err != nil {
			return nil, fmt.Errorf("array stitch route %s: %w", n.Name, err)
		}
	}
	res.Recount(db)

	clkSrc := arrayDie.LL()
	if p := arr.Port("clk_i"); p != nil {
		clkSrc = p.Loc
	}
	tree := cts.Build(arr, arr.Net("clk"), clkSrc, arr.Lib, st.Beol, cts.Options{})

	slow := t.CornerScaleFor(tech.CornerSlow)
	ex := extract.Extract(arr, res, db, slow)
	rep, err := sta.Analyze(arr, ex, st.Report.MinPeriod, sta.Options{
		Corner: slow, Clock: tree,
	})
	if err != nil {
		return nil, fmt.Errorf("array STA: %w", err)
	}

	out := &ArrayReport{
		Nx: nx, Ny: ny,
		Design:       arr,
		Die:          arrayDie,
		TilePeriod:   st.Report.MinPeriod,
		ArrayPeriod:  rep.MinPeriod,
		F2FBumps:     res.F2FBumps,
		StitchedNets: len(stitched),
		Critical:     rep.Critical,
	}
	out.ClosesAtTile = rep.MinPeriod <= st.Report.MinPeriod*1.02
	return out, nil
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
