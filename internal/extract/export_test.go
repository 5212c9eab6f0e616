package extract

import (
	"testing"

	"macro3d/internal/cell"
	"macro3d/internal/geom"
	"macro3d/internal/netlist"
	"macro3d/internal/route"
)

// RandomDesign is a design of n of the oracle's random nets (randomNet)
// on the combined stack, each routed as randomNet built it but every
// tenth, which is left unrouted, and the number of multi-cut via stacks
// among the routes: the random case of TestCapsMatchesExtract, an
// external test.
func RandomDesign(t *testing.T, seed uint64, n int) (*netlist.Design, *route.DB, *route.Result, int) {
	t.Helper()
	db := combinedDB(t)
	d := netlist.NewDesign("x", cell.NewStdLib28(cell.DefaultLibOptions()))
	rng := geom.NewRNG(seed)
	res := &route.Result{Routes: make([]*route.NetRoute, n)}
	stacks := 0
	for id := 0; id < n; id++ {
		_, r, _ := randomNet(rng, d, db, id)
		if id%10 == 9 {
			continue
		}
		res.Routes[id] = r
		for _, sg := range r.Segments {
			if sg.Cuts() > 1 {
				stacks++
			}
		}
	}
	return d, db, res, stacks
}
