package route

// The per-cut oracle router and the cut expansion, for the external
// tests (stacks_test.go).
var (
	RouteDesignOracle = routeDesignOracle
	ExpandCuts        = expandCuts
)
