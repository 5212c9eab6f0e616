//go:build race

package report

// raceEnabled reports whether this test binary was built with the race
// detector, under which the seed ensemble's flows are an order of
// magnitude slower.
const raceEnabled = true
