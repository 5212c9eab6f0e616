//go:build race

package ddb_test

// raceEnabled reports whether this test binary was built with the race
// detector. The equivalence property test keeps only the tiny tile
// under -race: its from-scratch extraction and timing after every edit
// run an order of magnitude slower instrumented, and the tiny tile's
// five parallel runs already share the one tile template.
const raceEnabled = true
