//go:build race

package flows

// raceEnabled reports whether this test binary was built with the race
// detector. TestDeterminism shrinks its matrix under -race (the small
// tile's reference and checks runs): the instrumentation slows the full
// flows by an order of magnitude, while the reduced matrix already
// drives every parallel code path under the detector.
const raceEnabled = true
