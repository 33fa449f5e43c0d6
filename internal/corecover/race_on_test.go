//go:build race

package corecover

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation slows the code under test several-fold
// and would make wall-clock bounds flap.
const raceEnabled = true
