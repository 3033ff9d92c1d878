//go:build !race

package sim

// raceEnabled reports a -race build: allocation-count tests skip under the
// race detector, whose instrumentation allocates.
const raceEnabled = false
