//go:build race

package sim

// raceEnabled reports a -race build (see norace_test.go).
const raceEnabled = true
