//go:build race

package htex

// raceEnabled reports a -race build, whose instrumentation changes how
// many bytes the per-task path allocates.
const raceEnabled = true
