//go:build race

package costmodel

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it, since instrumentation
// may add runtime allocations unrelated to the code under test.
const raceEnabled = true
