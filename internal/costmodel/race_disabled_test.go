//go:build !race

package costmodel

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
