package amp

import "math/rand"

// The additive lagged-Fibonacci generator behind math/rand's Source:
// x[n] = x[n-607] + x[n-273] (mod 2^64), each output being the new x[n].
const (
	lfLen = 607
	lfTap = 273
)

// source is a math/rand-compatible Source64 whose state can be copied. Its
// ring holds the last lfLen values: vec[feed] is x[n-607] and vec[tap] is
// x[n-273].
type source struct {
	vec       [lfLen]uint64
	feed, tap int
}

// seedSource sets s to the state math/rand's generator holds right after
// rand.NewSource(seed). math/rand does not expose that state, so the
// generator is seeded, its first lfLen outputs are read, and the recurrence
// is run backwards over them: x[i-607] = x[i] - x[i-273]. For i ≥ lfTap the
// subtrahend is an earlier output; below that it is x[i-273] = x[(i+334)-607],
// recovered first. The work per seed is math/rand's seeding plus lfLen draws.
func seedSource(s *source, seed int64) {
	r := rand.NewSource(seed).(rand.Source64)
	s.feed, s.tap = 0, lfLen-lfTap
	for i := range s.vec {
		s.vec[i] = r.Uint64()
	}
	// In place: descending i reads outputs below i that are not yet
	// rewritten, then the low indices read the recovered high ones.
	for i := lfLen - 1; i >= lfTap; i-- {
		s.vec[i] -= s.vec[i-lfTap]
	}
	for i := 0; i < lfTap; i++ {
		s.vec[i] -= s.vec[i+lfLen-lfTap]
	}
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	if s.feed++; s.feed == lfLen {
		s.feed = 0
	}
	if s.tap++; s.tap == lfLen {
		s.tap = 0
	}
	return x
}

// Int63 implements rand.Source as math/rand does: the low 63 bits.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Seed implements rand.Source.
func (s *source) Seed(seed int64) { seedSource(s, seed) }
