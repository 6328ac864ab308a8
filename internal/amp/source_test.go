package amp

import (
	"math"
	"math/rand"
	"testing"
)

// draw applies one generator call chosen by op and returns its result as
// bits, covering every rand.Rand method the repository calls: Intn on both
// of its paths (Int31n below 2^31, Int63n above), and the float methods
// that may consume more than one value per call.
func draw(r *rand.Rand, op byte) uint64 {
	switch op % 8 {
	case 0:
		return math.Float64bits(r.NormFloat64())
	case 1:
		return math.Float64bits(r.Float64())
	case 2:
		return uint64(r.Intn(int(op)/8 + 1))
	case 3:
		return uint64(r.Intn(1<<30 + int(op)))
	case 4:
		return uint64(r.Int63n(1<<40 + int64(op)))
	case 5:
		return uint64(r.Int63())
	case 6:
		return r.Uint64() ^ uint64(r.Uint32())
	default:
		return math.Float64bits(r.ExpFloat64())
	}
}

// matchOps reports the first op at which got and a fresh math/rand generator
// for seed disagree, or -1.
func matchOps(got *rand.Rand, seed int64, ops []byte) int {
	want := rand.New(rand.NewSource(seed))
	for i, op := range ops {
		if draw(got, op) != draw(want, op) {
			return i
		}
	}
	return -1
}

// checkSeed holds a fresh sampler, a restart of one that has drawn, and a
// restart of one that never drew to math/rand's draws for seed.
func checkSeed(t testing.TB, seed int64, ops []byte) {
	t.Helper()
	if i := matchOps(NewSampler(seed).r(), seed, ops); i >= 0 {
		t.Fatalf("seed %d: fresh sampler differs from math/rand at op %d (%d)", seed, i, ops[i])
	}
	used := NewSampler(seed)
	for _, op := range ops {
		draw(used.r(), op)
	}
	if i := matchOps(used.Restart().r(), seed, ops); i >= 0 {
		t.Fatalf("seed %d: restart after %d draws differs from math/rand at op %d (%d)", seed, len(ops), i, ops[i])
	}
	if i := matchOps(NewSampler(seed).Restart().r(), seed, ops); i >= 0 {
		t.Fatalf("seed %d: restart of an undrawn sampler differs from math/rand at op %d (%d)", seed, i, ops[i])
	}
}

func TestSamplerMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 7, 42, 89482311, // math/rand maps seed 0 to 89482311
		1<<31 - 1, 1 << 31, 1<<31 + 1, -(1 << 31), 2 * (1<<31 - 1),
		1 << 40, -(1 << 40), 1<<47 - 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	g := rand.New(rand.NewSource(2023))
	for len(seeds) < 1100 {
		seed := g.Int63() >> uint(g.Intn(63))
		if g.Intn(2) == 0 {
			seed = -seed
		}
		seeds = append(seeds, seed)
	}
	ops := make([]byte, 3000)
	for i, seed := range seeds {
		n := 300
		if i%100 == 0 {
			n = len(ops) // several passes over the 607-word ring
		}
		g.Read(ops[:n])
		checkSeed(t, seed, ops[:n])
	}
}

// TestSamplerRestartIsEager pins where the origin is copied: a restarted
// sampler holds its own state before it draws, and drawing from it leaves
// the origin it shares untouched.
func TestSamplerRestartIsEager(t *testing.T) {
	s := NewSampler(5)
	if s.state != nil {
		t.Fatal("NewSampler copied its origin before the first draw")
	}
	r := s.Restart()
	if r.state == nil || r.origin != s.origin {
		t.Fatal("Restart must share the origin and copy it at once")
	}
	before := *s.origin
	r.Uniform()
	s.Uniform()
	if *s.origin != before {
		t.Fatal("drawing wrote the shared origin")
	}
	m := NewMeter(5)
	if a, b := m.Read(100), m.Restart().Read(100); a != b {
		t.Fatalf("restarted meter read %v, first read was %v", b, a)
	}
}

func FuzzSamplerMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-1), []byte{8, 17, 26, 35, 44, 53, 62, 71, 255})
	f.Add(int64(1<<31), []byte{3, 3, 3, 4, 4, 4})
	f.Add(int64(math.MinInt64), []byte{7, 0, 7, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		checkSeed(t, seed, ops)
	})
}
