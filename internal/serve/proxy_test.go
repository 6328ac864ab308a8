package serve

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stream"
)

// countingGen counts the Batch calls that reach the real generator.
type countingGen struct {
	dataset.Generator
	calls atomic.Int64
}

func (g *countingGen) Batch(index, size int) *stream.Batch {
	g.calls.Add(1)
	return g.Generator.Batch(index, size)
}

// countGenerations routes the server's proxy misses through a counter. It
// must run before the first open.
func countGenerations(s *Server) *countingGen {
	g := &countingGen{Generator: s.proxy.Generator}
	s.proxy.Generator = g
	return g
}

// openShape opens and ends one session of the shape under silver, so the
// shape is profiled and planned.
func openShape(t *testing.T, s *Server, shape profileKey) {
	t.Helper()
	sess, _, reason, err := s.openSession(1, OpenRequest{Tenant: "slot", Algorithm: shape.algorithm, SLO: "silver", BatchBytes: shape.batchBytes})
	if err != nil || reason != "" {
		t.Errorf("open %v: err %v, shed %q", shape, err, reason)
		return
	}
	s.finishSession(sess)
}

// checkExact asserts that the server profiled and planned the shape exactly
// as a library caller with a fresh generator and planner would.
func checkExact(t *testing.T, s *Server, shape profileKey) {
	t.Helper()
	got := deploymentOf(t, s, shape, core.DefaultLSet)
	want := freshDeployment(t, s, shape, core.DefaultLSet)
	if g, w := profileBits(got.Profile), profileBits(want.Profile); g != w {
		t.Errorf("%v: profile differs from a fresh generation:\n got %s\nwant %s", shape, g, w)
	}
	if g, w := deploymentBits(got), deploymentBits(want); g != w {
		t.Errorf("%v: deployment differs from a fresh planner's:\n got %s\nwant %s", shape, g, w)
	}
}

// checkSlotBound asserts that the slot holds batches of one size only, at
// most the profiling depth of them, each byte-identical to a fresh
// generation at that size.
func checkSlotBound(t *testing.T, s *Server, size int) {
	t.Helper()
	p := s.proxy
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.size != size {
		t.Fatalf("slot holds size %d, want the last profiled size %d", p.size, size)
	}
	if len(p.batches) != s.cfg.ProfileBatches {
		t.Fatalf("slot has room for %d batches, want the profiling depth %d", len(p.batches), s.cfg.ProfileBatches)
	}
	fresh, err := dataset.ByName(s.cfg.ProfileDataset, s.cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range p.batches {
		if b == nil {
			t.Fatalf("slot lacks batch %d of the last size", i)
		}
		if !bytes.Equal(b.Bytes(), fresh.Batch(i, size).Bytes()) {
			t.Fatalf("slot batch %d differs from a fresh generation at %d B", i, size)
		}
	}
}

// TestProxySlotDeploymentsExact: opening sizes A, B, A, C in sequence, and
// then two sizes at once, every shape's profile and deployment are
// bit-identical to those a fresh generator and planner give at its size, and
// the slot ends holding only the last size. Run under -race this also checks
// that concurrent cold opens share the slot safely.
func TestProxySlotDeploymentsExact(t *testing.T) {
	s := newMemoServer(t)
	const a, b, c = 4 << 10, 16 << 10, 8 << 10
	seq := []profileKey{
		{"tcomp32", a}, {"lz4", a},
		{"tcomp32", b}, {"lz4", b},
		{"tdic32", a}, {"huff8", a},
		{"delta32", c}, {"rle32", c},
	}
	for _, shape := range seq {
		openShape(t, s, shape)
		checkExact(t, s, shape)
	}
	checkSlotBound(t, s, c)

	const d, e = 12 << 10, 24 << 10
	var conc []profileKey
	for _, alg := range []string{"tcomp32", "tdic32", "lz4", "huff8"} {
		conc = append(conc, profileKey{alg, d}, profileKey{alg, e})
	}
	var wg sync.WaitGroup
	for _, shape := range conc {
		wg.Add(1)
		go func(shape profileKey) {
			defer wg.Done()
			openShape(t, s, shape)
		}(shape)
	}
	wg.Wait()
	for _, shape := range conc {
		checkExact(t, s, shape)
	}
	// A last sequential open settles which size the slot holds.
	openShape(t, s, profileKey{"delta32", e})
	checkSlotBound(t, s, e)
}

// TestProxySlotGeneratesOncePerSize: serve-large's three shapes (tcomp32,
// tdic32 and lz4 at the paper's B) generate the two proxy batches once, not
// once per algorithm, and a new size generates again.
func TestProxySlotGeneratesOncePerSize(t *testing.T) {
	s, err := New(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gen := countGenerations(s)
	for _, alg := range []string{"tcomp32", "tdic32", "lz4"} {
		openShape(t, s, profileKey{alg, core.DefaultBatchBytes})
	}
	if got, want := gen.calls.Load(), int64(s.cfg.ProfileBatches); got != want {
		t.Fatalf("three algorithms at %d B generated %d proxy batches, want %d", core.DefaultBatchBytes, got, want)
	}
	checkSlotBound(t, s, core.DefaultBatchBytes)
	openShape(t, s, profileKey{"tcomp32", 64 << 10})
	if got, want := gen.calls.Load(), int64(2*s.cfg.ProfileBatches); got != want {
		t.Fatalf("after a new size: %d proxy batches generated, want %d", got, want)
	}
	checkSlotBound(t, s, 64<<10)
}

// TestNewRejectsUnknownProfileDataset: an unknown proxy dataset fails New
// instead of leaving a server that sheds every open.
func TestNewRejectsUnknownProfileDataset(t *testing.T) {
	s, err := New(Config{ProfileDataset: "nope"})
	if err == nil {
		s.Close()
		t.Fatal("New accepted an unknown profile dataset")
	}
	if !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("error %q does not name the dataset", err)
	}
}
