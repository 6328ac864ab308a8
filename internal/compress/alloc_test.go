package compress

import (
	"bytes"
	"testing"

	"repro/internal/stream"
)

// allocBatch builds a deterministic pseudo-random batch; the odd size
// exercises the raw-tail path of every word-oriented kernel.
func allocBatch(n int) *stream.Batch {
	data := make([]byte, n)
	x := uint32(12345)
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	return stream.NewBatchBytes(0, data)
}

// TestCompressReuseZeroAlloc guards the hot-path contract for every kernel:
// once a session's scratch (bit writer, output buffer) has grown to the
// working-set size, CompressBatchReuse must not allocate.
func TestCompressReuseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	batch := allocBatch(64*1024 + 3)
	for _, alg := range append(All(), Extensions()...) {
		t.Run(alg.Name(), func(t *testing.T) {
			sess := alg.NewSession()
			// Warm to steady state: scratch buffers grow to working-set size.
			for i := 0; i < 3; i++ {
				if res := sess.CompressBatchReuse(batch); res.BitLen == 0 {
					t.Fatal("empty output")
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if res := sess.CompressBatchReuse(batch); res.BitLen == 0 {
					t.Fatal("empty output")
				}
			})
			if allocs != 0 {
				t.Fatalf("%s CompressBatchReuse allocated %.1f times per run, want 0", alg.Name(), allocs)
			}
		})
	}
}

// TestRunPipelineZeroAlloc extends the contract to the slice executor on
// its inline side: a 4 KiB batch in 12 slices, run and Released, allocates
// nothing once the pooled run state and slice sessions have reached their
// working-set size.
func TestRunPipelineZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	batch := allocBatch(4096)
	for _, alg := range append(All(), Extensions()...) {
		t.Run(alg.Name(), func(t *testing.T) {
			workers := make([]int, len(StageSets(alg)))
			workers[0] = 2
			run := func() {
				res, err := RunPipeline(alg, batch, 12, workers)
				if err != nil || res.TotalBits == 0 {
					t.Fatalf("empty output: %v", err)
				}
				res.Release()
			}
			for i := 0; i < 3; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Fatalf("%s RunPipeline allocated %.1f times per run, want 0", alg.Name(), allocs)
			}
		})
	}
}

// TestCompressBatchMatchesReuse proves the owning and the aliasing APIs are
// the same computation: identical output bytes, bit lengths, and per-step
// costs (bit-for-bit, since the plan search depends on exact float costs).
func TestCompressBatchMatchesReuse(t *testing.T) {
	batch := allocBatch(16*1024 + 7)
	for _, alg := range append(All(), Extensions()...) {
		t.Run(alg.Name(), func(t *testing.T) {
			owned := alg.NewSession().CompressBatch(batch)
			reused := alg.NewSession().CompressBatchReuse(batch)
			if !bytes.Equal(owned.Compressed, reused.Compressed) {
				t.Fatal("output bytes differ between CompressBatch and CompressBatchReuse")
			}
			if owned.BitLen != reused.BitLen || owned.InputBytes != reused.InputBytes {
				t.Fatalf("metadata differs: BitLen %d vs %d, InputBytes %d vs %d",
					owned.BitLen, reused.BitLen, owned.InputBytes, reused.InputBytes)
			}
			if owned.Steps != reused.Steps {
				t.Fatalf("step stats differ: %+v vs %+v", owned.Steps, reused.Steps)
			}
		})
	}
}

// TestReuseResultOverwritten documents the aliasing contract: the Result
// returned by CompressBatchReuse is invalidated by the next call, while
// CompressBatch results stay stable.
func TestReuseResultOverwritten(t *testing.T) {
	sess := NewTcomp32().NewSession()
	a := sess.CompressBatchReuse(allocBatch(4096))
	firstBits := a.BitLen
	snapshot := append([]byte(nil), a.Compressed...)
	b := sess.CompressBatchReuse(allocBatch(8192))
	if a != b {
		t.Fatal("reuse path should return the same session-owned Result")
	}
	if a.BitLen == firstBits {
		t.Fatal("second call did not overwrite the session-owned Result")
	}
	_ = snapshot // callers that need stability must copy, as done here
}
