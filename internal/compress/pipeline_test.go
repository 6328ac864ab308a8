package compress

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stream"
)

// TestSliceCount pins the slice rule: one slice per helperShare of input,
// at least one, at most maxSlices.
func TestSliceCount(t *testing.T) {
	for _, tc := range []struct{ batchBytes, maxSlices, want int }{
		{0, 12, 1},
		{4096, 12, 1},
		{31 << 10, 12, 1},
		{65535, 12, 1},
		{64 << 10, 12, 1},
		{128 << 10, 12, 2},
		{3*(64<<10) + 8, 12, 3},
		{932800, 12, 12},
		{932800, 100, 14},
		{4096, 0, 1},
	} {
		if got := SliceCount(tc.batchBytes, tc.maxSlices); got != tc.want {
			t.Errorf("SliceCount(%d, %d) = %d, want %d", tc.batchBytes, tc.maxSlices, got, tc.want)
		}
	}
}

func TestStageSets(t *testing.T) {
	if got := StageSets(NewTcomp32()); len(got) != 2 {
		t.Fatalf("tcomp32 stages = %v", got)
	}
	if got := StageSets(NewTdic32()); len(got) != 2 || len(got[0]) != 4 {
		t.Fatalf("tdic32 stages = %v", got)
	}
	if got := StageSets(NewLZ4()); len(got) != 3 {
		t.Fatalf("lz4 stages = %v", got)
	}
	// Stage sets must partition the algorithm's steps in order.
	for _, alg := range All() {
		var flat []StepKind
		for _, set := range StageSets(alg) {
			flat = append(flat, set...)
		}
		steps := alg.Steps()
		if len(flat) != len(steps) {
			t.Fatalf("%s: stage sets do not cover steps", alg.Name())
		}
		for i := range steps {
			if flat[i] != steps[i] {
				t.Fatalf("%s: stage order mismatch at %d", alg.Name(), i)
			}
		}
	}
}

func TestPipelineMatchesFusedOutput(t *testing.T) {
	// One slice, one worker per stage: the pipeline must be bit-exact with
	// the fused CompressBatch.
	for _, alg := range All() {
		b := dataset.NewRovio(5).Batch(0, 16*1024)
		res, err := RunPipeline(alg, b, 1, onesFor(alg))
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		fused := alg.NewSession().CompressBatch(b)
		if len(res.Segments) != 1 {
			t.Fatalf("%s: segments = %d", alg.Name(), len(res.Segments))
		}
		if res.Segments[0].BitLen != fused.BitLen ||
			!bytes.Equal(res.Segments[0].Compressed, fused.Compressed) {
			t.Fatalf("%s: pipeline output differs from fused (bits %d vs %d)",
				alg.Name(), res.Segments[0].BitLen, fused.BitLen)
		}
	}
}

func onesFor(alg Algorithm) []int {
	return make([]int, len(StageSets(alg)), len(StageSets(alg)))
}

func TestPipelineDataParallelRoundTrip(t *testing.T) {
	for _, alg := range All() {
		for _, g := range dataset.All(9) {
			b := g.Batch(0, 32*1024)
			workers := onesFor(alg)
			for i := range workers {
				workers[i] = 2
			}
			res, err := RunPipeline(alg, b, 4, workers)
			if err != nil {
				t.Fatalf("%s-%s: %v", alg.Name(), g.Name(), err)
			}
			if len(res.Segments) != 4 {
				t.Fatalf("%s-%s: segments = %d", alg.Name(), g.Name(), len(res.Segments))
			}
			got, err := DecodeSegments(alg.Name(), res)
			if err != nil {
				t.Fatalf("%s-%s: decode: %v", alg.Name(), g.Name(), err)
			}
			if !bytes.Equal(got, b.Bytes()) {
				t.Fatalf("%s-%s: round trip mismatch", alg.Name(), g.Name())
			}
		}
	}
}

func TestPipelineCompresses(t *testing.T) {
	b := dataset.NewRovio(5).Batch(0, 64*1024)
	res, err := RunPipeline(NewTdic32(), b, 3, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio() >= 1.0 {
		t.Fatalf("ratio = %f", res.Ratio())
	}
	if res.InputBytes != b.Size() {
		t.Fatalf("InputBytes = %d", res.InputBytes)
	}
}

func TestPipelineWorkerCountMismatch(t *testing.T) {
	b := stream.NewBatchBytes(0, make([]byte, 64))
	if _, err := RunPipeline(NewTcomp32(), b, 1, []int{1, 1, 1}); err == nil {
		t.Fatal("expected error for wrong worker count")
	}
}

func TestPipelineTinyInput(t *testing.T) {
	for _, alg := range All() {
		b := stream.NewBatchBytes(0, []byte{1, 2, 3}) // below one word
		res, err := RunPipeline(alg, b, 2, onesFor(alg))
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		got, err := DecodeSegments(alg.Name(), res)
		if err != nil || !bytes.Equal(got, b.Bytes()) {
			t.Fatalf("%s: tiny round trip failed: %v", alg.Name(), err)
		}
	}
}

func TestPipelineSlicedEqualsPerSliceFused(t *testing.T) {
	// Slice outputs must equal running CompressBatch on each slice with
	// fresh state (private replica state, Section IV-B).
	b := dataset.NewStock(2).Batch(0, 16*1024)
	res, err := RunPipeline(NewTdic32(), b, 3, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	ranges := splitWords(b.Size(), 3)
	for i, seg := range res.Segments {
		want := NewTdic32().NewSession().CompressBatch(b.Slice(ranges[i][0], ranges[i][1]))
		if seg.BitLen != want.BitLen || !bytes.Equal(seg.Compressed, want.Compressed) {
			t.Fatalf("slice %d output differs", i)
		}
	}
}

// TestPipelineShapesMatchPerSliceFused sweeps the executor's shape space —
// empty and sub-word batches, fewer words than slices, the inline side of
// helperShare and the helper side — and pins the contract that output bytes
// are a function of (algorithm, batch, slices) only: every segment equals
// CompressBatch on its slice with fresh state, whatever the worker vector,
// and the segments decode back to the batch.
func TestPipelineShapesMatchPerSliceFused(t *testing.T) {
	sizes := []int{0, 1, 3, 4, 5, 20, 4096, 4*helperShare + 3}
	for _, alg := range append(All(), Extensions()...) {
		stages := len(StageSets(alg))
		vectors := [][]int{make([]int, stages), make([]int, stages), make([]int, stages)}
		for i := 0; i < stages; i++ {
			vectors[1][i] = 2
			vectors[2][i] = 1
		}
		vectors[2][0] = 5
		for _, size := range sizes {
			b := allocBatch(size)
			for _, slices := range []int{1, 2, 12} {
				want := make([]*Result, slices)
				for i := range want {
					lo, hi := wordRange(size, slices, i)
					want[i] = alg.NewSession().CompressBatch(b.Slice(lo, hi))
				}
				for _, workers := range vectors {
					res, err := RunPipeline(alg, b, slices, workers)
					if err != nil {
						t.Fatalf("%s size=%d slices=%d workers=%v: %v", alg.Name(), size, slices, workers, err)
					}
					if len(res.Segments) != slices || res.InputBytes != size {
						t.Fatalf("%s size=%d slices=%d workers=%v: %d segments over %d bytes",
							alg.Name(), size, slices, workers, len(res.Segments), res.InputBytes)
					}
					var total uint64
					for i, seg := range res.Segments {
						total += seg.BitLen
						if seg.SliceIndex != i || seg.OrigLen != want[i].InputBytes ||
							seg.BitLen != want[i].BitLen || !bytes.Equal(seg.Compressed, want[i].Compressed) {
							t.Fatalf("%s size=%d slices=%d workers=%v: segment %d differs from CompressBatch on its slice",
								alg.Name(), size, slices, workers, i)
						}
					}
					if res.TotalBits != total {
						t.Fatalf("%s size=%d slices=%d: TotalBits = %d, segments sum to %d", alg.Name(), size, slices, res.TotalBits, total)
					}
					got, err := DecodeSegments(alg.Name(), res)
					if err != nil || !bytes.Equal(got, b.Bytes()) {
						t.Fatalf("%s size=%d slices=%d workers=%v: round trip failed: %v", alg.Name(), size, slices, workers, err)
					}
					res.Release()
				}
			}
		}
	}
}

func TestDecodeSegmentsUnknownAlgorithm(t *testing.T) {
	if _, err := DecodeSegments("nope", &PipelineResult{Segments: []Segment{{}}}); err == nil {
		t.Fatal("expected error")
	}
}
