package compress

import (
	"bytes"
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
)

func TestRunPipelineCtxMatchesRunPipeline(t *testing.T) {
	for _, name := range []string{"tcomp32", "tdic32", "lz4"} {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b := dataset.NewMicro(5).Batch(0, 64<<10)
		workers := make([]int, len(StageSets(alg)))
		for i := range workers {
			workers[i] = 2
		}
		want, err := RunPipeline(alg, b, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunPipelineContext(context.Background(), alg, b, 2, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalBits != want.TotalBits || len(got.Segments) != len(want.Segments) {
			t.Fatalf("%s: ctx run differs: %d bits / %d segments, want %d / %d",
				name, got.TotalBits, len(got.Segments), want.TotalBits, len(want.Segments))
		}
		round, err := DecodeSegments(name, got)
		if err != nil {
			t.Fatal(err)
		}
		if string(round) != string(b.Bytes()) {
			t.Fatalf("%s: round-trip mismatch", name)
		}
	}
}

func TestRunPipelineCtxCancelled(t *testing.T) {
	alg, err := ByName("tcomp32")
	if err != nil {
		t.Fatal(err)
	}
	b := dataset.NewMicro(5).Batch(0, 256<<10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunPipelineContext(ctx, alg, b, 4, []int{2, 2}, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("expected nil result, got %+v", res)
	}
}

// TestRunPipelineCancelledMidRun cancels a run from inside its third slice,
// on the inline side of helperShare and on the helper side: the run must
// return ctx.Err() without finishing the batch, leave no goroutine behind,
// and leave the pooled state clean for the next run.
func TestRunPipelineCancelledMidRun(t *testing.T) {
	alg := NewTcomp32()
	workers := []int{2, 2}
	const slices = 8
	for _, size := range []int{4096, 4 * helperShare} {
		b := allocBatch(size)
		want, err := RunPipeline(alg, b, slices, workers)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()

		ctx, cancel := context.WithCancel(context.Background())
		var units atomic.Int32
		res, err := RunPipelineContext(ctx, alg, b, slices, workers, func(string, int, time.Time, time.Time) {
			if units.Add(1) == 3 {
				cancel()
			}
		})
		cancel()
		if err != context.Canceled || res != nil {
			t.Fatalf("size=%d: got (%v, %v), want (nil, context.Canceled)", size, res, err)
		}
		if n := units.Load(); n >= slices {
			t.Fatalf("size=%d: all %d units ran despite cancellation", size, n)
		}
		// A joined helper has called Done but may not have exited yet.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("size=%d: %d goroutines, %d before the run", size, runtime.NumGoroutine(), before)
			}
		}

		got, err := RunPipeline(alg, b, slices, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Segments {
			if got.Segments[i].BitLen != want.Segments[i].BitLen ||
				!bytes.Equal(got.Segments[i].Compressed, want.Segments[i].Compressed) {
				t.Fatalf("size=%d: segment %d differs after a cancelled run", size, i)
			}
		}
		got.Release()
		want.Release()
	}
}
