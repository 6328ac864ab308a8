package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/dataset"
)

// smallDeployment plans delta32 at 4 KiB, the shape serve's small sessions
// run: one slice, on the calling goroutine.
func smallDeployment(t *testing.T) (Workload, *Deployment) {
	t.Helper()
	w := NewWorkload(compress.NewDelta32(), dataset.NewStock(1))
	w.BatchBytes = 4096
	dep, err := newPlanner(t).Deploy(w, MechCStream)
	if err != nil {
		t.Fatal(err)
	}
	return w, dep
}

// copySegments detaches a result's segments from its pooled buffers.
func copySegments(res *compress.PipelineResult) []compress.Segment {
	out := make([]compress.Segment, len(res.Segments))
	for i, s := range res.Segments {
		out[i] = compress.Segment{SliceIndex: s.SliceIndex, BitLen: s.BitLen, OrigLen: s.OrigLen,
			Compressed: append([]byte(nil), s.Compressed...)}
	}
	return out
}

// TestSharedDeploymentConcurrentCallers runs batches through one Deployment
// from several goroutines at once, as serve's sessions on a shard do: every
// caller must get the bytes a lone caller gets. The race detector checks the
// pooled run state and the deploy-time worker mapping they share.
func TestSharedDeploymentConcurrentCallers(t *testing.T) {
	w, dep := smallDeployment(t)
	const callers, batches = 8, 50
	want := make([][]compress.Segment, batches)
	for i := range want {
		res, err := dep.RunBatchObserved(context.Background(), w, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = copySegments(res)
		res.Release()
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				res, err := dep.RunBatchData(context.Background(), w.Algorithm, w.Dataset.Batch(i, w.BatchBytes), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Segments) != len(want[i]) {
					t.Errorf("batch %d: %d segments, lone caller got %d", i, len(res.Segments), len(want[i]))
					return
				}
				for j, s := range res.Segments {
					if s.BitLen != want[i][j].BitLen || !bytes.Equal(s.Compressed, want[i][j].Compressed) {
						t.Errorf("batch %d segment %d differs from the lone caller's bytes", i, j)
						return
					}
				}
				res.Release()
			}
		}()
	}
	wg.Wait()
}

// TestRunBatchDataZeroAlloc pins the RunBatchData rung at zero steady-state
// allocations for a 4 KiB batch whose result the caller Releases.
func TestRunBatchDataZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	w, dep := smallDeployment(t)
	b := w.Dataset.Batch(0, w.BatchBytes)
	ctx := context.Background()
	run := func() {
		res, err := dep.RunBatchData(ctx, w.Algorithm, b, nil)
		if err != nil || res.TotalBits == 0 {
			t.Fatalf("empty output: %v", err)
		}
		res.Release()
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("RunBatchData allocated %.1f times per batch, want 0", allocs)
	}
}

// TestPaperBatchKeepsTwelveSlices pins the slice rule at the paper's batch
// size: a 932 800 B batch through an rk3399 CStream deployment is cut into
// twice the core count and is byte-identical, segment by segment, to the
// executor run with 12 slices directly, so serve-large's bytes cannot drift.
func TestPaperBatchKeepsTwelveSlices(t *testing.T) {
	pl := newPlanner(t)
	for _, alg := range []compress.Algorithm{compress.NewTcomp32(), compress.NewTdic32(), compress.NewLZ4()} {
		w := NewWorkload(alg, dataset.NewRovio(1))
		w.BatchBytes = 932800
		dep, err := pl.Deploy(w, MechCStream)
		if err != nil {
			t.Fatal(err)
		}
		workers, slices := dep.StageWorkers(alg)
		if slices != 12 {
			t.Fatalf("%s: %d slices at B=932800, want 12", alg.Name(), slices)
		}
		got, err := dep.RunBatchObserved(context.Background(), w, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := compress.RunPipeline(alg, w.Dataset.Batch(0, w.BatchBytes), 12, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Segments) != 12 || len(want.Segments) != 12 {
			t.Fatalf("%s: %d and %d segments, want 12", alg.Name(), len(got.Segments), len(want.Segments))
		}
		for i, g := range got.Segments {
			e := want.Segments[i]
			if g.BitLen != e.BitLen || g.OrigLen != e.OrigLen || !bytes.Equal(g.Compressed, e.Compressed) {
				t.Fatalf("%s segment %d differs from the 12-slice executor's", alg.Name(), i)
			}
		}
		got.Release()
		want.Release()
	}
}
