package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/dataset"
)

func multiWorkloads(t *testing.T) []Workload {
	t.Helper()
	var out []Workload
	for _, spec := range [][2]string{{"tcomp32", "Rovio"}, {"lz4", "Stock"}, {"tdic32", "Micro"}} {
		a, err := compress.ByName(spec[0])
		if err != nil {
			t.Fatal(err)
		}
		g, err := dataset.ByName(spec[1], 7)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorkload(a, g)
		w.BatchBytes = 64 << 10
		out = append(out, w)
	}
	return out
}

func TestRunMultiStream(t *testing.T) {
	pl, err := NewPlanner(amp.NewRK3399(), 7)
	if err != nil {
		t.Fatal(err)
	}
	pl.EnablePlanCache(32)
	ws := multiWorkloads(t)

	rep, err := RunMultiStream(context.Background(), pl, ws, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Streams) != len(ws) {
		t.Fatalf("streams = %d, want %d", len(rep.Streams), len(ws))
	}
	if rep.Searches == 0 {
		t.Fatal("expected plan searches on a cold cache")
	}
	for _, s := range rep.Streams {
		if s.Batches != 3 {
			t.Fatalf("%s: batches = %d, want 3", s.Workload, s.Batches)
		}
		if s.MeanLatencyPerByte <= 0 || s.MeanEnergyPerByte <= 0 {
			t.Fatalf("%s: non-positive measurements %+v", s.Workload, s)
		}
		if s.PeakContention < 1 {
			t.Fatalf("%s: contention %f < 1", s.Workload, s.PeakContention)
		}
		if len(s.Plan) == 0 {
			t.Fatalf("%s: empty plan", s.Workload)
		}
	}

	// A second run over the same regimes must be served from the cache.
	rep2, err := RunMultiStream(context.Background(), pl, ws, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHits == 0 {
		t.Fatal("expected cache hits on the second run")
	}
	if rep2.Searches >= rep.Searches {
		t.Fatalf("warm run searched %d times, cold run %d", rep2.Searches, rep.Searches)
	}
}

func TestRunMultiStreamCancel(t *testing.T) {
	pl, err := NewPlanner(amp.NewRK3399(), 7)
	if err != nil {
		t.Fatal(err)
	}
	ws := multiWorkloads(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunMultiStream(ctx, pl, ws, 50, 1)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, s := range rep.Streams {
		if s.Batches != 0 {
			t.Fatalf("%s: processed %d batches after cancellation", s.Workload, s.Batches)
		}
	}
}

// TestAttachMeasuresLikeFreshExecutor pins the restart contract: for every
// golden shape (each mechanism and breakdown factor on the golden
// workloads), an attached handle's first 64 measurements are bit-identical
// to those of an executor seeded afresh by executorFor, even after the
// deployment's own executor has drawn.
func TestAttachMeasuresLikeFreshExecutor(t *testing.T) {
	pl, err := NewPlanner(amp.NewRK3399(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewMultiStreamRuntime(pl)
	shapes := 0
	for _, algName := range []string{"tcomp32", "lz4", "tdic32"} {
		for _, dsName := range []string{"Rovio", "Stock"} {
			alg, err := compress.ByName(algName)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := dataset.ByName(dsName, 3)
			if err != nil {
				t.Fatal(err)
			}
			w := Workload{Algorithm: alg, Dataset: ds, LSet: DefaultLSet, BatchBytes: 32 * 1024}
			prof := ProfileWorkload(w, 2, 0)
			for _, mech := range append(Mechanisms(), BreakdownFactors()...) {
				dep, err := pl.DeployProfile(w, prof, mech)
				if err != nil {
					t.Fatalf("%s %s: %v", mech, w.Name(), err)
				}
				pol, err := lookupPolicy(mech)
				if err != nil {
					t.Fatal(err)
				}
				dep.Executor.RunRepeated(dep.Graph, dep.Plan, 3)
				h, err := rt.Attach(w, dep)
				if err != nil {
					t.Fatal(err)
				}
				fresh := pl.executorFor(pol, w)
				for b := 0; b < 64; b++ {
					bm := h.Simulate()
					want := fresh.Run(dep.Graph, dep.Plan)
					got := h.meas
					same := got.LatencyPerByte == want.LatencyPerByte && got.EnergyPerByte == want.EnergyPerByte &&
						bm.EnergyPerByte == want.EnergyPerByte && bm.LatencyPerByte == want.LatencyPerByte*bm.Contention
					for i := range want.PerTaskLatency {
						same = same && got.PerTaskLatency[i] == want.PerTaskLatency[i] && got.PerTaskEnergy[i] == want.PerTaskEnergy[i]
					}
					if !same || len(got.PerTaskLatency) != len(want.PerTaskLatency) {
						t.Fatalf("%s %s batch %d: handle measured %+v, fresh executor %+v", mech, w.Name(), b, got, want)
					}
				}
				h.Detach()
				shapes++
			}
		}
	}
	if shapes != 60 {
		t.Fatalf("checked %d shapes, want the 60 golden ones", shapes)
	}
}

// TestAttachRefusesForeignExecutor: restarting an executor that is missing,
// or that simulates another machine, would not reproduce the runtime's
// seeding, so Attach refuses both.
func TestAttachRefusesForeignExecutor(t *testing.T) {
	pl, err := NewPlanner(amp.NewRK3399(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w := multiWorkloads(t)[0]
	dep, err := pl.DeployProfile(w, ProfileWorkload(w, 1, 0), MechCStream)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewMultiStreamRuntime(pl)
	noEx := *dep
	noEx.Executor = nil
	if _, err := rt.Attach(w, &noEx); err == nil {
		t.Fatal("Attach accepted a deployment without an executor")
	}
	other := *dep
	ex := *dep.Executor
	ex.M = amp.NewRK3399()
	other.Executor = &ex
	if _, err := rt.Attach(w, &other); err == nil {
		t.Fatal("Attach accepted an executor on another machine")
	}
	if rt.Attached() != 0 {
		t.Fatalf("refused attaches left %d streams attached", rt.Attached())
	}
}

// TestConcurrentAttachRestarts: handles attached at once from several
// goroutines restart one shared deployment executor and read one shared
// graph, and each still measures the fresh executor's sequence.
func TestConcurrentAttachRestarts(t *testing.T) {
	pl, err := NewPlanner(amp.NewRK3399(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w := multiWorkloads(t)[1]
	dep, err := pl.DeployProfile(w, ProfileWorkload(w, 1, 0), MechOS)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := lookupPolicy(MechOS)
	if err != nil {
		t.Fatal(err)
	}
	fresh := pl.executorFor(pol, w)
	want := make([]costmodel.Measurement, 32)
	for i := range want {
		want[i] = fresh.Run(dep.Graph, dep.Plan)
	}
	rt := NewMultiStreamRuntime(pl)
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := rt.Attach(w, dep)
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Detach()
			for i := range want {
				h.measure()
				if h.meas.LatencyPerByte != want[i].LatencyPerByte || h.meas.EnergyPerByte != want[i].EnergyPerByte {
					t.Errorf("batch %d: measured %+v, fresh executor %+v", i, h.meas, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
