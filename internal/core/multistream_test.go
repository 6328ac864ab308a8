package core

import (
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

// TestCapacityLedgerContention pins the ledger's arithmetic: a claim's
// contention factor is the worst ratio, over the cores it uses, of the total
// resident load to its own load; releases return every core to 0; and the
// runtime's PeakCoreLoad keeps the high-water mark after the loads are gone.
// The loads are exact binary fractions, so every comparison is exact.
func TestCapacityLedgerContention(t *testing.T) {
	rt := &MultiStreamRuntime{ledger: newCapacityLedger(4)}
	cl := rt.ledger
	a := []float64{2, 0, 1, 0}
	b := []float64{2, 0, 3, 0}
	if f := cl.acquire(a); f != 1 {
		t.Fatalf("exclusive claim: factor %v, want 1", f)
	}
	// Core 0 holds 2+2 against b's 2, core 2 holds 1+3 against b's 3: the
	// worse ratio is core 0's.
	if f := cl.acquire(b); f != 4.0/2 {
		t.Fatalf("shared claim: factor %v, want 2", f)
	}
	if got := rt.PeakCoreLoad(); got != 4 {
		t.Fatalf("peak load %v, want 4", got)
	}
	cl.release(b)
	cl.release(a)
	for c, l := range cl.load {
		if l != 0 {
			t.Fatalf("core %d holds %v after every claim was released", c, l)
		}
	}
	if got := rt.PeakCoreLoad(); got != 4 {
		t.Fatalf("peak load %v after release, want the high-water mark 4", got)
	}
	// A claim on released cores is exclusive again, and so is a claim of
	// nothing.
	if f := cl.acquire([]float64{0, 0, 3, 0}); f != 1 {
		t.Fatalf("claim on released cores: factor %v, want 1", f)
	}
	if f := cl.acquire(make([]float64, 4)); f != 1 {
		t.Fatalf("empty claim: factor %v, want 1", f)
	}
	// a's core 2 now shares with the 3 just claimed: (1+3)/1.
	if f := cl.acquire(a); f != 4.0/1 {
		t.Fatalf("claim beside a resident one: factor %v, want 4", f)
	}
	if got := rt.PeakCoreLoad(); got != 4 {
		t.Fatalf("peak load %v after the loads rose again to 4, want 4", got)
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
					contention := rt.ledger.acquire(h.busy)
					h.measure()
					rt.ledger.release(h.busy)
					bm := h.account(contention)
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
