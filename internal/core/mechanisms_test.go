package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/policy"
	"repro/internal/sched"
)

// CS adapts its replication and placement to L_set (it is model-guided),
// unlike OS/RR/BO/LO.
func TestCSAdaptsToLSet(t *testing.T) {
	pl := newPlanner(t)
	w := tcomp32Rovio()
	prof := ProfileWorkload(w, 3, 0)

	tight := w
	tight.LSet = 16
	loose := w
	loose.LSet = 40

	dTight, err := pl.DeployProfile(tight, prof, MechCS)
	if err != nil {
		t.Fatal(err)
	}
	dLoose, err := pl.DeployProfile(loose, prof, MechCS)
	if err != nil {
		t.Fatal(err)
	}
	if dLoose.Estimate.EnergyPerByte > dTight.Estimate.EnergyPerByte+1e-9 {
		t.Fatalf("CS should save energy under a loose constraint: %.3f vs %.3f",
			dLoose.Estimate.EnergyPerByte, dTight.Estimate.EnergyPerByte)
	}
}

// CS cannot reach CStream's energy: coarse granularity hides the per-step
// affinities.
func TestCSWorseThanCStream(t *testing.T) {
	pl := newPlanner(t)
	w := tcomp32Rovio()
	prof := ProfileWorkload(w, 3, 0)
	cs, err := pl.DeployProfile(w, prof, MechCS)
	if err != nil {
		t.Fatal(err)
	}
	cstream, err := pl.DeployProfile(w, prof, MechCStream)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Estimate.EnergyPerByte <= cstream.Estimate.EnergyPerByte {
		t.Fatalf("CS (%.3f) should cost more than CStream (%.3f)",
			cs.Estimate.EnergyPerByte, cstream.Estimate.EnergyPerByte)
	}
}

// OS replication ignores the user's constraint entirely.
func TestOSIgnoresLSet(t *testing.T) {
	pl := newPlanner(t)
	w := tcomp32Rovio()
	prof := ProfileWorkload(w, 3, 0)
	tight := w
	tight.LSet = 12
	loose := w
	loose.LSet = 40
	dTight, err := pl.DeployProfile(tight, prof, MechOS)
	if err != nil {
		t.Fatal(err)
	}
	dLoose, err := pl.DeployProfile(loose, prof, MechOS)
	if err != nil {
		t.Fatal(err)
	}
	if len(dTight.Graph.Tasks) != len(dLoose.Graph.Tasks) {
		t.Fatalf("OS replication must not depend on L_set: %d vs %d tasks",
			len(dTight.Graph.Tasks), len(dLoose.Graph.Tasks))
	}
}

// The energy hill-climb must never return a worse plan than plain
// feasibility-driven scaling.
func TestSearchReplicationNeverWorse(t *testing.T) {
	pl := newPlanner(t)
	for _, alg := range append(compress.All(), compress.Extensions()...) {
		for _, ds := range []string{"Rovio", "Stock"} {
			gen, err := dataset.ByName(ds, 1)
			if err != nil {
				t.Fatal(err)
			}
			w := NewWorkload(alg, gen)
			w.BatchBytes = 64 * 1024
			prof := ProfileWorkload(w, 2, 0)
			fine := Decompose(prof, pl.Machine)

			tasksA := cloneTasks(fine)
			_, _, estBase, feasBase := pl.replicateAndPlaceWith(pl.Model, tasksA, w.BatchBytes, w.LSet,
				func(g *costmodel.Graph) costmodel.Plan {
					return searchPlan(pl, g, w.LSet)
				})
			_, _, _, estClimb, feasClimb := pl.searchReplication(nil, pl.Model, fine, w.BatchBytes, w.LSet)
			if feasBase != feasClimb {
				t.Fatalf("%s-%s: feasibility changed (%v vs %v)", alg.Name(), ds, feasBase, feasClimb)
			}
			if feasBase && estClimb.EnergyPerByte > estBase.EnergyPerByte+1e-9 {
				t.Fatalf("%s-%s: hill-climb worsened energy %.4f -> %.4f",
					alg.Name(), ds, estBase.EnergyPerByte, estClimb.EnergyPerByte)
			}
		}
	}
}

// All mechanisms must deploy every algorithm (including extensions) on every
// dataset without error — broad integration sweep.
func TestDeployMatrix(t *testing.T) {
	pl := newPlanner(t)
	for _, alg := range append(compress.All(), compress.Extensions()...) {
		for _, gen := range dataset.All(3) {
			w := NewWorkload(alg, gen)
			w.BatchBytes = 32 * 1024
			prof := ProfileWorkload(w, 2, 0)
			for _, mech := range Mechanisms() {
				dep, err := pl.DeployProfile(w, prof, mech)
				if err != nil {
					t.Fatalf("%s %s: %v", w.Name(), mech, err)
				}
				if err := dep.Graph.Validate(); err != nil {
					t.Fatalf("%s %s: %v", w.Name(), mech, err)
				}
				meas := dep.Executor.Run(dep.Graph, dep.Plan)
				if meas.EnergyPerByte <= 0 || meas.LatencyPerByte <= 0 {
					t.Fatalf("%s %s: degenerate measurement %+v", w.Name(), mech, meas)
				}
			}
		}
	}
}

// CStream on the Jetson-class platform: plans differ from the rk3399 and the
// framework still beats the single-cluster baselines.
func TestCStreamOnJetson(t *testing.T) {
	jet, err := NewPlanner(amp.NewJetsonTX2(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w := tcomp32Rovio()
	prof := ProfileWorkload(w, 3, 0)
	cstream, err := jet.DeployProfile(w, prof, MechCStream)
	if err != nil {
		t.Fatal(err)
	}
	if !cstream.Feasible {
		t.Fatal("CStream must be feasible on the Jetson")
	}
	bo, err := jet.DeployProfile(w, prof, MechBO)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := jet.DeployProfile(w, prof, MechLO)
	if err != nil {
		t.Fatal(err)
	}
	eC := cstream.Executor.Run(cstream.Graph, cstream.Plan).EnergyPerByte
	eB := bo.Executor.Run(bo.Graph, bo.Plan).EnergyPerByte
	eL := lo.Executor.Run(lo.Graph, lo.Plan).EnergyPerByte
	if eC > eB || eC > eL*1.02 {
		t.Fatalf("CStream (%.3f) should beat BO (%.3f) and LO (%.3f) on Jetson", eC, eB, eL)
	}
}

// Profiling very small batches must not blow up (minimum one tuple).
func TestProfileTinyBatch(t *testing.T) {
	w := tcomp32Rovio()
	w.BatchBytes = 8
	p := ProfileWorkload(w, 2, 0)
	for _, s := range p.Steps {
		if math.IsNaN(s.InstrPerByte) || math.IsInf(s.InstrPerByte, 0) {
			t.Fatalf("step %s: bad instr/byte %f", s.Kind, s.InstrPerByte)
		}
	}
}

// BuildGraph with multi-replica chains: bipartite edges on both sides.
func TestBuildGraphBipartite(t *testing.T) {
	tasks := []LogicalTask{
		{Name: "a", InstrPerByte: 100, Kappa: 100, OutPerByte: 2.0, Replicas: 2},
		{Name: "b", InstrPerByte: 60, Kappa: 60, InPerByte: 2.0, OutPerByte: 1.0, Replicas: 3},
		{Name: "c", InstrPerByte: 30, Kappa: 30, InPerByte: 1.0, Replicas: 1},
	}
	g := BuildGraph(tasks, 4096)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Tasks) != 6 {
		t.Fatalf("tasks = %d", len(g.Tasks))
	}
	// 2×3 + 3×1 edges.
	if len(g.Edges) != 9 {
		t.Fatalf("edges = %d", len(g.Edges))
	}
	// Volume conservation: inbound volume per logical stage must equal the
	// declared InPerByte.
	var intoB, intoC float64
	for _, e := range g.Edges {
		if e.To >= 2 && e.To <= 4 {
			intoB += e.BytesPerStreamByte
		}
		if e.To == 5 {
			intoC += e.BytesPerStreamByte
		}
	}
	if math.Abs(intoB-2.0) > 1e-9 || math.Abs(intoC-1.0) > 1e-9 {
		t.Fatalf("volume not conserved: b=%.3f c=%.3f", intoB, intoC)
	}
}

// Mechanism names are stable API.
func TestMechanismNameSets(t *testing.T) {
	if len(Mechanisms()) != 6 || Mechanisms()[0] != MechCStream {
		t.Fatalf("Mechanisms = %v", Mechanisms())
	}
	if len(BreakdownFactors()) != 4 || BreakdownFactors()[3] != MechAsyComm {
		t.Fatalf("BreakdownFactors = %v", BreakdownFactors())
	}
}

// Deterministic deployments: same seed, same plan.
func TestDeployDeterminism(t *testing.T) {
	w := tcomp32Rovio()
	prof := ProfileWorkload(w, 2, 0)
	for _, mech := range Mechanisms() {
		a, err := newPlanner(t).DeployProfile(w, prof, mech)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPlanner(t).DeployProfile(w, prof, mech)
		if err != nil {
			t.Fatal(err)
		}
		if a.Plan.String() != b.Plan.String() {
			t.Fatalf("%s: plans differ across identical planners: %v vs %v", mech, a.Plan, b.Plan)
		}
	}
}

// searchPlan is a test helper mirroring the CStream placement closure.
func searchPlan(pl *Planner, g *costmodel.Graph, lset float64) costmodel.Plan {
	return sched.Search(pl.Model, g, lset).Plan
}

// TestDeployAsyCompConcurrent deploys many workloads at once under
// +asy-comp., whose communication-blind model the planner builds on first
// use. The profiles are computed first and the deploys released together,
// so every deploy asks for that model at about the same time; each round
// uses a fresh planner, because other shared state can order the first
// accesses by chance. Under -race this checks that the planner builds the
// model once and publishes it safely: one planner is shared by every caller
// (serve's shards included).
func TestDeployAsyCompConcurrent(t *testing.T) {
	var ws []Workload
	for i := 0; i < 3; i++ {
		ws = append(ws, multiWorkloads(t)...)
	}
	profs := make([]*Profile, len(ws))
	for i, w := range ws {
		profs[i] = ProfileWorkload(w, 1, 0)
	}
	for round := 0; round < 8; round++ {
		pl, err := NewPlanner(amp.NewRK3399(), 7)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		errs := make([]error, len(ws))
		var wg sync.WaitGroup
		for i := range ws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				_, errs[i] = pl.DeployProfile(ws[i], profs[i], policy.AsyComp)
			}(i)
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		blind, err := pl.asyCompModel()
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := pl.asyCompModel(); again != blind || !blind.CommBlind {
			t.Fatal("the communication-blind model is not built once")
		}
	}
}
