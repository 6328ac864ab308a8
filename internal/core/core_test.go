package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/dataset"
)

func tcomp32Rovio() Workload {
	return NewWorkload(compress.NewTcomp32(), dataset.NewRovio(1))
}

func newPlanner(t *testing.T) *Planner {
	t.Helper()
	pl, err := NewPlanner(amp.NewRK3399(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestWorkloadName(t *testing.T) {
	if got := tcomp32Rovio().Name(); got != "tcomp32-Rovio" {
		t.Fatalf("Name = %s", got)
	}
}

// TestProfileWorkloadIndependentOfParticipants pins that generating the
// proxy batches on several goroutines changes no profile. At B = 256 KiB,
// three batches on two Ps run as a two-batch window and a one-batch window;
// the profile must equal the one-participant profile, for a stateless and a
// stateful kernel.
func TestProfileWorkloadIndependentOfParticipants(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, alg := range []compress.Algorithm{compress.NewTcomp32(), compress.NewLZ4()} {
		w := NewWorkload(alg, dataset.NewMicro(1))
		w.BatchBytes = 256 << 10
		runtime.GOMAXPROCS(1)
		serial := ProfileWorkload(w, 3, 0)
		runtime.GOMAXPROCS(2)
		if parallel := ProfileWorkload(w, 3, 0); !reflect.DeepEqual(parallel, serial) {
			t.Fatalf("%s: profile with two participants\n%+v\nwant\n%+v", w.Name(), parallel, serial)
		}
	}
}

func TestProfileWorkloadTcomp32(t *testing.T) {
	w := tcomp32Rovio()
	w.BatchBytes = 64 * 1024 // keep the test fast
	p := ProfileWorkload(w, 3, 0)
	if len(p.Steps) != 3 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	// Paper anchors: fused read+encode ≈ 300 instr/B at κ≈320; write ≈ 130
	// instr/B at κ≈102.
	var read, enc, wr StepProfile
	for _, s := range p.Steps {
		switch s.Kind {
		case compress.StepRead:
			read = s
		case compress.StepEncode:
			enc = s
		case compress.StepWrite:
			wr = s
		}
	}
	t0Instr := read.InstrPerByte + enc.InstrPerByte
	if math.Abs(t0Instr-300)/300 > 0.10 {
		t.Fatalf("t0 instructions/byte = %.1f, want ≈300", t0Instr)
	}
	if math.Abs(wr.InstrPerByte-130)/130 > 0.10 {
		t.Fatalf("t1 instructions/byte = %.1f, want ≈130", wr.InstrPerByte)
	}
	if math.Abs(wr.Kappa-102)/102 > 0.10 {
		t.Fatalf("t1 κ = %.1f, want ≈102", wr.Kappa)
	}
	if p.Ratio <= 0 || p.Ratio >= 1 {
		t.Fatalf("ratio = %f", p.Ratio)
	}
}

func TestDecomposeTcomp32MatchesPaper(t *testing.T) {
	w := tcomp32Rovio()
	w.BatchBytes = 64 * 1024
	p := ProfileWorkload(w, 3, 0)
	tasks := Decompose(p, amp.NewRK3399())
	if len(tasks) != 2 {
		t.Fatalf("tcomp32 should decompose into {t0, t1}, got %d tasks", len(tasks))
	}
	// t0 = fused read+encode at κ≈320; t1 = write at κ≈102 (Table IV).
	if math.Abs(tasks[0].Kappa-320)/320 > 0.10 {
		t.Fatalf("t0 κ = %.1f, want ≈320", tasks[0].Kappa)
	}
	if math.Abs(tasks[1].Kappa-102)/102 > 0.10 {
		t.Fatalf("t1 κ = %.1f, want ≈102", tasks[1].Kappa)
	}
	if tasks[1].InPerByte <= 1.0 || tasks[1].InPerByte > 1.6 {
		t.Fatalf("t1 input volume = %.2f B/B", tasks[1].InPerByte)
	}
}

func TestDecomposeTaskCounts(t *testing.T) {
	// lz4's byte-granular steps are heavy enough that all three of its cut
	// points stay separate; the word-granular algorithms split front/write.
	m := amp.NewRK3399()
	cases := map[string]int{"tcomp32": 2, "tdic32": 2, "lz4": 3}
	for name, want := range cases {
		alg, _ := compress.ByName(name)
		w := NewWorkload(alg, dataset.NewRovio(1))
		w.BatchBytes = 64 * 1024
		p := ProfileWorkload(w, 2, 0)
		tasks := Decompose(p, m)
		if len(tasks) != want {
			t.Fatalf("%s: %d tasks, want %d", name, len(tasks), want)
		}
	}
}

func TestDecomposeNeverBelowTwoTasks(t *testing.T) {
	// Every evaluated workload must expose at least a front/write split —
	// otherwise the fine-grained mechanisms degenerate to coarse-grained.
	m := amp.NewRK3399()
	for _, alg := range compress.All() {
		for _, g := range dataset.All(4) {
			w := NewWorkload(alg, g)
			w.BatchBytes = 64 * 1024
			p := ProfileWorkload(w, 2, 0)
			tasks := Decompose(p, m)
			if len(tasks) < 2 {
				t.Fatalf("%s-%s: decomposed to %d task(s)", alg.Name(), g.Name(), len(tasks))
			}
		}
	}
}

func TestDecomposeWhole(t *testing.T) {
	w := tcomp32Rovio()
	w.BatchBytes = 64 * 1024
	p := ProfileWorkload(w, 2, 0)
	tasks := DecomposeWhole(p)
	if len(tasks) != 1 {
		t.Fatalf("whole = %d tasks", len(tasks))
	}
	// κ of the whole procedure ≈ 200-220 (paper Section VII-A / Table IV).
	if tasks[0].Kappa < 180 || tasks[0].Kappa > 240 {
		t.Fatalf("whole κ = %.1f, want ≈200", tasks[0].Kappa)
	}
}

func TestBuildGraphReplication(t *testing.T) {
	tasks := []LogicalTask{
		{Name: "a", InstrPerByte: 100, Kappa: 100, OutPerByte: 1.2, Replicas: 2},
		{Name: "b", InstrPerByte: 50, Kappa: 50, InPerByte: 1.2, Replicas: 1},
	}
	g := BuildGraph(tasks, 1024)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Tasks) != 3 {
		t.Fatalf("tasks = %d", len(g.Tasks))
	}
	// Replicas split the instruction load.
	if g.Tasks[0].InstrPerByte != 50 || g.Tasks[1].InstrPerByte != 50 {
		t.Fatalf("replica split wrong: %+v", g.Tasks[:2])
	}
	// Bipartite edges 2×1, each carrying half the logical volume.
	if len(g.Edges) != 2 {
		t.Fatalf("edges = %v", g.Edges)
	}
	for _, e := range g.Edges {
		if math.Abs(e.BytesPerStreamByte-0.6) > 1e-9 {
			t.Fatalf("edge volume = %f", e.BytesPerStreamByte)
		}
	}
}

func TestLogicalOf(t *testing.T) {
	tasks := []LogicalTask{{Replicas: 2}, {Replicas: 1}, {Replicas: 3}}
	wants := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 5: 2}
	for g, want := range wants {
		if got := logicalOf(tasks, g); got != want {
			t.Fatalf("logicalOf(%d) = %d, want %d", g, got, want)
		}
	}
}

// The paper's headline scheduling outcome: CStream puts t0 on a big core and
// t1 on a little core for tcomp32-Rovio under L_set = 26.
func TestCStreamDeploymentTcomp32Rovio(t *testing.T) {
	pl := newPlanner(t)
	w := tcomp32Rovio()
	dep, err := pl.Deploy(w, MechCStream)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Feasible {
		t.Fatal("CStream must meet L_set=26 on tcomp32-Rovio")
	}
	if len(dep.Graph.Tasks) != 2 {
		t.Fatalf("expected no replication, got %d tasks", len(dep.Graph.Tasks))
	}
	if pl.Machine.Core(dep.Plan[0]).Type != amp.Big {
		t.Fatalf("t0 must go to a big core: plan %v", dep.Plan)
	}
	if pl.Machine.Core(dep.Plan[1]).Type != amp.Little {
		t.Fatalf("t1 must go to a little core: plan %v", dep.Plan)
	}
	// Table V: L_est ≈ 23.2, E_est ≈ 0.43.
	if math.Abs(dep.Estimate.LatencyPerByte-23.2) > 2.0 {
		t.Fatalf("L_est = %.2f", dep.Estimate.LatencyPerByte)
	}
	if math.Abs(dep.Estimate.EnergyPerByte-0.43) > 0.06 {
		t.Fatalf("E_est = %.3f", dep.Estimate.EnergyPerByte)
	}
}

func TestAllMechanismsDeploy(t *testing.T) {
	pl := newPlanner(t)
	w := tcomp32Rovio()
	prof := ProfileWorkload(w, 3, 0)
	for _, mech := range append(Mechanisms(), BreakdownFactors()...) {
		dep, err := pl.DeployProfile(w, prof, mech)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if len(dep.Plan) != len(dep.Graph.Tasks) {
			t.Fatalf("%s: plan/graph mismatch", mech)
		}
		if dep.Executor == nil {
			t.Fatalf("%s: no executor", mech)
		}
		if err := dep.Graph.Validate(); err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
	}
	if _, err := pl.DeployProfile(w, prof, "nope"); err == nil {
		t.Fatal("unknown mechanism must fail")
	}
}

func TestBOUsesOnlyBigCores(t *testing.T) {
	pl := newPlanner(t)
	dep, err := pl.Deploy(tcomp32Rovio(), MechBO)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range dep.Plan {
		if pl.Machine.Core(c).Type != amp.Big {
			t.Fatalf("BO plan uses little core: %v", dep.Plan)
		}
	}
}

func TestLOUsesOnlyLittleCores(t *testing.T) {
	pl := newPlanner(t)
	dep, err := pl.Deploy(tcomp32Rovio(), MechLO)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range dep.Plan {
		if pl.Machine.Core(c).Type != amp.Little {
			t.Fatalf("LO plan uses big core: %v", dep.Plan)
		}
	}
}

// CStream must beat every alternative mechanism on energy for the paper's
// default workload (the Fig. 7 headline).
func TestCStreamLowestEnergy(t *testing.T) {
	pl := newPlanner(t)
	w := tcomp32Rovio()
	prof := ProfileWorkload(w, 3, 0)
	var cstream float64
	others := map[string]float64{}
	for _, mech := range Mechanisms() {
		dep, err := pl.DeployProfile(w, prof, mech)
		if err != nil {
			t.Fatal(err)
		}
		meas := dep.Executor.Run(dep.Graph, dep.Plan)
		if mech == MechCStream {
			cstream = meas.EnergyPerByte
		} else {
			others[mech] = meas.EnergyPerByte
		}
	}
	for mech, e := range others {
		if cstream >= e {
			t.Errorf("CStream (%.3f µJ/B) must beat %s (%.3f µJ/B)", cstream, mech, e)
		}
	}
}

// CStream never violates the latency constraint over 100 repetitions
// (Fig. 8: CLCV of CStream is always zero).
func TestCStreamZeroCLCV(t *testing.T) {
	pl := newPlanner(t)
	for _, algName := range []string{"tcomp32", "tdic32", "lz4"} {
		alg, _ := compress.ByName(algName)
		w := NewWorkload(alg, dataset.NewRovio(1))
		dep, err := pl.Deploy(w, MechCStream)
		if err != nil {
			t.Fatal(err)
		}
		if !dep.Feasible {
			t.Fatalf("%s: CStream infeasible at default L_set", algName)
		}
		for i, meas := range dep.Executor.RunRepeated(dep.Graph, dep.Plan, 100) {
			if meas.LatencyPerByte > w.LSet {
				t.Fatalf("%s: run %d violated (%.2f > %.0f)", algName, i, meas.LatencyPerByte, w.LSet)
			}
		}
	}
}

func TestStageWorkers(t *testing.T) {
	pl := newPlanner(t)
	w := tcomp32Rovio()
	dep, err := pl.Deploy(w, MechCStream)
	if err != nil {
		t.Fatal(err)
	}
	workers, slices := dep.StageWorkers(w.Algorithm)
	if len(workers) != 2 {
		t.Fatalf("workers = %v", workers)
	}
	if slices < 1 {
		t.Fatalf("slices = %d", slices)
	}
}

func TestRunBatchRoundTrip(t *testing.T) {
	pl := newPlanner(t)
	w := tcomp32Rovio()
	var dep *Deployment
	// One slice per 64 KiB of batch: a single segment, then several.
	for _, tc := range []struct{ batchBytes, segments int }{{64 << 10, 1}, {3*(64<<10) + 8, 3}} {
		w.BatchBytes = tc.batchBytes
		var err error
		dep, err = pl.Deploy(w, MechCStream)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dep.RunBatchObserved(context.Background(), w, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Segments) != tc.segments {
			t.Fatalf("%d B: %d segments, want %d", tc.batchBytes, len(res.Segments), tc.segments)
		}
		got, err := compress.DecodeSegments(w.Algorithm.Name(), res)
		if err != nil {
			t.Fatal(err)
		}
		want := w.Dataset.Batch(0, w.BatchBytes).Bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("%d B: functional pipeline round trip failed", tc.batchBytes)
		}
	}
	// Wrong workload rejected.
	other := NewWorkload(compress.NewLZ4(), dataset.NewRovio(1))
	if _, err := dep.RunBatchObserved(context.Background(), other, 0, nil); err == nil {
		t.Fatal("mismatched workload must fail")
	}
}

// --- adaptation (Fig. 9) ---

func TestAdaptiveRecoversFromWorkloadShift(t *testing.T) {
	pl := newPlanner(t)
	micro := dataset.NewMicro(1)
	micro.DynamicRange = 500
	w := NewWorkload(compress.NewTcomp32(), micro)

	ad, err := NewAdaptive(pl, w, true)
	if err != nil {
		t.Fatal(err)
	}
	var reports []BatchReport
	for i := 0; i < 15; i++ {
		if i == 5 {
			micro.DynamicRange = 50000 // the Fig. 9 shift
		}
		reports = append(reports, ad.ProcessBatch(i))
	}
	// Before the shift: no violations.
	for _, r := range reports[:5] {
		if r.Violated {
			t.Fatalf("batch %d violated before the shift", r.Batch)
		}
	}
	// The shift must be noticed (violation or calibration within 2 batches).
	noticed := false
	for _, r := range reports[5:8] {
		if r.Violated || r.Calibrating {
			noticed = true
		}
	}
	if !noticed {
		t.Fatal("workload shift went unnoticed")
	}
	// A replan must happen, and the tail must be violation-free.
	replanned := false
	for _, r := range reports[5:] {
		if r.Replanned {
			replanned = true
		}
	}
	if !replanned {
		t.Fatal("regulation never replanned")
	}
	for _, r := range reports[10:] {
		if r.Violated {
			t.Fatalf("batch %d still violating after readaptation", r.Batch)
		}
	}
	// The new plan costs more energy than the pre-shift one (Fig. 9).
	pre := reports[2].EnergyPerByte
	post := reports[14].EnergyPerByte
	if post <= pre {
		t.Fatalf("post-shift energy %.3f should exceed pre-shift %.3f", post, pre)
	}
}

func TestAdaptiveWithoutRegulationKeepsViolating(t *testing.T) {
	pl := newPlanner(t)
	micro := dataset.NewMicro(1)
	micro.DynamicRange = 500
	w := NewWorkload(compress.NewTcomp32(), micro)
	ad, err := NewAdaptive(pl, w, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ad.ProcessBatch(i)
	}
	micro.DynamicRange = 50000
	violations := 0
	for i := 5; i < 12; i++ {
		if ad.ProcessBatch(i).Violated {
			violations++
		}
	}
	if violations < 5 {
		t.Fatalf("without regulation most post-shift batches must violate, got %d/7", violations)
	}
}

// The statistics-triggered controller must react within the shift batch
// itself: no violations at all, unlike the PID loop's 2-3 violating batches.
func TestStatsAdaptiveReactsImmediately(t *testing.T) {
	pl := newPlanner(t)
	micro := dataset.NewMicro(1)
	micro.DynamicRange = 500
	w := NewWorkload(compress.NewTcomp32(), micro)
	ad, err := NewStatsAdaptive(pl, w)
	if err != nil {
		t.Fatal(err)
	}
	replannedAt := -1
	for i := 0; i < 10; i++ {
		if i == 5 {
			micro.DynamicRange = 50000
		}
		rep := ad.ProcessBatch(i)
		if rep.Replanned && replannedAt < 0 {
			replannedAt = i
		}
		if rep.Violated {
			t.Fatalf("batch %d violated — the stats controller should replan before executing", i)
		}
	}
	if replannedAt != 5 {
		t.Fatalf("replanned at batch %d, want 5 (the shift batch)", replannedAt)
	}
}

func TestStatsAdaptiveStableWorkloadNoReplan(t *testing.T) {
	pl := newPlanner(t)
	w := tcomp32Rovio()
	ad, err := NewStatsAdaptive(pl, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if rep := ad.ProcessBatch(i); rep.Replanned {
			t.Fatalf("spurious replan at batch %d on a stable stream", i)
		}
	}
}

func TestMeanBitWidthTracksRange(t *testing.T) {
	lo := dataset.NewMicro(1)
	lo.DynamicRange = 500
	hi := dataset.NewMicro(1)
	hi.DynamicRange = 50000
	sLo := meanBitWidth(lo.Batch(0, 64*1024).Bytes())
	sHi := meanBitWidth(hi.Batch(0, 64*1024).Bytes())
	if sHi <= sLo*1.25 {
		t.Fatalf("statistic insensitive to range: %.2f vs %.2f", sLo, sHi)
	}
	if meanBitWidth(nil) != 0 {
		t.Fatal("empty data must yield 0")
	}
}

func TestTuneBatchSize(t *testing.T) {
	pl := newPlanner(t)
	w := tcomp32Rovio()
	best, energy, err := TuneBatchSize(pl, w, []int{256, 4096, 65536, 262144})
	if err != nil {
		t.Fatal(err)
	}
	// Large batches amortize per-batch overheads (Fig. 11): the winner must
	// be one of the larger candidates and cost less than the smallest.
	if best < 65536 {
		t.Fatalf("best B = %d, expected a large batch", best)
	}
	small := w
	small.BatchBytes = 256
	dep, err := pl.Deploy(small, MechCStream)
	if err != nil {
		t.Fatal(err)
	}
	if energy >= dep.Estimate.EnergyPerByte {
		t.Fatalf("tuned energy %.3f not below small-batch %.3f", energy, dep.Estimate.EnergyPerByte)
	}
	if _, _, err := TuneBatchSize(pl, w, nil); err == nil {
		t.Fatal("empty candidates must fail")
	}
	impossible := w
	impossible.LSet = 0.1
	if _, _, err := TuneBatchSize(pl, impossible, []int{4096}); err == nil {
		t.Fatal("unsatisfiable constraint must fail")
	}
}
