package costmodel

import (
	"math"
	"testing"

	"repro/internal/amp"
)

// tcomp32RovioGraph is the paper's running example: t0 (fused read+encode,
// κ=320, 300 instr/B) feeding t1 (write, κ=102, 130 instr/B) with ~1.25
// bytes moved per stream byte.
func tcomp32RovioGraph() *Graph {
	return &Graph{
		Tasks: []Task{
			{ID: 0, Name: "t0", InstrPerByte: 300, Kappa: 320, Replicas: 1},
			{ID: 1, Name: "t1", InstrPerByte: 130, Kappa: 102, Replicas: 1},
		},
		Edges:      []Edge{{From: 0, To: 1, BytesPerStreamByte: 1.25}},
		BatchBytes: 932800,
	}
}

func newTestModel(t *testing.T) (*amp.Machine, *Model) {
	t.Helper()
	m := amp.NewRK3399()
	mod, err := NewModel(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m, mod
}

// TestNewModelAllocs pins the instantiation step's allocation count: the
// four roofline fits share one Fitter's tables and allocate nothing per
// breakpoint or run.
func TestNewModelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	m := amp.NewRK3399()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewModel(m, 42); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 72 {
		t.Fatalf("NewModel allocated %.0f times, want ≤ 72", allocs)
	}
}

func TestGraphValidate(t *testing.T) {
	g := tcomp32RovioGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tcomp32RovioGraph()
	bad.Tasks[1].ID = 5
	if bad.Validate() == nil {
		t.Fatal("expected ID error")
	}
	bad2 := tcomp32RovioGraph()
	bad2.Edges[0] = Edge{From: 1, To: 0, BytesPerStreamByte: 1}
	if bad2.Validate() == nil {
		t.Fatal("expected topological error")
	}
	bad3 := tcomp32RovioGraph()
	bad3.BatchBytes = 0
	if bad3.Validate() == nil {
		t.Fatal("expected batch error")
	}
	bad4 := tcomp32RovioGraph()
	bad4.Tasks[0].Replicas = 0
	if bad4.Validate() == nil {
		t.Fatal("expected replica error")
	}
}

func TestGraphInputs(t *testing.T) {
	g := tcomp32RovioGraph()
	if in := g.Inputs(1); len(in) != 1 || in[0].From != 0 {
		t.Fatalf("Inputs(1) = %v", in)
	}
	if in := g.Inputs(0); len(in) != 0 {
		t.Fatalf("Inputs(0) = %v", in)
	}
	if in := g.Inputs(2); in != nil {
		t.Fatalf("Inputs past the last task = %v", in)
	}

	// A replicated graph has many edges per consumer. Its index is built
	// by whichever of several concurrent first calls gets there, and every
	// task's inputs are the Edges that feed it, in Edges order.
	r := BuildGraph([]LogicalTask{
		{Name: "a", InstrPerByte: 10, Kappa: 5, Replicas: 3},
		{Name: "b", InstrPerByte: 20, Kappa: 5, InPerByte: 1, Replicas: 4},
		{Name: "c", InstrPerByte: 30, Kappa: 5, InPerByte: 0.5, Replicas: 2},
	}, 4096)
	done := make(chan [][]Edge)
	for k := 0; k < 4; k++ {
		go func() {
			var got [][]Edge
			for id := range r.Tasks {
				got = append(got, r.Inputs(id))
			}
			done <- got
		}()
	}
	for k := 0; k < 4; k++ {
		got := <-done
		for id := range r.Tasks {
			var want []Edge
			for _, e := range r.Edges {
				if e.To == id {
					want = append(want, e)
				}
			}
			if len(got[id]) != len(want) {
				t.Fatalf("Inputs(%d) = %v, want %v", id, got[id], want)
			}
			for i := range want {
				if got[id][i] != want[i] {
					t.Fatalf("Inputs(%d) = %v, want %v", id, got[id], want)
				}
			}
		}
	}
}

func TestPlanClone(t *testing.T) {
	p := Plan{1, 2, 3}
	q := p.Clone()
	q[0] = 9
	if p[0] != 1 {
		t.Fatal("Clone aliases")
	}
	if p.String() == "" {
		t.Fatal("empty String")
	}
}

// The model must reproduce the paper's Table V estimates for the optimal
// tcomp32 plan (t0 on a big core, t1 on a little core): L_est ≈ 23.2 µs/B,
// E_est ≈ 0.43 µJ/B.
func TestTableVTcomp32Estimate(t *testing.T) {
	m, mod := newTestModel(t)
	g := tcomp32RovioGraph()
	p := Plan{m.BigCores()[0], m.LittleCores()[0]}
	est := mod.Estimate(g, p, 26)
	if !est.Feasible {
		t.Fatal("optimal plan must be feasible under 26 µs/B")
	}
	if math.Abs(est.LatencyPerByte-23.2) > 1.5 {
		t.Fatalf("L_est = %.2f, want ≈23.2", est.LatencyPerByte)
	}
	if math.Abs(est.EnergyPerByte-0.43) > 0.05 {
		t.Fatalf("E_est = %.3f, want ≈0.43", est.EnergyPerByte)
	}
}

// Ground truth for the same plan: L_pro ≈ 21.7–23.3, E_pro ≈ 0.40–0.48, with
// model-vs-measurement relative error under ~15% (Table V).
func TestTableVTcomp32GroundTruth(t *testing.T) {
	m, mod := newTestModel(t)
	g := tcomp32RovioGraph()
	p := Plan{m.BigCores()[0], m.LittleCores()[0]}
	est := mod.Estimate(g, p, 26)
	ex := &Executor{M: m} // noiseless ground truth
	meas := ex.Run(g, p)
	relL := math.Abs(meas.LatencyPerByte-est.LatencyPerByte) / meas.LatencyPerByte
	relE := math.Abs(meas.EnergyPerByte-est.EnergyPerByte) / meas.EnergyPerByte
	if relL > 0.15 {
		t.Fatalf("latency relative error %.3f (est %.2f, meas %.2f)", relL, est.LatencyPerByte, meas.LatencyPerByte)
	}
	if relE > 0.20 {
		t.Fatalf("energy relative error %.3f (est %.3f, meas %.3f)", relE, est.EnergyPerByte, meas.EnergyPerByte)
	}
}

func TestEstimateCoLocationRemovesComm(t *testing.T) {
	m, mod := newTestModel(t)
	g := tcomp32RovioGraph()
	bigs := m.BigCores()
	together := mod.Estimate(g, Plan{bigs[0], bigs[0]}, 1e9)
	apart := mod.Estimate(g, Plan{bigs[0], bigs[1]}, 1e9)
	// Co-located tasks pay no communication energy; same core type keeps
	// the computation term identical.
	if apart.PerTaskEnergy[1] <= together.PerTaskEnergy[1] {
		t.Fatal("cross-core placement must add communication energy")
	}
	// And no communication latency either.
	if together.PerTaskLatency[1] != together.CoreBusy[bigs[0]] {
		t.Fatal("co-located task must pay no communication latency")
	}
}

func TestEstimateCapacityConstraint(t *testing.T) {
	m, mod := newTestModel(t)
	g := tcomp32RovioGraph()
	little := m.LittleCores()[0]
	// Both tasks on one little core: busy = 32.6+21.7 ≈ 54 µs/B > 26.
	est := mod.Estimate(g, Plan{little, little}, 26)
	if est.Feasible {
		t.Fatalf("overloaded little core must be infeasible (busy %.1f)", est.CoreBusy[little])
	}
}

func TestEstimateAsymmetricCommDirections(t *testing.T) {
	m, mod := newTestModel(t)
	g := tcomp32RovioGraph()
	big, little := m.BigCores()[0], m.LittleCores()[0]
	bigToLittle := mod.Estimate(g, Plan{big, little}, 1e9)
	littleToBig := mod.Estimate(g, Plan{little, big}, 1e9)
	commBL := bigToLittle.PerTaskLatency[1] - bigToLittle.CoreBusy[little]
	commLB := littleToBig.PerTaskLatency[1] - littleToBig.CoreBusy[big]
	if commLB <= commBL {
		t.Fatalf("c2 (little→big, %.2f) must cost more than c1 (big→little, %.2f)", commLB, commBL)
	}
}

func TestReplicationOverheadCharged(t *testing.T) {
	m, mod := newTestModel(t)
	g := &Graph{
		Tasks: []Task{
			{ID: 0, Name: "re#0", InstrPerByte: 215, Kappa: 220, Replicas: 2},
			{ID: 1, Name: "re#1", InstrPerByte: 215, Kappa: 220, Replicas: 2},
		},
		BatchBytes: 932800,
	}
	bigs := m.BigCores()
	est := mod.Estimate(g, Plan{bigs[0], bigs[1]}, 1e9)
	// Table IV: t_re×2 on big cores is ≈0.75 µJ/B versus 0.59 for t_all.
	if math.Abs(est.EnergyPerByte-0.75) > 0.06 {
		t.Fatalf("replicated energy = %.3f, want ≈0.75", est.EnergyPerByte)
	}
	if est.LatencyPerByte > 17 || est.LatencyPerByte < 13 {
		t.Fatalf("replicated latency = %.2f, want ≈15", est.LatencyPerByte)
	}
}

func TestCalibrationScales(t *testing.T) {
	m, mod := newTestModel(t)
	g := tcomp32RovioGraph()
	p := Plan{m.BigCores()[0], m.LittleCores()[0]}
	base := mod.Estimate(g, p, 1e9)
	mod.SetCalibration(1.5, 1.0)
	scaled := mod.Estimate(g, p, 1e9)
	if scaled.LatencyPerByte <= base.LatencyPerByte {
		t.Fatal("instruction scale must stretch latency")
	}
	is, ks := mod.Calibration()
	if is != 1.5 || ks != 1.0 {
		t.Fatalf("Calibration = %f %f", is, ks)
	}
	// Invalid values ignored.
	mod.SetCalibration(-1, 0)
	is, ks = mod.Calibration()
	if is != 1.5 || ks != 1.0 {
		t.Fatal("invalid calibration must be ignored")
	}
}

func TestExecutorNoiseSpreadsMeasurements(t *testing.T) {
	m, _ := newTestModel(t)
	g := tcomp32RovioGraph()
	p := Plan{m.BigCores()[0], m.LittleCores()[0]}
	ex := &Executor{M: m, Sampler: amp.NewSampler(7)}
	ms := ex.RunRepeated(g, p, 100)
	if len(ms) != 100 {
		t.Fatalf("runs = %d", len(ms))
	}
	min, max := math.Inf(1), 0.0
	for _, mm := range ms {
		if mm.LatencyPerByte < min {
			min = mm.LatencyPerByte
		}
		if mm.LatencyPerByte > max {
			max = mm.LatencyPerByte
		}
	}
	if max <= min {
		t.Fatal("noisy measurements must vary")
	}
	if max/min > 2 {
		t.Fatalf("noise too wild: min %.2f max %.2f", min, max)
	}
}

func TestExecutorMigrationOverhead(t *testing.T) {
	m, _ := newTestModel(t)
	g := tcomp32RovioGraph()
	p := Plan{m.BigCores()[0], m.LittleCores()[0]}
	plain := &Executor{M: m}
	migratory := &Executor{M: m, MigrationEnergyUJPerByte: 0.1, OverheadEnergyPerByte: 0.02}
	a := plain.Run(g, p)
	b := migratory.Run(g, p)
	if b.EnergyPerByte-a.EnergyPerByte < 0.11 {
		t.Fatalf("overheads not charged: %f vs %f", a.EnergyPerByte, b.EnergyPerByte)
	}
}

func TestExecutorMeterQuantizes(t *testing.T) {
	m, _ := newTestModel(t)
	g := tcomp32RovioGraph()
	p := Plan{m.BigCores()[0], m.LittleCores()[0]}
	ex := &Executor{M: m, Meter: amp.NewMeter(3)}
	meas := ex.Run(g, p)
	if meas.EnergyPerByte <= 0 {
		t.Fatal("metered energy must be positive")
	}
}

func TestEstimateMatchesExecutorShape(t *testing.T) {
	// Across several plans, the model must rank plans like the ground truth
	// (that is what makes p_opt transfer to the real platform).
	m, mod := newTestModel(t)
	g := tcomp32RovioGraph()
	ex := &Executor{M: m}
	plans := []Plan{
		{4, 0}, {4, 4}, {0, 4}, {0, 1}, {4, 5}, {5, 0},
	}
	for i := 0; i < len(plans); i++ {
		for j := i + 1; j < len(plans); j++ {
			ei := mod.Estimate(g, plans[i], 1e9).EnergyPerByte
			ej := mod.Estimate(g, plans[j], 1e9).EnergyPerByte
			ti := ex.Run(g, plans[i]).EnergyPerByte
			tj := ex.Run(g, plans[j]).EnergyPerByte
			// Only require agreement when the gap is non-trivial (>8%).
			if math.Abs(ti-tj)/math.Max(ti, tj) > 0.08 {
				if (ei < ej) != (ti < tj) {
					t.Fatalf("model misranks plans %v (est %.3f/meas %.3f) vs %v (est %.3f/meas %.3f)",
						plans[i], ei, ti, plans[j], ej, tj)
				}
			}
		}
	}
}
