package sched

import (
	"testing"

	"repro/internal/amp"
	"repro/internal/costmodel"
)

func testGraph() *costmodel.Graph {
	return &costmodel.Graph{
		Tasks: []costmodel.Task{
			{ID: 0, Name: "t0", InstrPerByte: 300, Kappa: 320, Replicas: 1},
			{ID: 1, Name: "t1", InstrPerByte: 130, Kappa: 102, Replicas: 1},
		},
		Edges:      []costmodel.Edge{{From: 0, To: 1, BytesPerStreamByte: 1.25}},
		BatchBytes: 932800,
	}
}

func newModel(t *testing.T) (*amp.Machine, *costmodel.Model) {
	t.Helper()
	m := amp.NewRK3399()
	mod, err := costmodel.NewModel(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m, mod
}

// The paper's headline scheduling decision: under L_set=26 µs/B, the optimal
// plan puts t0 (κ=320) on a big core and t1 (κ=102) on a little core.
func TestSearchFindsPaperOptimalPlan(t *testing.T) {
	m, mod := newModel(t)
	res := Search(mod, testGraph(), 26)
	if !res.Feasible {
		t.Fatal("search must find a feasible plan at L_set=26")
	}
	if m.Core(res.Plan[0]).Type != amp.Big {
		t.Fatalf("t0 should land on a big core, plan=%v", res.Plan)
	}
	if m.Core(res.Plan[1]).Type != amp.Little {
		t.Fatalf("t1 should land on a little core, plan=%v", res.Plan)
	}
	if res.Estimate.EnergyPerByte > 0.50 {
		t.Fatalf("optimal energy %.3f too high", res.Estimate.EnergyPerByte)
	}
}

// With a very loose constraint the optimum shifts toward little cores, and
// energy can only improve or stay equal.
func TestSearchLooseConstraintCheaper(t *testing.T) {
	_, mod := newModel(t)
	g := testGraph()
	tight := Search(mod, g, 26)
	loose := Search(mod, g, 80)
	if !tight.Feasible || !loose.Feasible {
		t.Fatal("both constraints should be satisfiable")
	}
	if loose.Estimate.EnergyPerByte > tight.Estimate.EnergyPerByte+1e-9 {
		t.Fatalf("loose constraint must not cost more energy: %.3f vs %.3f",
			loose.Estimate.EnergyPerByte, tight.Estimate.EnergyPerByte)
	}
}

// An impossible constraint yields the minimal-latency plan, flagged
// infeasible.
func TestSearchInfeasibleFallsBackToMinLatency(t *testing.T) {
	_, mod := newModel(t)
	res := Search(mod, testGraph(), 1.0)
	if res.Feasible {
		t.Fatal("1 µs/B must be infeasible")
	}
	if len(res.Plan) != 2 {
		t.Fatalf("fallback plan missing: %v", res.Plan)
	}
	// The fallback should be the latency-minimal arrangement (both on bigs).
	if res.Estimate.LatencyPerByte > 25 {
		t.Fatalf("fallback latency %.2f not minimal", res.Estimate.LatencyPerByte)
	}
}

func TestSearchNoPruneSameOptimum(t *testing.T) {
	_, mod := newModel(t)
	g := testGraph()
	pruned := Search(mod, g, 26)
	full := SearchNoPrune(mod, g, 26)
	if pruned.Estimate.EnergyPerByte != full.Estimate.EnergyPerByte {
		t.Fatalf("pruning changed the optimum: %.4f vs %.4f",
			pruned.Estimate.EnergyPerByte, full.Estimate.EnergyPerByte)
	}
	if full.PlansExamined < pruned.PlansExamined {
		t.Fatalf("pruning should examine fewer leaves (%d vs %d)",
			pruned.PlansExamined, full.PlansExamined)
	}
}

func TestSearchSymmetryBreaking(t *testing.T) {
	// With 2 tasks on 6 cores there are 36 raw plans; symmetry breaking
	// (4 equivalent littles, 2 equivalent bigs) must examine at most
	// 2 types × (2 types + colocations) ≈ far fewer leaves.
	_, mod := newModel(t)
	res := SearchNoPrune(mod, testGraph(), 1e9)
	if res.PlansExamined >= 36 {
		t.Fatalf("symmetry breaking ineffective: %d leaves", res.PlansExamined)
	}
	if res.PlansExamined < 4 {
		t.Fatalf("suspiciously few leaves: %d", res.PlansExamined)
	}
}

func TestSearchEmptyGraph(t *testing.T) {
	_, mod := newModel(t)
	g := &costmodel.Graph{BatchBytes: 1024}
	res := Search(mod, g, 26)
	if !res.Feasible || len(res.Plan) != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
}

func TestRoundRobin(t *testing.T) {
	g := &costmodel.Graph{Tasks: make([]costmodel.Task, 8), BatchBytes: 1}
	p := RoundRobin(g, 6)
	want := costmodel.Plan{0, 1, 2, 3, 4, 5, 0, 1}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("RoundRobin = %v", p)
		}
	}
}

func TestRandomOnStaysInSubset(t *testing.T) {
	g := &costmodel.Graph{Tasks: make([]costmodel.Task, 50), BatchBytes: 1}
	s := amp.NewSampler(2)
	p := RandomOn(g, []int{4, 5}, s)
	seen := map[int]bool{}
	for _, c := range p {
		if c != 4 && c != 5 {
			t.Fatalf("core %d outside subset", c)
		}
		seen[c] = true
	}
	if len(seen) != 2 {
		t.Fatal("random placement should use both cores over 50 draws")
	}
}

func TestEASPrefersLittleCores(t *testing.T) {
	m := amp.NewRK3399()
	g := &costmodel.Graph{
		Tasks: []costmodel.Task{
			{ID: 0, Name: "a", InstrPerByte: 3, Kappa: 100, Replicas: 1},
		},
		BatchBytes: 1 << 20,
	}
	p := EASPlacement(m, g)
	if m.Core(p[0]).Type != amp.Little {
		t.Fatalf("EAS should place a light task on a little core, got %v", p)
	}
}

func TestEASSpillsToBigWhenSaturated(t *testing.T) {
	m := amp.NewRK3399()
	// Many heavy tasks: little cores saturate, later tasks must land on bigs.
	tasks := make([]costmodel.Task, 8)
	for i := range tasks {
		tasks[i] = costmodel.Task{ID: i, Name: "h", InstrPerByte: 6, Kappa: 200, Replicas: 1}
	}
	g := &costmodel.Graph{Tasks: tasks, BatchBytes: 1 << 20}
	p := EASPlacement(m, g)
	usedBig := false
	for _, c := range p {
		if m.Core(c).Type == amp.Big {
			usedBig = true
		}
	}
	if !usedBig {
		t.Fatalf("EAS should spill to big cores: %v", p)
	}
}

func TestEASNeverPanicsOnOverload(t *testing.T) {
	m := amp.NewRK3399()
	tasks := make([]costmodel.Task, 20)
	for i := range tasks {
		tasks[i] = costmodel.Task{ID: i, Name: "x", InstrPerByte: 50, Kappa: 150, Replicas: 1}
	}
	g := &costmodel.Graph{Tasks: tasks, BatchBytes: 1 << 20}
	p := EASPlacement(m, g)
	if len(p) != 20 {
		t.Fatalf("plan length %d", len(p))
	}
}

// The search must exploit asymmetric communication: when the model charges
// the true per-direction costs, the optimum avoids little→big transfers for
// heavy edges.
func TestSearchAvoidsExpensiveDirection(t *testing.T) {
	m, mod := newModel(t)
	// Two tasks of equal cost with a fat edge; energy differences between
	// core types are small, so communication should dominate placement.
	g := &costmodel.Graph{
		Tasks: []costmodel.Task{
			{ID: 0, Name: "a", InstrPerByte: 200, Kappa: 300, Replicas: 1},
			{ID: 1, Name: "b", InstrPerByte: 200, Kappa: 300, Replicas: 1},
		},
		Edges:      []costmodel.Edge{{From: 0, To: 1, BytesPerStreamByte: 3.0}},
		BatchBytes: 932800,
	}
	res := Search(mod, g, 1e9)
	from, to := m.Core(res.Plan[0]), m.Core(res.Plan[1])
	if from.Type == amp.Little && to.Type == amp.Big {
		t.Fatalf("optimal plan uses the expensive c2 direction: %v", res.Plan)
	}
}
