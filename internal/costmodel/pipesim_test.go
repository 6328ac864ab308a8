package costmodel

import (
	"math"
	"testing"

	"repro/internal/amp"
)

func twoTaskGraph() *Graph {
	return &Graph{
		Tasks: []Task{
			{ID: 0, Name: "t0", InstrPerByte: 300, Kappa: 320, Replicas: 1},
			{ID: 1, Name: "t1", InstrPerByte: 130, Kappa: 102, Replicas: 1},
		},
		Edges:      []Edge{{From: 0, To: 1, BytesPerStreamByte: 1.25}},
		BatchBytes: 64 * 1024,
	}
}

func TestSimulateEmptyGraph(t *testing.T) {
	m := amp.NewRK3399()
	res, err := pipeSimulate(m, &Graph{BatchBytes: 1}, Plan{}, defaultPipeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanUS != 0 {
		t.Fatalf("makespan = %f", res.MakespanUS)
	}
}

func TestSimulatePlanMismatch(t *testing.T) {
	m := amp.NewRK3399()
	if _, err := pipeSimulate(m, twoTaskGraph(), Plan{0}, defaultPipeConfig()); err == nil {
		t.Fatal("expected plan-size error")
	}
}

// The steady-state period must equal the bottleneck stage's computation time
// (the pipelining claim behind Eq. 2).
func TestSteadyStateMatchesBottleneck(t *testing.T) {
	m := amp.NewRK3399()
	g := twoTaskGraph()
	p := Plan{m.BigCores()[0], m.LittleCores()[0]}
	cfg := defaultPipeConfig()
	cfg.Batches = 30
	res, err := pipeSimulate(m, g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bottleneck: t1 on a little core, 21.7 µs/B.
	bottleneck := m.CompLatency(p[1], 130, 102)
	got := res.SteadyLatencyPerByte(g.BatchBytes)
	if math.Abs(got-bottleneck)/bottleneck > 0.02 {
		t.Fatalf("steady period %.2f µs/B, want bottleneck %.2f", got, bottleneck)
	}
}

// The first batch's latency must exceed the steady period (pipeline fill),
// and per-batch latency must stabilize.
func TestWarmupTransient(t *testing.T) {
	m := amp.NewRK3399()
	g := twoTaskGraph()
	p := Plan{m.BigCores()[0], m.LittleCores()[0]}
	cfg := defaultPipeConfig()
	cfg.Batches = 30
	res, err := pipeSimulate(m, g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := res.BatchLatencyUS[0]
	if first <= res.SteadyPeriodUS {
		t.Fatalf("first batch latency %.0f should exceed the steady period %.0f", first, res.SteadyPeriodUS)
	}
	// Latency stabilizes: last two batches within 5%.
	a, b := res.BatchLatencyUS[28], res.BatchLatencyUS[29]
	if math.Abs(a-b)/b > 0.05 {
		t.Fatalf("latency not stabilized: %.0f vs %.0f", a, b)
	}
}

// Co-located tasks serialize: the period equals the SUM of their times.
func TestColocationSerializes(t *testing.T) {
	m := amp.NewRK3399()
	g := twoTaskGraph()
	big := m.BigCores()[0]
	p := Plan{big, big}
	cfg := defaultPipeConfig()
	cfg.Batches = 30
	res, err := pipeSimulate(m, g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := m.CompLatency(big, 300, 320) + m.CompLatency(big, 130, 102)
	got := res.SteadyLatencyPerByte(g.BatchBytes)
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("co-located period %.2f, want %.2f", got, want)
	}
	// One core does all the work: its utilization ≈ 1, others 0.
	if res.Utilization[big] < 0.95 {
		t.Fatalf("bottleneck core utilization %.2f", res.Utilization[big])
	}
}

// Backpressure: a bounded queue caps how far the fast producer runs ahead.
func TestBackpressureBoundsQueues(t *testing.T) {
	m := amp.NewRK3399()
	g := twoTaskGraph()
	// Fast producer on big, slow consumer on little.
	p := Plan{m.BigCores()[0], m.LittleCores()[0]}
	cfg := defaultPipeConfig()
	cfg.Batches = 25
	cfg.QueueCapacity = 2
	res, err := pipeSimulate(m, g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	depth := res.MaxQueueDepth[[2]int{0, 1}]
	if depth > cfg.QueueCapacity+1 {
		t.Fatalf("queue depth %d exceeds capacity %d", depth, cfg.QueueCapacity)
	}
	if depth == 0 {
		t.Fatal("fast producer should build up some queue")
	}
}

// The simulator must agree with the cost model's steady-state estimate for
// the deployed plan (the independent check this oracle exists for).
func TestAgreesWithEstimator(t *testing.T) {
	m := amp.NewRK3399()
	mod, err := NewModel(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := twoTaskGraph()
	p := Plan{m.BigCores()[0], m.LittleCores()[0]}
	est := mod.Estimate(g, p, 1e9)
	cfg := defaultPipeConfig()
	cfg.Batches = 30
	res, err := pipeSimulate(m, g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The estimator's max core busy (per byte) is the throughput bound; the
	// simulated steady period must match it within 10%.
	maxBusy := 0.0
	for _, b := range est.CoreBusy {
		if b > maxBusy {
			maxBusy = b
		}
	}
	got := res.SteadyLatencyPerByte(g.BatchBytes)
	if math.Abs(got-maxBusy)/maxBusy > 0.10 {
		t.Fatalf("simulated period %.2f vs estimator busy bound %.2f", got, maxBusy)
	}
}

func TestNoiseSpreadsButConverges(t *testing.T) {
	m := amp.NewRK3399()
	g := twoTaskGraph()
	p := Plan{m.BigCores()[0], m.LittleCores()[0]}
	cfg := defaultPipeConfig()
	cfg.Batches = 40
	cfg.Sampler = amp.NewSampler(5)
	res, err := pipeSimulate(m, g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := pipeSimulate(m, g, p, pipeConfig{Batches: 40, QueueCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.SteadyPeriodUS / clean.SteadyPeriodUS
	if ratio < 0.9 || ratio > 1.15 {
		t.Fatalf("noisy steady period diverged: ratio %.3f", ratio)
	}
}
