package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram(8)
	snap := h.Snapshot()
	if snap.Count != 0 || snap.Window != 0 {
		t.Fatalf("empty histogram: count=%d window=%d", snap.Count, snap.Window)
	}
	if snap.Min != 0 || snap.Max != 0 || snap.Mean != 0 || snap.P50 != 0 || snap.P95 != 0 || snap.P99 != 0 {
		t.Fatalf("empty histogram summary not zero: %+v", snap)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := newHistogram(8)
	h.Observe(42.5)
	snap := h.Snapshot()
	if snap.Count != 1 || snap.Window != 1 {
		t.Fatalf("count=%d window=%d, want 1/1", snap.Count, snap.Window)
	}
	for name, v := range map[string]float64{
		"min": snap.Min, "max": snap.Max, "mean": snap.Mean,
		"p50": snap.P50, "p95": snap.P95, "p99": snap.P99,
	} {
		if !almostEq(v, 42.5) {
			t.Errorf("%s = %g, want 42.5 (single sample)", name, v)
		}
	}
}

func TestHistogramWindowRollover(t *testing.T) {
	h := newHistogram(4)
	// Ten samples through a window of four: only 6..9 must remain.
	for i := 0; i < 10; i++ {
		h.Observe(float64(i))
	}
	snap := h.Snapshot()
	if snap.Count != 10 {
		t.Fatalf("count = %d, want 10", snap.Count)
	}
	if snap.Window != 4 {
		t.Fatalf("window = %d, want 4", snap.Window)
	}
	if !almostEq(snap.Min, 6) || !almostEq(snap.Max, 9) {
		t.Fatalf("window [min,max] = [%g,%g], want [6,9]", snap.Min, snap.Max)
	}
	if !almostEq(snap.Mean, 7.5) {
		t.Fatalf("mean = %g, want 7.5", snap.Mean)
	}
	want := metrics.Percentile([]float64{6, 7, 8, 9}, 50)
	if !almostEq(snap.P50, want) {
		t.Fatalf("p50 = %g, want %g", snap.P50, want)
	}
}

func TestHistogramPercentilesMatchMetrics(t *testing.T) {
	h := newHistogram(100)
	var window []float64
	for i := 0; i < 100; i++ {
		v := float64((i * 37) % 100)
		h.Observe(v)
		window = append(window, v)
	}
	snap := h.Snapshot()
	for _, tc := range []struct {
		p    float64
		got  float64
		name string
	}{
		{50, snap.P50, "p50"}, {95, snap.P95, "p95"}, {99, snap.P99, "p99"},
	} {
		if want := metrics.Percentile(window, tc.p); !almostEq(tc.got, want) {
			t.Errorf("%s = %g, want %g (metrics.Percentile)", tc.name, tc.got, want)
		}
	}
}

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the goroutines go through the name lookup each time, half
			// cache the pointer — both paths must be race-free.
			c := reg.Counter("concurrent")
			for j := 0; j < perG; j++ {
				if j%2 == 0 {
					reg.Counter("concurrent").Add(1)
				} else {
					c.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("concurrent").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGaugeRoundTrip(t *testing.T) {
	g := &Gauge{}
	for _, v := range []float64{0, -1.5, 3.25, 1e-12} {
		g.Set(v)
		if got := g.Value(); !almostEq(got, v) {
			t.Fatalf("gauge round trip: set %g, got %g", v, got)
		}
	}
}

func TestNilSinkAndRegistryNoOp(t *testing.T) {
	var s *Sink
	if s.Metrics() != nil || s.Decisions() != nil || s.Spans() != nil {
		t.Fatal("nil sink must hand out nil components")
	}
	// All of these must be safe no-ops on the nil chain.
	s.Metrics().Counter("x").Add(1)
	s.Metrics().Gauge("x").Set(1)
	s.Metrics().Histogram("x", 0).Observe(1)
	s.Decisions().Append(Decision{Kind: KindDeploy})
	if s.Decisions().Len() != 0 || s.Decisions().Events() != nil {
		t.Fatal("nil decision log must stay empty")
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters == nil || snap.Gauges == nil || snap.Histograms == nil {
		t.Fatal("nil registry snapshot must keep non-nil maps for stable JSON")
	}
	if _, err := s.MetricsJSON(); err != nil {
		t.Fatalf("nil sink MetricsJSON: %v", err)
	}
	if _, err := s.ChromeTraceJSON(); err != nil {
		t.Fatalf("nil sink ChromeTraceJSON: %v", err)
	}
	if _, err := s.Serve(context.Background(), "127.0.0.1:0"); err != ErrDisabled {
		t.Fatalf("nil sink Serve error = %v, want ErrDisabled", err)
	}
}

func TestRegistrySnapshotAndNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(3)
	reg.Gauge("a.gauge").Set(1.5)
	reg.Histogram("c.hist", 4).Observe(2)
	snap := reg.Snapshot()
	if snap.Counters["b.count"] != 3 {
		t.Fatalf("counter snapshot = %d", snap.Counters["b.count"])
	}
	if !almostEq(snap.Gauges["a.gauge"], 1.5) {
		t.Fatalf("gauge snapshot = %g", snap.Gauges["a.gauge"])
	}
	if snap.Histograms["c.hist"].Count != 1 {
		t.Fatalf("histogram snapshot = %+v", snap.Histograms["c.hist"])
	}
	names := reg.Names()
	want := []string{"a.gauge", "b.count", "c.hist"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v (sorted)", names, want)
		}
	}
}

func TestDecisionLogSeqStreamAndJSONL(t *testing.T) {
	l := NewDecisionLog()
	var live bytes.Buffer
	l.Stream(&live)
	l.Append(Decision{Kind: KindDeploy, Seq: 99}) // Seq is overwritten by Append
	l.Append(Decision{Kind: KindMeasure})
	ev := l.Events()
	if len(ev) != 2 || ev[0].Seq != 0 || ev[1].Seq != 1 {
		t.Fatalf("events = %+v", ev)
	}

	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{buf.String(), live.String()} {
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		if len(lines) != 2 {
			t.Fatalf("jsonl lines = %d, want 2:\n%s", len(lines), out)
		}
		var d Decision
		if err := json.Unmarshal([]byte(lines[1]), &d); err != nil {
			t.Fatalf("unmarshal jsonl line: %v", err)
		}
		if d.Kind != KindMeasure || d.Seq != 1 {
			t.Fatalf("round-tripped decision = %+v", d)
		}
	}
}

func TestSinkMetricsJSONDeterministic(t *testing.T) {
	s := New()
	s.Metrics().Counter(MetricBatches).Add(7)
	s.Metrics().Gauge(MetricCoreUtilPrefix + "0").Set(0.25)
	a, err := s.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("MetricsJSON must be deterministic for unchanged state")
	}
	var snap Snapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	if snap.Counters[MetricBatches] != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}
}
