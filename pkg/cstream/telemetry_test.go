package cstream_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/pkg/cstream"
)

func openTelemetrySession(t *testing.T) (*cstream.Session, *cstream.Telemetry) {
	t.Helper()
	tel := cstream.NewTelemetry()
	s, err := cstream.NewSession("tcomp32", cstream.DatasetSource("Rovio", 7),
		cstream.WithBatchBytes(64*1024),
		cstream.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, tel
}

func TestTelemetryRecordsRunAndMeasure(t *testing.T) {
	s, tel := openTelemetrySession(t)
	if _, err := s.Push(context.Background(), s.RawBatch(0)); err != nil {
		t.Fatal(err)
	}
	s.MeasureRepeated(5)

	raw, err := tel.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count uint64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if snap.Counters["stream.batches"] != 1 {
		t.Fatalf("batch counter = %d", snap.Counters["stream.batches"])
	}
	if snap.Counters[telemetry.MetricDeploys] != 1 {
		t.Fatalf("deploy counter = %d", snap.Counters[telemetry.MetricDeploys])
	}
	if got := snap.Counters["compress_bytes_in_total"]; got != 64*1024 {
		t.Fatalf("compress_bytes_in_total = %d, want %d", got, 64*1024)
	}
	out := snap.Counters["compress_bytes_out_total"]
	if out <= 0 || out >= 64*1024 {
		t.Fatalf("compress_bytes_out_total = %d, want in (0, input)", out)
	}
	if mbps := snap.Gauges[telemetry.MetricThroughputPrefix+"tcomp32"]; mbps <= 0 {
		t.Fatalf("throughput gauge = %v, want > 0", mbps)
	}
	if snap.Histograms["stream.l_us_per_byte"].Count != 5 {
		t.Fatalf("latency histogram count = %d", snap.Histograms["stream.l_us_per_byte"].Count)
	}

	// Decision log: deploy + measure, with relative errors recomputable from
	// the log's own fields.
	var buf bytes.Buffer
	if err := tel.WriteDecisionLog(&buf); err != nil {
		t.Fatal(err)
	}
	type decision struct {
		Kind       string  `json:"kind"`
		PredictedL float64 `json:"predicted_l"`
		MeasuredL  float64 `json:"measured_l"`
		RelErrL    float64 `json:"rel_err_l"`
	}
	var kinds []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var d decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("decision line: %v", err)
		}
		kinds = append(kinds, d.Kind)
		if d.Kind == "measure" {
			want := metrics.RelativeError(d.MeasuredL, d.PredictedL)
			if math.Abs(d.RelErrL-want) > 1e-12 {
				t.Fatalf("rel_err_l = %g, recomputed %g", d.RelErrL, want)
			}
		}
	}
	if len(kinds) != tel.DecisionCount() || len(kinds) != 2 || kinds[0] != "deploy" || kinds[1] != "measure" {
		t.Fatalf("decision kinds = %v (count=%d)", kinds, tel.DecisionCount())
	}

	// Chrome trace: valid JSON with span events from the real batch push.
	trace, err := tel.ChromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("no pipeline spans in exported trace")
	}
}

func TestTelemetryHTTPSurface(t *testing.T) {
	s, tel := openTelemetrySession(t)
	if _, err := s.Push(context.Background(), s.RawBatch(0)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, err := tel.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/metrics", "/debug/decisions", "/debug/trace"} {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status=%d err=%v", path, resp.StatusCode, err)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
	}
	var snap map[string]any
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}

	// Cancelling the context must tear the server down.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := client.Get("http://" + addr + "/metrics"); err != nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("server still reachable after context cancellation")
}

// Without WithTelemetry, nothing must be recorded anywhere.
func TestTelemetryOffByDefault(t *testing.T) {
	s, err := cstream.NewSession("tcomp32", cstream.DatasetSource("Rovio", 7), cstream.WithBatchBytes(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Push(context.Background(), s.RawBatch(0)); err != nil {
		t.Fatal(err)
	}
	s.MeasureRepeated(3) // must not panic without a sink
}
