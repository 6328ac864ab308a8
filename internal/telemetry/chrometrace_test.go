package telemetry

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixtureTrace builds a small, fully deterministic trace: four pipeline spans
// across three (stage, slice) rows plus one deploy and one measure decision.
func fixtureTrace() ([]Span, []Decision) {
	base := time.Unix(1700000000, 0).UTC()
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	rec := &Recorder{}
	rec.Record("xor", 0, at(0), at(100))
	rec.Record("xor", 1, at(20), at(140))
	rec.Record("emit", 0, at(100), at(180))
	rec.Record("xor", 0, at(140), at(220))

	decisions := []Decision{
		{
			//lint:allow policyreg fixture sample data, not a dispatch site
			Seq: 0, Kind: KindDeploy, Mechanism: "CStream", Workload: "tcomp32-Rovio",
			Batch: -1, Plan: []int{0, 4, 5}, Feasible: true,
			Searches: 3, NodesExplored: 1234, SearchMicros: 512.5,
			PredictedL: 18.75, PredictedE: 0.42,
			Tasks: []TaskSample{
				{Task: "xor", Core: 4, PredictedL: 10.5, PredictedE: 0.2},
				{Task: "emit", Core: 5, PredictedL: 8.25, PredictedE: 0.22},
			},
		},
		{
			//lint:allow policyreg fixture sample data, not a dispatch site
			Seq: 1, Kind: KindMeasure, Mechanism: "CStream", Workload: "tcomp32-Rovio",
			Batch: -1, Plan: []int{0, 4, 5}, Feasible: true,
			PredictedL: 18.75, PredictedE: 0.42,
			MeasuredL: 20.0, MeasuredE: 0.4,
			RelErrL: 0.0625, RelErrE: 0.05,
		},
	}
	return rec.Spans(), decisions
}

func TestChromeTraceGolden(t *testing.T) {
	spans, decisions := fixtureTrace()
	got, err := ChromeTrace(spans, decisions)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrometrace.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test -run ChromeTraceGolden -update ./internal/telemetry` to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("Chrome trace JSON diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// The exported document must be structurally valid trace-event JSON: every
// event carries a phase, "X" events a duration, and thread metadata precedes
// span rows.
func TestChromeTraceStructure(t *testing.T) {
	spans, decisions := fixtureTrace()
	raw, err := ChromeTrace(spans, decisions)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var complete, instant, meta int
	rows := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur == nil || *ev.Dur <= 0 {
				t.Fatalf("complete event %q lacks a positive dur", ev.Name)
			}
			if !rows[ev.TID] {
				t.Fatalf("span row tid=%d has no preceding thread_name metadata", ev.TID)
			}
		case "i":
			instant++
			if ev.TID != schedulerTID {
				t.Fatalf("decision instant on tid=%d, want scheduler row %d", ev.TID, schedulerTID)
			}
		case "M":
			meta++
			if ev.Name == "thread_name" {
				rows[ev.TID] = true
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 4 {
		t.Fatalf("complete events = %d, want 4 (one per span)", complete)
	}
	if instant != 2 {
		t.Fatalf("instant events = %d, want 2 (one per decision)", instant)
	}
	// process_name + scheduler thread_name + three span rows.
	if meta != 5 {
		t.Fatalf("metadata events = %d, want 5", meta)
	}
	// Repeated (stage, slice) pairs share one row: xor[0] appears twice.
	if len(rows) != 4 { // scheduler + xor[0] + xor[1] + emit[0]
		t.Fatalf("thread rows = %d, want 4", len(rows))
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	raw, err := ChromeTrace(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("empty trace not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("traceEvents key missing on empty trace")
	}
}
