package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) (benchmarkJSON, []byte) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b, raw
}

// BENCHMARK.json is generated from the tables in metrics.go; the committed
// file must be what `-manifest` prints, and within the contract's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	b, raw := readBenchmarkJSON(t)
	if !bytes.Equal(raw, manifest(runSeconds)) {
		t.Fatal("BENCHMARK.json differs from `go run -C benchmark . -manifest`; regenerate it")
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	names := map[string]bool{}
	for _, w := range b.Workloads {
		if len(w.Why) > 200 || names[w.Name] {
			t.Errorf("workload %s: why has %d characters, or the name repeats", w.Name, len(w.Why))
		}
		names[w.Name] = true
	}
	setup := false
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || names[m.Name] {
			t.Errorf("metric %s: bound %g, or the name repeats", m.Name, m.Bound)
		}
		names[m.Name] = true
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range b.PerLayer {
		if names[m.Name] {
			t.Errorf("name %s repeats", m.Name)
		}
		names[m.Name] = true
	}
}

// A -smoke run of every workload, untraced and traced, must complete without
// a failed operation and emit exactly the metric names BENCHMARK.json
// declares for that mode, each with its unit.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	b, _ := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(b.Workloads), len(workloadDefs))
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 3, seconds: 0.4, smoke: true, trace: trace, tmpDir: t.TempDir()}
			rep, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			defs := endToEndDefs
			want := map[string]string{}
			if trace {
				defs = perLayerDefs
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, err := rep.result(defs)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, res.Failed, res.Attempted, rep.firstErr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || unit == "" {
					t.Errorf("%s trace=%v: metric %s: got %+v, want unit %q", w.Name, trace, name, m, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %g; it may never be 0", w.Name, name, m.Value)
				}
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := runWorkload(config{workload: "nope", seconds: 0.4, smoke: true, tmpDir: t.TempDir()}, io.Discard); err == nil {
		t.Fatal("an unknown workload ran")
	}
}
