package main

import (
	"os"
	"path/filepath"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: whatever
BenchmarkCompressTcomp32Rovio-8   	    1000	    500000 ns/op	 524.29 MB/s	       0 B/op	       0 allocs/op
BenchmarkCompressLZ4Sensor-8      	     800	    750000 ns/op	 349.53 MB/s	      64 B/op	       2 allocs/op
BenchmarkPipelineTcomp32-8        	     500	   1300000 ns/op	 201.65 MB/s	    9000 B/op	      40 allocs/op
PASS
ok  	repro	4.2s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := parseBenchOutput(sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	tc, ok := got["BenchmarkCompressTcomp32Rovio"]
	if !ok {
		t.Fatal("missing BenchmarkCompressTcomp32Rovio (GOMAXPROCS suffix not stripped?)")
	}
	if tc.NsPerOp != 500000 || tc.BytesPerOp != 0 || tc.AllocsPerOp != 0 {
		t.Fatalf("bad metrics: %+v", tc)
	}
	lz := got["BenchmarkCompressLZ4Sensor"]
	if lz.AllocsPerOp != 2 || lz.BytesPerOp != 64 {
		t.Fatalf("bad lz4 metrics: %+v", lz)
	}
}

func TestParseHost(t *testing.T) {
	got := *parseHost(sampleOutput)
	if want := (Host{CPUs: 8, CPU: "whatever"}); got != want {
		t.Fatalf("host = %+v, want %+v", got, want)
	}
	if got := parseHost("BenchmarkX \t 10 \t 5 ns/op\n"); got.CPUs != 1 {
		t.Fatalf("no -N suffix means GOMAXPROCS=1, got %d", got.CPUs)
	}
}

func TestLatestSnapshot(t *testing.T) {
	dir := t.TempDir()
	if got := latestSnapshot(dir); got != "" {
		t.Fatalf("empty dir: %q", got)
	}
	for _, name := range []string{"BENCH_5.json", "BENCH_12.json", "BENCH_x.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := latestSnapshot(dir); filepath.Base(got) != "BENCH_12.json" {
		t.Fatalf("latest = %q, want BENCH_12.json (numeric, not lexical, order)", got)
	}
}

func TestParseTolerance(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
	}{{"10%", 0.10}, {"0.25", 0.25}, {" 5% ", 0.05}} {
		got, err := parseTolerance(tc.in)
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("%q: got %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := parseTolerance("-3%"); err == nil {
		t.Fatal("negative tolerance accepted")
	}
	if _, err := parseTolerance("abc"); err == nil {
		t.Fatal("garbage tolerance accepted")
	}
}

func TestCompareGates(t *testing.T) {
	baseline := map[string]BenchResult{
		"BenchmarkA":    {NsPerOp: 1000, AllocsPerOp: 0},
		"BenchmarkB":    {NsPerOp: 1000, AllocsPerOp: 4},
		"BenchmarkC":    {NsPerOp: 1000, AllocsPerOp: 2},
		"BenchmarkGone": {NsPerOp: 1, AllocsPerOp: 0},
	}
	current := map[string]BenchResult{
		"BenchmarkA":   {NsPerOp: 1050, AllocsPerOp: 0}, // +5% time: within 10%
		"BenchmarkB":   {NsPerOp: 900, AllocsPerOp: 5},  // alloc regression: hard fail
		"BenchmarkC":   {NsPerOp: 1300, AllocsPerOp: 1}, // +30% time: warn only
		"BenchmarkNew": {NsPerOp: 1, AllocsPerOp: 0},    // no baseline: informational
	}
	rep := compare(baseline, current, 0.10)
	if len(rep.Compared) != 3 {
		t.Fatalf("compared %d, want 3", len(rep.Compared))
	}
	if len(rep.AllocRegressions) != 1 || rep.AllocRegressions[0] != "BenchmarkB" {
		t.Fatalf("alloc regressions = %v, want [BenchmarkB]", rep.AllocRegressions)
	}
	if len(rep.TimeRegressions) != 1 || rep.TimeRegressions[0] != "BenchmarkC" {
		t.Fatalf("time regressions = %v, want [BenchmarkC]", rep.TimeRegressions)
	}
	// An alloc *decrease* plus a time regression is still only a warning;
	// and B's time improvement must not mask its alloc failure.
	foundMissing := false
	for _, l := range rep.Lines {
		if l == "  missing   BenchmarkGone                        (in baseline, not in run)" {
			foundMissing = true
		}
	}
	if !foundMissing {
		t.Fatalf("missing-benchmark line absent from report:\n%v", rep.Lines)
	}
}
