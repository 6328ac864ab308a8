// Command cstream-benchdiff guards the hot path against performance
// regressions. It runs the hot-path benchmarks (BenchmarkCompress*,
// BenchmarkPipeline*, BenchmarkDecompress*, the segment-store append path
// BenchmarkSegment*, the serve data plane BenchmarkServe* — the frame
// codec and the multi-session ingest round trip — the cold-start
// roofline fit BenchmarkCostModel*, the proxy profile at the paper's
// batch size BenchmarkProfile* and the warm session attach
// BenchmarkAttach), parses the standard
// `go test -bench` output, and compares the result against a committed
// baseline (the highest-numbered BENCH_<pr>.json at the repository root):
//
//   - an allocs/op increase over the baseline is a hard failure (exit 1) —
//     allocation counts are deterministic, so any increase is a real
//     regression of the zero-allocation contract;
//   - an ns/op regression beyond -tolerance prints a warning but exits 0
//     unless -strict-time is set, because wall-clock timings flake on
//     shared CI runners.
//
// Usage:
//
//	cstream-benchdiff [-snapshot BENCH_<pr>.json] [-tolerance 10%]
//	                  [-strict-time] [-baseline file] [-bench regexp]
//	                  [-pkg dir] [-benchtime 0.5s] [-parse file]
//
// -snapshot writes the run to a new per-PR file, with the host it ran on,
// instead of gating; committed snapshots are never rewritten, so they form a
// trajectory. -parse skips running and reads pre-recorded `go test -bench`
// output from a file, for CI pipelines that split the run and the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	snapshot := flag.String("snapshot", "", "write the run to this new BENCH_<pr>.json instead of gating")
	tolerance := flag.String("tolerance", "10%", "allowed ns/op regression (e.g. 10%)")
	strictTime := flag.Bool("strict-time", false, "treat ns/op regressions as failures")
	baselinePath := flag.String("baseline", "", "baseline file (default: the highest-numbered BENCH_<pr>.json)")
	benchPat := flag.String("bench", "^(BenchmarkCompress|BenchmarkPipeline|BenchmarkDecompress|BenchmarkSegment|BenchmarkServe|BenchmarkCostModel|BenchmarkProfile|BenchmarkAttach)", "benchmark regexp")
	pkg := flag.String("pkg", ".", "package to benchmark")
	benchtime := flag.String("benchtime", "0.5s", "go test -benchtime value")
	parseFile := flag.String("parse", "", "parse pre-recorded go test -bench output instead of running")
	flag.Parse()

	tol, err := parseTolerance(*tolerance)
	if err != nil {
		fatalf("bad -tolerance: %v", err)
	}

	var out []byte
	if *parseFile != "" {
		out, err = os.ReadFile(*parseFile)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		cmd := exec.Command("go", "test", "-run=^$", "-bench="+*benchPat,
			"-benchmem", "-benchtime="+*benchtime, "-count=1", *pkg)
		cmd.Stderr = os.Stderr
		out, err = cmd.Output()
		if err != nil {
			fatalf("go test -bench failed: %v", err)
		}
	}
	current, err := parseBenchOutput(string(out))
	if err != nil {
		fatalf("%v", err)
	}
	if len(current) == 0 {
		fatalf("no benchmark results matched %q", *benchPat)
	}

	if *snapshot != "" {
		if _, err := os.Stat(*snapshot); err == nil {
			fatalf("%s exists; snapshots are per-PR and never rewritten", *snapshot)
		}
		if err := writeBaseline(*snapshot, BaselineFile{Host: parseHost(string(out)), Baseline: current}); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("cstream-benchdiff: wrote %d benchmarks to %s\n", len(current), *snapshot)
		return
	}

	if *baselinePath == "" {
		if *baselinePath = latestSnapshot("."); *baselinePath == "" {
			fatalf("no BENCH_<pr>.json here (run with -snapshot to create one)")
		}
	}
	base, err := readBaseline(*baselinePath)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("cstream-benchdiff: gating against %s\n", *baselinePath)
	rep := compare(base.Baseline, current, tol)
	for _, l := range rep.Lines {
		fmt.Println(l)
	}
	if len(rep.AllocRegressions) > 0 {
		fmt.Printf("cstream-benchdiff: FAIL — %d allocs/op regression(s)\n", len(rep.AllocRegressions))
		os.Exit(1)
	}
	if len(rep.TimeRegressions) > 0 {
		if *strictTime {
			fmt.Printf("cstream-benchdiff: FAIL — %d ns/op regression(s) beyond %s\n", len(rep.TimeRegressions), *tolerance)
			os.Exit(1)
		}
		fmt.Printf("cstream-benchdiff: WARN — %d ns/op regression(s) beyond %s (non-blocking; timings flake on shared runners)\n",
			len(rep.TimeRegressions), *tolerance)
	}
	fmt.Printf("cstream-benchdiff: ok — %d benchmarks within gate\n", len(rep.Compared))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cstream-benchdiff: "+format+"\n", args...)
	os.Exit(2)
}

// latestSnapshot returns the BENCH_<pr>.json in dir with the highest <pr>,
// or "" when there is none.
func latestSnapshot(dir string) string {
	paths, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json")) //nolint:errcheck // the pattern is well-formed
	best, bestPR := "", -1
	for _, p := range paths {
		num := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		if pr, err := strconv.Atoi(num); err == nil && pr > bestPR {
			best, bestPR = p, pr
		}
	}
	return best
}

func readBaseline(path string) (BaselineFile, error) {
	var b BaselineFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("parse %s: %w", path, err)
	}
	return b, nil
}

func writeBaseline(path string, b BaselineFile) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
