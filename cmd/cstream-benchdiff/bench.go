package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// BenchResult is one benchmark's parsed metrics.
type BenchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Host records where a snapshot was measured: timings only compare across
// snapshots taken on like hosts, and the serve rungs scale with CPUs.
type Host struct {
	// CPUs is the GOMAXPROCS the benchmarks ran with (the -N name suffix).
	CPUs int `json:"cpus"`
	// CPU is the model `go test` printed.
	CPU string `json:"cpu,omitempty"`
}

// BaselineFile is the committed BENCH_<pr>.json layout: one snapshot per PR,
// written once by -snapshot and never refreshed in place, so the files form
// a trajectory. Baseline is the gate's comparison target. PrePR (BENCH_5.json
// only) records the pre-optimization numbers that PR's claims were measured
// against.
type BaselineFile struct {
	Note     string                 `json:"note,omitempty"`
	Host     *Host                  `json:"host,omitempty"`
	PrePR    map[string]BenchResult `json:"pre_pr,omitempty"`
	Baseline map[string]BenchResult `json:"baseline"`
}

// parseHost reads the cpu line `go test -bench` prints and the GOMAXPROCS
// suffix of the benchmark names.
func parseHost(out string) *Host {
	h := &Host{CPUs: 1}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if v, ok := strings.CutPrefix(line, "cpu:"); ok {
			h.CPU = strings.TrimSpace(v)
		} else if strings.HasPrefix(line, "Benchmark") {
			_, h.CPUs = splitProcs(strings.Fields(line)[0])
		}
	}
	return h
}

// splitProcs splits a benchmark name from its trailing -N GOMAXPROCS suffix
// (absent when N is 1).
func splitProcs(name string) (base string, procs int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}

// parseBenchOutput extracts BenchmarkName → metrics from `go test -bench
// -benchmem` output. The trailing -N GOMAXPROCS suffix is stripped so
// baselines transfer across machines with different core counts.
func parseBenchOutput(out string) (map[string]BenchResult, error) {
	results := map[string]BenchResult{}
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 {
			continue
		}
		name, _ := splitProcs(fields[0])
		var r BenchResult
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op %q in %q", val, line)
				}
				r.NsPerOp = f
				seen = true
			case "B/op":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad B/op %q in %q", val, line)
				}
				r.BytesPerOp = n
			case "allocs/op":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad allocs/op %q in %q", val, line)
				}
				r.AllocsPerOp = n
			}
		}
		if seen {
			results[name] = r
		}
	}
	return results, sc.Err()
}

// parseTolerance accepts "10%" or "0.1" and returns a fraction.
func parseTolerance(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	s = strings.TrimSuffix(s, "%")
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if pct {
		f /= 100
	}
	if f < 0 {
		return 0, fmt.Errorf("negative tolerance %q", s)
	}
	return f, nil
}

// Report is the outcome of one baseline comparison.
type Report struct {
	// Compared lists benchmarks present in both baseline and current run.
	Compared []string
	// AllocRegressions lists benchmarks whose allocs/op grew (hard failures).
	AllocRegressions []string
	// TimeRegressions lists benchmarks whose ns/op grew beyond tolerance.
	TimeRegressions []string
	// Lines is the human-readable per-benchmark report.
	Lines []string
}

// compare evaluates current against baseline. Benchmarks missing on either
// side are reported but gate nothing (they enter the gate with the next
// -snapshot).
func compare(baseline, current map[string]BenchResult, tol float64) Report {
	var rep Report
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	// Insertion sort keeps the report deterministic without importing sort.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, name := range names {
		cur := current[name]
		base, ok := baseline[name]
		if !ok {
			rep.Lines = append(rep.Lines, fmt.Sprintf("  new       %-36s %12.0f ns/op %6d allocs/op (no baseline)", name, cur.NsPerOp, cur.AllocsPerOp))
			continue
		}
		rep.Compared = append(rep.Compared, name)
		status := "ok"
		if cur.AllocsPerOp > base.AllocsPerOp {
			status = "ALLOC-FAIL"
			rep.AllocRegressions = append(rep.AllocRegressions, name)
		} else if base.NsPerOp > 0 && cur.NsPerOp > base.NsPerOp*(1+tol) {
			status = "time-warn"
			rep.TimeRegressions = append(rep.TimeRegressions, name)
		}
		delta := 0.0
		if base.NsPerOp > 0 {
			delta = (cur.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
		}
		rep.Lines = append(rep.Lines, fmt.Sprintf("  %-9s %-36s %12.0f ns/op (%+6.1f%%) %6d→%d allocs/op",
			status, name, cur.NsPerOp, delta, base.AllocsPerOp, cur.AllocsPerOp))
	}
	for name := range baseline {
		if _, ok := current[name]; !ok {
			rep.Lines = append(rep.Lines, fmt.Sprintf("  missing   %-36s (in baseline, not in run)", name))
		}
	}
	return rep
}
