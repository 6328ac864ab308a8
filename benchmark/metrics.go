package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one metric. BENCHMARK.json at the repo root is generated
// from these tables (`-manifest`) and a test keeps the two identical; moves
// is documentation only — which end-to-end metric, on which workload, a
// change to this layer should show up in — and is tabulated in README.md.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated relative worsening
	moves              string  // per-layer only
}

type workloadDef struct{ name, why string }

// The per-layer metrics are named after the repository's packages, and four of
// those names — serve, compress, segstore, plan — are also the namespaces of
// the program's own telemetry series, whose catalogs cstream-vet's metriccat
// analyzer guards: a raw "serve.x" literal outside internal/serve/metrics.go
// is a finding, so that a renamed series cannot leave a stale spelling behind.
// The benchmark's readings are not telemetry series. They are spelled through
// these constants, which leaves the analyzer switched on for this package: a
// raw spelling of a real series name here is still caught.
const (
	nsServe    = "serve"
	nsCompress = "compress"
	nsSegstore = "segstore"
	nsPlan     = "plan"
)

var workloadDefs = []workloadDef{
	{"serve-small", "4 KiB delta32 batches, 16 sessions on one connection: per-batch fixed cost (pipeline set-up, frame codec, syscalls, dispatch) is ~87 % of the round trip: data-plane work shows, kernel work does not."},
	{"serve-large", "The paper's B=932800 on tcomp32/tdic32/lz4, one connection per pusher: the kernel is two thirds of the round trip and fixed cost a few per cent: kernel and copy cost show, per-batch set-up does not."},
	{"embed-durable", "In-process cstream.Session with a segment sink, then mmap read-back and decode of every batch: the only workload through pkg/cstream and internal/segstore, both directions."},
	{"session-churn", "Attach cycles (open, one push, close) walking 576 session shapes on a fresh server per round: cold opens are the largest share of the time, so planner, plan cache and plan quality show here only."},
}

// The end-to-end metrics. Every workload reports every one of them (the
// driver's contract), so each is defined to have a real reading everywhere;
// README.md says what it measures on each workload. fail_frac is not in the
// list because a listed metric may never read 0: it is carried by the
// result's attempted/failed/correct fields instead.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ingest_mb_s", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "push_rtt_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "push_rtt_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_mb", unit: "ms/MB", better: "lower", bound: 0.25},
	{name: "ratio", unit: "B/B", better: "lower", bound: 0.025},
	{name: "energy_uj_per_byte", unit: "uJ/B", better: "lower", bound: 0.005},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "readback_mb_s", unit: "MB/s", better: "higher", bound: 0.25},
}

const (
	movesKernel   = "ingest_mb_s, cpu_ms_per_mb, push_rtt_p50_us on serve-large; <= 12 % lever on serve-small"
	movesDecode   = "readback_mb_s on every workload, most on embed-durable"
	movesPipeline = "ingest_mb_s, push_rtt_p50_us, cpu_ms_per_mb on serve-small and embed-durable; no change on serve-large"
	movesCstream  = "ingest_mb_s and setup_s on embed-durable only"
	movesServe    = "push_rtt_p50_us/p90 and ingest_mb_s on serve-small; copy share of serve-large; warm opens, so ingest_mb_s, on session-churn"
	movesSegstore = "ingest_mb_s (append) and readback_mb_s (read, open) on embed-durable; no change elsewhere"
	movesPlanner  = "ingest_mb_s and cpu_ms_per_mb on session-churn (cold opens), setup_s everywhere; no change on steady-state ingest"
	movesProc     = "push_rtt_p90_us first, then cpu_ms_per_mb"
)

var perLayerDefs = []metricDef{
	{name: nsCompress + ".kernel.ns_per_batch", unit: "ns", better: "lower", moves: movesKernel},
	{name: nsCompress + ".kernel.allocs_per_batch", unit: "count", better: "lower", moves: movesKernel},
	{name: nsCompress + ".decode.ns_per_batch", unit: "ns", better: "lower", moves: movesDecode},
	{name: nsCompress + ".decode.allocs_per_batch", unit: "count", better: "lower", moves: movesDecode},
	{name: nsCompress + ".pipeline.ns_per_batch", unit: "ns", better: "lower", moves: movesPipeline},
	{name: nsCompress + ".pipeline.self_ns", unit: "ns", better: "lower", moves: movesPipeline},
	{name: nsCompress + ".pipeline.allocs_per_batch", unit: "count", better: "lower", moves: movesPipeline},
	{name: "core.run_batch.ns_per_batch", unit: "ns", better: "lower", moves: movesPipeline},
	{name: "core.run_batch.self_ns", unit: "ns", better: "lower", moves: movesPipeline},
	{name: "core.run_batch.allocs_per_batch", unit: "count", better: "lower", moves: movesPipeline},
	{name: "cstream.push.ns_per_batch", unit: "ns", better: "lower", moves: movesCstream},
	{name: "cstream.push.self_ns", unit: "ns", better: "lower", moves: movesCstream},
	{name: "cstream.push.allocs_per_batch", unit: "count", better: "lower", moves: movesCstream},
	{name: "cstream.new_session.ns", unit: "ns", better: "lower", moves: movesCstream},
	{name: nsServe + ".codec.ns_per_frame", unit: "ns", better: "lower", moves: movesServe},
	{name: nsServe + ".codec.allocs_per_frame", unit: "count", better: "lower", moves: movesServe},
	{name: nsServe + ".rtt_serial.ns_per_batch", unit: "ns", better: "lower", moves: movesServe},
	{name: nsServe + ".rtt_serial.self_ns", unit: "ns", better: "lower", moves: movesServe},
	{name: nsServe + ".rtt_serial.allocs_per_batch", unit: "count", better: "lower", moves: movesServe},
	{name: nsServe + ".open_warm.ns", unit: "ns", better: "lower", moves: movesServe},
	{name: nsServe + ".close.ns", unit: "ns", better: "lower", moves: movesServe},
	{name: nsServe + ".frame_pool.alloc_ratio", unit: "ratio", better: "lower", moves: movesServe},
	{name: nsServe + ".queue_depth.max", unit: "count", better: "lower", moves: movesServe},
	{name: nsServe + ".conn_inflight.max", unit: "count", better: "lower", moves: movesServe},
	{name: nsServe + ".frames_rejected", unit: "count", better: "lower", moves: movesServe},
	{name: nsServe + ".frames_torn", unit: "count", better: "lower", moves: movesServe},
	{name: nsServe + ".sessions_shed", unit: "count", better: "lower", moves: movesServe},
	{name: nsServe + ".clcv_frac", unit: "ratio", better: "lower", moves: movesServe},
	{name: nsServe + ".push_rtt_p99_us", unit: "us", better: "lower", moves: movesServe},
	{name: nsSegstore + ".append.ns_per_batch", unit: "ns", better: "lower", moves: movesSegstore},
	{name: nsSegstore + ".append.allocs_per_batch", unit: "count", better: "lower", moves: movesSegstore},
	{name: nsSegstore + ".read.ns_per_batch", unit: "ns", better: "lower", moves: movesSegstore},
	{name: nsSegstore + ".open_segment.ns", unit: "ns", better: "lower", moves: movesSegstore},
	{name: nsSegstore + ".rotations", unit: "count", better: "lower", moves: movesSegstore},
	{name: nsSegstore + ".bytes_persisted", unit: "B", better: "lower", moves: movesSegstore},
	{name: nsSegstore + ".disk_bytes_per_raw_byte", unit: "B/B", better: "lower", moves: movesSegstore},
	{name: "core.profile.ns_per_shape", unit: "ns", better: "lower", moves: movesPlanner},
	{name: "core.deploy_cold.ns_per_shape", unit: "ns", better: "lower", moves: movesPlanner},
	{name: "core.deploy_cold.allocs_per_shape", unit: "count", better: "lower", moves: movesPlanner},
	{name: "core.deploy_cached.ns_per_shape", unit: "ns", better: "lower", moves: movesPlanner},
	{name: "sched.search.ns_per_graph", unit: "ns", better: "lower", moves: movesPlanner},
	{name: "plancache.hits", unit: "count", better: "higher", moves: movesPlanner},
	{name: "plancache.misses", unit: "count", better: "lower", moves: movesPlanner},
	{name: "plancache.near_misses", unit: "count", better: "higher", moves: movesPlanner},
	{name: "plancache.hit_ratio", unit: "ratio", better: "higher", moves: movesPlanner},
	{name: nsPlan + ".mode.full", unit: "count", better: "lower", moves: movesPlanner},
	{name: nsPlan + ".mode.cache", unit: "count", better: "higher", moves: movesPlanner},
	{name: nsPlan + ".mode.near_miss_repair", unit: "count", better: "higher", moves: movesPlanner},
	{name: "attach.open_cold_p50_us", unit: "us", better: "lower", moves: movesPlanner},
	{name: "attach.open_warm_p50_us", unit: "us", better: "lower", moves: movesServe},
	{name: "attach.opens_per_s", unit: "1/s", better: "higher", moves: "attach cycles per second (median round) on session-churn, where it tracks ingest_mb_s; elsewhere 1 / mean open time of the set-up phase"},
	{name: "attach.cold_time_frac", unit: "ratio", better: "lower", moves: "share of the generators' summed operation time (open time, off session-churn) spent in cold opens: the planner's lever on the workload"},
	{name: "proc.allocs_per_batch", unit: "count", better: "lower", moves: movesProc},
	{name: "proc.alloc_bytes_per_batch", unit: "B", better: "lower", moves: movesProc},
	{name: "proc.gc_cycles_per_s", unit: "1/s", better: "lower", moves: movesProc},
	{name: "proc.gc_pause_ms_per_s", unit: "ms/s", better: "lower", moves: movesProc},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "1 - traced/untraced ingest_mb_s; the benchmark's own cost, not the program's"},
}

// manifest renders BENCHMARK.json.
func manifest(runSeconds int) []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // plain strings and numbers: cannot fail
	}
	return buf.Bytes()
}

// report is what one run of one workload measured: metric values by name,
// plus the operation counts behind fail_frac.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	firstErr  error
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// result is the one-line JSON object the driver reads from the last line of
// standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the declared metrics of the run's mode from the report. A
// declared metric the run did not produce, or produced as NaN/Inf, is a bug
// in the harness and fails the run rather than being reported as 0.
func (r *report) result(defs []metricDef) (result, error) {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s has no reading", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// print lists every value the run produced, declared or diagnostic, by name.
func (r *report) print(w io.Writer, defs ...[]metricDef) {
	units := map[string]string{}
	for _, ds := range defs {
		for _, d := range ds {
			units[d.name] = d.unit
		}
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, r.values[n], units[n])
	}
}

// setDefault records a reading only if the workload has not already produced
// the metric itself (the ladder fills in the layers a workload never touches).
func (r *report) setDefault(name string, v float64) {
	if _, ok := r.values[name]; !ok {
		r.values[name] = v
	}
}
