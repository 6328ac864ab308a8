// Package telemetry is CStream's unified observability layer: a typed
// metrics registry (counters, gauges, windowed histograms), a structured
// scheduling-decision log, and an exporter that turns pipeline execution
// spans plus decisions into Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing.
//
// The package is stdlib-only and allocation-light. Everything hangs off a
// *Sink, and a nil *Sink is a fully valid, disabled sink: every method on a
// nil receiver is a cheap no-op, so instrumented code carries exactly one
// pointer comparison of overhead when telemetry is off. See OBSERVABILITY.md
// at the repository root for the metric catalog, the decision-log schema,
// and operator recipes.
package telemetry

import (
	"encoding/json"

	"repro/internal/trace"
)

// Canonical metric names, the catalog documented in OBSERVABILITY.md. Using
// the constants keeps producers and the docs from drifting apart.
const (
	// MetricPlanSearches counts full or incremental plan-search invocations.
	MetricPlanSearches = "plan.searches"
	// MetricPlanSearchNodes counts search-tree leaves examined (the DP/B&B
	// nodes of Section V-C).
	MetricPlanSearchNodes = "plan.search.nodes"
	// MetricPlanSearchMicros is a histogram of wall-clock plan-search time.
	MetricPlanSearchMicros = "plan.search.us"
	// MetricDeploys counts Deploy/DeployProfile invocations.
	MetricDeploys = "plan.deploys"
	// MetricPlanCacheHits, MetricPlanCacheMisses and MetricPlanCacheEvictions
	// mirror the plan cache's effectiveness counters; MetricPlanCacheSize
	// gauges its current entry count.
	MetricPlanCacheHits      = "plan.cache_hits"
	MetricPlanCacheMisses    = "plan.cache_misses"
	MetricPlanCacheEvictions = "plan.cache_evictions"
	MetricPlanCacheSize      = "plan.cache_size"
	// MetricPlanModeCache and MetricPlanModeFull count deployments by how
	// their plan was acquired: served verbatim from the cache, or (re)searched
	// in full.
	MetricPlanModeCache = "plan.mode.cache"
	MetricPlanModeFull  = "plan.mode.full"
	// MetricPlanModeNearMissRepair is never incremented; benchmark/phase.go reads it until the next [benchmark] PR removes it.
	MetricPlanModeNearMissRepair = "plan.mode.near_miss_repair"
	// MetricReplans counts adaptation re-plans (PID and stats-triggered);
	// MetricCalibrations counts batches spent in PID calibration rounds.
	MetricReplans      = "adapt.replans"
	MetricCalibrations = "adapt.calibrations"
	// MetricBatches and MetricViolations count processed batches and latency
	// constraint violations across all streams.
	MetricBatches    = "stream.batches"
	MetricViolations = "stream.violations"
	// MetricLatencyPerByte and MetricEnergyPerByte are histograms of measured
	// per-batch compressing latency (µs/B) and energy (µJ/B).
	MetricLatencyPerByte = "stream.l_us_per_byte"
	MetricEnergyPerByte  = "stream.e_uj_per_byte"
	// MetricCLCVPrefix + workload gauges the per-stream constraint-violation
	// fraction; MetricEMesPrefix + workload gauges per-stream mean E_mes.
	MetricCLCVPrefix = "stream.clcv."
	MetricEMesPrefix = "stream.e_mes."
	// MetricCompressBytesIn counts raw bytes entering the live pipeline
	// runtime; MetricCompressBytesOut counts compressed bytes leaving it
	// (bit lengths rounded up to whole bytes). Their ratio over any scrape
	// interval is the achieved compression ratio.
	MetricCompressBytesIn  = "compress_bytes_in_total"
	MetricCompressBytesOut = "compress_bytes_out_total"
	// MetricThroughputPrefix + algorithm gauges the most recent batch's
	// compression throughput through the live pipeline, in MB/s of input.
	MetricThroughputPrefix = "compress.throughput_mbs."
	// MetricCoreUtilPrefix + core index gauges the simulated per-core
	// utilization of the most recent deployment (busy time / makespan).
	MetricCoreUtilPrefix = "core.util."
)

// Sink bundles the three telemetry surfaces — metrics registry, decision
// log, and pipeline span recorder — behind one handle. A nil *Sink is the
// disabled state: all methods no-op, all accessors return nil, and the
// instrumentation they feed degrades to a pointer comparison.
type Sink struct {
	reg *Registry
	dec *DecisionLog
	rec *trace.Recorder
}

// New builds an enabled Sink with an empty registry, decision log, and span
// recorder.
func New() *Sink {
	return &Sink{reg: NewRegistry(), dec: NewDecisionLog(), rec: &trace.Recorder{}}
}

// Metrics returns the sink's registry (nil on a nil sink).
func (s *Sink) Metrics() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Decisions returns the sink's decision log (nil on a nil sink).
func (s *Sink) Decisions() *DecisionLog {
	if s == nil {
		return nil
	}
	return s.dec
}

// Spans returns the sink's pipeline span recorder (nil on a nil sink);
// Recorder.Record satisfies compress.StageObserver, so it plugs directly
// into the observed pipeline runtime.
func (s *Sink) Spans() *trace.Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// MetricsJSON renders the registry snapshot as deterministic, indented JSON
// (the payload of the /metrics endpoint).
func (s *Sink) MetricsJSON() ([]byte, error) {
	return json.MarshalIndent(s.Metrics().Snapshot(), "", "  ")
}

// ChromeTraceJSON exports the recorded pipeline spans and scheduling
// decisions as Chrome trace-event JSON (the payload of /debug/trace).
func (s *Sink) ChromeTraceJSON() ([]byte, error) {
	var spans []trace.Span
	var decisions []Decision
	if s != nil {
		spans = s.rec.Spans()
		decisions = s.dec.Events()
	}
	return ChromeTrace(spans, decisions)
}
