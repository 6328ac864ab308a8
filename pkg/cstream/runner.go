package cstream

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/segstore"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Runner is an opened workload bound to a planned deployment on a simulated
// asymmetric multicore. It is not safe for concurrent use; open one Runner
// per stream.
//
// # Execution paths
//
// Every way a batch moves through a Runner funnels into one of two shared
// paths, so behavior cannot drift between entry points:
//
//   - real compression: Runner.RunBatch (dataset batches) and Session.Push
//     (caller-supplied bytes) both call runBatch, which drives the planned
//     pipeline via the deployment's shared RunBatchData and records
//     telemetry;
//   - simulated measurement: Runner.Measure and Runner.MeasureRepeated both
//     call simulate, which executes the plan on the platform model and
//     feeds the planner's decision log; Runner.ProcessBatch is the adaptive
//     variant, delegating the same measurement to the feedback loop
//     selected with WithAdaptation.
type Runner struct {
	cfg     config
	machine *amp.Machine
	planner *core.Planner
	w       core.Workload

	prof *core.Profile
	dep  *core.Deployment

	adaptPID   *core.Adaptive
	adaptStats *core.StatsAdaptive

	// tel is the attached telemetry handle (nil = disabled).
	tel *Telemetry

	// store is the durable segment sink (nil unless WithSegmentSink).
	store *segstore.Store

	batches int64
	closed  bool
}

func (r *Runner) deployment() *core.Deployment {
	switch {
	case r.adaptPID != nil:
		return r.adaptPID.Deployment()
	case r.adaptStats != nil:
		return r.adaptStats.Deployment()
	default:
		return r.dep
	}
}

// Close releases the Runner; with a segment sink attached it also seals the
// active segment (footer, fsync, atomic rename), and with WithPlanCacheFile
// it atomically rewrites the persisted plan cache, so a clean shutdown leaves
// no partial files behind and the next process warm-starts. Further method
// calls fail with an error matching errors.Is(err, ErrClosed).
func (r *Runner) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.cfg.planCacheFile != "" {
		if err := r.planner.SavePlanCache(r.cfg.planCacheFile); err != nil {
			return fmt.Errorf("cstream: plan cache file: %w", err)
		}
	}
	if r.store != nil {
		st := r.store
		r.store = nil
		if err := st.Close(); err != nil {
			return fmt.Errorf("cstream: segment sink: %w", err)
		}
	}
	return nil
}

// errClosed wraps ErrClosed with the entry point that hit it.
func errClosed(op string) error {
	return fmt.Errorf("%s: %w", op, ErrClosed)
}

// Algorithm returns the compression algorithm's name.
func (r *Runner) Algorithm() string { return r.w.Algorithm.Name() }

// Workload returns the "<algorithm>-<dataset>" workload label.
func (r *Runner) Workload() string { return r.w.Name() }

// Placement records where one pipeline task runs.
type Placement struct {
	// Task is the logical task's name after decomposition and replication.
	Task string
	// Core is the global core index.
	Core int
	// CoreType is "little" or "big".
	CoreType string
	// FreqMHz is the core's operating frequency at planning time.
	FreqMHz int
	// Kappa is the task's fitted memory-access intensity.
	Kappa float64
}

// Plan returns the current scheduling plan, one Placement per task.
func (r *Runner) Plan() []Placement {
	dep := r.deployment()
	out := make([]Placement, len(dep.Graph.Tasks))
	for i, task := range dep.Graph.Tasks {
		c := r.machine.Core(dep.Plan[i])
		out[i] = Placement{
			Task:     task.Name,
			Core:     c.ID,
			CoreType: c.Type.String(),
			FreqMHz:  c.FreqMHz,
			Kappa:    task.Kappa,
		}
	}
	return out
}

// PlanVector returns the raw task→core assignment vector.
func (r *Runner) PlanVector() []int {
	dep := r.deployment()
	out := make([]int, len(dep.Plan))
	copy(out, dep.Plan)
	return out
}

// Estimate is the cost model's prediction for the current plan.
type Estimate struct {
	// LatencyPerByte is µs per stream byte; EnergyPerByte is µJ per byte.
	LatencyPerByte, EnergyPerByte float64
	// Feasible reports whether the latency constraint is predicted to hold.
	Feasible bool
}

// Estimate returns the model's prediction for the current deployment.
func (r *Runner) Estimate() Estimate {
	dep := r.deployment()
	return Estimate{
		LatencyPerByte: dep.Estimate.LatencyPerByte,
		EnergyPerByte:  dep.Estimate.EnergyPerByte,
		Feasible:       dep.Estimate.Feasible,
	}
}

// Feasible reports whether planning satisfied the latency constraint.
func (r *Runner) Feasible() bool { return r.deployment().Feasible }

// Segment is one data-parallel slice's compressed output; each segment
// decodes independently (replicas keep private state).
type Segment struct {
	// SliceIndex is the segment's position in the batch's slice order.
	SliceIndex int
	// Compressed is the encoded payload, padded to a whole byte.
	Compressed []byte
	// BitLen is the exact compressed length in bits.
	BitLen uint64
	// OrigLen is the slice's uncompressed length in bytes.
	OrigLen int
}

// BatchResult is one batch's real compressed output.
type BatchResult struct {
	// Batch is the batch index.
	Batch int
	// InputBytes is the uncompressed size.
	InputBytes int
	// TotalBits sums the segments' compressed bit lengths.
	TotalBits uint64
	// Segments are the per-slice outputs in slice order.
	Segments []Segment

	alg string
}

// CompressedBytes is the compressed size rounded up to whole bytes.
func (b *BatchResult) CompressedBytes() int { return int((b.TotalBits + 7) / 8) }

// Ratio is compressed bytes over input bytes.
func (b *BatchResult) Ratio() float64 {
	if b.InputBytes == 0 {
		return 0
	}
	return float64(b.CompressedBytes()) / float64(b.InputBytes)
}

// Decode losslessly reconstructs the batch from its segments.
func (b *BatchResult) Decode() ([]byte, error) {
	return DecodeSegments(b.alg, b.Segments, b.InputBytes)
}

// DecodeSegments reconstructs a batch from compressed segments produced by
// the named algorithm, e.g. after the segments crossed a network.
func DecodeSegments(algorithm string, segs []Segment, inputBytes int) ([]byte, error) {
	res := toPipelineResult(segs, inputBytes)
	out, err := decodePipeline(algorithm, res)
	if err != nil {
		return nil, fmt.Errorf("cstream: %w", err)
	}
	return out, nil
}

// RunBatch compresses batch index of the bound dataset through the planned
// pipeline: the calling goroutine runs the algorithm's kernel per slice, and
// helper goroutines join only when every participant gets enough bytes (the
// caller-runs slice executor). Cancelling ctx aborts the run.
func (r *Runner) RunBatch(ctx context.Context, index int) (*BatchResult, error) {
	if r.closed {
		return nil, errClosed("cstream: RunBatch")
	}
	return r.runBatch(ctx, r.w.Dataset.Batch(index, r.w.BatchBytes))
}

// runBatch is the single real-compression path, shared by Runner.RunBatch
// (which feeds it dataset batches) and Session.Push (caller-supplied bytes):
// run the planned pipeline, record telemetry, copy the pooled segment
// buffers out, and release them back to the pipeline's pools.
func (r *Runner) runBatch(ctx context.Context, b *stream.Batch) (*BatchResult, error) {
	return r.runBatchInto(ctx, b, &BatchResult{})
}

// runBatchInto is runBatch writing into a caller-owned BatchResult: the
// segment slice and each segment's Compressed buffer are reused past their
// high-water marks, so a steady-state pusher recycling one BatchResult
// copies the pooled pipeline output without allocating per batch.
func (r *Runner) runBatchInto(ctx context.Context, b *stream.Batch, into *BatchResult) (*BatchResult, error) {
	var obs compress.StageObserver
	var start time.Time
	if r.tel != nil {
		obs = r.tel.sink.Spans().Record
		start = time.Now()
	}
	res, err := r.deployment().RunBatchData(ctx, r.w.Algorithm, b, obs)
	if err != nil {
		return nil, err
	}
	if r.store != nil {
		// Persist while the pooled result is live: the store frames and
		// writes synchronously and keeps no alias into res afterwards.
		if err := r.store.AppendResult(b.Index, time.Now().UnixNano(), res); err != nil {
			res.Release()
			return nil, fmt.Errorf("cstream: segment sink: %w", err)
		}
	}
	r.batches++
	if r.tel != nil {
		reg := r.tel.sink.Metrics()
		reg.Counter(telemetry.MetricBatches).Add(1)
		reg.Counter(telemetry.MetricCompressBytesIn).Add(int64(res.InputBytes))
		reg.Counter(telemetry.MetricCompressBytesOut).Add(int64((res.TotalBits + 7) / 8))
		if elapsed := time.Since(start); elapsed > 0 {
			mbps := float64(res.InputBytes) / elapsed.Seconds() / 1e6
			reg.Gauge(telemetry.MetricThroughputPrefix + r.Algorithm()).Set(mbps)
		}
	}
	into.Batch = b.Index
	into.InputBytes = res.InputBytes
	into.TotalBits = res.TotalBits
	into.alg = r.Algorithm()
	if cap(into.Segments) < len(res.Segments) {
		grown := make([]Segment, len(res.Segments))
		// Carry the old segments over so their Compressed buffers keep
		// getting recycled after growth.
		copy(grown, into.Segments[:cap(into.Segments)])
		into.Segments = grown
	} else {
		into.Segments = into.Segments[:len(res.Segments)]
	}
	for i := range res.Segments {
		s := &res.Segments[i]
		dst := &into.Segments[i]
		dst.SliceIndex = s.SliceIndex
		dst.BitLen = s.BitLen
		dst.OrigLen = s.OrigLen
		dst.Compressed = append(dst.Compressed[:0], s.Compressed...)
	}
	res.Release()
	return into, nil
}

// RawBatch returns the uncompressed bytes of batch index, for verification.
func (r *Runner) RawBatch(index int) []byte {
	return r.w.Dataset.Batch(index, r.w.BatchBytes).Bytes()
}

// Report is one batch of the adaptive runtime's feedback loop.
type Report struct {
	// Batch is the batch index.
	Batch int
	// LatencyPerByte and EnergyPerByte are measured (µs/B, µJ/B).
	LatencyPerByte, EnergyPerByte float64
	// Predicted is the model's latency prediction (µs/B).
	Predicted float64
	// Violated, Calibrating and Replanned report the loop's state after
	// this batch.
	Violated, Calibrating, Replanned bool
}

// ProcessBatch runs one batch through the adaptation loop selected with
// WithAdaptation and reports the loop's reaction. It fails unless an
// adaptation mode is active.
func (r *Runner) ProcessBatch(index int) (Report, error) {
	if r.closed {
		return Report{}, errClosed("cstream: ProcessBatch")
	}
	var rep core.BatchReport
	switch {
	case r.adaptPID != nil:
		rep = r.adaptPID.ProcessBatch(index)
	case r.adaptStats != nil:
		rep = r.adaptStats.ProcessBatch(index)
	default:
		return Report{}, errors.New("cstream: ProcessBatch requires WithAdaptation")
	}
	r.batches++
	return Report{
		Batch:          rep.Batch,
		LatencyPerByte: rep.LatencyPerByte,
		EnergyPerByte:  rep.EnergyPerByte,
		Predicted:      rep.Predicted,
		Violated:       rep.Violated,
		Calibrating:    rep.Calibrating,
		Replanned:      rep.Replanned,
	}, nil
}

// Measurement is one simulated execution of the planned graph.
type Measurement struct {
	// LatencyPerByte is µs per byte; EnergyPerByte is µJ per byte.
	LatencyPerByte, EnergyPerByte float64
}

// simulate is the single simulated-measurement path, shared by Measure and
// MeasureRepeated: execute the current plan n times on the platform model
// and feed the planner's decision log and histograms.
func (r *Runner) simulate(n int) []costmodel.Measurement {
	dep := r.deployment()
	ms := dep.Executor.RunRepeated(dep.Graph, dep.Plan, n)
	r.planner.RecordMeasurement(dep, ms, r.w.LSet)
	return ms
}

// Measure simulates one execution of the current plan on the platform model
// (scheduling jitter and DVFS effects included). With telemetry attached it
// appends one "measure" decision comparing measurement against prediction.
func (r *Runner) Measure() Measurement {
	m := r.simulate(1)[0]
	return Measurement{LatencyPerByte: m.LatencyPerByte, EnergyPerByte: m.EnergyPerByte}
}

// Summary aggregates repeated simulated executions.
type Summary struct {
	// MeanLatency and MeanEnergy are per-byte averages; P99Latency the 99th
	// percentile latency; CLCV the fraction of runs violating L_set.
	MeanLatency, MeanEnergy, P99Latency, CLCV float64
	// Runs is the sample count.
	Runs int
}

// MeasureRepeated simulates n executions and summarizes latency, energy and
// the constraint-violation rate. With telemetry attached it appends one
// "measure" decision holding the predicted-vs-measured comparison (the
// Table IV data point) and feeds the latency/energy histograms.
func (r *Runner) MeasureRepeated(n int) Summary {
	ms := r.simulate(n)
	lat := make([]float64, len(ms))
	en := make([]float64, len(ms))
	for i, m := range ms {
		lat[i], en[i] = m.LatencyPerByte, m.EnergyPerByte
	}
	s := metrics.Summarize(lat, en, r.w.LSet)
	return Summary{
		MeanLatency: s.MeanLatency,
		MeanEnergy:  s.MeanEnergy,
		P99Latency:  s.P99Latency,
		CLCV:        s.CLCV,
		Runs:        s.Runs,
	}
}

// SetClusterFrequency pins a cluster (0 = little, 1 = big) to mhz, emulating
// a DVFS decision. Call Replan to reschedule under the new frequencies.
func (r *Runner) SetClusterFrequency(cluster, mhz int) error {
	if r.closed {
		return errClosed("cstream")
	}
	return r.machine.SetClusterFrequency(cluster, mhz)
}

// ResetFrequencies restores both clusters to their nominal frequencies.
func (r *Runner) ResetFrequencies() error {
	if r.closed {
		return errClosed("cstream")
	}
	if err := r.machine.SetClusterFrequency(0, amp.LittleNominalMHz); err != nil {
		return err
	}
	return r.machine.SetClusterFrequency(1, amp.BigNominalMHz)
}

// Replan searches for a fresh plan under the platform's current state,
// reusing the profile gathered at Open. Only valid without adaptation (the
// adaptive loops replan themselves).
func (r *Runner) Replan() error {
	if r.closed {
		return errClosed("cstream")
	}
	if r.dep == nil {
		return errors.New("cstream: Replan requires AdaptNone")
	}
	dep, err := r.planner.DeployProfile(r.w, r.prof, r.cfg.policy)
	if err != nil {
		return err
	}
	r.dep = dep
	return nil
}

// SetDynamicRange adjusts the value range of a synthetic "Micro" dataset
// mid-stream, inducing the statistic shift of Fig. 9's experiment.
func (r *Runner) SetDynamicRange(v uint32) error {
	if r.closed {
		return errClosed("cstream")
	}
	if m, ok := r.w.Dataset.(*dataset.Micro); ok {
		m.DynamicRange = v
		return nil
	}
	return fmt.Errorf("cstream: dataset %s has no dynamic range control", r.w.Dataset.Name())
}

// Stats reports the Runner's counters since Open.
type Stats struct {
	// Batches counts batches compressed or processed.
	Batches int64
	// PlanSearches counts full or incremental plan searches performed by
	// the planner.
	PlanSearches int64
	// CacheHits and CacheMisses are plan-cache counters; zero unless
	// WithPlanCache was set.
	CacheHits, CacheMisses int64
	// CacheSize is the number of plans currently resident in the cache.
	CacheSize int
}

// Stats returns the Runner's counters.
func (r *Runner) Stats() Stats {
	cs := r.planner.PlanCacheStats()
	return Stats{
		Batches:      r.batches,
		PlanSearches: r.planner.SearchCount(),
		CacheHits:    cs.Hits,
		CacheMisses:  cs.Misses,
		CacheSize:    cs.Size,
	}
}
