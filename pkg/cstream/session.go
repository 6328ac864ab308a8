package cstream

import (
	"context"
	"fmt"
	"time"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/segstore"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Session is a source-agnostic compression stream: a planned deployment on a
// simulated asymmetric multicore plus a push interface for caller-supplied
// batches.
//
// A Session is not safe for concurrent use; open one Session per stream,
// exactly as the paper gives every stream its own pipeline (Section IV-B).
//
// # Execution paths
//
// Every way a batch moves through a Session funnels into one of two shared
// paths, so behavior cannot drift between entry points:
//
//   - real compression: Push and PushReuse both call runBatchInto, which
//     drives the planned pipeline via the deployment's shared RunBatchData
//     and records telemetry;
//   - simulated measurement: Measure and MeasureRepeated both call
//     simulate, which executes the plan on the platform model and feeds the
//     planner's decision log.
type Session struct {
	cfg     config
	src     Source
	machine *amp.Machine
	planner *core.Planner
	w       core.Workload
	dep     *core.Deployment

	// tel is the attached telemetry handle (nil = disabled).
	tel *Telemetry

	// store is the durable segment sink (nil unless WithSegmentSink).
	store *segstore.Store

	pushes int64
	closed bool
}

// NewSession profiles the source's sample data, fits the platform cost
// model, searches for the energy-minimal feasible scheduling plan, and
// returns a Session ready to compress caller-supplied batches through
// Session.Push.
//
// A DatasetSource's seed becomes the session seed unless WithSeed overrides
// it, so NewSession(alg, DatasetSource(name, seed)) plans and compresses
// exactly as the library's planner does for that dataset and seed.
func NewSession(algorithm string, src Source, opts ...Option) (*Session, error) {
	if src == nil {
		return nil, fmt.Errorf("%w: NewSession requires a non-nil Source", ErrInvalidOption)
	}
	cfg, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if seed, ok := src.preferredSeed(); ok && !cfg.seedSet {
		cfg.seed = seed
	}
	gen, err := src.resolve(cfg.seed)
	if err != nil {
		return nil, err
	}
	alg, err := compress.ByName(algorithm)
	if err != nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownAlgorithm, algorithm)
	}
	machine, err := machineFor(cfg.platform)
	if err != nil {
		return nil, err
	}
	planner, err := core.NewPlanner(machine, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("cstream: %w", err)
	}
	if err := setupPlanner(planner, &cfg); err != nil {
		return nil, err
	}

	w := core.NewWorkload(alg, gen)
	w.BatchBytes = cfg.batchBytes
	w.LSet = cfg.lset
	prof := core.ProfileWorkload(w, cfg.profileBatches, 0)
	dep, err := planner.DeployProfile(w, prof, core.MechCStream)
	if err != nil {
		return nil, fmt.Errorf("cstream: %w", err)
	}
	if cfg.requireFeasible && !dep.Feasible {
		return nil, fmt.Errorf("%w (workload %s, L_set %.3g µs/B)", ErrInfeasible, w.Name(), w.LSet)
	}
	store, err := openSegmentStore(alg.Name(), cfg)
	if err != nil {
		return nil, err
	}
	return &Session{
		cfg:     cfg,
		src:     src,
		machine: machine,
		planner: planner,
		w:       w,
		dep:     dep,
		tel:     cfg.telemetry,
		store:   store,
	}, nil
}

// Close releases the Session; with a segment sink attached it also seals the
// active segment (footer, fsync, atomic rename), and with WithPlanCacheFile
// it atomically rewrites the persisted plan cache, so a clean shutdown leaves
// no partial files behind and the next process warm-starts. Further method
// calls fail with an error matching errors.Is(err, ErrClosed).
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.cfg.planCacheFile != "" {
		if err := s.planner.SavePlanCache(s.cfg.planCacheFile); err != nil {
			return fmt.Errorf("cstream: plan cache file: %w", err)
		}
	}
	if s.store != nil {
		st := s.store
		s.store = nil
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
func (s *Session) Algorithm() string { return s.w.Algorithm.Name() }

// Workload returns the "<algorithm>-<source>" workload label.
func (s *Session) Workload() string { return s.w.Name() }

// SourceName returns the name of the session's source.
func (s *Session) SourceName() string { return s.src.Name() }

// Pushes returns how many batches have been pushed through the session.
func (s *Session) Pushes() int64 { return s.pushes }

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

// Plan returns the scheduling plan, one Placement per task.
func (s *Session) Plan() []Placement {
	out := make([]Placement, len(s.dep.Graph.Tasks))
	for i, task := range s.dep.Graph.Tasks {
		c := s.machine.Core(s.dep.Plan[i])
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

// Estimate is the cost model's prediction for the plan.
type Estimate struct {
	// LatencyPerByte is µs per stream byte; EnergyPerByte is µJ per byte.
	LatencyPerByte, EnergyPerByte float64
	// Feasible reports whether the latency constraint is predicted to hold.
	Feasible bool
}

// Estimate returns the model's prediction for the deployment.
func (s *Session) Estimate() Estimate {
	return Estimate{
		LatencyPerByte: s.dep.Estimate.LatencyPerByte,
		EnergyPerByte:  s.dep.Estimate.EnergyPerByte,
		Feasible:       s.dep.Estimate.Feasible,
	}
}

// Feasible reports whether planning satisfied the latency constraint.
func (s *Session) Feasible() bool { return s.dep.Feasible }

// Segment is one data-parallel slice's compressed output; each segment
// decodes independently (replicas keep private state).
type Segment = compress.Segment

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
	out, err := compress.DecodeSegments(algorithm, &compress.PipelineResult{Segments: segs, InputBytes: inputBytes})
	if err != nil {
		return nil, fmt.Errorf("cstream: %w", err)
	}
	return out, nil
}

// Push compresses one caller-supplied batch through the planned pipeline:
// the calling goroutine runs the algorithm's kernel per slice in a pooled
// kernel session, and helper goroutines join only when every participant
// gets enough bytes (the caller-runs slice executor). The batch index
// recorded in the result counts pushes from zero. Cancelling ctx aborts the
// run. After Close, Push fails with ErrClosed.
func (s *Session) Push(ctx context.Context, data []byte) (*BatchResult, error) {
	return s.PushReuse(ctx, data, nil)
}

// PushReuse is Push writing into a caller-owned BatchResult: into's segment
// slice and each segment's Compressed buffer are recycled past their
// high-water marks, so a steady-state pusher that hands the same BatchResult
// back every batch keeps the whole push path allocation-free. A nil into
// behaves exactly like Push. The returned pointer is into (or the fresh
// result when into is nil); its contents are only valid until the next
// PushReuse with the same into.
func (s *Session) PushReuse(ctx context.Context, data []byte, into *BatchResult) (*BatchResult, error) {
	if s.closed {
		return nil, errClosed("cstream: Push")
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("cstream: Push with an empty batch")
	}
	if into == nil {
		into = &BatchResult{}
	}
	res, err := s.runBatchInto(ctx, stream.NewBatchBytes(int(s.pushes), data), into)
	if err != nil {
		return nil, err
	}
	s.pushes++
	return res, nil
}

// runBatchInto is the single real-compression path: run the planned
// pipeline, persist to the segment sink, record telemetry, copy the pooled
// segment buffers into into (reusing its buffers, so a steady-state pusher
// recycling one BatchResult copies without allocating per batch), and
// release them back to the pipeline's pools.
func (s *Session) runBatchInto(ctx context.Context, b *stream.Batch, into *BatchResult) (*BatchResult, error) {
	var obs compress.StageObserver
	var start time.Time
	if s.tel != nil {
		obs = s.tel.sink.Spans().Record
		start = time.Now()
	}
	res, err := s.dep.RunBatchData(ctx, s.w.Algorithm, b, obs)
	if err != nil {
		return nil, err
	}
	if s.store != nil {
		// Persist while the pooled result is live: the store frames and
		// writes synchronously and keeps no alias into res afterwards.
		if err := s.store.AppendResult(b.Index, time.Now().UnixNano(), res); err != nil {
			res.Release()
			return nil, fmt.Errorf("cstream: segment sink: %w", err)
		}
	}
	if s.tel != nil {
		reg := s.tel.sink.Metrics()
		reg.Counter(telemetry.MetricBatches).Add(1)
		reg.Counter(telemetry.MetricCompressBytesIn).Add(int64(res.InputBytes))
		reg.Counter(telemetry.MetricCompressBytesOut).Add(int64((res.TotalBits + 7) / 8))
		if elapsed := time.Since(start); elapsed > 0 {
			mbps := float64(res.InputBytes) / elapsed.Seconds() / 1e6
			reg.Gauge(telemetry.MetricThroughputPrefix + s.Algorithm()).Set(mbps)
		}
	}
	into.Batch = b.Index
	into.InputBytes = res.InputBytes
	into.TotalBits = res.TotalBits
	into.alg = s.Algorithm()
	into.Segments = res.CopySegments(into.Segments)
	res.Release()
	return into, nil
}

// RawBatch returns the uncompressed bytes of batch index of the source's
// sample generator, for verification.
func (s *Session) RawBatch(index int) []byte {
	return s.w.Dataset.Batch(index, s.w.BatchBytes).Bytes()
}

// Measurement is one simulated execution of the planned graph.
type Measurement struct {
	// LatencyPerByte is µs per byte; EnergyPerByte is µJ per byte.
	LatencyPerByte, EnergyPerByte float64
}

// simulate is the single simulated-measurement path, shared by Measure and
// MeasureRepeated: execute the plan n times on the platform model and feed
// the planner's decision log and histograms.
func (s *Session) simulate(n int) []costmodel.Measurement {
	ms := s.dep.Executor.RunRepeated(s.dep.Graph, s.dep.Plan, n)
	s.planner.RecordMeasurement(s.dep, ms, s.w.LSet)
	return ms
}

// Measure simulates one execution of the plan on the platform model
// (scheduling jitter and DVFS effects included). With telemetry attached it
// appends one "measure" decision comparing measurement against prediction.
func (s *Session) Measure() Measurement {
	m := s.simulate(1)[0]
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
func (s *Session) MeasureRepeated(n int) Summary {
	ms := s.simulate(n)
	lat := make([]float64, len(ms))
	en := make([]float64, len(ms))
	for i, m := range ms {
		lat[i], en[i] = m.LatencyPerByte, m.EnergyPerByte
	}
	sum := metrics.Summarize(lat, en, s.w.LSet)
	return Summary{
		MeanLatency: sum.MeanLatency,
		MeanEnergy:  sum.MeanEnergy,
		P99Latency:  sum.P99Latency,
		CLCV:        sum.CLCV,
		Runs:        sum.Runs,
	}
}
