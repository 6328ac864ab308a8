package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Multi-stream runtime: an IoT gateway rarely serves one sensor. The
// MultiStreamRuntime schedules N concurrent compression streams over one
// planner and one simulated board, so the plan cache and the plan search are
// exercised under contention, and reports how shared core capacity
// stretched each stream's latency.
//
// Two entry points share it: RunMultiStream drives a fixed batch count per
// workload (the paper-style closed experiment), while the serve layer
// attaches and detaches StreamHandles as network sessions come and go,
// pushing caller-supplied batches through RunBatch.

// StreamReport summarizes one stream of a multi-stream run.
type StreamReport struct {
	// Workload names the stream's algorithm-dataset pair.
	Workload string
	// Plan is the placement the stream ran under.
	Plan costmodel.Plan
	// Feasible reports the planner's feasibility verdict.
	Feasible bool
	// Batches is the number of batches actually processed (can be short of
	// the request when the context is cancelled).
	Batches int
	// MeanLatencyPerByte and MeanEnergyPerByte average the measured batches,
	// with latency stretched by the observed capacity contention.
	MeanLatencyPerByte, MeanEnergyPerByte float64
	// PeakContention is the worst capacity-contention factor the stream saw
	// (1.0 = had its cores to itself).
	PeakContention float64
	// Violations counts batches whose stretched latency broke L_set.
	Violations int
}

// MultiStreamReport aggregates a multi-stream run.
type MultiStreamReport struct {
	Streams []StreamReport
	// Searches / CacheHits / CacheMisses are planner-counter deltas over the
	// run (zero hits and misses when no plan cache is enabled).
	Searches               int64
	CacheHits, CacheMisses int64
	// PeakCoreLoad is the highest per-core busy time (µs per stream byte)
	// that was ever resident concurrently on one core.
	PeakCoreLoad float64
}

// capacityLedger tracks how much per-core busy time the resident streams
// have claimed, the shared-capacity view the contention factors come from.
type capacityLedger struct {
	mu   sync.Mutex
	load []float64
	peak float64
}

func newCapacityLedger(numCores int) *capacityLedger {
	return &capacityLedger{load: make([]float64, numCores)}
}

// acquire claims a stream's per-core busy time and returns the contention
// factor: the worst ratio of a used core's total resident load to this
// stream's own share of it (≥1; 1 means exclusive use).
func (cl *capacityLedger) acquire(busy []float64) float64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	factor := 1.0
	for c, b := range busy {
		if b <= 0 {
			continue
		}
		cl.load[c] += b
		if cl.load[c] > cl.peak {
			cl.peak = cl.load[c]
		}
		if f := cl.load[c] / b; f > factor {
			factor = f
		}
	}
	return factor
}

func (cl *capacityLedger) release(busy []float64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for c, b := range busy {
		if b > 0 {
			cl.load[c] -= b
		}
	}
}

func (cl *capacityLedger) peakLoad() float64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.peak
}

// coreBusy folds a deployment's estimated per-task latencies into per-core
// busy time, the stream's claim on shared capacity.
func coreBusy(d *Deployment, numCores int) []float64 {
	busy := make([]float64, numCores)
	for i, l := range d.Estimate.PerTaskLatency {
		if i < len(d.Plan) {
			busy[d.Plan[i]] += l
		}
	}
	return busy
}

// MultiStreamRuntime hosts concurrent compression streams on one planner and
// one simulated board. Streams attach with a planned deployment, run batches
// (simulated, or real bytes through the planned pipeline), and detach; the
// shared capacity ledger converts co-residency into per-batch contention
// factors. All methods are safe for concurrent use; an individual
// StreamHandle serves one stream and is not.
type MultiStreamRuntime struct {
	pl     *Planner
	ledger *capacityLedger

	mu       sync.Mutex
	attached int
}

// NewMultiStreamRuntime builds a runtime over the planner's machine.
func NewMultiStreamRuntime(pl *Planner) *MultiStreamRuntime {
	return &MultiStreamRuntime{pl: pl, ledger: newCapacityLedger(pl.Machine.NumCores())}
}

// Planner returns the shared planner.
func (rt *MultiStreamRuntime) Planner() *Planner { return rt.pl }

// Attached returns the number of currently attached streams.
func (rt *MultiStreamRuntime) Attached() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.attached
}

// PeakCoreLoad returns the highest per-core busy time (µs per stream byte)
// ever resident concurrently on one core of this runtime.
func (rt *MultiStreamRuntime) PeakCoreLoad() float64 { return rt.ledger.peakLoad() }

// Attach admits one stream running workload w under the given deployment
// (typically from the shared planner's DeployProfile, so the plan cache is
// exercised). The deployment's graph and plan may be shared by many streams;
// the handle gets its own measurement executor, restarted from the
// deployment's (costmodel.Executor.Restart), so it measures exactly what a
// freshly seeded executor would and per-stream measurements never race.
func (rt *MultiStreamRuntime) Attach(w Workload, dep *Deployment) (*StreamHandle, error) {
	if dep == nil {
		return nil, fmt.Errorf("core: Attach with nil deployment")
	}
	if name := w.Name(); dep.Workload != name {
		return nil, fmt.Errorf("core: deployment is for %s, got %s", dep.Workload, name)
	}
	if dep.Executor == nil {
		return nil, fmt.Errorf("core: deployment for %s has no executor", dep.Workload)
	}
	if dep.Executor.M != rt.pl.Machine {
		return nil, fmt.Errorf("core: deployment for %s simulates another machine than the runtime's", dep.Workload)
	}
	h := &StreamHandle{
		rt:   rt,
		w:    w,
		dep:  dep,
		ex:   dep.Executor.Restart(),
		busy: coreBusy(dep, rt.pl.Machine.NumCores()),
	}
	rt.mu.Lock()
	rt.attached++
	rt.mu.Unlock()
	return h, nil
}

// BatchMeasure is the runtime's accounting for one executed batch.
type BatchMeasure struct {
	// LatencyPerByte is the simulated latency (µs/B) stretched by the
	// contention factor; EnergyPerByte is the simulated energy (µJ/B).
	LatencyPerByte, EnergyPerByte float64
	// Contention is the capacity-contention factor this batch saw (1.0 =
	// exclusive use of its cores).
	Contention float64
	// Violated reports whether the stretched latency broke the stream's
	// L_set.
	Violated bool
}

// StreamHandle is one attached stream. It is owned by a single goroutine;
// only the runtime's shared state behind it is synchronized.
type StreamHandle struct {
	rt   *MultiStreamRuntime
	w    Workload
	dep  *Deployment
	ex   *costmodel.Executor
	busy []float64

	// meas and exBusy are the executor's output and scratch, reused by
	// every batch.
	meas   costmodel.Measurement
	exBusy []float64

	batches        int
	violations     int
	sumL, sumE     float64
	peakContention float64
	detached       bool
}

// Deployment returns the plan the stream runs under.
func (h *StreamHandle) Deployment() *Deployment { return h.dep }

// Workload returns the stream's workload.
func (h *StreamHandle) Workload() Workload { return h.w }

// measure runs the stream's plan once on the simulated board into h.meas.
func (h *StreamHandle) measure() {
	h.exBusy = h.ex.RunInto(h.dep.Graph, h.dep.Plan, &h.meas, h.exBusy)
}

// account folds the batch just measured into the stream's accumulators and
// the planner's stream metrics.
func (h *StreamHandle) account(contention float64) BatchMeasure {
	m := &h.meas
	lat := m.LatencyPerByte * contention
	violated := lat > h.w.LSet
	h.batches++
	h.sumL += lat
	h.sumE += m.EnergyPerByte
	if violated {
		h.violations++
	}
	if contention > h.peakContention {
		h.peakContention = contention
	}
	h.rt.pl.recordBatch(lat, m.EnergyPerByte, violated)
	return BatchMeasure{
		LatencyPerByte: lat,
		EnergyPerByte:  m.EnergyPerByte,
		Contention:     contention,
		Violated:       violated,
	}
}

// Simulate executes one batch of the stream's plan on the platform model
// under the runtime's shared capacity: the stream claims its per-core busy
// time for the duration, and the simulated latency is stretched by the worst
// co-residency factor observed.
func (h *StreamHandle) Simulate() BatchMeasure {
	contention := h.rt.ledger.acquire(h.busy)
	h.measure()
	h.rt.ledger.release(h.busy)
	return h.account(contention)
}

// RunBatch compresses caller-supplied batch bytes through the stream's
// planned pipeline (the same RunBatchData path the facade's Session.Push
// drives) while claiming shared capacity exactly as Simulate does, and
// returns the real compressed output alongside the simulated measurement.
func (h *StreamHandle) RunBatch(ctx context.Context, b *stream.Batch) (*compress.PipelineResult, BatchMeasure, error) {
	contention := h.rt.ledger.acquire(h.busy)
	res, err := h.dep.RunBatchData(ctx, h.w.Algorithm, b, nil)
	if err != nil {
		h.rt.ledger.release(h.busy)
		return nil, BatchMeasure{}, err
	}
	h.measure()
	h.rt.ledger.release(h.busy)
	return res, h.account(contention), nil
}

// Report summarizes the stream so far.
func (h *StreamHandle) Report() StreamReport {
	rep := StreamReport{
		Workload:       h.w.Name(),
		Plan:           h.dep.Plan.Clone(),
		Feasible:       h.dep.Feasible,
		Batches:        h.batches,
		PeakContention: h.peakContention,
		Violations:     h.violations,
	}
	if h.batches > 0 {
		rep.MeanLatencyPerByte = h.sumL / float64(h.batches)
		rep.MeanEnergyPerByte = h.sumE / float64(h.batches)
	}
	return rep
}

// Detach ends the stream: its CLCV and mean energy are gauged into the
// per-stream telemetry and the runtime's attached count drops. Detach is
// idempotent.
func (h *StreamHandle) Detach() {
	if h.detached {
		return
	}
	h.detached = true
	mean := 0.0
	if h.batches > 0 {
		mean = h.sumE / float64(h.batches)
	}
	h.rt.pl.recordStream(h.dep.Workload, h.batches, h.violations, mean)
	h.rt.mu.Lock()
	h.rt.attached--
	h.rt.mu.Unlock()
}

// RunMultiStream deploys every workload with CStream on the shared planner
// and processes `batches` batches per stream concurrently, each stream in
// its own goroutine against the shared capacity ledger. Context cancellation
// stops all streams after their current batch; the partial report and
// ctx.Err() are returned.
func RunMultiStream(ctx context.Context, pl *Planner, workloads []Workload, batches, profileBatches int) (*MultiStreamReport, error) {
	return RunMultiStreamPolicy(ctx, pl, workloads, batches, profileBatches, MechCStream)
}

// RunMultiStreamPolicy is RunMultiStream parameterized over the scheduling
// policy: every stream is deployed through the named registered policy.
func RunMultiStreamPolicy(ctx context.Context, pl *Planner, workloads []Workload, batches, profileBatches int, policyName string) (*MultiStreamReport, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("core: no workloads")
	}
	if _, err := lookupPolicy(policyName); err != nil {
		return nil, err
	}
	if batches < 1 {
		batches = 1
	}
	if profileBatches < 1 {
		profileBatches = 1
	}
	searches0 := pl.SearchCount()
	cs0 := pl.PlanCacheStats()

	rt := NewMultiStreamRuntime(pl)
	reports := make([]StreamReport, len(workloads))
	errs := make([]error, len(workloads))
	var wg sync.WaitGroup
	for si, w := range workloads {
		wg.Add(1)
		go func(si int, w Workload) {
			defer wg.Done()
			prof := ProfileWorkload(w, profileBatches, 0)
			dep, err := pl.DeployProfile(w, prof, policyName)
			if err != nil {
				errs[si] = err
				return
			}
			h, err := rt.Attach(w, dep)
			if err != nil {
				errs[si] = err
				return
			}
			for b := 0; b < batches; b++ {
				if ctx.Err() != nil {
					break
				}
				h.Simulate()
			}
			reports[si] = h.Report()
			h.Detach()
		}(si, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	cs1 := pl.PlanCacheStats()
	out := &MultiStreamReport{
		Streams:      reports,
		Searches:     pl.SearchCount() - searches0,
		CacheHits:    cs1.Hits - cs0.Hits,
		CacheMisses:  cs1.Misses - cs0.Misses,
		PeakCoreLoad: rt.PeakCoreLoad(),
	}
	pl.Telemetry.Metrics().Gauge(telemetry.MetricPeakCoreLoad).Set(out.PeakCoreLoad)
	return out, ctx.Err()
}
