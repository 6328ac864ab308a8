package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/stream"
)

// Multi-stream runtime: an IoT gateway rarely serves one sensor. The
// MultiStreamRuntime hosts concurrent compression streams over one planner
// and one simulated board, and reports how shared core capacity stretched
// each stream's latency. The serve layer is its one user: it attaches and
// detaches StreamHandles as network sessions come and go, and pushes
// caller-supplied batches through RunBatch.

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
// one simulated board. Streams attach with a planned deployment, push real
// batch bytes through the planned pipeline, and detach; the shared capacity
// ledger converts co-residency into per-batch contention
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

	batches    int
	violations int
	sumE       float64
	detached   bool
}

// Deployment returns the plan the stream runs under.
func (h *StreamHandle) Deployment() *Deployment { return h.dep }

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
	h.sumE += m.EnergyPerByte
	if violated {
		h.violations++
	}
	h.rt.pl.recordBatch(lat, m.EnergyPerByte, violated)
	return BatchMeasure{
		LatencyPerByte: lat,
		EnergyPerByte:  m.EnergyPerByte,
		Contention:     contention,
		Violated:       violated,
	}
}

// RunBatch compresses caller-supplied batch bytes through the stream's
// planned pipeline (the same RunBatchData path the facade's Session.Push
// drives) while the stream claims its per-core busy time in the runtime's
// capacity ledger, and returns the real compressed output alongside the
// simulated measurement, its latency stretched by the worst co-residency
// factor observed.
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
