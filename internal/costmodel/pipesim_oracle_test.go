package costmodel

// This file holds a discrete-event simulator of a deployed compression
// pipeline, kept as a test-only oracle for the steady-state algebra of Eq. 2:
// batches flow through the scheduled task graph with per-batch computation
// and communication delays, bounded inter-task queues and backpressure, and
// the tests in pipesim_test.go check that the period the pipeline settles
// into equals the bottleneck bound Estimate reasons about.

import (
	"fmt"
	"math"

	"repro/internal/amp"
)

// pipeConfig controls a simulation run.
type pipeConfig struct {
	// Batches is the number of batches to push through the pipeline.
	Batches int
	// QueueCapacity bounds each producer→consumer queue, in batches; a task
	// stalls when a consumer has fallen this far behind (backpressure).
	QueueCapacity int
	// Sampler adds per-batch noise to computation and communication times
	// (nil = deterministic).
	Sampler *amp.Sampler
}

// defaultPipeConfig simulates 20 batches with depth-2 queues.
func defaultPipeConfig() pipeConfig {
	return pipeConfig{Batches: 20, QueueCapacity: 2}
}

// pipeResult reports the simulated timeline.
type pipeResult struct {
	// Start and Finish are per-task, per-batch times in µs.
	Start, Finish [][]float64
	// BatchLatencyUS is each batch's pipeline latency: last task finish
	// minus first task start.
	BatchLatencyUS []float64
	// SteadyPeriodUS is the per-batch period of the final third of the run,
	// the inverse throughput the pipeline settles into.
	SteadyPeriodUS float64
	// Utilization is per-core busy time divided by the makespan.
	Utilization []float64
	// MaxQueueDepth is the peak number of in-flight batches per edge.
	MaxQueueDepth map[[2]int]int
	// MakespanUS is the total simulated time.
	MakespanUS float64
}

// pipeSimulate runs graph g under plan p on machine m.
//
// Semantics: tasks process batches in order. Task i starts batch k once
// (a) it finished batch k-1, (b) every upstream task's batch k has arrived
// (upstream finish + communication delay), (c) its core is free, and
// (d) backpressure allows: every direct consumer has started batch
// k-QueueCapacity. Co-located tasks serialize on their core in topological
// order.
func pipeSimulate(m *amp.Machine, g *Graph, p Plan, cfg pipeConfig) (*pipeResult, error) {
	n := len(g.Tasks)
	if n == 0 {
		return &pipeResult{MaxQueueDepth: map[[2]int]int{}}, nil
	}
	if len(p) != n {
		return nil, fmt.Errorf("pipesim: plan covers %d of %d tasks", len(p), n)
	}
	if cfg.Batches < 1 {
		cfg.Batches = 1
	}
	if cfg.QueueCapacity < 1 {
		cfg.QueueCapacity = 1
	}
	batchBytes := float64(g.BatchBytes)

	// Per-task per-batch base times (µs per batch).
	comp := make([]float64, n)
	for i, t := range g.Tasks {
		c := m.CompLatency(p[i], t.InstrPerByte, t.Kappa)
		if t.Replicas > 1 {
			c *= ReplicaLatencyFactor
		}
		comp[i] = c * batchBytes
	}
	commDelay := func(e Edge) float64 {
		from, to := p[e.From], p[e.To]
		if from == to {
			return 0
		}
		return e.BytesPerStreamByte*m.CommLatencyPerByte(from, to)*batchBytes +
			m.CommStaticOverheadUS(from, to)
	}

	res := &pipeResult{
		Start:          make([][]float64, n),
		Finish:         make([][]float64, n),
		BatchLatencyUS: make([]float64, cfg.Batches),
		Utilization:    make([]float64, m.NumCores()),
		MaxQueueDepth:  map[[2]int]int{},
	}
	for i := range res.Start {
		res.Start[i] = make([]float64, cfg.Batches)
		res.Finish[i] = make([]float64, cfg.Batches)
	}
	coreAvail := make([]float64, m.NumCores())
	busy := make([]float64, m.NumCores())

	// consumers[i] lists the tasks that read from i.
	consumers := make([][]int, n)
	for _, e := range g.Edges {
		consumers[e.From] = append(consumers[e.From], e.To)
	}

	for k := 0; k < cfg.Batches; k++ {
		for i := 0; i < n; i++ {
			ready := 0.0
			if k > 0 {
				ready = res.Finish[i][k-1]
			}
			for _, e := range g.Inputs(i) {
				d := commDelay(e)
				if cfg.Sampler != nil && d > 0 {
					d = cfg.Sampler.MeasureCommLatency(d)
				}
				if t := res.Finish[e.From][k] + d; t > ready {
					ready = t
				}
			}
			// Backpressure: the batch k-Q this task produced must have been
			// picked up by every consumer before a new one may start.
			if k >= cfg.QueueCapacity {
				for _, c := range consumers[i] {
					if t := res.Start[c][k-cfg.QueueCapacity]; t > ready {
						ready = t
					}
				}
			}
			core := p[i]
			start := math.Max(ready, coreAvail[core])
			c := comp[i]
			if cfg.Sampler != nil {
				c = cfg.Sampler.MeasureCompLatency(c)
			}
			finish := start + c
			res.Start[i][k] = start
			res.Finish[i][k] = finish
			coreAvail[core] = finish
			busy[core] += c
		}
		res.BatchLatencyUS[k] = res.Finish[n-1][k] - res.Start[0][k]
	}
	res.MakespanUS = res.Finish[n-1][cfg.Batches-1]

	// Steady-state period over the last third.
	lo := cfg.Batches * 2 / 3
	if lo < 1 {
		lo = 1
	}
	if cfg.Batches > lo {
		res.SteadyPeriodUS = (res.Finish[n-1][cfg.Batches-1] - res.Finish[n-1][lo-1]) /
			float64(cfg.Batches-lo)
	} else {
		res.SteadyPeriodUS = res.MakespanUS
	}
	for c := range busy {
		if res.MakespanUS > 0 {
			res.Utilization[c] = busy[c] / res.MakespanUS
		}
	}
	// Peak queue depth per edge: batches produced but not yet started
	// downstream, scanned at each producer finish event.
	for _, e := range g.Edges {
		key := [2]int{e.From, e.To}
		peak := 0
		for k := 0; k < cfg.Batches; k++ {
			t := res.Finish[e.From][k]
			depth := 0
			for j := 0; j <= k; j++ {
				if res.Start[e.To][j] > t {
					depth++
				}
			}
			if depth > peak {
				peak = depth
			}
		}
		res.MaxQueueDepth[key] = peak
	}
	return res, nil
}

// SteadyLatencyPerByte converts the steady-state period into the paper's
// µs-per-byte unit for comparison with L_est.
func (r *pipeResult) SteadyLatencyPerByte(batchBytes int) float64 {
	if batchBytes <= 0 {
		return 0
	}
	return r.SteadyPeriodUS / float64(batchBytes)
}
