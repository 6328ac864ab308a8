package core

import (
	"math"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/fmath"
	"repro/internal/pid"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// Paper settings for the feedback-based regulation (Section V-D / Fig. 9).
const (
	// AdaptP, AdaptI, AdaptD are the PSO-tuned incremental-PID gains.
	AdaptP = 0.1
	AdaptI = 0.85
	AdaptD = 0.05
	// AdaptTolerance is the maximum relative error treated as converged.
	AdaptTolerance = 0.1
	// adaptTriggerRel is the measured-vs-predicted divergence that starts a
	// calibration round.
	adaptTriggerRel = 0.12
)

// BatchReport records one batch of the adaptive runtime, the data behind
// Fig. 9.
type BatchReport struct {
	// Batch is the batch index.
	Batch int
	// LatencyPerByte and EnergyPerByte are measured (µs/B, µJ/B).
	LatencyPerByte, EnergyPerByte float64
	// Predicted is the model's latency prediction before this batch.
	Predicted float64
	// Violated reports a latency constraint violation.
	Violated bool
	// Calibrating reports an active PID calibration round.
	Calibrating bool
	// Replanned reports that a new scheduling plan was adopted after this
	// batch.
	Replanned bool
}

// adaptLoop is what both adaptation controllers share: the planner, the
// workload, the CStream policy, the adopted deployment and the executor that
// measures it on the platform.
type adaptLoop struct {
	pl  *Planner
	w   Workload
	pol policy.Policy
	dep *Deployment
	ex  *costmodel.Executor
}

// newAdaptLoop plans the workload with CStream; seedLabel names the
// executor's measurement stream.
func newAdaptLoop(pl *Planner, w Workload, seedLabel string) (adaptLoop, error) {
	pol, err := lookupPolicy(MechCStream)
	if err != nil {
		return adaptLoop{}, err
	}
	dep, err := pl.Deploy(w, MechCStream)
	if err != nil {
		return adaptLoop{}, err
	}
	return adaptLoop{
		pl:  pl,
		w:   w,
		pol: pol,
		dep: dep,
		ex:  &costmodel.Executor{M: pl.Machine, Sampler: amp.NewSampler(pl.deploySeed(w.Name(), seedLabel))},
	}, nil
}

// Deployment exposes the current plan (it changes after replanning).
func (l *adaptLoop) Deployment() *Deployment { return l.dep }

// rebuildTasks re-derives a deployment's decomposition statistics from a
// batch's profile, preserving its step grouping and replica counts, so the
// adaptation loops' executors run against the batch's true costs.
func rebuildTasks(prof *Profile, cached []LogicalTask) []LogicalTask {
	tasks := make([]LogicalTask, len(cached))
	for i, lt := range cached {
		nt := makeTask(prof, [][]compress.StepKind{lt.Steps})
		nt.Replicas = lt.Replicas
		tasks[i] = nt
	}
	for i := 1; i < len(tasks); i++ {
		tasks[i].InPerByte = tasks[i-1].OutPerByte
	}
	return tasks
}

// measure runs the adopted plan against one batch's true costs — its
// profile rebuilt onto the deployment's decomposition, so the executor runs
// against ground truth even after the workload shifts — and records the
// batch. It returns the report with the model's prediction for the plan.
func (l *adaptLoop) measure(prof *Profile, index int) (BatchReport, costmodel.Measurement, costmodel.Estimate) {
	tg := BuildGraph(rebuildTasks(prof, l.dep.Tasks), l.w.BatchBytes)
	meas := l.ex.Run(tg, l.dep.Plan)
	pred := l.pl.Model.Estimate(l.dep.Graph, l.dep.Plan, l.w.LSet)
	rep := BatchReport{
		Batch:          index,
		LatencyPerByte: meas.LatencyPerByte,
		EnergyPerByte:  meas.EnergyPerByte,
		Predicted:      pred.LatencyPerByte,
		Violated:       meas.LatencyPerByte > l.w.LSet,
	}
	l.pl.recordBatch(meas.LatencyPerByte, meas.EnergyPerByte, rep.Violated)
	return rep, meas, pred
}

// replan adopts a plan for prof's regime through resolvePlan: a regime
// already planned under the current calibration is served from the cache,
// otherwise base is replicated and placed by the planner's plan search. The
// adoption is logged as a decision of the given kind.
func (l *adaptLoop) replan(kind string, prof *Profile, base []LogicalTask, index int) {
	tally := &searchTally{}
	tasks, g, p, est, feas := l.pl.resolvePlan(tally, l.pol, l.w, prof,
		func() ([]LogicalTask, *costmodel.Graph, costmodel.Plan, costmodel.Estimate, bool) {
			g, p, est, feas := l.pl.replicateAndPlace(base, l.w.BatchBytes, l.w.LSet,
				func(g *costmodel.Graph) costmodel.Plan {
					return l.pl.searchPlan(tally, l.pl.Model, g, l.w.LSet).Plan
				})
			return base, g, p, est, feas
		})
	l.dep.Tasks, l.dep.Graph, l.dep.Plan, l.dep.Estimate, l.dep.Feasible = tasks, g, p, est, feas
	l.pl.recordDeploy(kind, l.dep, tally, index)
}

// Adaptive is CStream's feedback-regulated runtime: it executes batches,
// compares measured latency against the model's prediction, and when they
// diverge runs incremental-PID calibration of the model's computation-cost
// parameter followed by rescheduling.
type Adaptive struct {
	adaptLoop
	// Regulate enables the feedback loop; with it off, the initial plan is
	// kept forever (the Fig. 9 "w/o regulation" line).
	Regulate bool

	calibrator  *pid.Calibrator
	calibrating bool
}

// NewAdaptive plans the workload with CStream and prepares the regulation
// loop.
func NewAdaptive(pl *Planner, w Workload, regulate bool) (*Adaptive, error) {
	l, err := newAdaptLoop(pl, w, "adaptive")
	if err != nil {
		return nil, err
	}
	return &Adaptive{
		adaptLoop:  l,
		Regulate:   regulate,
		calibrator: pid.NewCalibrator(AdaptP, AdaptI, AdaptD, 1.0, AdaptTolerance),
	}, nil
}

// ProcessBatch compresses one batch (for real), measures the deployment on
// the platform with that batch's true costs, and — when regulation is on —
// runs the divergence check, PID calibration and replanning.
func (a *Adaptive) ProcessBatch(index int) BatchReport {
	prof := profileBatch(a.w.Algorithm, a.w.Dataset.Batch(index, a.w.BatchBytes))
	rep, meas, pred := a.measure(prof, index)
	if !a.Regulate {
		return rep
	}

	rel := math.Abs(meas.LatencyPerByte-pred.LatencyPerByte) / math.Max(pred.LatencyPerByte, 1e-9)
	if rel > adaptTriggerRel && !a.calibrating {
		a.calibrating = true
		instr, _ := a.pl.Model.Calibration()
		a.calibrator.Reset(instr)
		// The divergence that opened this calibration round is itself a
		// decision-log event: measured vs predicted for the soon-to-be-
		// recalibrated plan.
		a.pl.recordAdaptMeasure(a.dep, pred, meas, index)
	}
	if a.calibrating {
		rep.Calibrating = true
		a.pl.Telemetry.Metrics().Counter(telemetry.MetricCalibrations).Add(1)
		// The implied instruction-scale: what correction factor would have
		// made the prediction match this measurement.
		instr, _ := a.pl.Model.Calibration()
		implied := instr * meas.LatencyPerByte / math.Max(pred.LatencyPerByte, 1e-9)
		converged := a.calibrator.Observe(implied)
		a.pl.Model.SetCalibration(a.calibrator.Est, 1)
		if converged {
			a.calibrating = false
			// Replan the current decomposition with the calibrated model.
			a.replan(telemetry.KindReplanPID, prof, cloneTasks(a.dep.Tasks), index)
			rep.Replanned = true
		}
	}
	return rep
}

// --- statistics-triggered adaptation (extension) ---
//
// The paper notes that its PID regulation lags bursting workloads (at least
// three calibration rounds) and that "more sophisticated controllers that
// monitor workload statistical information in the datastream may achieve an
// even better response". StatsAdaptive is that controller: it watches a
// cheap per-batch stream statistic (the mean significant bit width of the
// 32-bit symbols) and, on a shift, re-profiles the batch and replans
// immediately — one batch of reaction time instead of three-plus.

// statsTriggerRel is the relative change of the stream statistic that
// triggers an immediate re-plan.
const statsTriggerRel = 0.25

// StatsAdaptive is the statistics-triggered variant of the adaptive runtime.
type StatsAdaptive struct {
	adaptLoop
	// baselineStat is the exponentially weighted stream statistic.
	baselineStat float64
}

// NewStatsAdaptive plans the workload with CStream and arms the monitor.
func NewStatsAdaptive(pl *Planner, w Workload) (*StatsAdaptive, error) {
	l, err := newAdaptLoop(pl, w, "stats-adaptive")
	if err != nil {
		return nil, err
	}
	return &StatsAdaptive{adaptLoop: l}, nil
}

// meanBitWidth samples the batch and returns the mean significant bit width
// of its 32-bit symbols — a proxy for dynamic range and entropy that costs a
// single linear scan of a prefix.
func meanBitWidth(data []byte) float64 {
	const sampleBytes = 64 * 1024
	n := len(data)
	if n > sampleBytes {
		n = sampleBytes
	}
	words := n / 4
	if words == 0 {
		return 0
	}
	var total int
	for i := 0; i < words; i++ {
		v := uint32(data[i*4]) | uint32(data[i*4+1])<<8 |
			uint32(data[i*4+2])<<16 | uint32(data[i*4+3])<<24
		w := 1
		for v > 1 {
			v >>= 1
			w++
		}
		total += w
	}
	return float64(total) / float64(words)
}

// ProcessBatch compresses one batch, measures the deployment against the
// batch's true costs, and replans within the same batch when the stream
// statistic shifts.
func (a *StatsAdaptive) ProcessBatch(index int) BatchReport {
	b := a.w.Dataset.Batch(index, a.w.BatchBytes)
	stat := meanBitWidth(b.Bytes())
	shifted := false
	if fmath.IsZero(a.baselineStat) {
		a.baselineStat = stat
	} else {
		rel := math.Abs(stat-a.baselineStat) / a.baselineStat
		if rel > statsTriggerRel {
			shifted = true
		} else {
			a.baselineStat = 0.9*a.baselineStat + 0.1*stat
		}
	}

	prof := profileBatch(a.w.Algorithm, b)
	if shifted {
		// Re-decompose this concrete batch and replan before executing it:
		// the statistic told us the old model no longer applies. Regimes
		// seen before (oscillating streams) are served from the plan cache.
		a.replan(telemetry.KindReplanStats, prof, Decompose(prof, a.pl.Machine), index)
		a.baselineStat = stat
	}
	rep, _, _ := a.measure(prof, index)
	rep.Replanned = shifted
	return rep
}
