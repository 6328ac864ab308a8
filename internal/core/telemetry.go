package core

import (
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// searchTally accumulates the plan-search effort behind one scheduling
// decision. DeployProfile and the adaptation loops each thread their own
// tally through the search call chain, so concurrent deploys (RunMultiStream)
// attribute nodes and wall time to the right decision without sharing mutable
// planner state.
type searchTally struct {
	searches int64
	nodes    int64
	micros   float64
	cacheHit bool
	// cacheLookupHit is Deployment.CacheHit.
	cacheLookupHit bool
	// planMode is the resolvePlan tier that served this decision's plan
	// (planModeCache / planModeFull; empty means resolvePlan never ran,
	// reported as "full").
	planMode string
}

// mode reports the tally's plan mode, defaulting to "full" so every deploy
// decision carries a plan_mode even when the policy never consulted
// resolvePlan (mechanism baselines place without searching).
func (t *searchTally) mode() string {
	if t == nil || t.planMode == "" {
		return planModeFull
	}
	return t.planMode
}

// timedSearch runs one plan search through fn, charges its cost to the tally,
// and feeds the global search metrics. With telemetry disabled the only extra
// work is two nil checks — no clock reads.
func (pl *Planner) timedSearch(t *searchTally, fn func() sched.Result) sched.Result {
	s := pl.Telemetry
	var start time.Time
	if s != nil {
		start = time.Now()
	}
	res := fn()
	if t != nil {
		t.searches++
		t.nodes += int64(res.PlansExamined)
	}
	if s != nil {
		us := float64(time.Since(start)) / float64(time.Microsecond)
		if t != nil {
			t.micros += us
		}
		reg := s.Metrics()
		reg.Counter(telemetry.MetricPlanSearches).Add(1)
		reg.Counter(telemetry.MetricPlanSearchNodes).Add(int64(res.PlansExamined))
		reg.Histogram(telemetry.MetricPlanSearchMicros, 0).Observe(us)
	}
	return res
}

// taskSamples breaks a deployment's estimate (and, when given, a measurement)
// down per graph task for the decision log.
func taskSamples(d *Deployment, meas *costmodel.Measurement) []telemetry.TaskSample {
	if d.Graph == nil {
		return nil
	}
	out := make([]telemetry.TaskSample, 0, len(d.Graph.Tasks))
	for i, task := range d.Graph.Tasks {
		ts := telemetry.TaskSample{Task: task.Name}
		if i < len(d.Plan) {
			ts.Core = d.Plan[i]
		}
		if i < len(d.Estimate.PerTaskLatency) {
			ts.PredictedL = d.Estimate.PerTaskLatency[i]
		}
		if i < len(d.Estimate.PerTaskEnergy) {
			ts.PredictedE = d.Estimate.PerTaskEnergy[i]
		}
		if meas != nil {
			if i < len(meas.PerTaskLatency) {
				ts.MeasuredL = meas.PerTaskLatency[i]
				ts.RelErrL = metrics.RelativeError(ts.MeasuredL, ts.PredictedL)
			}
			if i < len(meas.PerTaskEnergy) {
				ts.MeasuredE = meas.PerTaskEnergy[i]
				ts.RelErrE = metrics.RelativeError(ts.MeasuredE, ts.PredictedE)
			}
		}
		out = append(out, ts)
	}
	return out
}

// recordDeploy appends one scheduling decision (kind deploy/replan_*) to the
// decision log and refreshes the planning metrics. No-op without telemetry.
func (pl *Planner) recordDeploy(kind string, d *Deployment, t *searchTally, batch int) {
	s := pl.Telemetry
	if s == nil {
		return
	}
	reg := s.Metrics()
	switch kind {
	case telemetry.KindDeploy:
		reg.Counter(telemetry.MetricDeploys).Add(1)
	case telemetry.KindReplanPID, telemetry.KindReplanStats:
		reg.Counter(telemetry.MetricReplans).Add(1)
	}
	dec := telemetry.Decision{
		Kind:         kind,
		Mechanism:    d.Mechanism,
		Policy:       d.Mechanism,
		PolicyParams: d.PolicyParams,
		Workload:     d.Workload,
		Batch:        batch,
		Plan:         append([]int(nil), d.Plan...),
		Feasible:     d.Feasible,
		PredictedL:   d.Estimate.LatencyPerByte,
		PredictedE:   d.Estimate.EnergyPerByte,
		Tasks:        taskSamples(d, nil),
	}
	dec.PlanMode = t.mode()
	if t != nil {
		dec.CacheHit = t.cacheHit
		dec.Searches = t.searches
		dec.NodesExplored = t.nodes
		dec.SearchMicros = t.micros
	}
	if dec.PlanMode == planModeCache {
		reg.Counter(telemetry.MetricPlanModeCache).Add(1)
	} else {
		reg.Counter(telemetry.MetricPlanModeFull).Add(1)
	}
	s.Decisions().Append(dec)
	pl.mirrorPlanCache(reg)
	recordUtilization(reg, d)
}

// RecordMeasurement appends a "measure" decision comparing the deployment's
// prediction against simulated executions — the Table IV data point — and
// feeds the measured latency/energy histograms plus the per-stream CLCV and
// E_mes gauges. No-op without telemetry.
func (pl *Planner) RecordMeasurement(d *Deployment, ms []costmodel.Measurement, lset float64) {
	s := pl.Telemetry
	if s == nil || len(ms) == 0 {
		return
	}
	reg := s.Metrics()
	latH := reg.Histogram(telemetry.MetricLatencyPerByte, 0)
	enH := reg.Histogram(telemetry.MetricEnergyPerByte, 0)
	var sumL, sumE float64
	violations := 0
	for _, m := range ms {
		latH.Observe(m.LatencyPerByte)
		enH.Observe(m.EnergyPerByte)
		sumL += m.LatencyPerByte
		sumE += m.EnergyPerByte
		if m.LatencyPerByte > lset {
			violations++
		}
	}
	meanL := sumL / float64(len(ms))
	meanE := sumE / float64(len(ms))
	clcv := float64(violations) / float64(len(ms))
	reg.Counter(telemetry.MetricViolations).Add(int64(violations))
	reg.Gauge(telemetry.MetricCLCVPrefix + d.Workload).Set(clcv)
	reg.Gauge(telemetry.MetricEMesPrefix + d.Workload).Set(meanE)

	// Per-task comparison against the mean of the measured runs.
	mean := costmodel.Measurement{
		LatencyPerByte: meanL,
		EnergyPerByte:  meanE,
	}
	if n := len(ms[0].PerTaskLatency); n > 0 {
		mean.PerTaskLatency = make([]float64, n)
		mean.PerTaskEnergy = make([]float64, n)
		for _, m := range ms {
			for i := 0; i < n && i < len(m.PerTaskLatency); i++ {
				mean.PerTaskLatency[i] += m.PerTaskLatency[i] / float64(len(ms))
			}
			for i := 0; i < n && i < len(m.PerTaskEnergy); i++ {
				mean.PerTaskEnergy[i] += m.PerTaskEnergy[i] / float64(len(ms))
			}
		}
	}
	s.Decisions().Append(telemetry.Decision{
		Kind:         telemetry.KindMeasure,
		Mechanism:    d.Mechanism,
		Policy:       d.Mechanism,
		PolicyParams: d.PolicyParams,
		Workload:     d.Workload,
		Batch:        -1,
		Plan:         append([]int(nil), d.Plan...),
		Feasible:     d.Feasible,
		PredictedL:   d.Estimate.LatencyPerByte,
		PredictedE:   d.Estimate.EnergyPerByte,
		MeasuredL:    meanL,
		MeasuredE:    meanE,
		RelErrL:      metrics.RelativeError(meanL, d.Estimate.LatencyPerByte),
		RelErrE:      metrics.RelativeError(meanE, d.Estimate.EnergyPerByte),
		Tasks:        taskSamples(d, &mean),
	})
}

// recordAdaptMeasure appends a "measure" decision for one adaptation-loop
// batch: the current plan's prediction against the batch's simulated
// measurement. The adaptation loops call it when divergence is detected, so
// the decision log shows what triggered a calibration round.
func (pl *Planner) recordAdaptMeasure(d *Deployment, pred costmodel.Estimate, meas costmodel.Measurement, batch int) {
	s := pl.Telemetry
	if s == nil {
		return
	}
	view := *d
	view.Estimate = pred
	s.Decisions().Append(telemetry.Decision{
		Kind:         telemetry.KindMeasure,
		Mechanism:    d.Mechanism,
		Policy:       d.Mechanism,
		PolicyParams: d.PolicyParams,
		Workload:     d.Workload,
		Batch:        batch,
		Plan:         append([]int(nil), d.Plan...),
		Feasible:     d.Feasible,
		PredictedL:   pred.LatencyPerByte,
		PredictedE:   pred.EnergyPerByte,
		MeasuredL:    meas.LatencyPerByte,
		MeasuredE:    meas.EnergyPerByte,
		RelErrL:      metrics.RelativeError(meas.LatencyPerByte, pred.LatencyPerByte),
		RelErrE:      metrics.RelativeError(meas.EnergyPerByte, pred.EnergyPerByte),
		Tasks:        taskSamples(&view, &meas),
	})
}

// recordBatch feeds one executed batch into the stream metrics: the batch
// counter, the measured per-byte histograms, and the violation counter.
func (pl *Planner) recordBatch(latencyPerByte, energyPerByte float64, violated bool) {
	s := pl.Telemetry
	if s == nil {
		return
	}
	reg := s.Metrics()
	reg.Counter(telemetry.MetricBatches).Add(1)
	reg.Histogram(telemetry.MetricLatencyPerByte, 0).Observe(latencyPerByte)
	reg.Histogram(telemetry.MetricEnergyPerByte, 0).Observe(energyPerByte)
	if violated {
		reg.Counter(telemetry.MetricViolations).Add(1)
	}
}

// recordStream gauges one finished stream's CLCV (violating-batch fraction)
// and mean E_mes, keyed by workload name.
func (pl *Planner) recordStream(workload string, batches, violations int, meanEnergy float64) {
	s := pl.Telemetry
	if s == nil || batches == 0 {
		return
	}
	reg := s.Metrics()
	reg.Gauge(telemetry.MetricCLCVPrefix + workload).Set(float64(violations) / float64(batches))
	reg.Gauge(telemetry.MetricEMesPrefix + workload).Set(meanEnergy)
}

// mirrorPlanCache reflects the plan cache's cumulative counters into gauges.
// The cache remains the source of truth; the gauges are a convenience so one
// /metrics snapshot carries the whole picture.
func (pl *Planner) mirrorPlanCache(reg *telemetry.Registry) {
	if pl.cache == nil {
		return
	}
	cs := pl.cache.Stats()
	reg.Gauge(telemetry.MetricPlanCacheHits).Set(float64(cs.Hits))
	reg.Gauge(telemetry.MetricPlanCacheMisses).Set(float64(cs.Misses))
	reg.Gauge(telemetry.MetricPlanCacheEvictions).Set(float64(cs.Evictions))
	reg.Gauge(telemetry.MetricPlanCacheSize).Set(float64(cs.Size))
}

// recordUtilization gauges the simulated per-core utilization of a freshly
// planned deployment: per-core busy time over the estimated makespan.
func recordUtilization(reg *telemetry.Registry, d *Deployment) {
	if d.Estimate.LatencyPerByte <= 0 || len(d.Plan) == 0 {
		return
	}
	busy := map[int]float64{}
	for i, l := range d.Estimate.PerTaskLatency {
		if i < len(d.Plan) {
			busy[d.Plan[i]] += l
		}
	}
	for core, b := range busy {
		reg.Gauge(fmt.Sprintf("%s%d", telemetry.MetricCoreUtilPrefix, core)).Set(b / d.Estimate.LatencyPerByte)
	}
}
