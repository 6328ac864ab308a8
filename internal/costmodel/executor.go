package costmodel

import "repro/internal/amp"

// Measurement is one "hardware" observation of a plan executing on the
// simulated board.
type Measurement struct {
	// LatencyPerByte is the observed compressing latency (µs per stream
	// byte), the quantity compared against L_set for CLCV.
	LatencyPerByte float64
	// EnergyPerByte is the observed energy (µJ per stream byte) as read by
	// the energy meter.
	EnergyPerByte float64
	// PerTaskLatency observes each task.
	PerTaskLatency []float64
	// PerTaskEnergy observes each task.
	PerTaskEnergy []float64
}

// Executor runs plans on the ground-truth platform with measurement noise;
// it is the simulator's stand-in for actually executing threads on the
// Rockpi board and reading the INA226 meter.
type Executor struct {
	M *amp.Machine
	// Sampler provides run-to-run variance; nil means noiseless.
	Sampler *amp.Sampler
	// Meter quantizes energy readings; nil means exact.
	Meter *amp.Meter
	// MigrationOverheadUS adds per-batch latency jitter and energy for
	// mechanisms whose tasks migrate between cores (the OS baseline).
	MigrationOverheadUS float64
	// MigrationEnergyUJPerByte charges migration/context-switch energy.
	MigrationEnergyUJPerByte float64
	// OverheadEnergyPerByte charges the mechanism's own bookkeeping
	// (profiling, scheduling) — included in E_mes per Section VI-C.
	OverheadEnergyPerByte float64
}

// ExecOverheads bundles the per-policy runtime overheads an Executor charges
// on every measured batch. Scheduling policies return one from their
// Overheads hook; SetOverheads installs it.
type ExecOverheads struct {
	// MigrationOverheadUS adds per-batch latency jitter for policies whose
	// tasks migrate between cores.
	MigrationOverheadUS float64
	// MigrationEnergyUJPerByte charges migration/context-switch energy.
	MigrationEnergyUJPerByte float64
	// OverheadEnergyPerByte charges the policy's own bookkeeping.
	OverheadEnergyPerByte float64
}

// SetOverheads installs a policy's runtime overheads on the executor.
func (ex *Executor) SetOverheads(o ExecOverheads) {
	ex.MigrationOverheadUS = o.MigrationOverheadUS
	ex.MigrationEnergyUJPerByte = o.MigrationEnergyUJPerByte
	ex.OverheadEnergyPerByte = o.OverheadEnergyPerByte
}

// measureComp perturbs a computation latency when a sampler is present.
func (ex *Executor) measureComp(v float64) float64 {
	if ex.Sampler == nil {
		return v
	}
	return ex.Sampler.MeasureCompLatency(v)
}

func (ex *Executor) measureComm(v float64) float64 {
	if ex.Sampler == nil {
		return v
	}
	return ex.Sampler.MeasureCommLatency(v)
}

func (ex *Executor) measureEnergy(v float64) float64 {
	if ex.Sampler == nil {
		return v
	}
	return ex.Sampler.MeasureEnergy(v)
}

// Restart returns a copy of the executor on the same machine, with the same
// overheads, whose sampler and meter are restarted from their origins (see
// amp.Sampler.Restart): its measurements are those a freshly seeded
// executor would make. It only reads ex, so many goroutines may restart one
// shared executor.
func (ex *Executor) Restart() *Executor {
	c := *ex
	if ex.Sampler != nil {
		c.Sampler = ex.Sampler.Restart()
	}
	if ex.Meter != nil {
		c.Meter = ex.Meter.Restart()
	}
	return &c
}

// Run executes graph g under plan p once and returns the observed
// measurement. The steady-state pipeline semantics match the estimator:
// co-located tasks time-share their core, each task's stage latency is its
// core's busy time plus its inbound communication, and the procedure's
// latency is the slowest stage (Eq. 2).
func (ex *Executor) Run(g *Graph, p Plan) Measurement {
	var m Measurement
	ex.RunInto(g, p, &m, nil)
	return m
}

// RunInto is Run writing into m and using busy as per-core scratch: m's
// per-task slices and busy are reused when large enough, so a caller that
// hands the same ones back every batch allocates nothing. It returns busy,
// grown if it had to be. Noise is drawn in the same order as Run's.
func (ex *Executor) RunInto(g *Graph, p Plan, m *Measurement, busy []float64) []float64 {
	n := len(g.Tasks)
	m.LatencyPerByte, m.EnergyPerByte = 0, 0
	m.PerTaskLatency = resize(m.PerTaskLatency, n)
	m.PerTaskEnergy = resize(m.PerTaskEnergy, n)
	busy = resize(busy, ex.M.NumCores())
	clear(busy)
	batch := float64(g.BatchBytes)
	for i, t := range g.Tasks {
		core := p[i]
		l := ex.M.CompLatency(core, t.InstrPerByte, t.Kappa)
		if t.Replicas > 1 {
			l *= ReplicaLatencyFactor
		}
		l += taskStartupUS(ex.M.Core(core).Type) / batch
		busy[core] += ex.measureComp(l)
	}
	for i, t := range g.Tasks {
		core := p[i]
		l := busy[core]
		var commE float64
		for _, e := range g.Inputs(i) {
			from := p[e.From]
			if from == core {
				continue
			}
			trueComm := e.BytesPerStreamByte*ex.M.CommLatencyPerByte(from, core) +
				ex.M.CommStaticOverheadUS(from, core)/batch
			l += ex.measureComm(trueComm)
			commE += e.BytesPerStreamByte * ex.M.CommEnergyPerByte(from, core)
		}
		if ex.MigrationOverheadUS > 0 && ex.Sampler != nil {
			// Migrations hit tasks stochastically and stretch their stage.
			l += ex.Sampler.Uniform() * ex.MigrationOverheadUS / batch
		}
		m.PerTaskLatency[i] = l
		if l > m.LatencyPerByte {
			m.LatencyPerByte = l
		}

		e := ex.M.CompEnergy(core, t.InstrPerByte, t.Kappa)
		e += ReplicaOverhead(t)
		e += commE + TaskBatchEnergyUJ/batch
		e = ex.measureEnergy(e)
		m.PerTaskEnergy[i] = e
		m.EnergyPerByte += e
	}
	m.EnergyPerByte += ex.MigrationEnergyUJPerByte + ex.OverheadEnergyPerByte
	if ex.Meter != nil {
		m.EnergyPerByte = ex.Meter.Read(m.EnergyPerByte*batch) / batch
	}
	return busy
}

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are not cleared.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// RunRepeated executes the plan `times` times and returns all measurements,
// the basis of the paper's 100-repetition CLCV metric.
func (ex *Executor) RunRepeated(g *Graph, p Plan, times int) []Measurement {
	out := make([]Measurement, times)
	for i := range out {
		out[i] = ex.Run(g, p)
	}
	return out
}
