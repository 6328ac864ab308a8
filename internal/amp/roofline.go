package amp

import "sort"

// CurvePoint anchors a piecewise-linear hardware curve at one operational
// intensity.
type CurvePoint struct {
	Kappa float64
	Value float64
}

// Curve is a piecewise-linear function of operational intensity, the
// simulator's ground-truth roofline. Points must be sorted by Kappa.
type Curve []CurvePoint

// Eval linearly interpolates the curve at kappa, clamping beyond the ends
// (the flat "roof" beyond the last anchor).
func (c Curve) Eval(kappa float64) float64 {
	if len(c) == 0 {
		return 0
	}
	if kappa <= c[0].Kappa {
		return c[0].Value
	}
	if kappa >= c[len(c)-1].Kappa {
		return c[len(c)-1].Value
	}
	i := sort.Search(len(c), func(i int) bool { return c[i].Kappa >= kappa })
	lo, hi := c[i-1], c[i]
	t := (kappa - lo.Kappa) / (hi.Kappa - lo.Kappa)
	return lo.Value + t*(hi.Value-lo.Value)
}

// Max returns the curve's maximum value (the roof).
func (c Curve) Max() float64 {
	m := 0.0
	for _, p := range c {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Ground-truth roofline curves at nominal frequency, calibrated against the
// paper's Table IV anchors (tcomp32-Rovio tasks t0, t1, t_all):
//
//	big core:    η(102)=9.6, η(220)=15.1, η(320)=19.8  instr/µs
//	             ζ(102)=406, ζ(220)=729, ζ(320)=1034   instr/µJ
//	little core: η(102)=6.0, η(220)=8.1, η(320)=9.2
//	             ζ plateau ≈1200 (averaging ζ(102)=1300 … ζ(320)=1111)
//
// The little-core curves carry the paper's Fig. 3 anomaly: η *decreases* on
// κ∈[30,70] because the in-order A53 stalls on L1-I misses, and ζ collapses
// with it (same power, less progress).
var (
	etaBig = Curve{
		{1, 0.8}, {25, 4.7}, {80, 8.6}, {350, 21.2}, {1000, 21.2},
	}
	etaLittle = Curve{
		// Four Fig. 3 segments: L1-resident rise, the in-order stall dip on
		// [30,70], a single post-recovery slope through the Table IV anchors
		// (η(102)=5.99, η(320)=9.2), and the flat roof.
		{1, 0.6}, {30, 4.8}, {65, 3.4}, {70, 5.52}, {320, 9.2},
		{330, 9.3}, {1000, 9.3},
	}
	zetaBig = Curve{
		{1, 140}, {25, 280}, {102, 406}, {220, 729}, {320, 1034},
		{350, 1120}, {1000, 1120},
	}
	zetaLittle = Curve{
		// Four segments like η: efficient L1-resident zone, the deep stall
		// dip on [30,70] (stalled pipelines burn power without retiring
		// instructions), recovery, and a flat efficient plateau. The plateau
		// averages the Table IV anchors (ζ(102)=1300, ζ(220)=1265,
		// ζ(320)=1111) — the 4-segment shape keeps the Eq. 5 fit faithful.
		{1, 500}, {30, 1380}, {65, 240}, {88, 1200}, {1000, 1200},
	}
)

// EtaCurve returns the ground-truth η(κ) curve for a core type at nominal
// frequency.
func EtaCurve(t CoreType) Curve {
	if t == Big {
		return etaBig
	}
	return etaLittle
}

// freqEtaScale is the η multiplier at frequency f: compute scales with the
// clock, but the memory-bound share of the work does not, so η does not fall
// linearly with f.
func freqEtaScale(f, nominal float64) float64 {
	return 0.3 + 0.7*f/nominal
}

// voltage approximates the DVFS operating voltage (V) at frequency f,
// rising from 0.80 V at the ladder's bottom to the platform's peak voltage
// at the nominal (maximum) frequency.
func (m *Machine) voltage(t CoreType, mhz float64) float64 {
	levels := m.FreqLevels(t)
	minMHz := float64(levels[0])
	nominal := m.NominalMHz(t)
	peak := 1.125
	if t == Big {
		peak = 1.25
	}
	if nominal <= minMHz {
		return peak
	}
	return 0.80 + (mhz-minMHz)/(nominal-minMHz)*(peak-0.80)
}

// freqZetaScale is the ζ multiplier at frequency f: the V² saving of running
// slower fights the static power burned over the longer runtime (the
// platform's static share makes slow little cores *less* efficient, Fig. 15).
func (m *Machine) freqZetaScale(t CoreType, f, nominal float64) float64 {
	vn := m.voltage(t, nominal)
	v := m.voltage(t, f)
	dynGain := (vn * vn) / (v * v)
	s := m.staticFrac(t)
	staticLoss := 1.0 + s*(nominal/f-1.0)
	return dynGain / staticLoss
}

// Eta returns core c's effective instructions/µs at operational intensity
// kappa, at its current frequency.
func (m *Machine) Eta(coreID int, kappa float64) float64 {
	c := m.Core(coreID)
	base := m.BaseEta(c.Type).Eval(kappa)
	return base * freqEtaScale(float64(c.FreqMHz), m.NominalMHz(c.Type))
}

// Zeta returns core c's effective instructions/µJ at operational intensity
// kappa, at its current frequency.
func (m *Machine) Zeta(coreID int, kappa float64) float64 {
	c := m.Core(coreID)
	base := m.BaseZeta(c.Type).Eval(kappa)
	return base * m.freqZetaScale(c.Type, float64(c.FreqMHz), m.NominalMHz(c.Type))
}

// Capacity returns C_j: the maximum instructions/µs core j can retire (the
// roofline's flat top at the current frequency), used by the Eq. 3
// constraint.
func (m *Machine) Capacity(coreID int) float64 {
	c := m.Core(coreID)
	return m.BaseEta(c.Type).Max() * freqEtaScale(float64(c.FreqMHz), m.NominalMHz(c.Type))
}

// CompLatency returns the computation time (µs) for executing the given
// instruction count at intensity kappa on core coreID (Eq. 6's dry-run
// ground truth).
func (m *Machine) CompLatency(coreID int, instructions, kappa float64) float64 {
	eta := m.Eta(coreID, kappa)
	if eta <= 0 {
		return 0
	}
	return instructions / eta
}

// CompEnergy returns the energy (µJ) for executing the given instruction
// count at intensity kappa on core coreID.
func (m *Machine) CompEnergy(coreID int, instructions, kappa float64) float64 {
	zeta := m.Zeta(coreID, kappa)
	if zeta <= 0 {
		return 0
	}
	return instructions / zeta
}
