package amp

import "math/rand"

// Noise magnitudes of the simulated platform. Computation timing is fairly
// stable; communication is the noisy component (prefetchers, coherence
// traffic), which is what limits the cost model's accuracy in Table V.
const (
	compLatencySigma = 0.02
	commLatencySigma = 0.12
	energySigma      = 0.035
	// spikeProb is the chance of a scheduling/interrupt hiccup inflating one
	// measurement; large jitter sources (e.g. OS migrations) are charged by
	// the executor separately.
	spikeProb   = 0.015
	spikeFactor = 0.06
)

// Sampler draws the "measured" value of a quantity whose ground truth the
// simulator knows, reproducing run-to-run variance on real hardware. It is
// deterministic for a given seed: its draws are exactly those of
// rand.New(rand.NewSource(seed)).
//
// The seeded state is an immutable origin that Restart shares: a restarted
// sampler replays the same draws without paying for the seeding again. A
// Sampler copies the origin before its first draw, so one that never draws
// holds nothing but the origin.
type Sampler struct {
	origin *source
	state  *source   // the origin's working copy; nil until the first draw
	rng    rand.Rand // over state
}

// NewSampler returns a Sampler seeded for reproducibility.
func NewSampler(seed int64) *Sampler {
	// One allocation holds the sampler and its origin.
	a := &struct {
		s      Sampler
		origin source
	}{}
	seedSource(&a.origin, seed)
	a.s.origin = &a.origin
	return &a.s
}

// Restart returns a sampler positioned at s's origin, as NewSampler with s's
// seed would return it. It copies the state now, so its first draw pays no
// copy. It reads only the origin, so it may run while another goroutine
// draws from s.
func (s *Sampler) Restart() *Sampler {
	// One allocation holds the sampler and its working state.
	a := &struct {
		s     Sampler
		state source
	}{}
	a.state = *s.origin
	a.s.origin = s.origin
	a.s.start(&a.state)
	return &a.s
}

// start points the sampler's generator at state.
func (s *Sampler) start(state *source) {
	s.state = state
	s.rng = *rand.New(state)
}

// r returns the sampler's generator, copying the origin on the first draw.
func (s *Sampler) r() *rand.Rand {
	if s.state == nil {
		c := *s.origin
		s.start(&c)
	}
	return &s.rng
}

// MeasureCompLatency perturbs a true computation latency.
func (s *Sampler) MeasureCompLatency(trueUS float64) float64 {
	r := s.r()
	v := trueUS * (1 + r.NormFloat64()*compLatencySigma)
	if r.Float64() < spikeProb {
		v *= 1 + r.Float64()*spikeFactor
	}
	if v < 0 {
		v = 0
	}
	return v
}

// MeasureCommLatency perturbs a true communication latency; its variance is
// substantially higher than computation's.
func (s *Sampler) MeasureCommLatency(trueUS float64) float64 {
	v := trueUS * (1 + s.r().NormFloat64()*commLatencySigma)
	if v < 0 {
		v = 0
	}
	return v
}

// MeasureEnergy perturbs a true energy value.
func (s *Sampler) MeasureEnergy(trueUJ float64) float64 {
	v := trueUJ * (1 + s.r().NormFloat64()*energySigma)
	if v < 0 {
		v = 0
	}
	return v
}

// Uniform returns a deterministic uniform draw in [0,1), for mechanisms that
// place tasks randomly (BO/LO).
func (s *Sampler) Uniform() float64 { return s.r().Float64() }

// Intn returns a deterministic uniform draw in [0,n).
func (s *Sampler) Intn(n int) int { return s.r().Intn(n) }

// Meter emulates the INA226 + ESP32-S2 energy meter of Fig. 6: it samples
// current/voltage at a fixed period and integrates, so readings carry
// quantization on top of sensor noise.
type Meter struct {
	s *Sampler
	// QuantumUJ is the integration quantum (sensor LSB × sample period).
	QuantumUJ float64
}

// NewMeter returns a meter with the default 0.05 µJ quantum.
func NewMeter(seed int64) *Meter {
	return &Meter{s: NewSampler(seed*31 + 7), QuantumUJ: 0.05}
}

// Restart returns a meter with m's quantum whose readings replay m's from
// the start (see Sampler.Restart).
func (m *Meter) Restart() *Meter {
	return &Meter{s: m.s.Restart(), QuantumUJ: m.QuantumUJ}
}

// Read measures a true energy quantity, applying sensor noise and
// quantization.
func (m *Meter) Read(trueUJ float64) float64 {
	v := m.s.MeasureEnergy(trueUJ)
	if m.QuantumUJ > 0 {
		steps := int(v/m.QuantumUJ + 0.5)
		v = float64(steps) * m.QuantumUJ
	}
	return v
}
