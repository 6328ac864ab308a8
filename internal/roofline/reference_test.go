package roofline

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/amp"
	"repro/internal/fmath"
)

// fitReference is the exhaustive search Fit's dynamic program replaces: every
// breakpoint triple re-partitions the samples and re-fits its regions, and
// the first triple with the least SSE wins. Fit must return the same *Model
// value and the same error on every input.
func fitReference(samples []Sample) (*Model, error) {
	if len(samples) < 8 {
		return nil, ErrTooFewSamples
	}
	pts := make([]Sample, len(samples))
	copy(pts, samples)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Kappa < pts[j].Kappa })

	// Candidate breakpoints: distinct sample κ values (capped for cost).
	var cands []float64
	for _, p := range pts {
		if len(cands) == 0 || p.Kappa > cands[len(cands)-1] {
			cands = append(cands, p.Kappa)
		}
	}
	if len(cands) > 48 {
		step := float64(len(cands)) / 48
		var thin []float64
		for i := 0.0; int(i) < len(cands); i += step {
			thin = append(thin, cands[int(i)])
		}
		cands = thin
	}

	best := math.Inf(1)
	var bestModel *Model
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			for k := j + 1; k < len(cands); k++ {
				m, sse, ok := fitBreaksReference(pts, cands[i], cands[j], cands[k])
				if ok && sse < best {
					best = sse
					bestModel = m
				}
			}
		}
	}
	if bestModel == nil {
		return nil, errNoFeasibleBreaks
	}
	return bestModel, nil
}

// fitBreaksReference least-squares fits the three sloped regions and the
// flat roof for fixed breakpoints; ok is false when a region lacks samples.
func fitBreaksReference(pts []Sample, b1, b2, b3 float64) (*Model, float64, bool) {
	var regions [4][]Sample
	for _, p := range pts {
		switch {
		case p.Kappa <= b1:
			regions[0] = append(regions[0], p)
		case p.Kappa <= b2:
			regions[1] = append(regions[1], p)
		case p.Kappa <= b3:
			regions[2] = append(regions[2], p)
		default:
			regions[3] = append(regions[3], p)
		}
	}
	for r := 0; r < 3; r++ {
		if len(regions[r]) < 2 {
			return nil, 0, false
		}
	}
	if len(regions[3]) < 1 {
		return nil, 0, false
	}
	m := &Model{KappaL1: b1, KappaL2: b2, KappaRoof: b3}
	sse := 0.0
	for r := 0; r < 3; r++ {
		a, b, e := linFit(regions[r])
		m.A[r], m.B[r] = a, b
		sse += e
	}
	// Roof: mean of the compute-bound samples.
	var sum float64
	for _, p := range regions[3] {
		sum += p.Y
	}
	m.YMax = sum / float64(len(regions[3]))
	for _, p := range regions[3] {
		d := p.Y - m.YMax
		sse += d * d
	}
	return m, sse, true
}

// linFit returns least-squares slope, intercept and SSE for one region.
func linFit(pts []Sample) (a, b, sse float64) {
	n := float64(len(pts))
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		sx += p.Kappa
		sy += p.Y
		sxx += p.Kappa * p.Kappa
		sxy += p.Kappa * p.Y
	}
	den := n*sxx - sx*sx
	if fmath.IsZero(den) {
		a = 0
		b = sy / n
	} else {
		a = (n*sxy - sx*sy) / den
		b = (sy - a*sx) / n
	}
	for _, p := range pts {
		d := p.Y - (a*p.Kappa + b)
		sse += d * d
	}
	return a, b, sse
}

// checkMatchesReference fails unless Fit and fitReference agree exactly.
func checkMatchesReference(t *testing.T, samples []Sample) {
	t.Helper()
	got, gotErr := Fit(samples)
	want, wantErr := fitReference(samples)
	if gotErr != wantErr {
		t.Fatalf("error = %v, reference %v", gotErr, wantErr)
	}
	if (got == nil) != (want == nil) || got != nil && *got != *want {
		t.Fatalf("Fit = %+v\nreference %+v", got, want)
	}
}

// newModelProfiles replays costmodel.NewModel's dry run: one sampler per
// seed drawing, in order, the little core's η and ζ profiles and then the big
// core's, five noisy repeats per grid point.
func newModelProfiles(m *amp.Machine, seed int64) [][]Sample {
	s := amp.NewSampler(seed)
	var out [][]Sample
	for _, core := range []int{m.LittleCores()[0], m.BigCores()[0]} {
		eta := &Profiler{
			Measure: func(k float64) float64 { return m.Eta(core, k) },
			Noise:   func(y float64) float64 { return 1 / s.MeasureCompLatency(1/y) },
			Repeats: 5,
		}
		zeta := &Profiler{
			Measure: func(k float64) float64 { return m.Zeta(core, k) },
			Noise:   func(y float64) float64 { return 1 / s.MeasureEnergy(1/y) },
			Repeats: 5,
		}
		out = append(out, eta.Run(DefaultGrid()), zeta.Run(DefaultGrid()))
	}
	return out
}

func TestFitMatchesReferenceOnNewModelProfiles(t *testing.T) {
	for _, m := range []*amp.Machine{amp.NewRK3399(), amp.NewJetsonTX2()} {
		for _, seed := range []int64{1, 42} {
			for _, samples := range newModelProfiles(m, seed) {
				checkMatchesReference(t, samples)
			}
		}
	}
}

func TestFitMatchesReferenceOnEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samplesAt := func(kappas ...float64) []Sample {
		s := make([]Sample, len(kappas))
		for i, k := range kappas {
			s[i] = Sample{Kappa: k, Y: math.Sqrt(k) + rng.Float64()}
		}
		return s
	}
	var grid3 []float64
	for _, k := range DefaultGrid() {
		grid3 = append(grid3, k, k, k)
	}
	var wide []float64
	for k := 60.0; k > 0; k-- {
		wide = append(wide, k)
	}
	// A flat line has zero SSE under every feasible triple, so only the
	// tie-break decides the breakpoints.
	var flat []Sample
	for k := 1.0; k <= 12; k++ {
		flat = append(flat, Sample{Kappa: k, Y: 3})
	}
	cases := map[string][]Sample{
		"too few":                 samplesAt(1, 2, 3, 4, 5, 6, 7),
		"duplicate kappa":         samplesAt(grid3...),
		"duplicates at breaks":    samplesAt(1, 1, 2, 2, 2, 3, 4, 4, 5, 5, 5, 6, 7, 7),
		"thinned candidates":      samplesAt(wide...),
		"three distinct kappas":   samplesAt(1, 1, 1, 2, 2, 2, 3, 3, 3),
		"one kappa":               samplesAt(5, 5, 5, 5, 5, 5, 5, 5),
		"every region too narrow": samplesAt(1, 2, 3, 4, 5, 6, 6, 6),
		"tied triples":            flat,
	}
	for name, samples := range cases {
		t.Run(name, func(t *testing.T) { checkMatchesReference(t, samples) })
	}
	for _, name := range []string{"three distinct kappas", "one kappa", "every region too narrow"} {
		if _, err := Fit(cases[name]); !errors.Is(err, errNoFeasibleBreaks) {
			t.Errorf("%s: err = %v, want no feasible breakpoints", name, err)
		}
	}
}

// TestFitMatchesReferenceOnTies sweeps seeded sample sets with small-integer
// y and κ from a narrow range, where different breakpoint triples often
// reach exactly the same SSE, so the search must also reproduce the
// reference's choice among them. Half the sets are an exact ramp that levels
// off, so many triples fit their sloped regions with zero SSE and only the
// roof residuals tell them apart. Non-finite and overflowing y cover the
// triples whose SSE is NaN or +Inf.
func TestFitMatchesReferenceOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for set := 0; set < 300; set++ {
		knee, slope := float64(2+rng.Intn(6)), float64(1+rng.Intn(2))
		samples := make([]Sample, 8+rng.Intn(24))
		for i := range samples {
			k := float64(1 + rng.Intn(10))
			y := float64(rng.Intn(4))
			if set%2 == 1 {
				y = slope * math.Min(k, knee)
			}
			samples[i] = Sample{Kappa: k, Y: y}
		}
		checkMatchesReference(t, samples)
	}
	for name, y := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "overflow": 1e155} {
		t.Run(name, func(t *testing.T) {
			var samples []Sample
			for k := 1.0; k <= 16; k++ {
				samples = append(samples, Sample{Kappa: k, Y: float64(int(k) % 3)})
			}
			samples[5].Y = y
			checkMatchesReference(t, samples)
		})
	}
}

// samplesFromBytes decodes fuzz input, three bytes per sample: κ is the
// first byte (so duplicates are common and more than 48 distinct values take
// the thinning path) and y a signed 16-bit fixed-point value. Inputs are
// capped at 64 samples to bound the reference's cost.
func samplesFromBytes(data []byte) []Sample {
	var s []Sample
	for len(data) >= 3 && len(s) < 64 {
		y := int16(uint16(data[1]) | uint16(data[2])<<8)
		s = append(s, Sample{Kappa: float64(data[0]), Y: float64(y) / 256})
		data = data[3:]
	}
	return s
}

// FuzzFitMatchesReference checks Fit against fitReference on arbitrary
// samples: the same fitted model, bit for bit, and the same error.
func FuzzFitMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesReference(t, samplesFromBytes(data))
	})
}
