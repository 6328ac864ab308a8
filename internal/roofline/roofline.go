// Package roofline implements the four-segment piecewise-linear roofline
// model of Eq. 5 and its fitting from profiled (κ, η) or (κ, ζ) samples.
// Fit searches every breakpoint triple, but each region it can pick is a
// contiguous run of the κ-sorted samples, so every run is fitted once and
// the search only looks fits up.
//
// This is the *cost model's approximation* of the hardware: the simulator in
// internal/amp holds the ground-truth curves; this package fits the
// four-region model the scheduler actually uses, exactly as the authors
// fitted perf-profiled samples. The residual between fit and ground truth is
// one source of the Table V estimation error.
package roofline

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/fmath"
)

// Model is the four-region piecewise-linear function of Eq. 5:
//
//	y(κ) = a[r]·κ + b[r]  for the region r containing κ,
//
// with region boundaries κ_L1 (L1 pressure), κ_L2 (L2 pressure) and κ_roof
// (compute bound); beyond κ_roof the model is flat at YMax.
type Model struct {
	// KappaL1, KappaL2, KappaRoof are the region boundaries.
	KappaL1, KappaL2, KappaRoof float64
	// A and B hold slope and intercept per region (regions 0..2); region 3
	// is the flat roof.
	A [3]float64
	B [3]float64
	// YMax is the roof value.
	YMax float64
}

// Eval returns the modeled value at kappa.
func (m *Model) Eval(kappa float64) float64 {
	switch {
	case kappa <= m.KappaL1:
		return m.A[0]*kappa + m.B[0]
	case kappa <= m.KappaL2:
		return m.A[1]*kappa + m.B[1]
	case kappa <= m.KappaRoof:
		return m.A[2]*kappa + m.B[2]
	default:
		return m.YMax
	}
}

// String summarizes the fitted regions.
func (m *Model) String() string {
	return fmt.Sprintf("roofline{κL1=%.0f κL2=%.0f κroof=%.0f roof=%.2f}",
		m.KappaL1, m.KappaL2, m.KappaRoof, m.YMax)
}

// Sample is one profiled data point.
type Sample struct {
	Kappa float64
	Y     float64
}

// ErrTooFewSamples reports that fitting needs more points.
var ErrTooFewSamples = errors.New("roofline: need at least 8 samples to fit four regions")

// errNoFeasibleBreaks reports that no breakpoint triple leaves every region
// enough samples.
var errNoFeasibleBreaks = errors.New("roofline: no feasible breakpoint assignment")

// line is one region's least-squares fit: slope, intercept and SSE.
type line struct{ a, b, sse float64 }

// Fit fits the four-region model to profiled samples by grid-searching the
// three breakpoints over sample positions and least-squares fitting each
// region (Magnani & Boyd-style segmented regression, simplified).
//
// The samples are sorted by κ and every breakpoint is a sample κ, so each
// region is a contiguous run of the sorted samples. Every run a sloped region
// can take is fitted once, and the roof mean once per start, before the
// search; each breakpoint triple then only looks its three runs up and sums
// the roof residuals. A region needs at least two samples (the roof one), and
// the first triple with the least SSE wins.
func Fit(samples []Sample) (*Model, error) {
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

	// end[c] is the number of samples with κ ≤ cands[c-1], and end[0] = 0, so
	// the region between breakpoints c < d is the run pts[end[c]:end[d]] and
	// the roof above breakpoint c is pts[end[c]:].
	nb := len(cands) + 1
	end := make([]int, nb)
	for c, k := range cands {
		e := end[c]
		for e < len(pts) && pts[e].Kappa <= k {
			e++
		}
		end[c+1] = e
	}
	// fits[c*nb+d] fits the run pts[end[c]:end[d]]; roof[c] is the mean of
	// pts[end[c]:].
	fits := make([]line, nb*nb)
	roof := make([]float64, nb)
	for c := 0; c < nb; c++ {
		for d := c + 1; d < nb; d++ {
			if end[d]-end[c] >= 2 {
				a, b, e := linFit(pts[end[c]:end[d]])
				fits[c*nb+d] = line{a, b, e}
			}
		}
		if rest := pts[end[c]:]; len(rest) > 0 {
			var sum float64
			for _, p := range rest {
				sum += p.Y
			}
			roof[c] = sum / float64(len(rest))
		}
	}

	best := math.Inf(1)
	var bi, bj, bk int
	for i := 1; i < nb; i++ {
		for j := i + 1; j < nb; j++ {
			for k := j + 1; k < nb; k++ {
				if end[i] < 2 || end[j]-end[i] < 2 || end[k]-end[j] < 2 || end[k] == len(pts) {
					continue
				}
				sse := 0.0
				sse += fits[i].sse
				sse += fits[i*nb+j].sse
				sse += fits[j*nb+k].sse
				for _, p := range pts[end[k]:] {
					// Adding d*d ≥ 0 never lowers the rounded sum, so a
					// partial sum already at best cannot win.
					if sse >= best {
						break
					}
					d := p.Y - roof[k]
					sse += d * d
				}
				if sse < best {
					best = sse
					bi, bj, bk = i, j, k
				}
			}
		}
	}
	if bi == 0 {
		return nil, errNoFeasibleBreaks
	}
	r0, r1, r2 := fits[bi], fits[bi*nb+bj], fits[bj*nb+bk]
	return &Model{
		KappaL1: cands[bi-1], KappaL2: cands[bj-1], KappaRoof: cands[bk-1],
		A:    [3]float64{r0.a, r1.a, r2.a},
		B:    [3]float64{r0.b, r1.b, r2.b},
		YMax: roof[bk],
	}, nil
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

// DefaultGrid is the κ sweep used for profiling, spanning the paper's Fig. 3
// range with denser coverage at low intensity.
func DefaultGrid() []float64 {
	var g []float64
	for k := 2.0; k < 30; k += 4 {
		g = append(g, k)
	}
	for k := 30.0; k < 110; k += 5 {
		g = append(g, k)
	}
	for k := 110.0; k <= 420; k += 20 {
		g = append(g, k)
	}
	return g
}

// Profiler measures (κ, y) samples from a platform, standing in for the
// Lo et al. roofline toolkit plus perf.
type Profiler struct {
	// Measure returns the ground-truth y at κ on the target core; the
	// profiler perturbs it with the sampler the caller wires in.
	Measure func(kappa float64) float64
	// Noise perturbs a measurement (may be nil for noiseless profiling).
	Noise func(y float64) float64
	// Repeats averages this many noisy measurements per grid point.
	Repeats int
}

// Run profiles the grid and returns samples.
func (p *Profiler) Run(grid []float64) []Sample {
	reps := p.Repeats
	if reps < 1 {
		reps = 1
	}
	out := make([]Sample, 0, len(grid))
	for _, k := range grid {
		var sum float64
		for r := 0; r < reps; r++ {
			y := p.Measure(k)
			if p.Noise != nil {
				y = p.Noise(y)
			}
			sum += y
		}
		out = append(out, Sample{Kappa: k, Y: sum / float64(reps)})
	}
	return out
}
