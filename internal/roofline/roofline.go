// Package roofline implements the four-segment piecewise-linear roofline
// model of Eq. 5 and its fitting from profiled (κ, η) or (κ, ζ) samples.
// Each region Fit can pick is a contiguous run of the κ-sorted samples, so
// it chooses the three breakpoints by Bellman's dynamic program over runs
// (R. Bellman, "On the approximation of curves by line segments using
// dynamic programming", CACM 4(6), 1961) and returns exactly the model a
// search of every breakpoint triple would.
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

// Fit fits the four-region model to profiled samples by choosing the three
// breakpoints among the sample κ values and least-squares fitting each
// region (Magnani & Boyd-style segmented regression, simplified). It is
// new(Fitter).Fit(samples); callers fitting several models in a row keep one
// Fitter instead.
func Fit(samples []Sample) (*Model, error) {
	return new(Fitter).Fit(samples)
}

// line is one region's least-squares fit: slope, intercept and SSE, where a
// negative sse means not yet computed.
type line struct{ a, b, sse float64 }

// Fitter holds the tables of one fit, so that successive fits reuse them.
// The zero value is ready to use; a Fitter must not be used concurrently.
type Fitter struct {
	pts   []Sample
	cands []float64
	// end[c] is the number of samples with κ ≤ cands[c-1], and end[0] = 0,
	// so the region between breakpoints c < d is the run pts[end[c]:end[d]]
	// and the roof above breakpoint c is pts[end[c]:].
	end []int
	nb  int
	// fits[c*nb+d] fits the run pts[end[c]:end[d]]; roof[k] is the mean of
	// pts[end[k]:].
	fits []line
	roof []float64
	// a, b and tail are the dynamic program's tables, described in Fit.
	a, b, tail []float64
}

// Fit fits the four-region model to samples.
//
// The samples are sorted by κ and every breakpoint is a sample κ, so each
// region is a contiguous run of the sorted samples. Each sloped region needs
// at least two samples and the roof at least one. With f(c,d) the SSE of
// the run between breakpoints c and d, the SSE of a triple (i, j, k) is
// f(0,i) + f(i,j) + f(j,k) followed by the roof residuals one at a time, and
// the first triple in lexicographic order with the least finite SSE wins.
//
// The least SSE comes from Bellman's dynamic program over runs:
// a[j] = min_i f(0,i) + f(i,j), b[k] = min_j a[j] + f(j,k), and the least
// SSE V is the minimum over k of b[k] plus the roof residuals of k. Each
// minimum ranges over the same float64 sums, associated the same way, as a
// search of every triple forms, and round-to-nearest addition never
// decreases when an operand grows, so V is exactly the least SSE of any
// triple. A NaN never enters a minimum, and a triple with a NaN term has a
// NaN SSE, so it could not win either. One ordered scan then finds the
// first triple whose SSE equals V, skipping every pair and triple whose
// partial sum already exceeds V.
//
// Runs sharing a start are fitted with running sums, and a run's SSE is
// computed only when the program first needs it.
func (f *Fitter) Fit(samples []Sample) (*Model, error) {
	if len(samples) < 8 {
		return nil, ErrTooFewSamples
	}
	pts := append(f.pts[:0], samples...)
	f.pts = pts
	sort.Slice(pts, func(i, j int) bool { return pts[i].Kappa < pts[j].Kappa })

	// Candidate breakpoints: distinct sample κ values (capped for cost).
	cands := f.cands[:0]
	for _, p := range pts {
		if len(cands) == 0 || p.Kappa > cands[len(cands)-1] {
			cands = append(cands, p.Kappa)
		}
	}
	if len(cands) > 48 {
		// Thin in place: the kept index never trails the write index.
		step := float64(len(cands)) / 48
		w := 0
		for i := 0.0; int(i) < len(cands); i += step {
			cands[w] = cands[int(i)]
			w++
		}
		cands = cands[:w]
	}
	f.cands = cands

	nb := len(cands) + 1
	f.nb = nb
	end := grow(f.end, nb)
	f.end = end
	end[0] = 0
	for c, k := range cands {
		e := end[c]
		for e < len(pts) && pts[e].Kappa <= k {
			e++
		}
		end[c+1] = e
	}
	f.fits = grow(f.fits, nb*nb)
	f.fitRuns()
	inf := math.Inf(1)
	a, b := fill(&f.a, nb, inf), fill(&f.b, nb, inf)
	roof := grow(f.roof, nb)
	f.roof = roof

	// a[j]: regions 0 and 1 end at breakpoint j. f(i,j) cannot lower a[j]
	// while f(0,i) alone is already at a[j].
	for i := 1; i < nb; i++ {
		if end[i] < 2 {
			continue
		}
		f0 := f.sse(0, i)
		for j := i + 1; j < nb; j++ {
			if end[j]-end[i] < 2 || f0 >= a[j] {
				continue
			}
			if s := f0 + f.sse(i, j); s < a[j] {
				a[j] = s
			}
		}
	}
	// b[k]: region 2 ends at breakpoint k and the roof holds the rest.
	for j := 2; j < nb; j++ {
		for k := j + 1; k < nb; k++ {
			if end[k]-end[j] < 2 || end[k] == len(pts) || a[j] >= b[k] {
				continue
			}
			if s := a[j] + f.sse(j, k); s < b[k] {
				b[k] = s
			}
		}
	}
	// best is V. b[k] becomes its total with the roof residuals, unless it is
	// already above V or its partial sum climbs above V, so b[k] equals V
	// exactly when k can end a winner.
	best := inf
	for k := 3; k < nb; k++ {
		if b[k] > best || math.IsInf(b[k], 1) {
			continue
		}
		rest := pts[end[k]:]
		var sum float64
		for _, p := range rest {
			sum += p.Y
		}
		roof[k] = sum / float64(len(rest))
		s := b[k]
		for _, p := range rest {
			if s > best {
				break
			}
			d := p.Y - roof[k]
			s += d * d
		}
		b[k] = s
		if s < best {
			best = s
		}
	}
	if math.IsInf(best, 1) {
		return nil, errNoFeasibleBreaks
	}

	// tail[j] is the least f(j,k) over the k that can end a winner, so a
	// pair whose sum plus tail[j] exceeds V has no winning k.
	tail := fill(&f.tail, nb, inf)
	for j := 2; j < nb; j++ {
		for k := j + 1; k < nb; k++ {
			if !fmath.ExactEq(b[k], best) || end[k]-end[j] < 2 {
				continue
			}
			if e := f.sse(j, k); e < tail[j] {
				tail[j] = e
			}
		}
	}
	for i := 1; i < nb; i++ {
		if end[i] < 2 {
			continue
		}
		f0 := f.sse(0, i)
		for j := i + 1; j < nb; j++ {
			if end[j]-end[i] < 2 || f0+tail[j] > best {
				continue
			}
			p := f0 + f.sse(i, j)
			if p+tail[j] > best {
				continue
			}
			for k := j + 1; k < nb; k++ {
				if !fmath.ExactEq(b[k], best) || end[k]-end[j] < 2 {
					continue
				}
				// Drop the triple once its sum exceeds V: adding d*d ≥ 0
				// never lowers the rounded sum.
				s := p + f.sse(j, k)
				for _, q := range pts[end[k]:] {
					if s > best {
						break
					}
					d := q.Y - roof[k]
					s += d * d
				}
				if fmath.ExactEq(s, best) {
					r0, r1, r2 := f.fits[i], f.fits[i*nb+j], f.fits[j*nb+k]
					return &Model{
						KappaL1: cands[i-1], KappaL2: cands[j-1], KappaRoof: cands[k-1],
						A:    [3]float64{r0.a, r1.a, r2.a},
						B:    [3]float64{r0.b, r1.b, r2.b},
						YMax: roof[k],
					}, nil
				}
			}
		}
	}
	panic("roofline: no breakpoint triple attains the least SSE")
}

// fitRuns fits slope and intercept of every run of at least two samples,
// with running sums over the runs that share a start, added in the order a
// fit of the run alone adds them, and marks every SSE not yet computed.
func (f *Fitter) fitRuns() {
	pts, end, nb := f.pts, f.end, f.nb
	for c := 0; c < nb; c++ {
		var sx, sy, sxx, sxy float64
		for d := c + 1; d < nb; d++ {
			for _, p := range pts[end[d-1]:end[d]] {
				sx += p.Kappa
				sy += p.Y
				sxx += p.Kappa * p.Kappa
				sxy += p.Kappa * p.Y
			}
			n := end[d] - end[c]
			if n < 2 {
				continue
			}
			l := line{sse: -1}
			nf := float64(n)
			if den := nf*sxx - sx*sx; fmath.IsZero(den) {
				l.b = sy / nf
			} else {
				l.a = (nf*sxy - sx*sy) / den
				l.b = (sy - l.a*sx) / nf
			}
			f.fits[c*nb+d] = l
		}
	}
}

// sse returns f(c,d), the SSE of the run between breakpoints c and d,
// computing it on first use.
func (f *Fitter) sse(c, d int) float64 {
	l := &f.fits[c*f.nb+d]
	if l.sse < 0 {
		var sse float64
		for _, p := range f.pts[f.end[c]:f.end[d]] {
			r := p.Y - (l.a*p.Kappa + l.b)
			sse += r * r
		}
		l.sse = sse
	}
	return l.sse
}

// grow returns s resized to n elements, reallocating only when its capacity
// is short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fill resizes *s to n elements, all v, and returns it.
func fill(s *[]float64, n int, v float64) []float64 {
	*s = grow(*s, n)
	for i := range *s {
		(*s)[i] = v
	}
	return *s
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
