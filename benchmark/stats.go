package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method), which
// is what the acceptance spread is computed with. Fewer than two values
// collapse to the single value (NaN when empty).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// Like Python, clamp j first and let delta extrapolate past the ends.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// windows counts bytes completed per fixed wall-clock window of a timed
// phase. Each generator owns one (no sharing, no locks); sumWindows folds
// them into the phase's per-window MB/s series.
type windows struct {
	start time.Time
	width time.Duration
	bytes []int64
}

func newWindows(start time.Time, width, span time.Duration) *windows {
	return &windows{start: start, width: width, bytes: make([]int64, max(int(span/width), 1))}
}

// readBackWindow is the window width of a read-back phase: an eighth of it,
// but never so short (a smoke run's phase is 40 ms) that a window could pass
// without one large batch being decoded in it.
func readBackWindow(phase time.Duration) time.Duration {
	return max(phase/8, 50*time.Millisecond)
}

// index is the window t falls in: -1 before the start, and past the last
// window for an operation that completes after the deadline; add ignores both.
func (w *windows) index(t time.Time) int {
	d := t.Sub(w.start)
	if d < 0 {
		return -1
	}
	return int(d / w.width)
}

func (w *windows) add(t time.Time, n int64) {
	if i := w.index(t); i >= 0 && i < len(w.bytes) {
		w.bytes[i] += n
	}
}

// sumWindows returns MB/s (1 MB = 1e6 B) per window, summed over generators.
func sumWindows(ws []*windows) []float64 {
	if len(ws) == 0 {
		return nil
	}
	out := make([]float64, len(ws[0].bytes))
	for _, w := range ws {
		for i, b := range w.bytes {
			out[i] += float64(b)
		}
	}
	secs := ws[0].width.Seconds()
	for i := range out {
		out[i] /= 1e6 * secs
	}
	return out
}

// tracedOverhead is 1 - traced/untraced throughput for a series whose odd
// elements were measured with span recording on and whose even elements with
// it off (the traced run alternates per window or per round). Each traced
// element is compared with the untraced one just before it and the median
// ratio is taken, so a drift in the host's speed over the phase cancels.
func tracedOverhead(series []float64) float64 {
	var ratios []float64
	for i := 1; i < len(series); i += 2 {
		ratios = append(ratios, series[i]/series[i-1])
	}
	return 1 - median(ratios)
}

func mbPerSec(bytes int64, d time.Duration) float64 {
	return float64(bytes) / 1e6 / d.Seconds()
}
