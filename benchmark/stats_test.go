package main

import (
	"testing"
	"time"
)

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the driver computes the acceptance spread with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 9, 2, 8, 3, 7}, [3]float64{2, 5, 8}},
		{[]float64{10.5, 3.25, 8, 1, 7.75}, [3]float64{2.125, 7.75, 9.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
		if median(c.xs) != c.want[1] {
			t.Errorf("median(%v) = %v, want %v", c.xs, median(c.xs), c.want[1])
		}
	}
}

// The throughput a serve workload reports is the median over fixed windows of
// the bytes all generators completed in each; one stalled window must not
// move it, and completions past the last window are left out.
func TestMedianWindow(t *testing.T) {
	start := time.Now()
	a := newWindows(start, time.Second, 5*time.Second)
	b := newWindows(start, time.Second, 5*time.Second)
	perWindow := []int64{40e6, 42e6, 1e6, 44e6, 46e6} // window 2 stalled
	for i, n := range perWindow {
		at := start.Add(time.Duration(i)*time.Second + 500*time.Millisecond)
		a.add(at, n/2)
		b.add(at, n/2)
	}
	a.add(start.Add(5*time.Second+time.Millisecond), 99e6) // after the deadline
	a.add(start.Add(-time.Millisecond), 99e6)              // before the start
	got := sumWindows([]*windows{a, b})
	want := []float64{40, 42, 1, 44, 46}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window %d: %g MB/s, want %g", i, got[i], want[i])
		}
	}
	if m := median(got); m != 42 {
		t.Fatalf("median window %g MB/s, want 42", m)
	}
	// Tracing alternates: windows 1 and 3 were traced, 0 and 2 are their
	// controls. Ratios 42/40 and 44/1; the median of two is their mean.
	if got, want := tracedOverhead(got), 1-(42.0/40+44.0/1)/2; got != want {
		t.Fatalf("traced overhead %g, want %g", got, want)
	}
}

// Round workloads report the median round; a round's rate is its bytes over
// its own wall time.
func TestMedianRound(t *testing.T) {
	rounds := []float64{
		mbPerSec(128<<20, 640*time.Millisecond),
		mbPerSec(128<<20, 3*time.Second), // a stalled round
		mbPerSec(128<<20, 660*time.Millisecond),
	}
	want := mbPerSec(128<<20, 660*time.Millisecond)
	if got := median(rounds); got != want {
		t.Fatalf("median round %g MB/s, want %g", got, want)
	}
	if got := mbPerSec(2e6, 500*time.Millisecond); got != 4 {
		t.Fatalf("2 MB in 0.5 s is %g MB/s, want 4", got)
	}
}
