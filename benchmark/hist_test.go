package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The histogram's percentiles must stay within 2 % of an exact sort, across
// the range of durations the workloads produce (tens of ns to seconds).
func TestHistPercentilesMatchExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, scale := range []float64{80, 50e3, 2e6, 3e8} {
		var h hist
		exact := make([]float64, 200_000)
		for i := range exact {
			ns := int64(scale * math.Exp(rng.NormFloat64()*0.8))
			exact[i] = float64(ns)
			h.record(ns)
		}
		sort.Float64s(exact)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			want := exact[int(math.Ceil(q*float64(len(exact))))-1]
			got := h.quantile(q)
			if math.Abs(got-want) > 0.02*want {
				t.Errorf("scale %g p%g: histogram %g, exact %g", scale, 100*q, got, want)
			}
		}
		if h.n != uint64(len(exact)) {
			t.Errorf("scale %g: counted %d of %d samples", scale, h.n, len(exact))
		}
	}
}

func TestHistBucketsTile(t *testing.T) {
	// Every bucket starts where the one before it ends, and a bucket's own
	// bounds map back to it: no value is lost or double-counted.
	next := uint64(0)
	for i := 0; i < histBuckets-1; i++ {
		lo, width := histBounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, next)
		}
		if histIndex(lo) != i || histIndex(lo+width-1) != i {
			t.Fatalf("bucket %d [%d,+%d) does not contain its own bounds", i, lo, width)
		}
		if i >= histSub && float64(width)/float64(lo) > 0.02 {
			t.Fatalf("bucket %d is %g wide, more than 2 %%", i, float64(width)/float64(lo))
		}
		next = lo + width
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all hist
	for i := int64(1); i <= 1000; i++ {
		all.record(i * 37)
		if i%2 == 0 {
			a.record(i * 37)
		} else {
			b.record(i * 37)
		}
	}
	a.merge(&b)
	if a != all {
		t.Fatal("merging two halves differs from recording the whole")
	}
}
