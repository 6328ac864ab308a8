package main

import (
	"math"
	"math/bits"
)

// hist is a fixed log-bucket histogram of nanosecond durations: 64 linear
// sub-buckets per power of two, so a bucket is at most 1/64 (1.6 %) wide and
// a reported percentile (the bucket midpoint) is within 0.8 % of the exact
// order statistic. It is a plain array — recording never allocates, which
// keeps the generators' hot loops off the heap.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - 1
	return (e-histSubBits+1)<<histSubBits | int(ns>>(e-histSubBits))&(histSub-1)
}

// histBounds returns bucket i's inclusive lower bound and its width.
func histBounds(i int) (lo, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	e := i>>histSubBits + histSubBits - 1
	return uint64(histSub+i&(histSub-1)) << (e - histSubBits), 1 << (e - histSubBits)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the midpoint of the bucket holding the ⌈q·n⌉-th smallest
// sample, in nanoseconds (NaN when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, width := histBounds(i)
			return float64(lo) + float64(width-1)/2
		}
	}
	return math.NaN()
}

// us reports a quantile in microseconds.
func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }
