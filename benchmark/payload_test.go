package main

import (
	"reflect"
	"testing"
)

func TestChurnTraceIsSeeded(t *testing.T) {
	const gens, perGen = 2, 2 * churnShapes
	a, b := churnTrace(5, gens, perGen), churnTrace(5, gens, perGen)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different traces")
	}
	if reflect.DeepEqual(a, churnTrace(6, gens, perGen)) {
		t.Fatal("two seeds gave the same trace")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("both generators walk the same trace")
	}
}

// Whatever the seed, a walk of k x churnShapes cycles opens every shape
// exactly k times and never moves more than one batch size per cycle: the
// trace's order is seeded, its composition is not.
func TestChurnTraceComposition(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, walk := range churnTrace(seed, 3, 2*churnShapes) {
			visits := make([]int, churnShapes)
			for i, c := range walk {
				visits[c.shapeID()]++
				if i > 0 {
					if d := int(c.size) - int(walk[i-1].size); d < -1 || d > 1 {
						t.Fatalf("seed %d cycle %d: batch size index moved by %d", seed, i, d)
					}
				}
			}
			for id, n := range visits {
				if n != 2 {
					t.Fatalf("seed %d: shape %d opened %d times, want 2", seed, id, n)
				}
			}
		}
	}
}

func TestChurnBatchSizes(t *testing.T) {
	if got := churnBatchBytes(0); got != 4096 {
		t.Fatalf("smallest batch %d B, want 4096", got)
	}
	for i := 1; i < churnSizes; i++ {
		if b := churnBatchBytes(i); b%16 != 0 || b <= churnBatchBytes(i-1) || b > 32<<10 {
			t.Fatalf("batch size %d = %d B: want multiples of 16, increasing, at most 32 KiB", i, b)
		}
	}
	if n := len(thinnedShapes()); n != len(churnAlgs)*len(churnSLOs)*churnSizes/churnKeepEvery {
		t.Fatalf("read-back keeps %d shapes", n)
	}
}
