package plancache

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/costmodel"
)

// key names a test entry; distinct names are distinct PlanKeys.
func key(name string) PlanKey { return PlanKey{Algorithm: name} }

// put stores v under k as a one-core plan, so tests can tell entries apart
// by the value they read back.
func put(c *PlanCache, k PlanKey, v int) { c.Put(k, nil, costmodel.Plan{v}) }

// get returns the value put stored under k.
func get(c *PlanCache, k PlanKey) (int, bool) {
	e, ok := c.Get(k)
	if !ok {
		return 0, false
	}
	return e.Plan[0], true
}

func TestHitMiss(t *testing.T) {
	c := NewPlanCache(2)
	if _, ok := get(c, key("a")); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	put(c, key("a"), 1)
	v, ok := get(c, key("a"))
	if !ok || v != 1 {
		t.Fatalf("got (%d,%v), want (1,true)", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 || st.Capacity != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewPlanCache(2)
	put(c, key("a"), 1)
	put(c, key("b"), 2)
	get(c, key("a")) // a is now more recent than b
	put(c, key("c"), 3)
	if _, ok := get(c, key("b")); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := get(c, key("a")); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := get(c, key("c")); !ok {
		t.Fatal("c should be present")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestPutOverwritesInPlace(t *testing.T) {
	c := NewPlanCache(2)
	put(c, key("a"), 1)
	put(c, key("b"), 2)
	put(c, key("a"), 10) // overwrite, no eviction
	if st := c.Stats(); st.Evictions != 0 || st.Size != 2 {
		t.Fatalf("stats %+v", st)
	}
	if v, _ := get(c, key("a")); v != 10 {
		t.Fatalf("a = %d, want 10", v)
	}
}

func TestQuantizeLog(t *testing.T) {
	// Values within a few percent share a bucket…
	if QuantizeLog(100) != QuantizeLog(103) {
		t.Fatal("nearby values should share a bucket")
	}
	// …regime shifts do not.
	if QuantizeLog(100) == QuantizeLog(200) {
		t.Fatal("octave-apart values must differ")
	}
	if QuantizeLog(0) != QuantizeLog(-5) {
		t.Fatal("non-positive values share the sentinel bucket")
	}
	if QuantizeLog(0) == QuantizeLog(1) {
		t.Fatal("sentinel must not collide with real values")
	}
}

// TestEvictionOrderUnderPressure fills the cache far past capacity and
// checks the LRU invariant precisely: after inserting k0..kN-1 into a
// capacity-C cache with no intervening reads, exactly the last C keys
// survive, every Get of a survivor hits, every Get of an evicted key misses,
// and the eviction counter equals N-C.
func TestEvictionOrderUnderPressure(t *testing.T) {
	const capacity, n = 4, 32
	c := NewPlanCache(capacity)
	k := func(i int) PlanKey { return PlanKey{Signature: uint64(i)} }
	for i := 0; i < n; i++ {
		put(c, k(i), i*10)
	}
	if c.Len() != capacity {
		t.Fatalf("len = %d, want %d", c.Len(), capacity)
	}
	if st := c.Stats(); st.Evictions != n-capacity {
		t.Fatalf("evictions = %d, want %d", st.Evictions, n-capacity)
	}
	for i := 0; i < n-capacity; i++ {
		if _, ok := get(c, k(i)); ok {
			t.Fatalf("key %d should have been evicted (oldest-first order)", i)
		}
	}
	for i := n - capacity; i < n; i++ {
		if v, ok := get(c, k(i)); !ok || v != i*10 {
			t.Fatalf("key %d should have survived with value %d, got (%d,%v)", i, i*10, v, ok)
		}
	}
}

// TestEvictionRespectsRecencyChain interleaves reads so the recency order
// differs from insertion order, then verifies evictions track recency, not
// age: a re-read old entry outlives a younger never-read one.
func TestEvictionRespectsRecencyChain(t *testing.T) {
	c := NewPlanCache(3)
	put(c, key("a"), 1)
	put(c, key("b"), 2)
	put(c, key("c"), 3)
	get(c, key("a"))    // recency: a > c > b
	put(c, key("d"), 4) // evicts b
	get(c, key("c"))    // recency: c > d > a
	put(c, key("e"), 5) // evicts a
	for _, gone := range []string{"a", "b"} {
		if _, ok := get(c, key(gone)); ok {
			t.Fatalf("%q should have been evicted", gone)
		}
	}
	for _, kept := range []string{"c", "d", "e"} {
		if _, ok := get(c, key(kept)); !ok {
			t.Fatalf("%q should have survived", kept)
		}
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

// TestQuantizationKeyReuse checks the property Deploy relies on: two
// workloads whose profiled statistics quantize identically build the same
// PlanKey and therefore hit each other's cached plan.
func TestQuantizationKeyReuse(t *testing.T) {
	c := NewPlanCache(8)
	keyFor := func(sig float64, lset float64) PlanKey {
		return PlanKey{
			Algorithm:    "tcomp32",
			Signature:    uint64(QuantizeLog(sig)),
			LSetQ:        QuantizeLSet(lset),
			PlatformHash: 0xfeed,
			DVFSPolicy:   "performance",
			CalibQ:       QuantizeLog(1.0),
		}
	}
	const planA = 7
	put(c, keyFor(100, 23.0), planA)
	// ~3% statistic drift, same constraint: same bucket, must hit.
	if v, ok := get(c, keyFor(103, 23.0)); !ok || v != planA {
		t.Fatalf("quantized-equal key should hit, got (%d,%v)", v, ok)
	}
	// Regime shift (2x): different bucket, must miss.
	if _, ok := get(c, keyFor(200, 23.0)); ok {
		t.Fatal("octave-apart statistics must not share a plan")
	}
	// Same statistics, different latency constraint: must miss.
	if _, ok := get(c, keyFor(100, 24.0)); ok {
		t.Fatal("different L_set must not share a plan")
	}
}

// TestQuantizeLogBoundaries pins the bucket geometry: 8 buckets per octave
// means boundaries at 2^(k/8); values straddling a boundary split, values
// inside one bucket (±~4% around its center) stay together.
func TestQuantizeLogBoundaries(t *testing.T) {
	// Bucket width is 2^(1/8) ≈ 1.0905 (~9%). Two values whose ratio
	// exceeds one width can never share a bucket.
	w := math.Pow(2, 1.0/8)
	for _, base := range []float64{1, 10, 500, 50000} {
		if QuantizeLog(base) == QuantizeLog(base*w*1.01) {
			t.Fatalf("values %g and %g are a full bucket apart and must split", base, base*w*1.01)
		}
		// Values ~1% apart share a bucket unless they straddle a boundary;
		// centered on an exact bucket center they must not split.
		center := math.Pow(2, math.Round(8*math.Log2(base))/8)
		if QuantizeLog(center*1.01) != QuantizeLog(center/1.01) {
			t.Fatalf("±1%% around bucket center %g must quantize together", center)
		}
	}
	// Monotonicity across a wide dynamic range, including the paper's
	// 500→50000 jump.
	prev := QuantizeLog(0.001)
	for v := 0.001; v < 1e6; v *= 1.05 {
		q := QuantizeLog(v)
		if q < prev {
			t.Fatalf("QuantizeLog not monotone at %g", v)
		}
		prev = q
	}
}

// TestQuantizeLSetBoundaries pins the latency-constraint quantizer: exact
// milli-µs/byte buckets, so sub-precision jitter collapses and real
// constraint changes split.
func TestQuantizeLSetBoundaries(t *testing.T) {
	if QuantizeLSet(23.0) != 23000 {
		t.Fatalf("QuantizeLSet(23.0) = %d, want 23000", QuantizeLSet(23.0))
	}
	if QuantizeLSet(23.0000001) != QuantizeLSet(23.0) {
		t.Fatal("sub-milli jitter must collapse to the same bucket")
	}
	if QuantizeLSet(23.001) == QuantizeLSet(23.0) {
		t.Fatal("a milli-µs/byte step is a real constraint change and must split")
	}
	if QuantizeLSet(22.9996) != QuantizeLSet(23.0) {
		t.Fatal("rounding, not truncation: 22.9996 must land in the 23.000 bucket")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewPlanCache(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := PlanKey{Algorithm: fmt.Sprint(i % 32), Signature: uint64(w)}
				put(c, k, i)
				get(c, k)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("len = %d exceeds capacity", c.Len())
	}
}

// PlanKey's policy identity fields must separate entries: same regime under
// two policies, or two parameterizations of one policy, never collide.
func TestPlanKeyPolicyFields(t *testing.T) {
	c := NewPlanCache(8)
	base := PlanKey{Algorithm: "tcomp32", Signature: 42, LSetQ: 26000}
	k1 := base
	k1.Policy = "alpha"
	k2 := base
	k2.Policy = "beta"
	k3 := k1
	k3.PolicyParams = 7
	put(c, k1, 1)
	put(c, k2, 2)
	put(c, k3, 3)
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3 distinct entries", c.Len())
	}
	if v, ok := get(c, k1); !ok || v != 1 {
		t.Fatalf("k1 = %v, %v", v, ok)
	}
	if v, ok := get(c, k2); !ok || v != 2 {
		t.Fatalf("k2 = %v, %v", v, ok)
	}
	if v, ok := get(c, k3); !ok || v != 3 {
		t.Fatalf("k3 = %v, %v", v, ok)
	}
}
