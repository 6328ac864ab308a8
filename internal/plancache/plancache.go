// Package plancache provides a small thread-safe LRU cache for scheduling
// plans. Plan search is the framework's hot path; workloads whose profiled
// statistics land in the same quantized regime reuse each other's plans
// instead of re-running the DFS, which is what keeps adaptive runs that
// oscillate between regimes cheap (Section V-D's replanning loop).
package plancache

import (
	"container/list"
	"math"
	"sync"
)

// PlanKey identifies a cached plan: same algorithm, statistically similar
// workload (quantized profile signature), same latency constraint, same
// platform state (core inventory and frequencies) and DVFS policy, same
// model calibration regime.
type PlanKey struct {
	// Algorithm names the compression algorithm.
	Algorithm string
	// Policy names the scheduling policy that produced the plan, and
	// PolicyParams hashes its parameter string — two policies (or two
	// parameterizations of one policy) never share an entry.
	Policy       string
	PolicyParams uint64
	// Signature hashes the quantized workload statistics (per-step costs,
	// batch size).
	Signature uint64
	// LSetQ is the latency constraint in milli-µs/byte.
	LSetQ int64
	// PlatformHash covers the platform name and per-core type/frequency.
	PlatformHash uint64
	// DVFSPolicy labels the active frequency governor.
	DVFSPolicy string
	// CalibQ is the quantized model calibration scale.
	CalibQ int32
}

// QuantizeLog buckets a positive value logarithmically at 8 buckets per
// octave (~9% wide), so statistically similar measurements share a bucket
// while regime shifts (the paper's 500→50000 dynamic-range jump) do not.
func QuantizeLog(v float64) int32 {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return math.MinInt32
	}
	return int32(math.Round(8 * math.Log2(v)))
}

// QuantizeLSet quantizes a latency constraint to milli-µs/byte: constraints
// are user-set round numbers, so exact buckets are the right granularity.
func QuantizeLSet(lset float64) int64 {
	return int64(math.Round(lset * 1000))
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits, Misses, Evictions int64
	Size, Capacity          int
}

// Cache is a mutex-guarded LRU map. The zero value is unusable; call New.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[K]*list.Element
	hits     int64
	misses   int64
	evicted  int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New builds a cache holding at most capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[K]*list.Element, capacity),
	}
}

// Get returns the cached value and bumps its recency.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts or overwrites a value, evicting the least recently used entry
// when the cache is full.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*entry[K, V]).key)
			c.evicted++
		}
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
}

// Len returns the current entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the effectiveness counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicted,
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
	}
}

// Purge empties the cache, keeping the counters.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}
