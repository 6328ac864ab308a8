package plancache

import (
	"container/list"
	"sync"

	"repro/internal/costmodel"
)

// Entry is one cached deployment: the exact key it was stored under, the
// replicated logical tasks, and the placement found for them.
type Entry struct {
	Key   PlanKey
	Tasks []costmodel.LogicalTask
	Plan  costmodel.Plan
}

// clone deep-copies the entry so callers and the cache never share mutable
// state (Steps slices inside tasks are shared but treated as immutable
// everywhere, matching costmodel.CloneTasks semantics).
func (e *Entry) clone() *Entry {
	return &Entry{
		Key:   e.Key,
		Tasks: costmodel.CloneTasks(e.Tasks),
		Plan:  e.Plan.Clone(),
	}
}

// PlanCache is the plan-lifecycle store: a mutex-guarded LRU over exact
// PlanKeys. The zero value is unusable; call NewPlanCache.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[PlanKey]*list.Element

	hits    int64
	misses  int64
	evicted int64
}

// NewPlanCache builds a plan cache holding at most capacity entries
// (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[PlanKey]*list.Element, capacity),
	}
}

// Get returns a deep copy of the exact-key entry and bumps its recency.
func (c *PlanCache) Get(key PlanKey) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*Entry).clone(), true
}

// Put inserts or overwrites an entry (deep-copying the inputs), evicting the
// least recently used entry when the cache is full.
func (c *PlanCache) Put(key PlanKey, tasks []costmodel.LogicalTask, plan costmodel.Plan) {
	e := (&Entry{Key: key, Tasks: tasks, Plan: plan}).clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(e)
}

func (c *PlanCache) putLocked(e *Entry) {
	if el, ok := c.items[e.Key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*Entry).Key)
			c.evicted++
		}
	}
	c.items[e.Key] = c.ll.PushFront(e)
}

// Len returns the current entry count.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the effectiveness counters.
func (c *PlanCache) Stats() Stats {
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

// Entries snapshots the cache contents as deep copies, ordered least- to
// most-recently used, so that persisting and replaying them through Load in
// order reproduces both the contents and the recency order.
func (c *PlanCache) Entries() []*Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Entry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*Entry).clone())
	}
	return out
}

// Load replays persisted entries into the cache in order (so the last entry
// loaded is the most recently used). Counters are untouched: a reloaded
// cache starts warm but with fresh statistics.
func (c *PlanCache) Load(entries []*Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		if e == nil {
			continue
		}
		c.putLocked(e.clone())
	}
}
