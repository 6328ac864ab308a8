package core

import (
	"fmt"
	"hash/fnv"

	"repro/internal/amp"
	"repro/internal/costmodel"
	"repro/internal/plancache"
	"repro/internal/policy"
	"repro/internal/sched"
)

// Plan-mode labels for the decision log: how resolvePlan acquired a
// deployment's plan.
const (
	planModeCache = "cache"
	planModeFull  = "full"
)

// EnablePlanCache attaches a plan cache of the given capacity to the
// planner. Every plan acquisition (Deploy and the adaptation loops) then
// goes through resolvePlan against it.
func (pl *Planner) EnablePlanCache(capacity int) {
	pl.cache = plancache.NewPlanCache(capacity)
}

// PlanCacheStats snapshots the cache counters (zero value when disabled).
func (pl *Planner) PlanCacheStats() plancache.Stats {
	if pl.cache == nil {
		return plancache.Stats{}
	}
	return pl.cache.Stats()
}

// SavePlanCache atomically persists the plan cache to path (CSPC format); a
// disabled cache is a no-op. The written file warm-starts a future planner
// via LoadPlanCache.
func (pl *Planner) SavePlanCache(path string) error {
	if pl.cache == nil {
		return nil
	}
	return pl.cache.SaveFile(path)
}

// LoadPlanCache warm-starts the plan cache from a persisted file, returning
// the number of entries restored. Torn or corrupt files restore their
// decodable prefix without error (the degraded entries simply force full
// searches); loading with the cache disabled is a no-op.
func (pl *Planner) LoadPlanCache(path string) (int, error) {
	if pl.cache == nil {
		return 0, nil
	}
	return pl.cache.LoadFile(path)
}

// SearchCount returns the number of plan-search invocations (Deploy and
// adaptation re-plans alike) this planner has performed.
func (pl *Planner) SearchCount() int64 { return pl.searches.Load() }

// searchPlan is the planner's single entry to the full plan search: it
// counts the invocation, charges the per-decision tally, and runs the
// serial DFS.
func (pl *Planner) searchPlan(t *searchTally, mod *costmodel.Model, g *costmodel.Graph, lset float64) sched.Result {
	pl.searches.Add(1)
	return pl.timedSearch(t, func() sched.Result {
		return sched.Search(mod, g, lset)
	})
}

// dvfsPolicy labels the planner's frequency-governance regime for cache
// keying; empty means the default governor.
func (pl *Planner) dvfsPolicy() string {
	if pl.DVFSPolicy == "" {
		return "default"
	}
	return pl.DVFSPolicy
}

// platformHash covers the platform identity and the per-core type and
// current frequency, so cached plans are invalidated by DVFS changes.
func platformHash(m *amp.Machine) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s", m.Platform().Name)
	for _, c := range m.Cores() {
		fmt.Fprintf(h, "|%d:%d:%d", c.ID, int(c.Type), c.FreqMHz)
	}
	return h.Sum64()
}

// planKey derives the cache key for a workload's current statistical regime:
// per-step profile statistics are quantized logarithmically (~9% buckets) so
// statistically similar batches share plans while regime shifts do not, and
// the model's calibration scale is part of the key so recalibration opens a
// fresh regime instead of serving pre-calibration plans. The policy's name
// and parameter hash are explicit key fields, so two policies (or two
// parameterizations of one policy) over an identical workload regime never
// share a cache entry.
func (pl *Planner) planKey(pol policy.Policy, w Workload, prof *Profile) plancache.PlanKey {
	h := fnv.New64a()
	for _, sp := range prof.Steps {
		fmt.Fprintf(h, "|%d:%d:%d:%d", sp.Kind,
			plancache.QuantizeLog(sp.InstrPerByte),
			plancache.QuantizeLog(sp.Kappa),
			plancache.QuantizeLog(sp.OutPerByte))
	}
	fmt.Fprintf(h, "|B%d", plancache.QuantizeLog(float64(w.BatchBytes)))
	instrScale, _ := pl.Model.Calibration()
	ph := fnv.New64a()
	fmt.Fprintf(ph, "%s", pol.Params())
	return plancache.PlanKey{
		Algorithm:    w.Algorithm.Name(),
		Policy:       pol.Name(),
		PolicyParams: ph.Sum64(),
		Signature:    h.Sum64(),
		LSetQ:        plancache.QuantizeLSet(w.LSet),
		PlatformHash: platformHash(pl.Machine),
		DVFSPolicy:   pl.dvfsPolicy(),
		CalibQ:       plancache.QuantizeLog(instrScale),
	}
}

// lookupPlan is the cache tier of resolvePlan: a cached deployment for the
// workload's regime, re-validated under the current model; ok is false on
// miss or when the entry is no longer feasible. A hit is charged to the
// tally so the decision log can tell cache-served plans from searched ones.
func (pl *Planner) lookupPlan(t *searchTally, pol policy.Policy, w Workload, prof *Profile) ([]LogicalTask, *costmodel.Graph, costmodel.Plan, costmodel.Estimate, bool) {
	if pl.cache == nil {
		return nil, nil, nil, costmodel.Estimate{}, false
	}
	e, ok := pl.cache.Get(pl.planKey(pol, w, prof))
	if !ok {
		return nil, nil, nil, costmodel.Estimate{}, false
	}
	if t != nil {
		t.cacheLookupHit = true
	}
	tasks := e.Tasks // Get returns deep copies; safe to own
	g := BuildGraph(tasks, w.BatchBytes)
	if len(e.Plan) != len(g.Tasks) {
		return nil, nil, nil, costmodel.Estimate{}, false
	}
	est := pl.Model.Estimate(g, e.Plan, w.LSet)
	if !est.Feasible {
		return nil, nil, nil, costmodel.Estimate{}, false
	}
	if t != nil {
		t.cacheHit = true
		t.planMode = planModeCache
	}
	return tasks, g, e.Plan, est, true
}

// resolvePlan is the single plan-acquisition path every caller (Deploy and
// DeployProfile via the policy host, both adaptation loops,
// MultiStreamRuntime, and serve's per-shard planners) funnels through: an
// exact cache hit when the workload's quantized regime was planned before,
// else the full callback (the policy's own search). A feasible searched plan
// is stored under the workload's exact key. The tally records which tier
// served the plan for the decision log and the plan.mode.* metrics.
func (pl *Planner) resolvePlan(
	t *searchTally, pol policy.Policy, w Workload, prof *Profile,
	full func() ([]LogicalTask, *costmodel.Graph, costmodel.Plan, costmodel.Estimate, bool),
) ([]LogicalTask, *costmodel.Graph, costmodel.Plan, costmodel.Estimate, bool) {
	if tasks, g, p, est, ok := pl.lookupPlan(t, pol, w, prof); ok {
		return tasks, g, p, est, true
	}
	if t != nil && t.planMode == "" {
		t.planMode = planModeFull
	}
	tasks, g, p, est, feasible := full()
	if feasible && pl.cache != nil {
		pl.cache.Put(pl.planKey(pol, w, prof), tasks, p)
	}
	return tasks, g, p, est, feasible
}

// cachedSearchReplication is the Deploy-path entry to resolvePlan, with the
// model-guided replication search as the full-search tier.
func (pl *Planner) cachedSearchReplication(
	t *searchTally, pol policy.Policy, w Workload, prof *Profile, base []LogicalTask,
) ([]LogicalTask, *costmodel.Graph, costmodel.Plan, costmodel.Estimate, bool) {
	return pl.resolvePlan(t, pol, w, prof, func() ([]LogicalTask, *costmodel.Graph, costmodel.Plan, costmodel.Estimate, bool) {
		return pl.searchReplication(t, pl.Model, base, w.BatchBytes, w.LSet)
	})
}
