package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// lastDeployDecision returns the most recent deploy-kind decision logged by
// the planner's telemetry sink.
func lastDeployDecision(t *testing.T, pl *Planner) telemetry.Decision {
	t.Helper()
	evs := pl.Telemetry.Decisions().Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == telemetry.KindDeploy {
			return evs[i]
		}
	}
	t.Fatal("no deploy decision logged")
	return telemetry.Decision{}
}

// Persist → new planner → reload must warm-start the cache: the reloaded
// planner serves the same plan without a single search. A torn file restores
// its decodable prefix without error, and the lost entries simply fall back
// to full search.
func TestPlannerPlanCachePersistReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plans.cspc")

	w := tcomp32Rovio()
	w.BatchBytes = 32 * 1024
	prof := ProfileWorkload(w, 2, 0)

	plA := newPlanner(t)
	plA.EnablePlanCache(16)
	depA, err := plA.DeployProfile(w, prof, MechCStream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plA.DeployProfile(w, prof, MechAsyComm); err != nil {
		t.Fatal(err)
	}
	if err := plA.SavePlanCache(path); err != nil {
		t.Fatal(err)
	}

	// Kill → reload: a fresh planner over the same platform warm-starts.
	plB := newPlanner(t)
	plB.Telemetry = telemetry.New()
	plB.EnablePlanCache(16)
	n, err := plB.LoadPlanCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("reloaded %d entries, want 2", n)
	}
	depB, err := plB.DeployProfile(w, prof, MechCStream)
	if err != nil {
		t.Fatal(err)
	}
	if got := plB.SearchCount(); got != 0 {
		t.Fatalf("warm-started planner ran %d searches, want 0", got)
	}
	if dec := lastDeployDecision(t, plB); dec.PlanMode != "cache" {
		t.Fatalf("warm-start plan_mode = %q, want cache", dec.PlanMode)
	}
	if !depB.Plan.Equal(depA.Plan) {
		t.Fatalf("reloaded plan %v differs from original %v", depB.Plan, depA.Plan)
	}

	// Torn file: drop the tail of the last record. The prefix loads without
	// error and deploys for the lost regime still succeed via full search.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.cspc")
	if err := os.WriteFile(torn, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	plC := newPlanner(t)
	plC.EnablePlanCache(16)
	nt, err := plC.LoadPlanCache(torn)
	if err != nil {
		t.Fatalf("torn file must load its prefix without error, got %v", err)
	}
	if nt >= n {
		t.Fatalf("torn file restored %d entries, want < %d", nt, n)
	}
	if _, err := plC.DeployProfile(w, prof, MechCStream); err != nil {
		t.Fatalf("deploy after torn-file recovery: %v", err)
	}
	if _, err := plC.DeployProfile(w, prof, MechAsyComm); err != nil {
		t.Fatalf("deploy after torn-file recovery: %v", err)
	}

	// Missing file is a cold start, not an error.
	plD := newPlanner(t)
	plD.EnablePlanCache(16)
	if n, err := plD.LoadPlanCache(filepath.Join(dir, "nope.cspc")); err != nil || n != 0 {
		t.Fatalf("missing file: n=%d err=%v, want 0, nil", n, err)
	}
}

// TestAdaptivePlanCacheFewerSearches replays Fig. 9's two passes (without,
// then with regulation; range 500 → 50 000 after batch 5) through the
// adaptation loop on one planner, once without a plan cache and once with
// one. The second pass plans the calm regime again, so the cached planner
// must serve at least one plan from the cache and search strictly fewer
// times.
func TestAdaptivePlanCacheFewerSearches(t *testing.T) {
	run := func(cacheCap int) (searches, hits int64) {
		pl := newPlanner(t)
		if cacheCap > 0 {
			pl.EnablePlanCache(cacheCap)
		}
		for _, regulate := range []bool{false, true} {
			micro := dataset.NewMicro(1)
			micro.DynamicRange = 500
			ad, err := NewAdaptive(pl, NewWorkload(compress.NewTcomp32(), micro), regulate)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 15; i++ {
				if i == 5 {
					micro.DynamicRange = 50000
				}
				ad.ProcessBatch(i)
			}
			pl.Model.SetCalibration(1, 1)
		}
		return pl.SearchCount(), pl.PlanCacheStats().Hits
	}
	plain, _ := run(0)
	cached, hits := run(16)
	t.Logf("searches: %d without a cache, %d with one (%d hits)", plain, cached, hits)
	if cached >= plain {
		t.Fatalf("cached planner searched %d times, uncached %d", cached, plain)
	}
	if hits < 1 {
		t.Fatalf("cache hits = %d, want ≥ 1", hits)
	}
}
