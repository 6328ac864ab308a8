package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/policy"
)

// allPolicies returns every registered policy name in registry order.
func allPolicies() []string {
	out := append([]string{}, Mechanisms()...)
	out = append(out, BreakdownFactors()...)
	return append(out, ExtensionPolicies()...)
}

// Every registered policy — mechanisms, breakdown factors, and extensions —
// must deploy every algorithm on every dataset without error, produce a valid
// graph, and drive the functional pipeline to a lossless round-trip.
func TestPolicyMatrixRoundTrip(t *testing.T) {
	pl := newPlanner(t)
	for _, alg := range append(compress.All(), compress.Extensions()...) {
		for _, gen := range dataset.All(3) {
			w := NewWorkload(alg, gen)
			w.BatchBytes = 32 * 1024
			prof := ProfileWorkload(w, 2, 0)
			for _, pol := range allPolicies() {
				dep, err := pl.DeployProfile(w, prof, pol)
				if err != nil {
					t.Fatalf("%s %s: %v", w.Name(), pol, err)
				}
				if err := dep.Graph.Validate(); err != nil {
					t.Fatalf("%s %s: %v", w.Name(), pol, err)
				}
				if dep.Mechanism != pol {
					t.Fatalf("%s %s: deployment reports policy %q", w.Name(), pol, dep.Mechanism)
				}
				res, err := dep.RunBatch(w, 0)
				if err != nil {
					t.Fatalf("%s %s: run: %v", w.Name(), pol, err)
				}
				got, err := compress.DecodeSegments(alg.Name(), res)
				if err != nil {
					t.Fatalf("%s %s: decode: %v", w.Name(), pol, err)
				}
				want := w.Dataset.Batch(0, w.BatchBytes).Bytes()
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %s: round-trip mismatch (%d vs %d bytes)", w.Name(), pol, len(got), len(want))
				}
			}
		}
	}
}

// An unregistered policy name must fail with an error that lists the
// registered ones, both from Deploy and from the multi-stream runtime.
func TestUnknownPolicyRejected(t *testing.T) {
	pl := newPlanner(t)
	w := tcomp32Rovio()
	if _, err := pl.Deploy(w, "no-such-policy"); err == nil {
		t.Fatal("Deploy accepted an unregistered policy")
	} else if !strings.Contains(err.Error(), MechCStream) {
		t.Fatalf("error does not list registered policies: %v", err)
	}
	if _, err := RunMultiStreamPolicy(t.Context(), pl, []Workload{w}, 1, 1, "no-such-policy"); err == nil {
		t.Fatal("RunMultiStreamPolicy accepted an unregistered policy")
	}
}

// Two policies over the same workload regime must occupy distinct plan-cache
// entries, and changing a policy's parameters must change its cache key.
func TestPlanCachePolicyKeying(t *testing.T) {
	pl := newPlanner(t)
	pl.EnablePlanCache(16)
	w := tcomp32Rovio()
	w.BatchBytes = 32 * 1024
	prof := ProfileWorkload(w, 2, 0)

	cs, _ := lookupPolicy(MechCStream)
	asy, _ := lookupPolicy(MechAsyComm)
	k1 := pl.planKey(cs, w, prof)
	k2 := pl.planKey(asy, w, prof)
	if k1 == k2 {
		t.Fatal("CStream and +asy-comm. share a plan-cache key")
	}

	// Same policy, different parameterization → different key; identical
	// parameterization → identical key.
	h1 := pl.planKey(policy.NewHEFT(1.0), w, prof)
	h2 := pl.planKey(policy.NewHEFT(0.8), w, prof)
	h3 := pl.planKey(policy.NewHEFT(1.0), w, prof)
	if h1 == h2 {
		t.Fatal("HEFT headroom change did not change the plan-cache key")
	}
	if h1 != h3 {
		t.Fatal("identical HEFT parameterizations produced distinct keys")
	}

	// Deploying through two model-guided policies fills two distinct entries.
	if _, err := pl.DeployProfile(w, prof, MechCStream); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.DeployProfile(w, prof, MechAsyComm); err != nil {
		t.Fatal(err)
	}
	if n := pl.cache.Len(); n != 2 {
		t.Fatalf("expected 2 cache entries (one per policy), got %d", n)
	}
	stats := pl.PlanCacheStats()
	if _, err := pl.DeployProfile(w, prof, MechCStream); err != nil {
		t.Fatal(err)
	}
	if got := pl.PlanCacheStats(); got.Hits != stats.Hits+1 {
		t.Fatalf("re-deploy under the same policy missed the cache (hits %d -> %d)", stats.Hits, got.Hits)
	}
}
