package serve

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/recframe"
	"repro/internal/telemetry"
)

// memoShapes are the (algorithm, batch bytes) pairs the memo tests open.
var memoShapes = []profileKey{
	{"tcomp32", 4 << 10},
	{"lz4", 4 << 10},
	{"lz4", 16 << 10},
	{"huff8", 8 << 10},
}

var memoClasses = []string{"silver", "bronze"}

func newMemoServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{Shards: 4, Seed: 42, ProfileBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// len returns the number of keys looked up so far.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// plans counts the deployments the server's planner has made: plan-cache
// hits plus full searches.
func plans(s *Server) int64 {
	c := s.Telemetry().Metrics().Snapshot().Counters
	return c[telemetry.MetricPlanModeFull] + c[telemetry.MetricPlanModeCache]
}

// openEverywhere holds one session of the shape and class open per shard, so
// placement puts one on every shard, and returns them still open.
func openEverywhere(t *testing.T, s *Server, shape profileKey, slo string) []*session {
	t.Helper()
	held := make([]*session, len(s.shards))
	for i := range held {
		sess, reply, reason, err := s.openSession(uint32(i), OpenRequest{
			Tenant: "memo", Algorithm: shape.algorithm, SLO: slo, BatchBytes: shape.batchBytes,
		})
		if err != nil || reason != "" {
			t.Fatalf("open %v %s: err %v, shed %q", shape, slo, err, reason)
		}
		if reply.Shard != i {
			t.Fatalf("open %d of %v %s placed on shard %d", i, shape, slo, reply.Shard)
		}
		held[i] = sess
	}
	return held
}

// finishAll ends every session.
func finishAll(s *Server, held []*session) {
	for _, sess := range held {
		s.finishSession(sess)
	}
}

// deploymentOf returns the server's planned deployment for the shape.
func deploymentOf(t *testing.T, s *Server, shape profileKey, lset float64) *core.Deployment {
	t.Helper()
	s.deps.mu.Lock()
	e := s.deps.entries[depKey{algorithm: shape.algorithm, batchBytes: shape.batchBytes, lset: lset}]
	s.deps.mu.Unlock()
	if e == nil || e.v == nil || e.v.dep == nil {
		t.Fatalf("no deployment for %v at CLC %v", shape, lset)
	}
	return e.v.dep
}

// freshDeployment plans the shape as a library caller would: a fresh profile
// and a fresh planner of the server's seed.
func freshDeployment(t *testing.T, s *Server, shape profileKey, lset float64) *core.Deployment {
	t.Helper()
	alg, err := compress.ByName(shape.algorithm)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := dataset.ByName(s.cfg.ProfileDataset, s.cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWorkload(alg, gen)
	w.BatchBytes = shape.batchBytes
	w.LSet = lset
	machine, err := machineFor(s.cfg.Platform)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPlanner(machine, s.cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	pl.EnablePlanCache(s.cfg.PlanCache)
	d, err := pl.DeployProfile(w, core.ProfileWorkload(w, s.cfg.ProfileBatches, 0), core.MechCStream)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// floatBits renders floats as their IEEE-754 bit patterns.
func floatBits(b *strings.Builder, xs ...float64) {
	for _, x := range xs {
		fmt.Fprintf(b, " %016x", math.Float64bits(x))
	}
}

// deploymentBits renders everything a plan decides — plan, tasks with their
// replicas, and the estimate — with every float as its bit pattern, so two
// deployments compare exactly.
func deploymentBits(d *core.Deployment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %v feasible %v slices %d\n", d.Plan, d.Feasible, d.Slices)
	for _, tk := range d.Tasks {
		fmt.Fprintf(&b, "task %s %v replicas %d", tk.Name, tk.Steps, tk.Replicas)
		floatBits(&b, tk.InstrPerByte, tk.Kappa, tk.OutPerByte, tk.InPerByte)
		b.WriteByte('\n')
	}
	e := d.Estimate
	fmt.Fprintf(&b, "estimate feasible %v", e.Feasible)
	floatBits(&b, e.LatencyPerByte, e.EnergyPerByte)
	floatBits(&b, e.PerTaskLatency...)
	floatBits(&b, e.PerTaskEnergy...)
	floatBits(&b, e.CoreBusy...)
	return b.String()
}

// profileBits renders a profile with every float as its bit pattern.
func profileBits(p *core.Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d %v", p.Workload, p.BatchBytes, p.StageSets)
	floatBits(&b, p.Ratio)
	for _, st := range p.Steps {
		fmt.Fprintf(&b, "\n%v", st.Kind)
		floatBits(&b, st.InstrPerByte, st.Kappa, st.OutPerByte)
	}
	return b.String()
}

// TestProfileMemoDeploymentsExact: a session shape is planned once per
// server. Sessions of one shape on every shard share one *core.Deployment,
// and it is bit-identical to DeployProfile on a freshly computed profile
// with a fresh planner of the same seed.
func TestProfileMemoDeploymentsExact(t *testing.T) {
	s := newMemoServer(t)
	for _, slo := range memoClasses {
		class, _ := s.lookupSLO(slo)
		for _, shape := range memoShapes {
			held := openEverywhere(t, s, shape, slo)
			shared := deploymentOf(t, s, shape, class.LSetUSPerByte)
			for _, sess := range held {
				if got := sess.handle.Deployment(); got != shared {
					t.Errorf("%v %s: shard %d runs its own deployment", shape, slo, sess.shard.index)
				}
			}
			finishAll(s, held)
			if got, want := deploymentBits(shared), deploymentBits(freshDeployment(t, s, shape, class.LSetUSPerByte)); got != want {
				t.Errorf("%v %s:\n got %s\nwant %s", shape, slo, got, want)
			}
		}
	}
	if got, want := plans(s), int64(len(memoClasses)*len(memoShapes)); got != want {
		t.Fatalf("planned %d times, want once per shape (%d)", got, want)
	}
}

// TestProfileMemoShared: every deployment of one (algorithm, batch bytes),
// under every class, plans from the same profile, and the memo holds exactly
// one profile per distinct pair.
func TestProfileMemoShared(t *testing.T) {
	s := newMemoServer(t)
	for _, slo := range memoClasses {
		for _, shape := range memoShapes {
			finishAll(s, openEverywhere(t, s, shape, slo))
		}
	}
	if n := s.profiles.len(); n != len(memoShapes) {
		t.Fatalf("memo holds %d profiles, want %d", n, len(memoShapes))
	}
	for _, shape := range memoShapes {
		var first *core.Profile
		for _, slo := range memoClasses {
			class, _ := s.lookupSLO(slo)
			prof := deploymentOf(t, s, shape, class.LSetUSPerByte).Profile
			if first == nil {
				first = prof
			}
			if prof != first {
				t.Fatalf("%v: %s plans from a different profile", shape, slo)
			}
		}
	}
}

// TestProfileMemoReadOnly: opens, pushes and re-plans on other shards never
// write to a shared profile.
func TestProfileMemoReadOnly(t *testing.T) {
	s := newMemoServer(t)
	shape := memoShapes[1]
	finishAll(s, openEverywhere(t, s, shape, "silver"))
	shared := deploymentOf(t, s, shape, core.DefaultLSet).Profile
	before := profileBits(shared)

	data := make([]byte, shape.batchBytes)
	for i := range data {
		data[i] = byte(i >> 3)
	}
	for _, slo := range memoClasses {
		finishAll(s, openEverywhere(t, s, shape, slo))
		for i := 0; i < 8; i++ {
			sess, _, reason, err := s.openSession(uint32(i), OpenRequest{
				Tenant: "pusher", Algorithm: shape.algorithm, SLO: slo, BatchBytes: shape.batchBytes,
			})
			if err != nil || reason != "" {
				t.Fatalf("open: err %v, shed %q", err, reason)
			}
			for push := 0; push < 3; push++ {
				res, _, err := s.runBatch(context.Background(), sess, data)
				if err != nil {
					t.Fatal(err)
				}
				res.Release()
			}
			s.finishSession(sess)
		}
	}
	if after := profileBits(shared); after != before {
		t.Fatalf("shared profile changed:\nbefore %s\n after %s", before, after)
	}
}

// TestProfileMemoConcurrentColdOpen cold-opens one shape from many goroutines
// at once, reaching several shards: exactly one profile is computed and one
// plan made, and every session runs the one deployment. Run under -race this
// checks both memos' single flight.
func TestProfileMemoConcurrentColdOpen(t *testing.T) {
	s := newMemoServer(t)
	shape := memoShapes[3]
	const openers = 32
	sessions := make([]*session, openers)
	var wg, opened sync.WaitGroup
	opened.Add(openers)
	errs := make(chan error, openers)
	for i := 0; i < openers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, _, reason, err := s.openSession(uint32(i), OpenRequest{
				Tenant: fmt.Sprintf("t%d", i), Algorithm: shape.algorithm,
				SLO: "silver", BatchBytes: shape.batchBytes,
			})
			opened.Done()
			if err == nil && reason != "" {
				err = fmt.Errorf("shed %q", reason)
			}
			if err != nil {
				errs <- err
				return
			}
			sessions[i] = sess
			// Hold the session until every opener has been placed: an open
			// that finished before the next one began would free its shard
			// and let placement put every session on shard 0.
			opened.Wait()
			s.finishSession(sess)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := s.profiles.len(); n != 1 {
		t.Fatalf("memo holds %d profiles, want 1", n)
	}
	if n := plans(s); n != 1 {
		t.Fatalf("%d plans for one shape, want 1", n)
	}
	shared := deploymentOf(t, s, shape, core.DefaultLSet)
	reached := map[int]bool{}
	for _, sess := range sessions {
		reached[sess.shard.index] = true
		if sess.handle.Deployment() != shared {
			t.Errorf("shard %d runs its own deployment", sess.shard.index)
		}
	}
	if len(reached) < 2 {
		t.Fatalf("the opens reached %d shard(s), want several", len(reached))
	}
}

// TestStatusPlanAttribution: each shard row counts the shapes and plan-cache
// lookups of the plans its opens triggered, so the rows sum to the server's
// deployment memo and to its one plan cache, and every plan is one lookup.
// The shapes include near neighbours that share a cache regime, so the cache
// both hits and misses, and an unknown algorithm, which is a memoised shape
// that never reaches the cache.
func TestStatusPlanAttribution(t *testing.T) {
	s := newMemoServer(t)
	var shapes []profileKey
	for _, alg := range []string{"tcomp32", "lz4", "huff8"} {
		for _, size := range []int{16 << 10, 16<<10 + 64, 16<<10 + 128} {
			shapes = append(shapes, profileKey{alg, size})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < len(s.shards); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, shape := range shapes {
				slo := memoClasses[(g+i)%len(memoClasses)]
				sess, _, reason, err := s.openSession(uint32(i), OpenRequest{
					Tenant: "attr", Algorithm: shape.algorithm, SLO: slo, BatchBytes: shape.batchBytes,
				})
				if err != nil || reason != "" {
					t.Errorf("open %v %s: err %v, shed %q", shape, slo, err, reason)
					return
				}
				s.finishSession(sess)
			}
		}(g)
	}
	wg.Wait()
	if _, _, reason, _ := s.openSession(99, OpenRequest{Tenant: "attr", Algorithm: "nope", SLO: "silver"}); reason != ShedUnknownAlgorithm {
		t.Fatalf("unknown algorithm: shed %q", reason)
	}

	st := s.StatusSnapshot()
	var deployments int
	var hits, misses int64
	for _, sh := range st.Shards {
		deployments += sh.Deployments
		hits += sh.PlanCache.Hits
		misses += sh.PlanCache.Misses
		if sh.PlanCache.Evictions != 0 || sh.PlanCache.Size != 0 {
			t.Errorf("shard %d reports whole-cache counters: %+v", sh.Index, sh.PlanCache)
		}
	}
	// The unknown name is refused before the memo, so it is no deployment.
	if want := s.deps.len(); deployments != want || want != len(shapes)*len(memoClasses) {
		t.Errorf("shard rows sum to %d deployments, memo holds %d, want %d", deployments, want, len(shapes)*len(memoClasses))
	}
	if hits != st.PlanCache.Hits || misses != st.PlanCache.Misses {
		t.Errorf("shard rows sum to %d hits, %d misses; the cache counts %d, %d", hits, misses, st.PlanCache.Hits, st.PlanCache.Misses)
	}
	if hits+misses != plans(s) {
		t.Errorf("%d cache lookups for %d plans", hits+misses, plans(s))
	}
	if hits == 0 || misses == 0 {
		t.Errorf("want both hits and misses, got %d and %d", hits, misses)
	}
}

// TestUnknownAlgorithmsLeaveNoShape: opens under 1 000 distinct names that
// are no algorithm are shed without touching either memo, so no client can
// grow the server by inventing names, and /status counts no deployment for
// them.
func TestUnknownAlgorithmsLeaveNoShape(t *testing.T) {
	s := newMemoServer(t)
	sess, _, reason, err := s.openSession(1, OpenRequest{Tenant: "t", Algorithm: "lz4", SLO: "silver", BatchBytes: 16 << 10})
	if err != nil || reason != "" {
		t.Fatalf("open lz4: err %v, shed %q", err, reason)
	}
	s.finishSession(sess)
	deployments := func() int {
		n := 0
		for _, sh := range s.StatusSnapshot().Shards {
			n += sh.Deployments
		}
		return n
	}
	deps, profiles, status := s.deps.len(), s.profiles.len(), deployments()
	for i := 0; i < 1000; i++ {
		req := OpenRequest{Tenant: "t", Algorithm: fmt.Sprintf("nope-%d", i), SLO: "silver", BatchBytes: 16 << 10}
		if _, _, reason, err := s.openSession(uint32(i+2), req); err != nil || reason != ShedUnknownAlgorithm {
			t.Fatalf("open %q: err %v, shed %q", req.Algorithm, err, reason)
		}
	}
	if s.deps.len() != deps || s.profiles.len() != profiles || deployments() != status {
		t.Fatalf("unknown names grew the server: deps %d → %d, profiles %d → %d, /status deployments %d → %d",
			deps, s.deps.len(), profiles, s.profiles.len(), status, deployments())
	}
	if got := placedCounts(s); slices.Max(got) != 0 {
		t.Fatalf("shed opens kept shard slots: %v", got)
	}
}

// TestPlanCacheFileWarmStart: a server started from the plan-cache file a
// closed server wrote plans every shape that server planned from the cache,
// with no full search, and gets the same deployments.
func TestPlanCacheFileWarmStart(t *testing.T) {
	cfg := Config{Shards: 4, Seed: 42, ProfileBatches: 2, PlanCacheFile: filepath.Join(t.TempDir(), "plans.cspc")}
	run := func() (*Server, []string) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var bits []string
		for _, slo := range memoClasses {
			class, _ := s.lookupSLO(slo)
			for _, shape := range memoShapes {
				finishAll(s, openEverywhere(t, s, shape, slo))
				bits = append(bits, deploymentBits(deploymentOf(t, s, shape, class.LSetUSPerByte)))
			}
		}
		return s, bits
	}
	a, want := run()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, got := run()
	defer b.Close()
	c := b.Telemetry().Metrics().Snapshot().Counters
	if full, cached, n := c[telemetry.MetricPlanModeFull], c[telemetry.MetricPlanModeCache], int64(len(want)); full != 0 || cached != n {
		t.Fatalf("warm start: %d full searches and %d cache plans, want 0 and %d", full, cached, n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("deployment %d differs after the warm start:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestOpenRejectsBatchBytesAboveFrameLimit: a session's batch size is bounded
// by the largest Data payload. One byte over is refused with a FrameError
// before any tenant accounting, profiling or planning; the limit itself is
// accepted.
func TestOpenRejectsBatchBytesAboveFrameLimit(t *testing.T) {
	s := startDispatchServer(t, Config{Shards: 2, Seed: 42, ProfileBatches: 1})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	limit := MaxFrameBytes - recframe.Overhead

	_, err = c.Open(OpenRequest{Tenant: "big", Algorithm: "rle32", SLO: "bronze", BatchBytes: limit + 1})
	if err == nil || !strings.Contains(err.Error(), "batch_bytes") {
		t.Fatalf("open at limit+1: err = %v, want a batch_bytes FrameError", err)
	}
	if n := s.profiles.len(); n != 0 {
		t.Fatalf("memo holds %d profiles after a refused open, want 0", n)
	}
	if n := s.deps.len(); n != 0 {
		t.Fatalf("planned %d shapes for a refused open", n)
	}
	if st := s.StatusSnapshot(); st.Accepted != 0 || st.Shed != 0 || len(st.Tenants) != 0 {
		t.Fatalf("refused open reached admission: %+v", st)
	}

	sess, err := c.Open(OpenRequest{Tenant: "big", Algorithm: "rle32", SLO: "bronze", BatchBytes: limit})
	if err != nil {
		t.Fatalf("open at the limit: %v", err)
	}
	sess.Close()
}
