package serve

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
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

// memo returns the server's profile memo (every shard holds the same one).
func (s *Server) memo() *profileMemo { return s.shards[0].profiles }

// openEverywhere holds one session of the shape and class open per shard, so
// placement puts one on every shard and each shard plans the shape, then
// finishes them all.
func openEverywhere(t *testing.T, s *Server, shape profileKey, slo string) {
	t.Helper()
	held := make([]*session, len(s.shards))
	for i := range held {
		sess, _, reason, err := s.openSession(uint32(i), OpenRequest{
			Tenant: "memo", Algorithm: shape.algorithm, SLO: slo, BatchBytes: shape.batchBytes,
		})
		if err != nil || reason != "" {
			t.Fatalf("open %v %s: err %v, shed %q", shape, slo, err, reason)
		}
		held[i] = sess
	}
	for _, sess := range held {
		s.finishSession(sess)
	}
}

// deploymentOf returns shard sh's planned deployment for the shape.
func deploymentOf(t *testing.T, sh *shard, shape profileKey, lset float64) *core.Deployment {
	t.Helper()
	sh.mu.Lock()
	p := sh.deps[depKey{algorithm: shape.algorithm, batchBytes: shape.batchBytes, lset: lset}]
	sh.mu.Unlock()
	if p == nil || p.dep == nil {
		t.Fatalf("shard %d: no deployment for %v at CLC %v", sh.index, shape, lset)
	}
	return p.dep
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

// TestProfileMemoDeploymentsExact: sharing the profile changes no plan. Every
// shard's deployment of every shape and class is bit-identical to
// DeployProfile on a freshly computed profile with a fresh planner of the
// same seed.
func TestProfileMemoDeploymentsExact(t *testing.T) {
	s := newMemoServer(t)
	for _, slo := range memoClasses {
		for _, shape := range memoShapes {
			openEverywhere(t, s, shape, slo)
		}
	}
	for _, slo := range memoClasses {
		class, _ := s.lookupSLO(slo)
		for _, shape := range memoShapes {
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
			w.LSet = class.LSetUSPerByte
			machine, err := machineFor(s.cfg.Platform)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := core.NewPlanner(machine, s.cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			pl.EnablePlanCache(s.cfg.PlanCache)
			want, err := pl.DeployProfile(w, core.ProfileWorkload(w, s.cfg.ProfileBatches, 0), core.MechCStream)
			if err != nil {
				t.Fatal(err)
			}
			wantBits := deploymentBits(want)
			for _, sh := range s.shards {
				if got := deploymentBits(deploymentOf(t, sh, shape, class.LSetUSPerByte)); got != wantBits {
					t.Errorf("shard %d %v %s:\n got %s\nwant %s", sh.index, shape, slo, got, wantBits)
				}
			}
		}
	}
}

// TestProfileMemoShared: every deployment of one (algorithm, batch bytes),
// on every shard and under every class, plans from the same profile, and the
// memo holds exactly one entry per distinct pair.
func TestProfileMemoShared(t *testing.T) {
	s := newMemoServer(t)
	for _, slo := range memoClasses {
		for _, shape := range memoShapes {
			openEverywhere(t, s, shape, slo)
		}
	}
	memo := s.memo()
	for _, sh := range s.shards {
		if sh.profiles != memo {
			t.Fatalf("shard %d has its own profile memo", sh.index)
		}
	}
	memo.mu.Lock()
	entries := len(memo.entries)
	memo.mu.Unlock()
	if entries != len(memoShapes) {
		t.Fatalf("memo holds %d profiles, want %d", entries, len(memoShapes))
	}
	for _, shape := range memoShapes {
		var first *core.Profile
		for _, slo := range memoClasses {
			class, _ := s.lookupSLO(slo)
			for _, sh := range s.shards {
				prof := deploymentOf(t, sh, shape, class.LSetUSPerByte).Profile
				if first == nil {
					first = prof
				}
				if prof != first {
					t.Fatalf("%v: shard %d %s plans from a different profile", shape, sh.index, slo)
				}
			}
		}
	}
}

// TestProfileMemoReadOnly: opens, pushes and re-plans on other shards never
// write to a shared profile.
func TestProfileMemoReadOnly(t *testing.T) {
	s := newMemoServer(t)
	shape := memoShapes[1]
	openEverywhere(t, s, shape, "silver")
	shared := deploymentOf(t, s.shards[0], shape, core.DefaultLSet).Profile
	before := profileBits(shared)

	data := make([]byte, shape.batchBytes)
	for i := range data {
		data[i] = byte(i >> 3)
	}
	for _, slo := range memoClasses {
		openEverywhere(t, s, shape, slo)
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
// at once, across shards and classes: one profile is computed and every
// deployment holds it. Run under -race this checks the memo's single flight.
func TestProfileMemoConcurrentColdOpen(t *testing.T) {
	s := newMemoServer(t)
	shape := memoShapes[3]
	const openers = 32
	var wg, opened sync.WaitGroup
	opened.Add(openers)
	errs := make(chan error, openers)
	for i := 0; i < openers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, _, reason, err := s.openSession(uint32(i), OpenRequest{
				Tenant: fmt.Sprintf("t%d", i), Algorithm: shape.algorithm,
				SLO: memoClasses[i%len(memoClasses)], BatchBytes: shape.batchBytes,
			})
			opened.Done()
			if err == nil && reason != "" {
				err = fmt.Errorf("shed %q", reason)
			}
			if err != nil {
				errs <- err
				return
			}
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
	memo := s.memo()
	memo.mu.Lock()
	entries := len(memo.entries)
	memo.mu.Unlock()
	if entries != 1 {
		t.Fatalf("memo holds %d profiles, want 1", entries)
	}
	var first *core.Profile
	planned := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		if len(sh.deps) > 0 {
			planned++
		}
		for _, p := range sh.deps {
			if first == nil {
				first = p.dep.Profile
			}
			if p.dep.Profile != first {
				t.Errorf("shard %d plans from a different profile", sh.index)
			}
		}
		sh.mu.Unlock()
	}
	if planned < 2 {
		t.Fatalf("the opens reached %d shard(s), want several", planned)
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
	limit := MaxFrameBytes - frameOverhead

	_, err = c.Open(OpenRequest{Tenant: "big", Algorithm: "rle32", SLO: "bronze", BatchBytes: limit + 1})
	if err == nil || !strings.Contains(err.Error(), "batch_bytes") {
		t.Fatalf("open at limit+1: err = %v, want a batch_bytes FrameError", err)
	}
	memo := s.memo()
	memo.mu.Lock()
	entries := len(memo.entries)
	memo.mu.Unlock()
	if entries != 0 {
		t.Fatalf("memo holds %d profiles after a refused open, want 0", entries)
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		n := len(sh.deps)
		sh.mu.Unlock()
		if n != 0 {
			t.Fatalf("shard %d planned %d shapes for a refused open", sh.index, n)
		}
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
