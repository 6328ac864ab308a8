package serve

import (
	"slices"
	"sync"
	"testing"
)

// placedCounts reads every shard's placed count.
func placedCounts(s *Server) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := make([]int, len(s.shards))
	for i, sh := range s.shards {
		counts[i] = sh.placed
	}
	return counts
}

// TestPlacementLeastPlaced pins the placement rule: each open goes to the
// shard with the fewest placed sessions, ties to the lowest index; a failed
// open gives its slot back; and shard_full is returned only once every shard
// is full.
func TestPlacementLeastPlaced(t *testing.T) {
	const k = 3
	// The strict class can never be met, so its opens fail after placement.
	s, err := New(Config{
		Shards:              4,
		MaxSessionsPerShard: k + 1,
		Seed:                42,
		ProfileBatches:      1,
		SLOClasses: []SLOClass{
			{Name: "silver", LSetUSPerByte: 26},
			{Name: "strict", LSetUSPerByte: 1e-9, RequireFeasible: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	open := func(alg, slo string) (*session, OpenReply, string) {
		t.Helper()
		sess, reply, reason, err := s.openSession(0, OpenRequest{Tenant: "p", Algorithm: alg, SLO: slo, BatchBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return sess, reply, reason
	}
	mustOpen := func(wantShard int) *session {
		t.Helper()
		sess, reply, reason := open("tcomp32", "silver")
		if reason != "" {
			t.Fatalf("shed %q, want shard %d", reason, wantShard)
		}
		if reply.Shard != wantShard {
			t.Fatalf("placed on shard %d, want %d (placed %v)", reply.Shard, wantShard, placedCounts(s))
		}
		return sess
	}

	// 4·k held opens land k per shard, filling shards in index order.
	byShard := make([][]*session, len(s.shards))
	for i := 0; i < k*len(s.shards); i++ {
		sess := mustOpen(i % len(s.shards))
		byShard[sess.shard.index] = append(byShard[sess.shard.index], sess)
	}
	for i, sh := range s.StatusSnapshot().Shards {
		if sh.Sessions != k {
			t.Fatalf("shard %d holds %d sessions, want %d", i, sh.Sessions, k)
		}
	}

	// Emptying shard 2 makes it the least placed.
	for _, sess := range byShard[2] {
		s.finishSession(sess)
	}
	byShard[2] = []*session{mustOpen(2)}

	// Failed opens keep no slot, whether they fail before placement (an
	// unknown algorithm) or after it (an infeasible plan).
	want := placedCounts(s)
	if _, _, reason := open("nosuchalg", "silver"); reason != ShedUnknownAlgorithm {
		t.Fatalf("unknown algorithm: shed %q", reason)
	}
	if _, _, reason := open("tcomp32", "strict"); reason != ShedInfeasible {
		t.Fatalf("infeasible: shed %q", reason)
	}
	if got := placedCounts(s); !slices.Equal(got, want) {
		t.Fatalf("failed opens kept slots: placed %v, want %v", got, want)
	}

	// Fill every shard to MaxSessionsPerShard = k+1: shard 2 catches up to k,
	// then the tie gives each shard one more in index order. Only a full
	// fleet sheds.
	for len(byShard[2]) < k {
		byShard[2] = append(byShard[2], mustOpen(2))
	}
	for i := range s.shards {
		byShard[i] = append(byShard[i], mustOpen(i))
	}
	if _, _, reason := open("tcomp32", "silver"); reason != ShedShardFull {
		t.Fatalf("every shard full: shed %q, want %q", reason, ShedShardFull)
	}
	s.finishSession(byShard[1][0])
	mustOpen(1)
}

// TestConcurrentColdOpensRespectLimits: cold opens that race through the
// plan search must not overrun MaxSessionsPerShard or TenantQuota. Both slots
// are taken before the open plans, so of 16 simultaneous opens exactly one is
// admitted and the rest are shed. Checks against attached sessions admit all
// 16: none attaches until the shape's plan is done. Eight 64 KiB profiling
// batches keep that plan long enough for every opener to reach the check.
func TestConcurrentColdOpensRespectLimits(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		shed string
	}{
		{"shard", Config{Shards: 1, MaxSessionsPerShard: 1}, ShedShardFull},
		{"tenant", Config{Shards: 4, TenantQuota: 1}, ShedTenantQuota},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed, tc.cfg.ProfileBatches = 42, 8
			s, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const openers = 16
			var (
				wg       sync.WaitGroup
				mu       sync.Mutex
				admitted []*session
			)
			start := make(chan struct{})
			for i := 0; i < openers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					sess, _, reason, err := s.openSession(uint32(i), OpenRequest{
						Tenant: "cold", Algorithm: "huff8", SLO: "silver", BatchBytes: 64 << 10,
					})
					switch {
					case err != nil:
						t.Error(err)
					case reason == "":
						mu.Lock()
						admitted = append(admitted, sess)
						mu.Unlock()
					case reason != tc.shed:
						t.Errorf("shed %q, want %q", reason, tc.shed)
					}
				}(i)
			}
			close(start)
			wg.Wait()
			// Sessions are held until every open has returned, so none of
			// the admissions can reuse a freed slot.
			for _, sess := range admitted {
				s.finishSession(sess)
			}
			if len(admitted) != 1 {
				t.Fatalf("%d of %d concurrent cold opens admitted, want 1", len(admitted), openers)
			}
		})
	}
}
