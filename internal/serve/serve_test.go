package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
	"repro/pkg/cstream"
)

// testBatch builds deterministic, mildly compressible bytes.
func testBatch(n int, phase byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i>>3) + phase
	}
	return b
}

func startServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *serve.Server) *serve.Client {
	t.Helper()
	c, err := serve.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServeRoundTrip(t *testing.T) {
	s := startServer(t, serve.Config{Shards: 2, Seed: 42, ProfileBatches: 2})
	c := dial(t, s)

	// Three 64 KiB slices' worth, so every result frame carries several
	// segments.
	const batchBytes = 3*(64<<10) + 8
	sess, err := c.Open(serve.OpenRequest{
		Tenant: "acme", Algorithm: "tcomp32", SLO: "silver", BatchBytes: batchBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	reply := sess.Reply()
	if reply.LSetUSPerByte != cstream.DefaultLatencyConstraint {
		t.Fatalf("silver CLC = %v", reply.LSetUSPerByte)
	}
	for push := 0; push < 3; push++ {
		data := testBatch(batchBytes, byte(push))
		res, err := sess.Push(data)
		if err != nil {
			t.Fatal(err)
		}
		if res.InputBytes != len(data) || len(res.Segments) != 3 {
			t.Fatalf("push %d: bad result %+v", push, res)
		}
		if res.Measure.LatencyPerByte <= 0 || res.Measure.Contention < 1 {
			t.Fatalf("push %d: bad measure %+v", push, res.Measure)
		}
		decoded, err := res.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(decoded, data) {
			t.Fatalf("push %d: decode mismatch", push)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.StatusSnapshot()
	if st.Accepted != 1 || st.Active != 0 || st.Peak != 1 {
		t.Fatalf("bad status %+v", st)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Batches != 3 {
		t.Fatalf("bad tenant status %+v", st.Tenants)
	}
	reg := s.Telemetry().Metrics()
	if got := reg.Counter(serve.MetricBatches).Value(); got != 3 {
		t.Fatalf("batches counter = %d", got)
	}
	if got := reg.Counter(serve.MetricBytesIn).Value(); got != 3*batchBytes {
		t.Fatalf("bytes_in counter = %d", got)
	}
	if reg.Counter(serve.MetricTenantPrefix+"acme"+serve.TenantSuffixBatches).Value() != 3 {
		t.Fatal("tenant batch counter missing")
	}
}

func TestServeAdmissionControl(t *testing.T) {
	s := startServer(t, serve.Config{
		Shards:              1,
		MaxSessionsPerShard: 2,
		TenantQuota:         1,
		Seed:                42,
		ProfileBatches:      2,
		SLOClasses: []serve.SLOClass{
			{Name: "silver", LSetUSPerByte: 26},
			{Name: "strict", LSetUSPerByte: 1e-9, RequireFeasible: true},
		},
	})
	c := dial(t, s)

	open := func(tenant, alg, slo string) (*serve.ClientSession, error) {
		return c.Open(serve.OpenRequest{Tenant: tenant, Algorithm: alg, SLO: slo, BatchBytes: 16 << 10})
	}
	shedReason := func(err error) string {
		if !errors.Is(err, serve.ErrShed) {
			t.Fatalf("err = %v, want ErrShed", err)
		}
		parts := strings.Split(err.Error(), ": ")
		return parts[len(parts)-1]
	}

	if _, err := open("a", "tcomp32", "platinum"); shedReason(err) != serve.ShedUnknownSLO {
		t.Fatalf("unknown SLO: %v", err)
	}
	if _, err := open("a", "nosuchalg", "silver"); shedReason(err) != serve.ShedUnknownAlgorithm {
		t.Fatalf("unknown algorithm: %v", err)
	}
	if _, err := open("a", "tcomp32", "strict"); shedReason(err) != serve.ShedInfeasible {
		t.Fatalf("infeasible: %v", err)
	}

	first, err := open("a", "tcomp32", "silver")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open("a", "tcomp32", "silver"); shedReason(err) != serve.ShedTenantQuota {
		t.Fatalf("tenant quota: %v", err)
	}
	second, err := open("b", "tcomp32", "silver")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open("c", "tcomp32", "silver"); shedReason(err) != serve.ShedShardFull {
		t.Fatalf("shard full: %v", err)
	}
	first.Close()
	second.Close()
	// Detaching frees the slots: a new session is admitted again.
	third, err := open("c", "tcomp32", "silver")
	if err != nil {
		t.Fatalf("after close: %v", err)
	}
	third.Close()

	reg := s.Telemetry().Metrics()
	if reg.Counter(serve.MetricSessionsShed).Value() != 5 {
		t.Fatalf("shed counter = %d, want 5", reg.Counter(serve.MetricSessionsShed).Value())
	}
	for _, reason := range []string{serve.ShedUnknownSLO, serve.ShedUnknownAlgorithm, serve.ShedInfeasible, serve.ShedTenantQuota, serve.ShedShardFull} {
		if reg.Counter(serve.MetricShedPrefix+reason).Value() != 1 {
			t.Fatalf("shed reason %s not counted", reason)
		}
	}
}

// TestServedFramesMatchLibraryPath is the decode-equivalence acceptance
// check: a served session and a library Session with the same seed, batch
// size, CLC and profiling depth must emit byte-identical compressed frames.
func TestServedFramesMatchLibraryPath(t *testing.T) {
	const batchBytes = 24 << 10
	s := startServer(t, serve.Config{Shards: 1, Seed: 42, ProfileBatches: 2, ProfileDataset: "Micro"})
	c := dial(t, s)

	for _, alg := range []string{"tcomp32", "lz4", "rle32"} {
		lib, err := cstream.NewSession(alg, cstream.DatasetSource("Micro", 42),
			cstream.WithBatchBytes(batchBytes),
			cstream.WithProfileBatches(2))
		if err != nil {
			t.Fatal(err)
		}
		remote, err := c.Open(serve.OpenRequest{
			Tenant: "equiv", Algorithm: alg, SLO: "silver", BatchBytes: batchBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		for push := 0; push < 2; push++ {
			data := testBatch(batchBytes, byte(13*push))
			want, err := lib.Push(context.Background(), data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := remote.Push(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Segments) != len(want.Segments) {
				t.Fatalf("%s push %d: %d served segments vs %d library segments",
					alg, push, len(got.Segments), len(want.Segments))
			}
			for i := range got.Segments {
				g, w := got.Segments[i], want.Segments[i]
				if g.BitLen != w.BitLen || g.OrigLen != w.OrigLen || !bytes.Equal(g.Compressed, w.Compressed) {
					t.Fatalf("%s push %d segment %d: served frame differs from library frame", alg, push, i)
				}
			}
		}
		remote.Close()
		lib.Close()
	}
}

func TestServeManySessionsMultiplexed(t *testing.T) {
	s := startServer(t, serve.Config{
		Shards: 2, MaxSessionsPerShard: 4096, Seed: 7, ProfileBatches: 1,
	})
	const (
		conns    = 4
		perConn  = 64
		pushSize = 2048
	)
	var wg sync.WaitGroup
	errc := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		c := dial(t, s)
		wg.Add(1)
		go func(ci int, c *serve.Client) {
			defer wg.Done()
			sessions := make([]*serve.ClientSession, 0, perConn)
			for i := 0; i < perConn; i++ {
				sess, err := c.Open(serve.OpenRequest{
					Tenant:     "tenant-" + string(rune('a'+ci)),
					Algorithm:  "delta32",
					SLO:        "bronze",
					BatchBytes: pushSize,
				})
				if err != nil {
					errc <- err
					return
				}
				sessions = append(sessions, sess)
			}
			for i, sess := range sessions {
				res, err := sess.Push(testBatch(pushSize, byte(i)))
				if err != nil {
					errc <- err
					return
				}
				decoded, err := res.Decode()
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(decoded, testBatch(pushSize, byte(i))) {
					errc <- errors.New("decode mismatch")
					return
				}
			}
			for _, sess := range sessions {
				if err := sess.Close(); err != nil {
					errc <- err
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := s.StatusSnapshot()
	if st.Accepted != conns*perConn || st.Active != 0 {
		t.Fatalf("status %+v, want %d accepted, 0 active", st, conns*perConn)
	}
	if st.Peak < perConn {
		t.Fatalf("peak = %d, want >= %d concurrently open", st.Peak, perConn)
	}
	used := 0
	for _, sh := range st.Shards {
		if sh.PeakCoreLoad > 0 {
			used++
		}
	}
	if used == 0 {
		t.Fatal("no shard recorded load")
	}
}

func TestServeHTTPPlane(t *testing.T) {
	s := startServer(t, serve.Config{Shards: 1, Seed: 42, ProfileBatches: 1})
	c := dial(t, s)
	sess, err := c.Open(serve.OpenRequest{Tenant: "web", Algorithm: "huff8", SLO: "bronze", BatchBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Push(testBatch(8<<10, 3)); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var st serve.Status
	getJSON(t, srv.Client(), srv.URL+"/status", &st)
	if st.Accepted != 1 || st.Active != 1 {
		t.Fatalf("status %+v", st)
	}
	var metrics map[string]any
	getJSON(t, srv.Client(), srv.URL+"/metrics", &metrics)
	if len(metrics) == 0 {
		t.Fatal("empty metrics snapshot")
	}
	sess.Close()
}

func getJSON(t *testing.T, c *http.Client, url string, into any) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}
