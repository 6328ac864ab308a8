// Command cstream-serve is the multi-tenant ingest front-end of the CStream
// reproduction: it accepts compressed-stream sessions over a length-prefixed,
// session-multiplexed TCP protocol, places each on the multi-stream runtime
// (shard) holding the fewest sessions, enforces per-tenant admission control,
// and exposes an HTTP control/metrics plane.
//
// Server mode (default) listens until interrupted:
//
//	cstream-serve -listen 127.0.0.1:9040 -http 127.0.0.1:9041 -shards 4
//
// Load-generator mode self-hosts a server on loopback, drives tens of
// thousands of concurrent sessions across a handful of multiplexed
// connections, verifies every result decodes back to its input, and exits
// non-zero when an assertion fails — the CI smoke gate:
//
//	cstream-serve -loadgen -sessions 10240 -conns 32 -slos gold,bronze
//
// With -duration the load generator switches from a fixed push count to a
// sustained-throughput run: sessions push continuously until the deadline and
// the report adds aggregate MB/s plus per-class p50/p99 frame round-trip
// latency:
//
//	cstream-serve -loadgen -sessions 512 -conns 8 -duration 30s
//
// With -segment-dir every served batch is also persisted to the durable
// segment store (one directory per tenant and algorithm; see STORAGE.md), and
// verify mode checks a segment tree after a crash or migration — it walks the
// directory, re-verifies every frame CRC, decodes every complete batch, and
// exits non-zero if anything that should be readable is not:
//
//	cstream-serve -verify-segments /var/lib/cstream/segments
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/segstore"
	"repro/internal/serve"
)

func main() {
	var (
		listenAddr = flag.String("listen", "127.0.0.1:9040", "ingest TCP listen address")
		httpAddr   = flag.String("http", "127.0.0.1:9041", "HTTP control/metrics plane address (empty disables)")
		shards     = flag.Int("shards", 4, "number of sharded multi-stream runtimes")
		maxPer     = flag.Int("max-sessions", 4096, "max concurrently attached sessions per shard")
		quota      = flag.Int("tenant-quota", 0, "max concurrently active sessions per tenant (0 = unlimited)")
		seed       = flag.Int64("seed", 1, "planner and profiling seed (served plans are deterministic per seed)")
		batchBytes = flag.Int("batch-bytes", 0, "default session batch size B (0 = paper default)")
		profBatch  = flag.Int("profile-batches", 2, "profiling depth per planned session shape")
		sloSpec    = flag.String("slo", "", `SLO catalog as name=lset_us_per_byte[!], "!" sheds infeasible sessions (default gold/silver/bronze)`)
		maxInfl    = flag.Int("max-inflight", 0, "per-connection cap on dispatched-but-unanswered Data frames (0 = server default; 1 reproduces the strict serial read loop)")

		planCacheFile = flag.String("plan-cache-file", "", "persist the server's plan cache to this file on shutdown and warm-start from it; per-shard <path>.shard<i> files of older servers are not read (empty disables)")

		segmentDir     = flag.String("segment-dir", "", "durable segment sink root: persist every served batch under <dir>/<tenant>/<algorithm>/ (empty disables)")
		segmentBatches = flag.Int("segment-batches", 0, "seal a segment after this many batches (0 = rotate on the 64 MiB byte budget only)")
		segmentSync    = flag.Int("segment-sync", 0, "fsync the active segment every N batches (0 = only at rotation and close)")
		verifyDir      = flag.String("verify-segments", "", "verify mode: decode-verify every segment under this directory tree and exit (0 = all complete batches decode)")
		verifyMin      = flag.Int("verify-min-batches", 1, "verify mode: fail unless at least this many batches are readable in total")

		loadgen   = flag.Bool("loadgen", false, "run the self-hosted load generator instead of serving")
		sessions  = flag.Int("sessions", 10240, "loadgen: concurrent sessions to open")
		conns     = flag.Int("conns", 32, "loadgen: TCP connections to multiplex sessions over")
		tenants   = flag.Int("tenants", 8, "loadgen: distinct tenants")
		pushes    = flag.Int("pushes", 1, "loadgen: batches pushed per session")
		pushBytes = flag.Int("push-bytes", 2048, "loadgen: bytes per pushed batch")
		algorithm = flag.String("algorithm", "delta32", "loadgen: compression kernel")
		sloList   = flag.String("slos", "silver,bronze", "loadgen: SLO classes assigned round-robin, ordered strictest to loosest")
		inflight  = flag.Int("inflight", 0, "loadgen: max concurrent in-flight pushes (0 = 2 per shard)")
		maxCLCV   = flag.Float64("max-clcv", 0.1, "loadgen: fail if the loosest class's CLC-violation rate exceeds this")
		duration  = flag.Duration("duration", 0, "loadgen: sustained mode — push continuously for this long instead of -pushes per session, reporting MB/s and per-class p50/p99 round-trip latency")
	)
	flag.Parse()

	if *verifyDir != "" {
		os.Exit(runVerifySegments(*verifyDir, *verifyMin))
	}

	classes, err := parseSLOSpec(*sloSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cstream-serve:", err)
		os.Exit(2)
	}
	cfg := serve.Config{
		Shards:              *shards,
		MaxSessionsPerShard: *maxPer,
		TenantQuota:         *quota,
		SLOClasses:          classes,
		Seed:                *seed,
		DefaultBatchBytes:   *batchBytes,
		ProfileBatches:      *profBatch,
		SegmentDir:          *segmentDir,
		SegmentRotate:       segstore.RotatePolicy{MaxSegmentBatches: *segmentBatches},
		SegmentSyncEvery:    *segmentSync,
		PlanCacheFile:       *planCacheFile,
		MaxInflight:         *maxInfl,
	}

	if *loadgen {
		os.Exit(runLoadgen(cfg, loadgenConfig{
			sessions:  *sessions,
			conns:     *conns,
			tenants:   *tenants,
			pushes:    *pushes,
			pushBytes: *pushBytes,
			algorithm: *algorithm,
			slos:      strings.Split(*sloList, ","),
			inflight:  *inflight,
			maxCLCV:   *maxCLCV,
			duration:  *duration,
		}))
	}
	os.Exit(runServer(cfg, *listenAddr, *httpAddr))
}

// parseSLOSpec parses "gold=10,silver=26,strict=5!" into a catalog; empty
// input selects the defaults.
func parseSLOSpec(spec string) ([]serve.SLOClass, error) {
	if spec == "" {
		return nil, nil
	}
	var out []serve.SLOClass
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad SLO class %q (want name=lset)", part)
		}
		strict := strings.HasSuffix(val, "!")
		val = strings.TrimSuffix(val, "!")
		lset, err := strconv.ParseFloat(val, 64)
		if err != nil || lset <= 0 {
			return nil, fmt.Errorf("bad SLO class %q: latency constraint must be a positive number", part)
		}
		out = append(out, serve.SLOClass{Name: name, LSetUSPerByte: lset, RequireFeasible: strict})
	}
	return out, nil
}

// runServer hosts the ingest listener and HTTP plane until SIGINT/SIGTERM.
func runServer(cfg serve.Config, listenAddr, httpAddr string) int {
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cstream-serve:", err)
		return 2
	}
	if err := s.Start(listenAddr); err != nil {
		fmt.Fprintln(os.Stderr, "cstream-serve:", err)
		return 2
	}
	defer s.Close()
	fmt.Printf("cstream-serve: ingest on %s\n", s.Addr())
	if httpAddr != "" {
		go func() {
			srv := &http.Server{Addr: httpAddr, Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
			fmt.Printf("cstream-serve: control plane on http://%s/status\n", httpAddr)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "cstream-serve: http:", err)
			}
		}()
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("cstream-serve: shutting down")
	return 0
}

type loadgenConfig struct {
	sessions  int
	conns     int
	tenants   int
	pushes    int
	pushBytes int
	algorithm string
	slos      []string
	inflight  int
	maxCLCV   float64
	duration  time.Duration
}

// classStats aggregates loadgen-side accounting per SLO class. The latency
// samples are only collected in sustained (-duration) mode.
type classStats struct {
	batches    int64
	violations int64

	mu    sync.Mutex
	rttNS []int64
}

func (cs *classStats) recordRTT(d time.Duration) {
	cs.mu.Lock()
	cs.rttNS = append(cs.rttNS, int64(d))
	cs.mu.Unlock()
}

// percentiles returns the p50 and p99 of the recorded round-trip samples.
func (cs *classStats) percentiles() (p50, p99 time.Duration) {
	cs.mu.Lock()
	samples := append([]int64(nil), cs.rttNS...)
	cs.mu.Unlock()
	if len(samples) == 0 {
		return 0, 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(samples)-1))
		return time.Duration(samples[i])
	}
	return at(0.50), at(0.99)
}

// runLoadgen self-hosts a server on loopback, opens cfg.sessions concurrent
// sessions multiplexed over cfg.conns connections (two SLO classes by
// default), pushes batches through every session while all of them are open,
// verifies each result decodes back to its input, prints a report, and
// returns non-zero if any smoke assertion fails.
func runLoadgen(cfg serve.Config, lg loadgenConfig) int {
	if lg.conns < 1 || lg.sessions < lg.conns {
		fmt.Fprintln(os.Stderr, "cstream-serve: need -conns >= 1 and -sessions >= -conns")
		return 2
	}
	// sized: the shards were sized to hold the requested fleet, so the smoke
	// run measures sustained concurrency, not deliberate shedding. Each open
	// goes to the least-placed shard, so then none may be shed shard_full.
	sized := cfg.MaxSessionsPerShard*cfg.Shards < lg.sessions
	if sized {
		cfg.MaxSessionsPerShard = (lg.sessions + cfg.Shards - 1) / cfg.Shards
	}
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cstream-serve:", err)
		return 2
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		fmt.Fprintln(os.Stderr, "cstream-serve:", err)
		return 2
	}
	defer s.Close()
	addr := s.Addr().String()
	fmt.Printf("loadgen: server on %s, %d shards, %d sessions over %d conns, kernel %s, SLO classes %s\n",
		addr, cfg.Shards, lg.sessions, lg.conns, lg.algorithm, strings.Join(lg.slos, "/"))

	clients := make([]*serve.Client, lg.conns)
	for i := range clients {
		c, err := serve.Dial(addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cstream-serve: dial:", err)
			return 2
		}
		defer c.Close()
		clients[i] = c
	}

	var (
		opened     int64
		shed       int64
		mismatches int64
		pushErrs   int64
		byClass    = make([]classStats, len(lg.slos))
		wg         sync.WaitGroup
	)
	perConn := lg.sessions / lg.conns

	// Phase 1: open every session, so the push phase runs with the whole
	// fleet concurrently attached.
	openStart := time.Now()
	all := make([][]*serve.ClientSession, lg.conns)
	classOf := make([][]int, lg.conns)
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *serve.Client) {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				ordinal := ci*perConn + i
				class := ordinal % len(lg.slos)
				sess, err := c.Open(serve.OpenRequest{
					Tenant:     fmt.Sprintf("tenant-%02d", ordinal%lg.tenants),
					Algorithm:  lg.algorithm,
					SLO:        strings.TrimSpace(lg.slos[class]),
					BatchBytes: lg.pushBytes,
				})
				if err != nil {
					atomic.AddInt64(&shed, 1)
					continue
				}
				atomic.AddInt64(&opened, 1)
				all[ci] = append(all[ci], sess)
				classOf[ci] = append(classOf[ci], class)
			}
		}(ci, c)
	}
	wg.Wait()
	openDur := time.Since(openStart)
	peakActive := s.StatusSnapshot().Peak

	// Phase 2: push batches through every open session and verify decode
	// equivalence end to end. A semaphore paces in-flight pushes the way a
	// real client fleet's send windows would, so shard contention — and with
	// it the CLC-violation rate — stays bounded rather than scaling with the
	// connection count.
	pushStart := time.Now()
	maxInflight := lg.inflight
	if maxInflight <= 0 {
		maxInflight = 2 * cfg.Shards
	}
	sem := make(chan struct{}, maxInflight)
	payload := make([]byte, lg.pushBytes)
	for i := range payload {
		payload[i] = byte(i>>2) ^ byte(i)
	}
	for ci := range all {
		wg.Add(1)
		if lg.duration > 0 {
			// Sustained mode: cycle this connection's sessions until the
			// deadline, timing every push's frame round trip. PushReuse keeps
			// the generator itself allocation-free so the RTT samples measure
			// the serve data plane, not client GC; a full decode check on every
			// 64th batch keeps correctness coverage without dominating the run.
			go func(ci int) {
				defer wg.Done()
				var reuse serve.Result
				deadline := time.Now().Add(lg.duration)
				for n := 0; len(all[ci]) > 0 && time.Now().Before(deadline); n++ {
					si := n % len(all[ci])
					sem <- struct{}{}
					t0 := time.Now()
					err := all[ci][si].PushReuse(payload, &reuse)
					rtt := time.Since(t0)
					<-sem
					if err != nil {
						atomic.AddInt64(&pushErrs, 1)
						return
					}
					cs := &byClass[classOf[ci][si]]
					atomic.AddInt64(&cs.batches, 1)
					if reuse.Measure.Violated {
						atomic.AddInt64(&cs.violations, 1)
					}
					cs.recordRTT(rtt)
					if n%64 == 0 {
						decoded, err := reuse.Decode()
						if err != nil || !bytes.Equal(decoded, payload) {
							atomic.AddInt64(&mismatches, 1)
						}
					}
				}
			}(ci)
			continue
		}
		go func(ci int) {
			defer wg.Done()
			for si, sess := range all[ci] {
				for p := 0; p < lg.pushes; p++ {
					sem <- struct{}{}
					res, err := sess.Push(payload)
					<-sem
					if err != nil {
						atomic.AddInt64(&pushErrs, 1)
						break
					}
					cs := &byClass[classOf[ci][si]]
					atomic.AddInt64(&cs.batches, 1)
					if res.Measure.Violated {
						atomic.AddInt64(&cs.violations, 1)
					}
					decoded, err := res.Decode()
					if err != nil || !bytes.Equal(decoded, payload) {
						atomic.AddInt64(&mismatches, 1)
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	pushDur := time.Since(pushStart)
	for ci := range all {
		for _, sess := range all[ci] {
			sess.Close() //nolint:errcheck
		}
	}

	st := s.StatusSnapshot()
	totalBatches := int64(0)
	fmt.Printf("loadgen: opened %d sessions (%d shed) in %v; peak active %d\n", opened, shed, openDur.Round(time.Millisecond), peakActive)
	for i, name := range lg.slos {
		cs := &byClass[i]
		totalBatches += cs.batches
		clcv := 0.0
		if cs.batches > 0 {
			clcv = float64(cs.violations) / float64(cs.batches)
		}
		fmt.Printf("loadgen: class %-8s batches %-7d CLC violations %-6d rate %.4f\n",
			strings.TrimSpace(name), cs.batches, cs.violations, clcv)
		if lg.duration > 0 {
			p50, p99 := cs.percentiles()
			fmt.Printf("loadgen: class %-8s frame RTT p50 %v p99 %v (%d samples)\n",
				strings.TrimSpace(name), p50.Round(time.Microsecond), p99.Round(time.Microsecond), len(cs.rttNS))
		}
	}
	mb := float64(totalBatches) * float64(lg.pushBytes) / (1 << 20)
	fmt.Printf("loadgen: pushed %d batches (%.1f MiB raw) in %v (%.1f MiB/s); decode mismatches %d, push errors %d\n",
		totalBatches, mb, pushDur.Round(time.Millisecond), mb/pushDur.Seconds(), mismatches, pushErrs)
	fmt.Printf("loadgen: plan cache hits %d misses %d evictions %d size %d\n",
		st.PlanCache.Hits, st.PlanCache.Misses, st.PlanCache.Evictions, st.PlanCache.Size)
	for _, sh := range st.Shards {
		fmt.Printf("loadgen: shard %d planned %d deployment shapes, peak core load %.4g µs/B; plan cache hits %d misses %d\n",
			sh.Index, sh.Deployments, sh.PeakCoreLoad, sh.PlanCache.Hits, sh.PlanCache.Misses)
	}

	// Smoke assertions.
	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: "+format+"\n", args...)
	}

	// With a segment sink attached, close the server (sealing every active
	// segment) and read the persisted tree back: every batch must decode to
	// the exact payload the sessions pushed.
	if cfg.SegmentDir != "" {
		if err := s.Close(); err != nil {
			fail("close with segment sink: %v", err)
		}
		vs, err := verifySegmentTree(cfg.SegmentDir, payload)
		if err != nil {
			fail("segment verify walk: %v", err)
		}
		fmt.Printf("loadgen: segment sink: %d files (%d sealed), %d batches decode-verified against the pushed payload\n",
			vs.files, vs.sealed, vs.batches)
		if vs.decodeFailures > 0 || vs.payloadMismatches > 0 {
			fail("segment sink: %d decode failures, %d payload mismatches", vs.decodeFailures, vs.payloadMismatches)
		}
		// A pre-populated directory (e.g. verifying recovery after a crashed
		// run) legitimately holds more batches than this run served; losing
		// served batches is the failure.
		if int64(vs.batches) < totalBatches {
			fail("segment sink persisted %d batches, served %d", vs.batches, totalBatches)
		}
		if vs.partials > 0 {
			fail("clean shutdown left %d partial segments", vs.partials)
		}
	}
	if opened == 0 {
		fail("no sessions accepted")
	}
	if full := s.Telemetry().Metrics().Counter(serve.MetricShedPrefix + serve.ShedShardFull).Value(); sized && full != 0 {
		fail("%d sessions shed %s with shards sized to hold all %d", full, serve.ShedShardFull, lg.sessions)
	}
	if peakActive < int(opened) {
		fail("peak active %d below opened %d — fleet was not concurrently attached", peakActive, opened)
	}
	if mismatches != 0 {
		fail("%d decode mismatches", mismatches)
	}
	if pushErrs != 0 {
		fail("%d push errors", pushErrs)
	}
	for i, name := range lg.slos {
		if byClass[i].batches == 0 {
			fail("class %s served no batches", name)
		}
	}
	// The CLC-violation bound applies to the loosest (last-listed) class:
	// stricter classes are expected to violate under deliberate contention —
	// that differentiation is what the per-class metrics demonstrate — while
	// the best-effort class must stay within the bound.
	if last := &byClass[len(lg.slos)-1]; last.batches > 0 {
		if clcv := float64(last.violations) / float64(last.batches); clcv > lg.maxCLCV {
			fail("class %s CLC-violation rate %.4f exceeds bound %.4f",
				strings.TrimSpace(lg.slos[len(lg.slos)-1]), clcv, lg.maxCLCV)
		}
	}
	if failed {
		return 1
	}
	fmt.Println("loadgen: PASS")
	return 0
}
