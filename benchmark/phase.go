package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// procMeter brackets a timed phase with the process-wide readings the proc.*
// and cpu_ms_per_mb metrics come from: CPU time, heap allocation and GC work.
// The load generators share the process with the program under test, so
// their own (small, allocation-free) cost is inside these numbers.
type procMeter struct {
	t0   time.Time
	cpu0 float64
	ms0  runtime.MemStats
}

type procUsage struct {
	wall       time.Duration
	cpuMs      float64
	mallocs    float64
	allocBytes float64
	gcCycles   float64
	gcPauseMs  float64
}

func startProcMeter() *procMeter {
	m := &procMeter{}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuMillis()
	m.t0 = time.Now()
	return m
}

func (m *procMeter) stop() procUsage {
	u := procUsage{wall: time.Since(m.t0), cpuMs: cpuMillis() - m.cpu0}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs = float64(ms.Mallocs - m.ms0.Mallocs)
	u.allocBytes = float64(ms.TotalAlloc - m.ms0.TotalAlloc)
	u.gcCycles = float64(ms.NumGC - m.ms0.NumGC)
	u.gcPauseMs = float64(ms.PauseTotalNs-m.ms0.PauseTotalNs) / 1e6
	return u
}

// report writes the phase's proc.* metrics and cpu_ms_per_mb.
func (u procUsage) report(rep *report, batches, rawBytes int64) {
	rep.set("cpu_ms_per_mb", u.cpuMs/(float64(rawBytes)/1e6))
	rep.set("proc.allocs_per_batch", u.mallocs/float64(batches))
	rep.set("proc.alloc_bytes_per_batch", u.allocBytes/float64(batches))
	rep.set("proc.gc_cycles_per_s", u.gcCycles/u.wall.Seconds())
	rep.set("proc.gc_pause_ms_per_s", u.gcPauseMs/u.wall.Seconds())
}

// openStats separates session opens by plan state. An open is cold the first
// time its (shape, shard) pair is seen on a server — it pays profiling plus a
// plan-cache hit or a full search — and warm otherwise.
type openStats struct {
	cold, warm hist
}

func (s *openStats) merge(o *openStats) {
	s.cold.merge(&o.cold)
	s.warm.merge(&o.warm)
}

func (s *openStats) report(rep *report) {
	rep.set("attach.open_cold_p50_us", s.cold.us(0.5))
	rep.set("attach.open_warm_p50_us", s.warm.us(0.5))
	rep.set("diag.open_cold_samples", float64(s.cold.n))
	rep.set("diag.open_warm_samples", float64(s.warm.n))
}

// seenShapes tracks which (shape, shard) pairs one server has planned. It is
// shared by that server's generators; the map is sized up front so marking
// never grows it inside a timed loop.
type seenShapes struct {
	mu   sync.Mutex
	seen map[int]struct{}
}

func newSeenShapes(shapes int) *seenShapes {
	return &seenShapes{seen: make(map[int]struct{}, shapes*serverShards)}
}

// serverShards is serve.Config.Defaults().Shards, the multiplier between
// shapes and (shape, shard) pairs.
const serverShards = 4

// first reports whether this is the pair's first open, and marks it.
func (s *seenShapes) first(shapeID, shard int) bool {
	key := shapeID*serverShards + shard
	s.mu.Lock()
	_, seen := s.seen[key]
	if !seen {
		s.seen[key] = struct{}{}
	}
	s.mu.Unlock()
	return !seen
}

// record files one open under cold or warm.
func (s *seenShapes) record(st *openStats, shapeID, shard int, d time.Duration) (cold bool) {
	if s.first(shapeID, shard) {
		st.cold.record(int64(d))
		return true
	}
	st.warm.record(int64(d))
	return false
}

// srvCounters is the slice of a server's counters the per-layer metrics use,
// read from Server.Telemetry().Metrics() and Server.StatusSnapshot(). The
// traced run reads it before and after the timed phase and reports deltas.
type srvCounters [numCounters]int64

const (
	ctrPoolAcquires = iota
	ctrPoolAllocs
	ctrFramesRejected
	ctrFramesTorn
	ctrShed
	ctrCacheHits
	ctrCacheMisses
	ctrCacheNear
	ctrModeFull
	ctrModeCache
	ctrModeRepair
	numCounters
)

func readCounters(srv *serve.Server) srvCounters {
	snap := srv.Telemetry().Metrics().Snapshot().Counters
	st := srv.StatusSnapshot()
	c := srvCounters{
		ctrPoolAcquires:   snap[serve.MetricFramePoolAcquires],
		ctrPoolAllocs:     snap[serve.MetricFramePoolAllocs],
		ctrFramesRejected: snap[serve.MetricFramesRejected],
		ctrFramesTorn:     snap[serve.MetricFramesTorn],
		ctrShed:           st.Shed,
		ctrModeFull:       snap[telemetry.MetricPlanModeFull],
		ctrModeCache:      snap[telemetry.MetricPlanModeCache],
		ctrModeRepair:     snap[telemetry.MetricPlanModeNearMissRepair],
	}
	for _, sh := range st.Shards {
		c[ctrCacheHits] += sh.PlanCache.Hits
		c[ctrCacheMisses] += sh.PlanCache.Misses
		c[ctrCacheNear] += sh.PlanCache.NearMisses
	}
	return c
}

func (c srvCounters) minus(o srvCounters) srvCounters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c srvCounters) plus(o srvCounters) srvCounters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (c srvCounters) report(rep *report) {
	rep.set(nsServe+".frame_pool.alloc_ratio", ratio(c[ctrPoolAllocs], c[ctrPoolAcquires]))
	rep.set(nsServe+".frames_rejected", float64(c[ctrFramesRejected]))
	rep.set(nsServe+".frames_torn", float64(c[ctrFramesTorn]))
	rep.set(nsServe+".sessions_shed", float64(c[ctrShed]))
	rep.set("plancache.hits", float64(c[ctrCacheHits]))
	rep.set("plancache.misses", float64(c[ctrCacheMisses]))
	rep.set("plancache.near_misses", float64(c[ctrCacheNear]))
	rep.set("plancache.hit_ratio", ratio(c[ctrCacheHits], c[ctrCacheHits]+c[ctrCacheMisses]))
	rep.set(nsPlan+".mode.full", float64(c[ctrModeFull]))
	rep.set(nsPlan+".mode.cache", float64(c[ctrModeCache]))
	rep.set(nsPlan+".mode.near_miss_repair", float64(c[ctrModeRepair]))
}

// serverGauges returns samplers for the dispatch plane's two depth gauges.
func serverGauges(srv *serve.Server) (queueDepth, inflight func() float64) {
	reg := srv.Telemetry().Metrics()
	q, in := reg.Gauge(serve.MetricQueueDepth), reg.Gauge(serve.MetricConnInflight)
	return q.Value, in.Value
}

// attachFromOpens derives the attach.* per-layer metrics from a set-up
// phase's opens, for the workloads that have no attach cycles of their own.
func attachFromOpens(rep *report, st *openStats) {
	total := st.cold.sum + st.warm.sum
	rep.set("attach.opens_per_s", float64(st.cold.n+st.warm.n)/(float64(total)/1e9))
	rep.set("attach.cold_time_frac", float64(st.cold.sum)/float64(total))
}

// pushStats is what a generator counts per completed push. Every generator
// owns one and they are merged when the generators are joined.
type pushStats struct {
	rtt      hist
	n        int64
	raw      int64
	comp     int64
	energy   float64
	violated int64
}

func (s *pushStats) record(rtt time.Duration, rawBytes int, compBytes int64, energy float64, violated bool) {
	s.rtt.record(int64(rtt))
	s.n++
	s.raw += int64(rawBytes)
	s.comp += compBytes
	s.energy += energy
	if violated {
		s.violated++
	}
}

func (s *pushStats) merge(o *pushStats) {
	s.rtt.merge(&o.rtt)
	s.n += o.n
	s.raw += o.raw
	s.comp += o.comp
	s.energy += o.energy
	s.violated += o.violated
}

// report writes the push metrics every workload has.
func (s *pushStats) report(rep *report) {
	rep.set("push_rtt_p50_us", s.rtt.us(0.5))
	rep.set("push_rtt_p90_us", s.rtt.us(0.9))
	rep.set("diag.push_rtt_p99_us", s.rtt.us(0.99))
	rep.set("diag.push_samples", float64(s.n))
	rep.set("ratio", float64(s.comp)/float64(s.raw))
}

// reportServed adds what only served pushes carry: the simulated measurement
// in every result, and the tail as a serve-layer diagnostic.
func (s *pushStats) reportServed(rep *report) {
	s.report(rep)
	rep.set("energy_uj_per_byte", s.energy/float64(s.n))
	rep.set(nsServe+".push_rtt_p99_us", s.rtt.us(0.99))
	rep.set(nsServe+".clcv_frac", ratio(s.violated, s.n))
}

// rig is one live server and the connections to it.
type rig struct {
	srv     *serve.Server
	clients []*serve.Client
	seen    *seenShapes
}

// startRig is the part of a cold set-up every served workload shares:
// serve.New, Start, and one Dial per connection.
func startRig(e *env, conns, shapes int) (*rig, error) {
	srv, err := serve.New(serve.Config{Seed: serverSeed})
	if err != nil {
		return nil, err
	}
	r := &rig{srv: srv, seen: newSeenShapes(shapes)}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := 0; i < conns; i++ {
		t0 := time.Now()
		cl, err := serve.Dial(srv.Addr().String())
		if !e.t.op(err) {
			r.tearDown(e)
			return nil, err
		}
		e.mainTracer().add(spanDial, uint64(i), -1, t0, time.Now())
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

// tearDown closes the clients and the server and waits for both; a shed
// session anywhere in the rig's life counts as a failure.
func (r *rig) tearDown(e *env) {
	for _, cl := range r.clients {
		cl.Close()
	}
	if shed := r.srv.StatusSnapshot().Shed; shed > 0 {
		e.t.op(fmt.Errorf("%d sessions shed", shed))
	}
	e.t.op(r.srv.Close())
}

// kept is a served result held for the read-back phase, with its input.
type kept struct {
	data []byte
	res  serve.Result
}

// readBackPhase has every generator decode and compare its kept results over
// and over for the read-back time, and reports the median window.
func readBackPhase(e *env, rep *report, keep [][]kept, tallies []*tally) {
	rb := e.ph.readback
	start := time.Now()
	wins := make([]*windows, len(keep))
	var wg sync.WaitGroup
	for g := range keep {
		wins[g] = newWindows(start, readBackWindow(rb), rb)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			readBack(keep[g], tallies[g], wins[g], e.tracerFor(g), start.Add(rb))
		}(g)
	}
	wg.Wait()
	e.reportMedian(rep, "readback_mb_s", fmt.Sprintf("windows of %v", readBackWindow(rb)), sumWindows(wins))
}

// readBack decodes and compares the kept results until the deadline.
func readBack(ks []kept, t *tally, win *windows, tr *tracer, deadline time.Time) {
	if len(ks) == 0 {
		return
	}
	if tr != nil {
		tr.on = true
	}
	for i := 0; ; i++ {
		k := &ks[i%len(ks)]
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		got, err := k.res.Decode()
		t1 := time.Now()
		t.op(checkDecoded(got, err, k.data))
		tr.add(spanDecode, uint64(i), -1, t0, t1)
		win.add(t1, int64(len(k.data)))
	}
}

// firstError is the first failure any of the tallies saw.
func firstError(ts ...*tally) error {
	for _, t := range ts {
		if t.firstErr != nil {
			return t.firstErr
		}
	}
	return nil
}
