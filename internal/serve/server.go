package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/recframe"
	"repro/internal/segstore"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// machineFor resolves the simulated board by name.
func machineFor(platform string) (*amp.Machine, error) {
	switch platform {
	case "", "rk3399":
		return amp.NewRK3399(), nil
	case "jetson-tx2":
		return amp.NewJetsonTX2(), nil
	default:
		return nil, fmt.Errorf("serve: unknown platform %q", platform)
	}
}

// SLOClass maps a named service class onto a compressing latency constraint.
type SLOClass struct {
	// Name is the class identifier clients put in OpenRequest.SLO.
	Name string
	// LSetUSPerByte is the CLC (the paper's L_set) sessions of this class
	// run under.
	LSetUSPerByte float64
	// RequireFeasible sheds sessions whose deployment cannot satisfy the
	// CLC, instead of admitting them best-effort.
	RequireFeasible bool
}

// DefaultSLOClasses is the server's default service catalog: gold sits just
// above the board's best achievable per-byte latency (violated by any
// co-residency), silver is the paper's default constraint, bronze is
// best-effort.
func DefaultSLOClasses() []SLOClass {
	return []SLOClass{
		{Name: "gold", LSetUSPerByte: 18},
		{Name: "silver", LSetUSPerByte: core.DefaultLSet},
		{Name: "bronze", LSetUSPerByte: 200},
	}
}

// Shed reasons reported in FrameShed payloads and the serve.shed.* counters.
const (
	ShedShardFull        = "shard_full"
	ShedTenantQuota      = "tenant_quota"
	ShedUnknownSLO       = "unknown_slo"
	ShedUnknownAlgorithm = "unknown_algorithm"
	ShedInfeasible       = "infeasible"
)

// Config parameterizes a Server. The zero value is usable: Defaults fills
// every unset field.
type Config struct {
	// Shards is the number of multi-stream runtimes, each with its own
	// capacity ledger. Every shard plans through the server's one planner
	// and plan cache, so a session shape is planned once per server. Each
	// session is placed on the shard holding the fewest sessions. Default 4.
	Shards int
	// MaxSessionsPerShard bounds the sessions placed on one shard. Placement
	// picks the least-placed shard, so an open is shed with ShedShardFull
	// only when every shard is full. Default 4096.
	MaxSessionsPerShard int
	// TenantQuota bounds concurrently active sessions per tenant across all
	// shards; 0 means unlimited.
	TenantQuota int
	// SLOClasses is the service catalog; empty takes DefaultSLOClasses.
	SLOClasses []SLOClass
	// Seed seeds the server's planner and the profiling generator, making
	// served plans — and therefore served frames — deterministic and
	// byte-identical to a library-path session with the same seed.
	Seed int64
	// Platform names the simulated board ("rk3399" default, "jetson-tx2").
	Platform string
	// DefaultBatchBytes applies when OpenRequest.BatchBytes is 0. Default
	// core.DefaultBatchBytes.
	DefaultBatchBytes int
	// ProfileDataset names the proxy generator sessions are profiled
	// against (sessions push their own bytes, so planning uses a stand-in
	// sample). Default "Micro".
	ProfileDataset string
	// ProfileBatches is the profiling depth per deployment. Default 2.
	ProfileBatches int
	// PlanCache is the capacity of the server's one LRU plan cache. Default
	// 64.
	PlanCache int
	// PlanCacheFile, when non-empty, persists the plan cache across
	// restarts: New warm-starts from the file and Close atomically rewrites
	// it. A torn or corrupt file restores its decodable prefix without
	// error; the lost regimes simply plan from scratch again. The per-shard
	// "<PlanCacheFile>.shard<i>" files older servers wrote are not read, so
	// the first start after an upgrade plans from scratch.
	PlanCacheFile string
	// Telemetry receives all serve.* metrics; nil creates a private sink.
	Telemetry *telemetry.Sink
	// SegmentDir, when non-empty, attaches a durable segment sink: every
	// served batch is also appended to an append-only segment file under
	// SegmentDir/<tenant>/<algorithm>/, rotated per SegmentRotate and sealed
	// atomically. A restarted server recovers partial segments a crash left
	// behind. See STORAGE.md for the format and operator runbook.
	SegmentDir string
	// SegmentRotate is the sink's rotation policy (zero value: 64 MiB byte
	// budget, no batch bound).
	SegmentRotate segstore.RotatePolicy
	// SegmentSyncEvery fsyncs a tenant's active segment every N batches; 0
	// syncs only at rotation and Close.
	SegmentSyncEvery int
	// MaxInflight bounds, per connection, the Data frames admitted into the
	// dispatch stage but not yet answered. The read loop stops pulling from
	// the socket while the cap is reached, so TCP flow control still pushes
	// back on a flooding client exactly as the old serial loop did — the cap
	// just sets how much concurrency a connection's sessions can realize
	// first. 1 reproduces the strict serial read loop. Default 64.
	MaxInflight int
}

// Defaults returns cfg with every unset field filled in.
func (cfg Config) Defaults() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.MaxSessionsPerShard <= 0 {
		cfg.MaxSessionsPerShard = 4096
	}
	if len(cfg.SLOClasses) == 0 {
		cfg.SLOClasses = DefaultSLOClasses()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Platform == "" {
		cfg.Platform = "rk3399"
	}
	if cfg.DefaultBatchBytes <= 0 {
		cfg.DefaultBatchBytes = core.DefaultBatchBytes
	}
	if cfg.ProfileDataset == "" {
		cfg.ProfileDataset = "Micro"
	}
	if cfg.ProfileBatches <= 0 {
		cfg.ProfileBatches = 2
	}
	if cfg.PlanCache <= 0 {
		cfg.PlanCache = 64
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	return cfg
}

// memo is a single-flighted map: the value for a key is computed once, by
// the first caller, and every later or concurrent caller gets the same value.
// The map mutex is held only for the lookup, never across the computation,
// so a slow first use of one key does not stall lookups of another.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
}

// get returns the value for k, running compute on first use. Errors belong
// in V: a failed computation is cached with its key like a result.
func (m *memo[K, V]) get(k K, compute func() V) V {
	m.mu.Lock()
	if m.entries == nil {
		m.entries = map[K]*memoEntry[V]{}
	}
	e := m.entries[k]
	if e == nil {
		e = &memoEntry[V]{}
		m.entries[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v = compute() })
	return e.v
}

// profileKey names a proxy profile. The proxy dataset, seed and profiling
// depth are server-wide and a profile does not depend on the CLC, so a
// profile is a pure function of its key: every SLO class plans from the same
// *core.Profile, which nothing downstream writes.
type profileKey struct {
	algorithm  string
	batchBytes int
}

// depKey names a session shape: everything a deployment is planned from, so
// a shape's deployment is the same whichever shard an open lands on.
type depKey struct {
	algorithm  string
	batchBytes int
	lset       float64
}

// planned is a session shape's deployment, or the error planning it gave.
type planned struct {
	w   core.Workload
	dep *core.Deployment
	err error
}

// shard is one multi-stream runtime: the capacity ledger its sessions are
// charged against, the sessions placed on it, and its gauges. Planning is
// server-wide; the shard only counts the plans its opens triggered.
type shard struct {
	index int
	rt    *core.MultiStreamRuntime

	// placed counts the sessions placed on the shard, from the moment
	// openSession picks it until endSession or a failed open releases it.
	// Guarded by Server.mu.
	placed int

	// The shard's occupancy gauges, resolved once so opens and closes do no
	// name formatting or registry lookups.
	gSessions *telemetry.Gauge
	gPeakLoad *telemetry.Gauge

	// shapes, cacheHits and cacheMisses count the plans that opens placed on
	// this shard triggered: the session shapes they planned first, and those
	// plans' plan-cache lookups. Summed over shards they are the server's
	// deployment count and its one plan cache's hits and misses.
	shapes, cacheHits, cacheMisses atomic.Int64
}

func newShard(index int, pl *core.Planner, reg *telemetry.Registry) *shard {
	return &shard{
		index:     index,
		rt:        core.NewMultiStreamRuntime(pl),
		gSessions: reg.Gauge(fmt.Sprintf("%s%d%s", MetricShardPrefix, index, ShardSuffixSessions)),
		gPeakLoad: reg.Gauge(fmt.Sprintf("%s%d%s", MetricShardPrefix, index, ShardSuffixPeakLoad)),
	}
}

// plan plans a session shape on behalf of shard sh, counting the plan on it:
// the CStream search runs under the class CLC on the server's one proxy
// profile for the (algorithm, batch size). It runs once per shape, under
// s.deps, and every session of the shape shares the result, whichever shard
// and tenant it belongs to. Errors are cached like results: a given shape
// plans deterministically, so retrying an infeasible profile would burn the
// same search again for the same answer. openSession resolves the algorithm
// before the memo, so an unknown name never reaches either memo.
func (s *Server) plan(sh *shard, alg compress.Algorithm, key depKey) *planned {
	sh.shapes.Add(1)
	gen, err := dataset.ByName(s.cfg.ProfileDataset, s.cfg.Seed)
	if err != nil {
		return &planned{err: err}
	}
	w := core.NewWorkload(alg, gen)
	w.BatchBytes = key.batchBytes
	w.LSet = key.lset
	prof := s.profiles.get(profileKey{algorithm: alg.Name(), batchBytes: w.BatchBytes}, func() *core.Profile {
		return core.ProfileWorkload(w, s.cfg.ProfileBatches, 0)
	})
	dep, err := s.planner.DeployProfile(w, prof, core.MechCStream)
	if err != nil {
		return &planned{err: err}
	}
	// CStream looks the shape's regime up in the plan cache exactly once.
	if dep.CacheHit {
		sh.cacheHits.Add(1)
	} else {
		sh.cacheMisses.Add(1)
	}
	return &planned{w: w, dep: dep}
}

// session is one admitted stream. The connection's read loop owns the map
// entry and the jobs channel's send side; the session's worker goroutine owns
// everything it compresses with (handle, pushes), so those fields need no
// lock — exactly one goroutine touches them after open.
type session struct {
	id     uint32
	tenant string
	slo    SLOClass
	alg    string
	shard  *shard
	handle *core.StreamHandle
	ts     *tenantStats
	pushes int

	// jobs feeds the session's worker in push order. Its capacity matches
	// Config.MaxInflight so the connection-wide token cap — never a single
	// slow session's queue — is what stalls the read loop: one session
	// draining slowly cannot head-of-line block its neighbors' frames.
	jobs chan dataJob
	// endOnce makes the detach-and-release accounting idempotent between the
	// worker's exit path and the open-failure rollback.
	endOnce sync.Once

	// Per-tenant and per-class metric handles resolved once at open, so the
	// per-batch path does no name formatting or registry lookups.
	ctrBatches    *telemetry.Counter
	ctrViolations *telemetry.Counter
	ctrSLO        *telemetry.Counter
	gCLCV         *telemetry.Gauge
}

// dataJob is one Data frame handed from the read loop to a session worker.
// The worker owns fb — and the connection in-flight token that admitted the
// frame — and must release both whether or not the batch succeeds. A close
// job carries no frame: it asks the worker to detach the session and
// acknowledge the teardown after every queued batch has been answered.
type dataJob struct {
	// data is the Data payload; it aliases fb's buffer.
	data  []byte
	fb    *FrameBuffer
	close bool
}

// errConnClosed is the sticky error writes return once a connection is torn
// down or a write on it has failed.
var errConnClosed = errors.New("serve: connection closed")

// connWriter serializes all frame writes on one connection — the second half
// of the ordering invariant (the per-session FIFO is the first): workers for
// different sessions interleave whole frames, never bytes. It owns the
// vectored-write scratch and makes write failures sticky: the first error
// closes the conn, which kicks the read loop into teardown, and every later
// write fails fast so workers stop burning compute on a dead peer.
type connWriter struct {
	conn net.Conn
	down atomic.Bool

	mu sync.Mutex
	rs resultScratch
}

// fail marks the connection dead and closes it, unblocking any goroutine
// parked in a read or write on it.
func (cw *connWriter) fail() {
	cw.down.Store(true)
	cw.conn.Close()
}

// failed reports whether the connection is already known dead, letting
// workers skip compute whose result could never be delivered.
func (cw *connWriter) failed() bool { return cw.down.Load() }

func (cw *connWriter) writeFrame(typ byte, session uint32, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.down.Load() {
		return errConnClosed
	}
	//lint:allow lockorder the write mutex exists to make whole-frame writes atomic on the shared conn; holding it across the write is the point
	if err := WriteFrame(cw.conn, typ, session, payload); err != nil {
		cw.fail()
		return err
	}
	return nil
}

// writeResult frames res with the zero-copy vectored path, reusing the
// writer's scratch. The caller must keep res alive until it returns.
func (cw *connWriter) writeResult(session uint32, res *compress.PipelineResult, m Measure) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.down.Load() {
		return errConnClosed
	}
	//lint:allow lockorder the write mutex exists to make whole-frame writes atomic on the shared conn; holding it across the write is the point
	if err := writeResultFrame(cw.conn, session, res, m, &cw.rs); err != nil {
		cw.fail()
		return err
	}
	return nil
}

// tenantStats aggregates a tenant's admission and CLC accounting. active is
// guarded by Server.mu; the batch path bumps the counters through the
// session's pointer without it.
type tenantStats struct {
	active     int
	batches    atomic.Int64
	violations atomic.Int64
}

// Server is the multi-tenant ingest front-end: a TCP listener speaking the
// frame protocol, one planner, Config.Shards multi-stream runtimes that each
// session is placed on by occupancy, and an HTTP control plane (Handler).
type Server struct {
	cfg Config
	// planner is the server's one planner and plan cache; every shard's
	// runtime plans with it. profiles and deps memoise its inputs and
	// outputs: one proxy profile per (algorithm, batch bytes) and one
	// deployment per session shape.
	planner  *core.Planner
	profiles memo[profileKey, *core.Profile]
	deps     memo[depKey, *planned]
	shards   []*shard
	// segments is the durable segment sink (nil unless Config.SegmentDir).
	segments *segmentSink

	// baseCtx is the server's lifecycle context: every connection handler
	// and in-flight batch derives from it, and Close cancels it so work
	// stops even when a socket stays readable.
	baseCtx context.Context
	cancel  context.CancelFunc

	// sm caches the data-plane metric handles; inflight and queued back the
	// corresponding gauges so per-frame accounting is a few atomic ops.
	sm       serverMetrics
	inflight atomic.Int64
	queued   atomic.Int64

	mu       sync.Mutex
	tenants  map[string]*tenantStats
	active   int
	peak     int
	accepted int64
	shed     int64
	conns    map[net.Conn]struct{}
	closed   bool

	ln net.Listener
	wg sync.WaitGroup
}

// serverMetrics holds the hot-path metric handles, resolved once at New so
// the per-frame and per-batch paths never format a name or take the registry
// lock.
type serverMetrics struct {
	batches       *telemetry.Counter
	bytesIn       *telemetry.Counter
	bytesOut      *telemetry.Counter
	clcViolations *telemetry.Counter

	framesRejected *telemetry.Counter
	framesTorn     *telemetry.Counter
	poolAcquires   *telemetry.Counter
	poolAllocs     *telemetry.Counter

	gInflight *telemetry.Gauge
	gQueue    *telemetry.Gauge
}

func newServerMetrics(reg *telemetry.Registry) serverMetrics {
	return serverMetrics{
		batches:        reg.Counter(MetricBatches),
		bytesIn:        reg.Counter(MetricBytesIn),
		bytesOut:       reg.Counter(MetricBytesOut),
		clcViolations:  reg.Counter(MetricCLCViolations),
		framesRejected: reg.Counter(MetricFramesRejected),
		framesTorn:     reg.Counter(MetricFramesTorn),
		poolAcquires:   reg.Counter(MetricFramePoolAcquires),
		poolAllocs:     reg.Counter(MetricFramePoolAllocs),
		gInflight:      reg.Gauge(MetricConnInflight),
		gQueue:         reg.Gauge(MetricQueueDepth),
	}
}

// New builds a server from cfg (missing fields take their defaults).
func New(cfg Config) (*Server, error) {
	cfg = cfg.Defaults()
	s := &Server{
		cfg:     cfg,
		tenants: map[string]*tenantStats{},
		conns:   map[net.Conn]struct{}{},
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.sm = newServerMetrics(s.cfg.Telemetry.Metrics())
	machine, err := machineFor(cfg.Platform)
	if err != nil {
		return nil, err
	}
	if s.planner, err = core.NewPlanner(machine, cfg.Seed); err != nil {
		return nil, err
	}
	s.planner.EnablePlanCache(cfg.PlanCache)
	s.planner.Telemetry = cfg.Telemetry
	if cfg.PlanCacheFile != "" {
		if _, err := s.planner.LoadPlanCache(cfg.PlanCacheFile); err != nil {
			return nil, fmt.Errorf("serve: plan cache file: %w", err)
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(i, s.planner, s.cfg.Telemetry.Metrics()))
	}
	s.segments = newSegmentSink(&s.cfg)
	return s, nil
}

// Telemetry returns the sink the server publishes metrics on.
func (s *Server) Telemetry() *telemetry.Sink { return s.cfg.Telemetry }

// Start listens on addr (e.g. "127.0.0.1:0") and serves connections until
// Close. It returns once the listener is bound.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("serve: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listener address (nil before Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener, tears down every connection, and waits for the
// connection handlers to drain.
func (s *Server) Close() error {
	s.cancel()
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	// Handlers have drained: persisting the plan cache and sealing the
	// segment stores now cannot race an in-flight batch, so a clean shutdown
	// leaves only sealed segments and a complete cache file.
	var firstErr error
	if s.cfg.PlanCacheFile != "" {
		if err := s.planner.SavePlanCache(s.cfg.PlanCacheFile); err != nil {
			firstErr = fmt.Errorf("serve: plan cache file: %w", err)
		}
	}
	if s.segments != nil {
		if err := s.segments.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(s.baseCtx, conn)
	}
}

// handleConn owns one connection's read side. Control frames (Open, Close,
// errors) are handled inline; Data frames fan out to bounded per-session
// workers so independent sessions compress concurrently while each session's
// results stay in push order — the per-session FIFO (sess.jobs) fixes the
// order within a session and the connection writer's mutex keeps frames
// whole across sessions.
//
// Backpressure survives the fan-out: every admitted Data frame takes a token
// from a Config.MaxInflight-deep bucket that its worker returns only after
// the reply is written, so once the bucket is empty the loop stops reading
// and TCP flow control stalls the client, exactly as the old serial loop
// did. ctx is the server's lifecycle context; its cancellation (Close) stops
// the loop and flows into every batch this connection runs.
func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	defer s.wg.Done()
	cw := &connWriter{conn: conn}
	sessions := map[uint32]*session{}
	tokens := make(chan struct{}, s.cfg.MaxInflight)
	var workers sync.WaitGroup
	defer func() {
		// Dead conn first: pending writes fail fast and workers skip doomed
		// compute while draining. Then let every remaining worker finish its
		// queue and detach its session before the conn leaves the map.
		cw.fail()
		for _, sess := range sessions {
			close(sess.jobs)
		}
		workers.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	fb := s.acquireFrame()
	defer func() { fb.Release() }()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		if ctx.Err() != nil {
			return
		}
		f, err := ReadFrameInto(br, fb)
		if err != nil {
			switch {
			case errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrFrameTooShort):
				s.sm.framesRejected.Add(1)
			case errors.Is(err, io.ErrUnexpectedEOF):
				// EOF inside a frame: the peer vanished mid-write (or the
				// stream was cut), as opposed to a clean close between frames.
				s.sm.framesTorn.Add(1)
			}
			return
		}
		switch f.Type {
		case FrameOpen:
			var req OpenRequest
			if err := json.Unmarshal(f.Payload, &req); err != nil {
				if werr := cw.writeFrame(FrameError, f.Session, []byte("bad open request: "+err.Error())); werr != nil {
					return
				}
				continue
			}
			if _, dup := sessions[f.Session]; dup {
				if werr := cw.writeFrame(FrameError, f.Session, []byte("session id in use")); werr != nil {
					return
				}
				continue
			}
			sess, reply, reason, err := s.openSession(f.Session, req)
			switch {
			case err != nil:
				if werr := cw.writeFrame(FrameError, f.Session, []byte(err.Error())); werr != nil {
					return
				}
			case reason != "":
				if werr := cw.writeFrame(FrameShed, f.Session, []byte(reason)); werr != nil {
					return
				}
			default:
				body, err := json.Marshal(reply)
				if err != nil {
					// The session attached but its acceptance can't be
					// serialized; roll the admission back rather than strand
					// a session the client never learns about.
					s.finishSession(sess)
					if werr := cw.writeFrame(FrameError, f.Session, []byte("encode open reply: "+err.Error())); werr != nil {
						return
					}
					continue
				}
				sessions[f.Session] = sess
				workers.Add(1)
				go s.sessionWorker(ctx, cw, sess, tokens, &workers)
				if werr := cw.writeFrame(FrameOpenOK, f.Session, body); werr != nil {
					return
				}
			}
		case FrameData:
			sess, ok := sessions[f.Session]
			if !ok {
				s.sm.framesRejected.Add(1)
				if werr := cw.writeFrame(FrameError, f.Session, []byte("unknown session")); werr != nil {
					return
				}
				continue
			}
			select {
			case tokens <- struct{}{}:
			case <-ctx.Done():
				return
			}
			s.sm.gInflight.Set(float64(s.inflight.Add(1)))
			s.sm.gQueue.Set(float64(s.queued.Add(1)))
			// The frame buffer travels with the job; the read loop takes a
			// fresh one for the next frame.
			sess.jobs <- dataJob{data: f.Payload, fb: fb}
			fb = s.acquireFrame()
		case FrameClose:
			if sess, ok := sessions[f.Session]; ok {
				// The worker acknowledges after draining the queue, keeping
				// the Closed frame ordered after every outstanding result.
				delete(sessions, f.Session)
				sess.jobs <- dataJob{close: true}
				close(sess.jobs)
			} else if werr := cw.writeFrame(FrameClosed, f.Session, nil); werr != nil {
				return
			}
		default:
			s.sm.framesRejected.Add(1)
			if werr := cw.writeFrame(FrameError, f.Session, []byte(fmt.Sprintf("unknown frame type %d", f.Type))); werr != nil {
				return
			}
		}
	}
}

// acquireFrame draws a frame buffer from the pool and keeps the pool
// counters honest.
func (s *Server) acquireFrame() *FrameBuffer {
	fb, fresh := acquireFrameBuffer()
	s.sm.poolAcquires.Add(1)
	if fresh {
		s.sm.poolAllocs.Add(1)
	}
	return fb
}

// sessionWorker drains one session's job queue: each Data frame is
// compressed and its result written in arrival order. The worker is the sole
// owner of the session's stream handle, of each job's frame buffer, and of
// the in-flight token that admitted the job; it releases all three no matter
// how the batch ends. Write errors are not handled here — the connection
// writer makes them sticky and closes the conn, which drives the read loop
// into teardown; the worker just keeps draining so teardown never blocks.
func (s *Server) sessionWorker(ctx context.Context, cw *connWriter, sess *session, tokens <-chan struct{}, workers *sync.WaitGroup) {
	defer workers.Done()
	for job := range sess.jobs {
		if job.close {
			s.finishSession(sess)
			//lint:allow errcheck a failed Closed ack already tore the conn down via the sticky writer
			cw.writeFrame(FrameClosed, sess.id, nil) //nolint:errcheck
			continue
		}
		s.sm.gQueue.Set(float64(s.queued.Add(-1)))
		if cw.failed() || ctx.Err() != nil {
			// Nobody can receive this result; drop the batch but still
			// release the buffer and token so teardown accounting balances.
			s.releaseJob(job, tokens)
			continue
		}
		res, m, err := s.runBatch(ctx, sess, job.data)
		if err != nil {
			//lint:allow errcheck the sticky writer turned the failure into conn teardown
			cw.writeFrame(FrameError, sess.id, []byte(err.Error())) //nolint:errcheck
		} else {
			// The pooled pipeline result stays alive across the vectored
			// write — its segment bytes go to the socket in place — and is
			// only then released.
			//lint:allow errcheck the sticky writer turned the failure into conn teardown
			cw.writeResult(sess.id, res, m) //nolint:errcheck
			res.Release()
		}
		s.releaseJob(job, tokens)
	}
	s.finishSession(sess)
}

// releaseJob returns a data job's frame buffer and in-flight token.
func (s *Server) releaseJob(job dataJob, tokens <-chan struct{}) {
	job.fb.Release()
	<-tokens
	s.sm.gInflight.Set(float64(s.inflight.Add(-1)))
}

// finishSession runs endSession exactly once for the session, whichever of
// the worker exit paths (or the open-rollback path) gets there first.
func (s *Server) finishSession(sess *session) {
	sess.endOnce.Do(func() { s.endSession(sess) })
}

// lookupSLO resolves a class name against the catalog.
func (s *Server) lookupSLO(name string) (SLOClass, bool) {
	for _, c := range s.cfg.SLOClasses {
		if c.Name == name {
			return c, true
		}
	}
	return SLOClass{}, false
}

// openSession runs admission control and, on acceptance, attaches the
// session to the shard with the fewest placed sessions (ties to the lowest
// index). The shard and tenant slots are checked and taken in one critical
// section, so concurrent cold opens spread across shards and cannot overrun
// MaxSessionsPerShard or TenantQuota while they plan; every failure after
// that gives both back. A non-empty reason means the session was shed; err
// means the request itself was malformed.
func (s *Server) openSession(id uint32, req OpenRequest) (*session, OpenReply, string, error) {
	reg := s.cfg.Telemetry.Metrics()
	tenant := req.Tenant
	if tenant == "" {
		tenant = "anonymous"
	}
	slo, ok := s.lookupSLO(req.SLO)
	if !ok {
		s.recordShed(tenant, ShedUnknownSLO)
		return nil, OpenReply{}, ShedUnknownSLO, nil
	}
	batchBytes := req.BatchBytes
	if batchBytes <= 0 {
		batchBytes = s.cfg.DefaultBatchBytes
	}
	// No Data frame can carry a larger batch, and profiling materialises
	// batchBytes of proxy data, so a larger size is refused before any
	// tenant accounting or shard work.
	if limit := MaxFrameBytes - recframe.Overhead; batchBytes > limit {
		return nil, OpenReply{}, "", fmt.Errorf("batch_bytes %d exceeds the %d-byte Data payload limit", batchBytes, limit)
	}
	// Resolved before any tenant accounting or memo: a name that is not an
	// algorithm must leave no shape behind.
	alg, err := compress.ByName(req.Algorithm)
	if err != nil {
		s.recordShed(tenant, ShedUnknownAlgorithm)
		return nil, OpenReply{}, ShedUnknownAlgorithm, nil
	}

	s.mu.Lock()
	ts := s.tenants[tenant]
	if ts == nil {
		ts = &tenantStats{}
		s.tenants[tenant] = ts
	}
	if s.cfg.TenantQuota > 0 && ts.active >= s.cfg.TenantQuota {
		s.mu.Unlock()
		s.recordShed(tenant, ShedTenantQuota)
		return nil, OpenReply{}, ShedTenantQuota, nil
	}
	sh := s.shards[0]
	for _, c := range s.shards[1:] {
		if c.placed < sh.placed {
			sh = c
		}
	}
	if sh.placed >= s.cfg.MaxSessionsPerShard {
		s.mu.Unlock()
		s.recordShed(tenant, ShedShardFull)
		return nil, OpenReply{}, ShedShardFull, nil
	}
	sh.placed++
	ts.active++
	s.mu.Unlock()

	// A first open of the shape plans it outside any lock, so it stalls no
	// open of another shape.
	key := depKey{algorithm: req.Algorithm, batchBytes: batchBytes, lset: slo.LSetUSPerByte}
	p := s.deps.get(key, func() *planned { return s.plan(sh, alg, key) })
	if p.err != nil {
		s.release(sh, ts)
		s.recordShed(tenant, ShedUnknownAlgorithm)
		return nil, OpenReply{}, ShedUnknownAlgorithm, nil
	}
	if slo.RequireFeasible && !p.dep.Feasible {
		s.release(sh, ts)
		s.recordShed(tenant, ShedInfeasible)
		return nil, OpenReply{}, ShedInfeasible, nil
	}
	handle, err := sh.rt.Attach(p.w, p.dep)
	if err != nil {
		s.release(sh, ts)
		return nil, OpenReply{}, "", err
	}

	s.mu.Lock()
	s.active++
	if s.active > s.peak {
		s.peak = s.active
	}
	s.accepted++
	active, peak := s.active, s.peak
	s.mu.Unlock()

	reg.Counter(MetricSessionsAccepted).Add(1)
	reg.Counter(MetricTenantPrefix + tenant + TenantSuffixAccepted).Add(1)
	reg.Gauge(MetricSessionsActive).Set(float64(active))
	reg.Gauge(MetricSessionsPeak).Set(float64(peak))
	sh.gSessions.Set(float64(sh.rt.Attached()))

	return &session{
			id:     id,
			tenant: tenant,
			slo:    slo,
			alg:    req.Algorithm,
			shard:  sh,
			handle: handle,
			ts:     ts,
			jobs:   make(chan dataJob, s.cfg.MaxInflight),
			// Resolve the per-tenant/per-class handles now; the batch path
			// only touches these pointers.
			ctrBatches:    reg.Counter(MetricTenantPrefix + tenant + TenantSuffixBatches),
			ctrViolations: reg.Counter(MetricTenantPrefix + tenant + TenantSuffixViolations),
			ctrSLO:        reg.Counter(MetricSLOViolationsPrefix + slo.Name),
			gCLCV:         reg.Gauge(MetricTenantPrefix + tenant + TenantSuffixCLCV),
		}, OpenReply{
			Shard:         sh.index,
			LSetUSPerByte: slo.LSetUSPerByte,
			Feasible:      p.dep.Feasible,
		}, "", nil
}

// release gives back the shard and tenant slots an open took and then failed
// to use.
func (s *Server) release(sh *shard, ts *tenantStats) {
	s.mu.Lock()
	sh.placed--
	ts.active--
	s.mu.Unlock()
}

func (s *Server) recordShed(tenant, reason string) {
	reg := s.cfg.Telemetry.Metrics()
	s.mu.Lock()
	s.shed++
	s.mu.Unlock()
	reg.Counter(MetricSessionsShed).Add(1)
	reg.Counter(MetricShedPrefix + reason).Add(1)
	reg.Counter(MetricTenantPrefix + tenant + TenantSuffixShed).Add(1)
}

// runBatch compresses one pushed batch through the session's planned
// pipeline. This is the same execution path the library's Session.Push
// drives — identical plans produce identical frames. The returned pipeline
// result is live (pooled): the caller writes it out — typically through the
// zero-copy connWriter.writeResult — and then Releases it. data may alias a
// pooled frame buffer; it is fully consumed before return. ctx is the
// connection's (and therefore the server's) lifecycle context, so Close
// cancels a batch mid-flight instead of waiting it out.
func (s *Server) runBatch(ctx context.Context, sess *session, data []byte) (*compress.PipelineResult, Measure, error) {
	if len(data) == 0 {
		return nil, Measure{}, errors.New("empty batch")
	}
	b := stream.NewBatchBytes(sess.pushes, data)
	res, m, err := sess.handle.RunBatch(ctx, b)
	if err != nil {
		return nil, Measure{}, err
	}
	if s.segments != nil {
		// Persist while the pooled result is live; the store copies what it
		// needs into the file before returning.
		st, serr := s.segments.storeFor(sess.tenant, sess.alg, len(data))
		if serr == nil {
			serr = st.AppendResult(b.Index, time.Now().UnixNano(), res)
		}
		if serr != nil {
			res.Release()
			return nil, Measure{}, fmt.Errorf("segment sink: %w", serr)
		}
	}
	sess.pushes++
	compressedBytes := 0
	for i := range res.Segments {
		compressedBytes += len(res.Segments[i].Compressed)
	}

	s.sm.batches.Add(1)
	s.sm.bytesIn.Add(int64(len(data)))
	s.sm.bytesOut.Add(int64(compressedBytes))
	sess.ctrBatches.Add(1)
	// Batches first, so a concurrent reader never sees more violations than
	// batches.
	batches := sess.ts.batches.Add(1)
	violations := sess.ts.violations.Load()
	if m.Violated {
		violations = sess.ts.violations.Add(1)
		s.sm.clcViolations.Add(1)
		sess.ctrSLO.Add(1)
		sess.ctrViolations.Add(1)
	}
	sess.gCLCV.Set(float64(violations) / float64(batches))
	return res, Measure{
		LatencyPerByte: m.LatencyPerByte,
		EnergyPerByte:  m.EnergyPerByte,
		Contention:     m.Contention,
		Violated:       m.Violated,
	}, nil
}

// endSession detaches the stream handle and releases the session's admission
// slots and shard placement. Safe to call once per session (callers remove it
// from their map).
func (s *Server) endSession(sess *session) {
	sess.handle.Detach()
	sh := sess.shard
	s.mu.Lock()
	sh.placed--
	if sess.ts.active > 0 {
		sess.ts.active--
	}
	if s.active > 0 {
		s.active--
	}
	active := s.active
	s.mu.Unlock()
	s.cfg.Telemetry.Metrics().Gauge(MetricSessionsActive).Set(float64(active))
	sh.gSessions.Set(float64(sh.rt.Attached()))
	sh.gPeakLoad.Set(sh.rt.PeakCoreLoad())
}

// ShardStatus is one shard's row in the control-plane status document.
type ShardStatus struct {
	// Index is the shard's position in Config.Shards order; OpenReply.Shard
	// names the same index.
	Index int `json:"index"`
	// Sessions is the number of currently attached sessions.
	Sessions int `json:"sessions"`
	// PeakCoreLoad is the shard's high-water per-core busy time (µs/B).
	PeakCoreLoad float64 `json:"peak_core_load_us_per_byte"`
	// Deployments is the number of session shapes first planned by an open
	// placed on this shard. Shapes are planned once per server, so the sum
	// over shards is the number of distinct planned shapes.
	Deployments int `json:"deployments"`
	// PlanCache holds the Hits and Misses of the server plan cache's lookups
	// made by plans that opens placed on this shard triggered; summed over
	// shards they equal Status.PlanCache's. Evictions and Size belong to the
	// whole cache and are 0 here.
	PlanCache PlanCacheStatus `json:"plan_cache"`
}

// PlanCacheStatus mirrors plancache.Stats in the status document: exact hits,
// misses, LRU evictions, and resident entries.
type PlanCacheStatus struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// NearMisses is always 0; benchmark/phase.go reads it until the next [benchmark] PR removes it.
	NearMisses int64 `json:"near_misses"`
	Evictions  int64 `json:"evictions"`
	Size       int   `json:"size"`
}

// TenantStatus is one tenant's row in the control-plane status document.
type TenantStatus struct {
	// Tenant is the principal's name.
	Tenant string `json:"tenant"`
	// Active is the tenant's count of open sessions, opens still planning
	// included.
	Active int `json:"active"`
	// Batches and Violations count served batches and CLC breaches; CLCV is
	// their ratio.
	Batches    int64   `json:"batches"`
	Violations int64   `json:"violations"`
	CLCV       float64 `json:"clcv"`
}

// Status is the control-plane status document served at /status.
type Status struct {
	// Accepted and Shed count admission outcomes since start; Active and
	// Peak track concurrently open sessions.
	Accepted int64 `json:"accepted"`
	Shed     int64 `json:"shed"`
	Active   int   `json:"active"`
	Peak     int   `json:"peak"`
	// PlanCache is the server's one plan cache, which every shard plans
	// through.
	PlanCache PlanCacheStatus `json:"plan_cache"`
	// Shards and Tenants are per-shard and per-tenant breakdowns (tenants
	// sorted by name).
	Shards  []ShardStatus  `json:"shards"`
	Tenants []TenantStatus `json:"tenants"`
}

// StatusSnapshot assembles the current Status document.
func (s *Server) StatusSnapshot() Status {
	s.mu.Lock()
	st := Status{Accepted: s.accepted, Shed: s.shed, Active: s.active, Peak: s.peak}
	for name, ts := range s.tenants {
		// Violations first: the batch path counts the batch before its
		// violation, so this order keeps Violations ≤ Batches.
		row := TenantStatus{Tenant: name, Active: ts.active, Violations: ts.violations.Load()}
		if row.Batches = ts.batches.Load(); row.Batches > 0 {
			row.CLCV = float64(row.Violations) / float64(row.Batches)
		}
		st.Tenants = append(st.Tenants, row)
	}
	s.mu.Unlock()
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	cs := s.planner.PlanCacheStats()
	st.PlanCache = PlanCacheStatus{Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions, Size: cs.Size}
	for _, sh := range s.shards {
		st.Shards = append(st.Shards, ShardStatus{
			Index:        sh.index,
			Sessions:     sh.rt.Attached(),
			PeakCoreLoad: sh.rt.PeakCoreLoad(),
			Deployments:  int(sh.shapes.Load()),
			PlanCache:    PlanCacheStatus{Hits: sh.cacheHits.Load(), Misses: sh.cacheMisses.Load()},
		})
	}
	return st
}

// Handler returns the HTTP control plane: /status (admission, shard and
// tenant JSON) plus the telemetry sink's surface (/metrics,
// /debug/decisions, /debug/trace, /debug/pprof/...).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.cfg.Telemetry.Handler())
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		b, err := json.MarshalIndent(s.StatusSnapshot(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b) //nolint:errcheck
	})
	return mux
}
