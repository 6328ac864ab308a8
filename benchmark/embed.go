package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/pkg/cstream"
)

// embed-durable: the paper's own deployment, an edge device compressing its
// stream in-process, here with the durable segment sink attached. Each round
// opens one session per generator, pushes the round's bytes, closes (which
// seals the segments), reads every segment back through the public reader,
// decodes and compares every batch, and deletes the round's files.
const (
	embedAlg        = "tcomp32"
	embedDataset    = "Rovio"
	embedBatchBytes = 4 << 10
	embedRingLen    = 64
	// embedRoundBytes is the raw bytes one round pushes, all generators
	// together: about a second of work per round, so a 20 s run takes its
	// medians over ~20 rounds, and at most ~70 MB sit on disk at a time.
	embedRoundBytes      = 128 << 20
	embedSmokeRoundBytes = 1 << 20
)

var embedRotation = cstream.SegmentRotation{MaxSegmentBytes: 16 << 20, SyncEvery: 64}

// embedSession opens the workload's session. The session's own configuration
// (its profiling sample and seed) is fixed, like the server's in the serve
// workloads; the run's seed only makes the bytes that are pushed.
func embedSession(sinkDir, planCacheFile string) (*cstream.Session, error) {
	opts := []cstream.Option{cstream.WithBatchBytes(embedBatchBytes)}
	if sinkDir != "" {
		opts = append(opts, cstream.WithSegmentSink(sinkDir, embedRotation))
	}
	if planCacheFile != "" {
		opts = append(opts, cstream.WithPlanCacheFile(planCacheFile))
	}
	return cstream.NewSession(embedAlg, cstream.DatasetSource(embedDataset, serverSeed), opts...)
}

// embedder is one generator of the embed-durable workload.
type embedder struct {
	id   int
	ring [][]byte
	dir  string
	tr   *tracer
	t    tally

	sess *cstream.Session
	into cstream.BatchResult

	stats    pushStats
	energy   float64 // summed over sessions
	sessions int64
}

// slot is the ring slot of the generator's k-th batch of a round; read-back
// recomputes it to know what each stored batch must decode to.
func (m *embedder) slot(k int) []byte { return m.ring[(m.id*17+k)%len(m.ring)] }

func (m *embedder) open(op uint64) error {
	t0 := time.Now()
	sess, err := embedSession(m.dir, "")
	if !m.t.op(err) {
		return err
	}
	m.tr.add(spanNewSession, op, -1, t0, time.Now())
	m.sess = sess
	return nil
}

// write pushes n batches, closes the session and reports its simulated
// energy. The first result of every session goes through the correctness
// gate against the library path.
func (m *embedder) write(e *env, n int, round uint64) {
	ctx := context.Background()
	for k := 0; k < n; k++ {
		data := m.slot(k)
		t0 := time.Now()
		res, err := m.sess.PushReuse(ctx, data, &m.into)
		t1 := time.Now()
		if err == nil && res.InputBytes != len(data) {
			err = fmt.Errorf("result covers %d of %d pushed bytes", res.InputBytes, len(data))
		}
		if !m.t.op(err) {
			break
		}
		m.tr.add(spanPush, round<<32|uint64(k), -1, t0, t1)
		m.stats.record(t1.Sub(t0), len(data), int64(res.CompressedBytes()), 0, false)
		if k == 0 {
			segs := res.Segments
			m.t.op(e.ref.sameAsReference(embedAlg, "silver", data, len(segs), func(i int) compress.Segment {
				return compress.Segment{SliceIndex: segs[i].SliceIndex, Compressed: segs[i].Compressed, BitLen: segs[i].BitLen, OrigLen: segs[i].OrigLen}
			}))
		}
	}
	m.energy += m.sess.MeasureRepeated(64).MeanEnergy
	m.sessions++
	t0 := time.Now()
	m.t.op(m.sess.Close())
	m.tr.add(spanClose, round<<32, -1, t0, time.Now())
}

// read reads the round's segments back and checks every batch; fewer batches
// than were pushed is a failure of its own.
func (m *embedder) read(n int, round uint64) {
	paths, err := cstream.ListSegments(m.dir)
	if !m.t.op(err) {
		return
	}
	k := 0
	for _, path := range paths {
		t0 := time.Now()
		rd, err := cstream.OpenSegment(path)
		if !m.t.op(err) {
			return
		}
		m.tr.add(spanOpenSegment, round<<32|uint64(k), -1, t0, time.Now())
		for i := 0; i < rd.Batches(); i++ {
			op := round<<32 | uint64(k)
			t0 := time.Now()
			br, err := rd.ReadBatch(i)
			t1 := time.Now()
			if !m.t.op(err) {
				break
			}
			root := m.tr.add(spanReadBatch, op, -1, t0, t1)
			got, err := br.Decode()
			m.t.op(checkDecoded(got, err, m.slot(k)))
			m.tr.add(spanDecode, op, root, t1, time.Now())
			k++
		}
		rd.Close()
	}
	if k != n {
		m.t.op(fmt.Errorf("read back %d of %d batches", k, n))
	}
}

// each runs fn on every generator's goroutine and returns the wall time.
func each(ms []*embedder, fn func(m *embedder)) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, m := range ms {
		wg.Add(1)
		go func(m *embedder) {
			defer wg.Done()
			fn(m)
		}(m)
	}
	wg.Wait()
	return time.Since(t0)
}

// embedSetUps measures the cold set-up (one NewSession per generator, sink
// attached, no plan-cache file yet) and samples cold and warm opens: a cold
// session's Close persists its plan cache, and reopening with that file
// present is the warm start an edge device gets after a restart.
func embedSetUps(e *env, ms []*embedder, root string) (setups []float64, opens openStats, err error) {
	var mu sync.Mutex
	for rep := 0; rep <= e.ph.setupReps; rep++ {
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", rep))
		for pass := 0; pass < 2; pass++ {
			wall := each(ms, func(m *embedder) {
				t0 := time.Now()
				sess, err := embedSession(filepath.Join(dir, fmt.Sprint("seg-", m.id, "-", pass)), filepath.Join(dir, fmt.Sprint("plans-", m.id)))
				d := time.Since(t0)
				if !m.t.op(err) {
					return
				}
				m.tr.add(spanNewSession, uint64(rep), -1, t0, t0.Add(d))
				mu.Lock()
				if pass == 0 {
					opens.cold.record(int64(d))
				} else {
					opens.warm.record(int64(d))
				}
				mu.Unlock()
				m.t.op(sess.Close())
			})
			if pass == 0 {
				setups = append(setups, wall.Seconds())
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, opens, err
		}
	}
	for _, m := range ms {
		if m.t.firstErr != nil {
			return nil, opens, m.t.firstErr
		}
	}
	return setups, opens, nil
}

func runEmbed(e *env) (*report, error) {
	sh, err := newShape(embedAlg, embedDataset, "silver", embedBatchBytes, embedRingLen, e.cfg.seed)
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(e.cfg.tmpDir, "embed-durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	roundBytes := embedRoundBytes
	if e.cfg.smoke {
		roundBytes = embedSmokeRoundBytes
	}
	perGen := roundBytes / e.gens / embedBatchBytes
	ms := make([]*embedder, e.gens)
	for g := range ms {
		ms[g] = &embedder{id: g, ring: sh.ring, tr: e.tracerFor(g)}
	}
	rep := newReport()

	for _, m := range ms {
		if m.tr != nil {
			m.tr.on = true
		}
	}
	setups, opens, err := embedSetUps(e, ms, root)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	e.reportMedian(rep, "setup_s", "cold set-ups", setups)
	opens.report(rep)

	round := func(i int, n int) (write, read time.Duration, err error) {
		for _, m := range ms {
			m.dir = filepath.Join(root, fmt.Sprintf("round-%d-%d", i, m.id))
			if m.tr != nil {
				m.tr.on = i%2 == 1
			}
		}
		each(ms, func(m *embedder) { m.open(uint64(i)) })
		for _, m := range ms {
			if m.sess == nil {
				return 0, 0, m.t.firstErr
			}
		}
		write = each(ms, func(m *embedder) { m.write(e, n, uint64(i)) })
		read = each(ms, func(m *embedder) { m.read(n, uint64(i)) })
		for _, m := range ms {
			m.sess = nil
			if err := os.RemoveAll(m.dir); err != nil {
				return 0, 0, err
			}
		}
		return write, read, nil
	}

	// Warm-up: short rounds until the warm-up time is spent.
	for t0, i := time.Now(), 0; time.Since(t0) < e.ph.warmup; i++ {
		if _, _, err := round(-1-i, max(perGen/8, 1)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	for _, m := range ms {
		m.stats, m.energy, m.sessions = pushStats{}, 0, 0
	}

	smp := startSampler()
	meter := startProcMeter()
	var ingest, readback []float64
	for t0, i := time.Now(), 0; i < e.minRounds() || time.Since(t0) < e.ph.timed; i++ {
		write, read, err := round(i, perGen)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		raw := int64(perGen) * int64(e.gens) * embedBatchBytes
		ingest = append(ingest, mbPerSec(raw, write))
		readback = append(readback, mbPerSec(raw, read))
	}
	usage := meter.stop()
	smp.finish()

	var stats pushStats
	var sessions int64
	var energy float64
	for _, m := range ms {
		stats.merge(&m.stats)
		energy += m.energy
		sessions += m.sessions
		e.t.merge(&m.t)
	}
	if stats.n == 0 || sessions == 0 {
		return nil, fmt.Errorf("no push completed in the timed phase: %v", e.t.firstErr)
	}
	rounds := fmt.Sprintf("rounds of %d MiB", roundBytes>>20)
	e.reportMedian(rep, "ingest_mb_s", rounds, ingest)
	e.reportMedian(rep, "readback_mb_s", rounds, readback)
	stats.report(rep)
	rep.set("energy_uj_per_byte", energy/float64(sessions))
	e.reportMedian(rep, "rss_mb", "samples", smp.rss)
	usage.report(rep, stats.n, stats.raw)
	if e.cfg.trace {
		rep.set("trace.overhead_frac", tracedOverhead(ingest))
		attachFromOpens(rep, &opens)
		if err := runLadder(e, rep, []*shape{sh}, stats.rtt.quantile(0.5)); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	return rep, nil
}
