package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/serve"
)

// serveSpec is what tells serve-small and serve-large apart; everything else
// about the two workloads is the same engine.
type serveSpec struct {
	// sharedConn puts every pusher on one connection (per-session dispatch
	// on a shared socket); otherwise each pusher dials its own.
	sharedConn bool
	// shapes are the session kinds; every pusher opens lanesPerShape sessions
	// of each and round-robins over all of them, one batch in flight.
	shapes        []*shape
	lanesPerShape int
	// verifyEvery decodes and compares every n-th push inside the loop.
	verifyEvery int
	// reattach is how many extra open/close cycles follow each cold set-up,
	// so that warm opens are sampled next to the cold ones.
	reattach int
}

func serveSpecFor(cfg config) (*serveSpec, error) {
	switch cfg.workload {
	case "serve-small":
		ringLen, batch := 32, 4<<10
		if cfg.smoke {
			ringLen = 4
		}
		sh, err := newShape("delta32", "Stock", "silver", batch, ringLen, cfg.seed)
		if err != nil {
			return nil, err
		}
		return &serveSpec{sharedConn: true, shapes: []*shape{sh}, lanesPerShape: 8, verifyEvery: 64, reattach: 16}, nil
	case "serve-large":
		ringLen, batch := 8, core.DefaultBatchBytes
		if cfg.smoke {
			ringLen, batch = 2, 64<<10
		}
		sp := &serveSpec{lanesPerShape: 1, verifyEvery: 16, reattach: 18}
		for _, s := range []struct{ alg, dataset string }{{"tcomp32", "Rovio"}, {"tdic32", "Rovio"}, {"lz4", "Sensor"}} {
			sh, err := newShape(s.alg, s.dataset, "silver", batch, ringLen, cfg.seed)
			if err != nil {
				return nil, err
			}
			sp.shapes = append(sp.shapes, sh)
		}
		return sp, nil
	}
	return nil, fmt.Errorf("%w %q", errUnknownWorkload, cfg.workload)
}

// lane is one open session and its place in its shape's payload ring.
type lane struct {
	sess  *serve.ClientSession
	shape *shape
	next  int
	res   serve.Result
}

// pusher is one closed-loop generator: it owns its lanes and every counter
// it updates, so the hot loop shares nothing but the sockets.
type pusher struct {
	id          int
	lanes       []*lane
	verifyEvery int
	tr          *tracer
	t           tally

	// recording gates the measurements; warm-up runs the same loop with it off.
	recording bool
	stats     pushStats
	win       *windows

	kept []kept
}

// loop pushes batches, one in flight, until the deadline. On a traced run it
// records spans in odd windows only, so the phase's even windows are its own
// untraced control. A failed push ends the generator: the run is already
// incorrect, and a dead connection would otherwise spin.
func (p *pusher) loop(deadline time.Time) {
	for i := 0; ; i++ {
		ln := p.lanes[i%len(p.lanes)]
		data := ln.shape.ring[ln.next%len(ln.shape.ring)]
		ln.next++
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		if p.tr != nil {
			p.tr.on = p.recording && p.win.index(t0)%2 == 1
		}
		err := ln.sess.PushReuse(data, &ln.res)
		t1 := time.Now()
		if err == nil && ln.res.InputBytes != len(data) {
			err = fmt.Errorf("result covers %d of %d pushed bytes", ln.res.InputBytes, len(data))
		}
		if !p.t.op(err) {
			return
		}
		op := uint64(p.id)<<48 | uint64(i)
		root := p.tr.add(spanPush, op, -1, t0, t1)
		if p.recording {
			p.win.add(t1, int64(len(data)))
			p.stats.record(t1.Sub(t0), len(data), int64((ln.res.TotalBits+7)/8), ln.res.Measure.EnergyPerByte, ln.res.Measure.Violated)
		}
		if i%p.verifyEvery == p.verifyEvery-1 {
			got, err := ln.res.Decode()
			p.t.op(checkDecoded(got, err, data))
			p.tr.add(spanDecodeVerify, op, root, t1, time.Now())
		}
	}
}

// harvest pushes every ring slot of every shape once more, untimed, keeping
// each result: the read-back phase decodes exactly these.
func (p *pusher) harvest() {
	done := map[*shape]bool{}
	for _, ln := range p.lanes {
		if done[ln.shape] {
			continue
		}
		done[ln.shape] = true
		for _, data := range ln.shape.ring {
			k := kept{data: data}
			if !p.t.op(ln.sess.PushReuse(data, &k.res)) {
				return
			}
			p.kept = append(p.kept, k)
		}
	}
}

// serveRig is one live set-up: a server, its clients and the pushers.
type serveRig struct {
	*rig
	pushers []*pusher
}

// setUp performs one cold set-up — serve.New, Start, Dial and opening every
// session the workload pushes on, first plans included — and times it.
func (sp *serveSpec) setUp(e *env, opens *openStats) (*serveRig, time.Duration, error) {
	t0 := time.Now()
	conns := e.gens
	if sp.sharedConn {
		conns = 1
	}
	r, err := startRig(e, conns, len(sp.shapes))
	if err != nil {
		return nil, 0, err
	}
	sr := &serveRig{rig: r}
	for g := 0; g < e.gens; g++ {
		p := &pusher{id: g, verifyEvery: sp.verifyEvery}
		for si, sh := range sp.shapes {
			for l := 0; l < sp.lanesPerShape; l++ {
				sess, err := sr.open(e, opens, r.clients[g%conns], sh, si)
				if err != nil {
					r.tearDown(e)
					return nil, 0, err
				}
				// Lanes of one shape start at different ring slots.
				p.lanes = append(p.lanes, &lane{sess: sess, shape: sh, next: (g*sp.lanesPerShape + l) * 3})
			}
		}
		sr.pushers = append(sr.pushers, p)
	}
	return sr, time.Since(t0), nil
}

// open opens one session of a shape and files the open under cold or warm.
func (sr *serveRig) open(e *env, opens *openStats, c *serve.Client, sh *shape, shapeID int) (*serve.ClientSession, error) {
	t0 := time.Now()
	sess, err := c.Open(serve.OpenRequest{Tenant: "bench", Algorithm: sh.alg, SLO: sh.slo, BatchBytes: sh.batchBytes})
	t1 := time.Now()
	if !e.t.op(err) {
		return nil, err
	}
	sr.seen.record(opens, shapeID, sess.Reply().Shard, t1.Sub(t0))
	e.mainTracer().add(spanOpen, uint64(shapeID), -1, t0, t1)
	return sess, nil
}

// reattach opens and closes n more sessions, cycling the shapes: on a server
// that has just been set up these are mostly warm opens.
func (sr *serveRig) reattach(e *env, sp *serveSpec, opens *openStats) {
	for i := 0; i < sp.reattach; i++ {
		si := i % len(sp.shapes)
		sess, err := sr.open(e, opens, sr.clients[i%len(sr.clients)], sp.shapes[si], si)
		if err != nil {
			return
		}
		t0 := time.Now()
		e.t.op(sess.Close())
		e.mainTracer().add(spanClose, uint64(si), -1, t0, time.Now())
	}
}

// closeSessions closes every lane's session, as a device going away would.
func (sr *serveRig) closeSessions(e *env) {
	for _, p := range sr.pushers {
		for _, ln := range p.lanes {
			e.t.op(ln.sess.Close())
		}
	}
}

// drive runs every pusher's loop for d and joins them.
func (sr *serveRig) drive(e *env, d time.Duration, recording bool) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, p := range sr.pushers {
		p.recording, p.stats, p.win = recording, pushStats{}, newWindows(start, e.ph.window, d)
		wg.Add(1)
		go func(p *pusher) {
			defer wg.Done()
			p.loop(start.Add(d))
		}(p)
	}
	wg.Wait()
}

// gate is the correctness gate's first half: every session's first served
// result must equal, byte for byte, what the library path makes of the same
// bytes (Deployment.RunBatchData under a deployment planned like the
// server's).
func (sr *serveRig) gate(e *env) {
	for _, p := range sr.pushers {
		for _, ln := range p.lanes {
			data := ln.shape.ring[ln.next%len(ln.shape.ring)]
			if !e.t.op(ln.sess.PushReuse(data, &ln.res)) {
				continue
			}
			segs := ln.res.Segments
			e.t.op(e.ref.sameAsReference(ln.shape.alg, ln.shape.slo, data, len(segs), func(i int) compress.Segment { return segs[i] }))
		}
	}
}

func runServe(e *env) (*report, error) {
	sp, err := serveSpecFor(e.cfg)
	if err != nil {
		return nil, err
	}
	rep := newReport()

	// Cold set-ups, each on a server of its own, each followed by a burst of
	// re-attaches; the last one stays up for the rest of the run.
	var opens openStats
	var setups []float64
	var sr *serveRig
	for i := 0; i <= e.ph.setupReps; i++ {
		if sr != nil {
			sr.closeSessions(e)
			sr.tearDown(e)
		}
		var d time.Duration
		if sr, d, err = sp.setUp(e, &opens); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		sr.reattach(e, sp, &opens)
	}
	e.reportMedian(rep, "setup_s", "cold set-ups", setups)
	opens.report(rep)

	sr.gate(e)
	sr.drive(e, e.ph.warmup, false)

	// Timed phase.
	for _, p := range sr.pushers {
		p.tr = e.tracerFor(p.id)
	}
	before := readCounters(sr.srv)
	queue, inflight := serverGauges(sr.srv)
	smp := startSampler(queue, inflight)
	meter := startProcMeter()
	sr.drive(e, e.ph.timed, true)
	usage := meter.stop()
	smp.finish()
	counters := readCounters(sr.srv).minus(before)

	var stats pushStats
	var wins []*windows
	tallies := []*tally{&e.t}
	for _, p := range sr.pushers {
		p.tr = nil
		stats.merge(&p.stats)
		wins = append(wins, p.win)
		tallies = append(tallies, &p.t)
	}
	if stats.n == 0 {
		return nil, fmt.Errorf("no push completed in the timed phase: %v", firstError(tallies...))
	}
	series := sumWindows(wins)
	e.reportMedian(rep, "ingest_mb_s", fmt.Sprintf("windows of %v", e.ph.window), series)
	stats.reportServed(rep)
	e.reportMedian(rep, "rss_mb", "samples", smp.rss)
	rep.set(nsServe+".queue_depth.max", smp.gaugeMax[0])
	rep.set(nsServe+".conn_inflight.max", smp.gaugeMax[1])
	usage.report(rep, stats.n, stats.raw)
	counters.report(rep)
	if e.cfg.trace {
		rep.set("trace.overhead_frac", tracedOverhead(series))
	}

	// Read-back: decode and compare one kept result per ring slot.
	keep := make([][]kept, len(sr.pushers))
	for g, p := range sr.pushers {
		p.harvest()
		keep[g] = p.kept
	}
	readBackPhase(e, rep, keep, tallies[1:])

	for _, t := range tallies[1:] {
		e.t.merge(t)
	}
	sr.closeSessions(e)
	sr.tearDown(e)

	if e.cfg.trace {
		attachFromOpens(rep, &opens)
		if err := runLadder(e, rep, sp.shapes, stats.rtt.quantile(0.5)); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	return rep, nil
}
