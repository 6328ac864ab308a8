package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/serve"
)

// session-churn: each round starts a fresh server and replays the seeded
// trace of attach cycles (open, one push of the session's batch size, close)
// over one connection per generator.
const (
	// churnRoundCycles is about how many attach cycles one round replays, all
	// generators together: some two seconds of work, so a 20 s run takes its
	// medians over ~9 rounds. Each generator's share is rounded to whole
	// passes over the shape space (churnShapes cycles), so that every shape
	// is opened equally often whatever the seed.
	churnRoundCycles = 8000
	churnVerifyEvery = 64
	// churnKeepEvery thins the shape space for read-back: each generator
	// keeps one result per (algorithm, SLO class) at every n-th batch size.
	churnKeepEvery = 4
)

// churner is one generator of the churn workload: the payloads it pushes
// and every counter its loop updates.
type churner struct {
	id       int
	payloads [][]byte
	sizes    []int
	tr       *tracer
	t        tally

	res    serve.Result
	opens  openStats
	stats  pushStats // one push per attach cycle
	opNs   int64
	coldNs int64
}

func (c *churner) request(cy cycle) serve.OpenRequest {
	return serve.OpenRequest{Tenant: "bench", Algorithm: churnAlgs[cy.alg], SLO: churnSLOs[cy.slo], BatchBytes: c.sizes[cy.size]}
}

// replay runs a walk's attach cycles on cl. A zero deadline replays the whole
// walk; the warm-up passes one to stop early. keep, when non-nil, collects
// every result (the untimed harvest before read-back) and must have room for
// the whole walk, because the results are decoded into it in place.
func (c *churner) replay(cl *serve.Client, seen *seenShapes, walk []cycle, round int, deadline time.Time, keep *[]kept) {
	for i, cy := range walk {
		t0 := time.Now()
		if !deadline.IsZero() && !t0.Before(deadline) {
			return
		}
		sess, err := cl.Open(c.request(cy))
		t1 := time.Now()
		if !c.t.op(err) {
			return
		}
		cold := seen.record(&c.opens, cy.shapeID(), sess.Reply().Shard, t1.Sub(t0))
		data := c.payloads[cy.size]
		res := &c.res
		if keep != nil {
			*keep = append(*keep, kept{data: data})
			res = &(*keep)[len(*keep)-1].res
		}
		err = sess.PushReuse(data, res)
		t2 := time.Now()
		if err == nil && res.InputBytes != len(data) {
			err = fmt.Errorf("result covers %d of %d pushed bytes", res.InputBytes, len(data))
		}
		if !c.t.op(err) {
			return
		}
		t3 := t2
		if i%churnVerifyEvery == churnVerifyEvery-1 {
			got, err := res.Decode()
			c.t.op(checkDecoded(got, err, data))
			t3 = time.Now()
		}
		err = sess.Close()
		t4 := time.Now()
		if !c.t.op(err) {
			return
		}

		c.stats.record(t2.Sub(t1), len(data), int64((res.TotalBits+7)/8), res.Measure.EnergyPerByte, res.Measure.Violated)
		c.opNs += int64(t4.Sub(t0))
		if cold {
			c.coldNs += int64(t1.Sub(t0))
		}
		if c.tr != nil && c.tr.on {
			op := uint64(c.id)<<56 | uint64(round)<<32 | uint64(i)
			root := c.tr.add(spanOpen, op, -1, t0, t1)
			c.tr.add(spanPush, op, root, t1, t2)
			if t3 != t2 {
				c.tr.add(spanDecodeVerify, op, root, t2, t3)
			}
			c.tr.add(spanClose, op, root, t3, t4)
		}
	}
}

func (c *churner) reset() {
	c.opens, c.stats, c.opNs, c.coldNs = openStats{}, pushStats{}, 0, 0
}

// churnSetUp is the workload's cold set-up: a new server and one connection
// per generator. There are no standing sessions to open; every plan is paid
// for inside the round.
func churnSetUp(e *env) (*rig, time.Duration, error) {
	t0 := time.Now()
	r, err := startRig(e, e.gens, churnShapes)
	return r, time.Since(t0), err
}

// replayAll runs every generator's replay of its walk on the rig and returns
// the wall time from the first open to the last close.
func replayAll(rig *rig, cs []*churner, walks [][]cycle, round int, deadline time.Time, keep [][]kept) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g, c := range cs {
		wg.Add(1)
		go func(g int, c *churner) {
			defer wg.Done()
			var k *[]kept
			if keep != nil {
				k = &keep[g]
			}
			c.replay(rig.clients[g], rig.seen, walks[g], round, deadline, k)
		}(g, c)
	}
	wg.Wait()
	return time.Since(t0)
}

// churnGate compares the first served result of the thinned shape space —
// every (algorithm, SLO class), every churnKeepEvery-th size — with the
// library path.
func churnGate(e *env, c *churner) error {
	rig, _, err := churnSetUp(e)
	if err != nil {
		return err
	}
	defer rig.tearDown(e)
	for _, cy := range thinnedShapes() {
		req := c.request(cy)
		sess, err := rig.clients[0].Open(req)
		if !e.t.op(err) {
			return err
		}
		data := c.payloads[cy.size]
		if e.t.op(sess.PushReuse(data, &c.res)) {
			segs := c.res.Segments
			e.t.op(e.ref.sameAsReference(req.Algorithm, req.SLO, data, len(segs), func(i int) compress.Segment { return segs[i] }))
		}
		e.t.op(sess.Close())
	}
	return nil
}

func runChurn(e *env) (*report, error) {
	perGen := max(1, (churnRoundCycles/e.gens+churnShapes/2)/churnShapes) * churnShapes
	if e.cfg.smoke {
		perGen = churnShapes // one pass: the fewest cycles that still reopen shapes
	}
	roundCycles := perGen * e.gens
	walks := churnTrace(e.cfg.seed, e.gens, perGen)
	payloads := churnPayloads(e.cfg.seed)
	sizes := make([]int, churnSizes)
	for i := range sizes {
		sizes[i] = churnBatchBytes(i)
	}
	cs := make([]*churner, e.gens)
	for g := range cs {
		cs[g] = &churner{id: g, payloads: payloads, sizes: sizes}
	}
	rep := newReport()

	if err := churnGate(e, cs[0]); err != nil {
		return nil, fmt.Errorf("gate: %w", err)
	}

	// Warm-up: one round cut short at the warm-up time.
	rig, _, err := churnSetUp(e)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	replayAll(rig, cs, walks, -1, time.Now().Add(e.ph.warmup), nil)
	rig.tearDown(e)
	for _, c := range cs {
		c.reset()
		c.tr = e.tracerFor(c.id)
	}

	var setups, ingest, opensPerSec []float64
	var counters srvCounters
	var rss []float64
	var queueMax, inflightMax float64
	meter := startProcMeter()
	for t0, round := time.Now(), 0; round < e.minRounds() || time.Since(t0) < e.ph.timed; round++ {
		rig, d, err := churnSetUp(e)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		setups = append(setups, d.Seconds())
		for _, c := range cs {
			if c.tr != nil {
				c.tr.on = round%2 == 1
			}
		}
		queue, inflight := serverGauges(rig.srv)
		smp := startSampler(queue, inflight)
		raw0, cycles0 := churnTotals(cs)
		wall := replayAll(rig, cs, walks, round, time.Time{}, nil)
		raw1, cycles1 := churnTotals(cs)
		smp.finish()
		rss = append(rss, smp.rss...)
		queueMax, inflightMax = max(queueMax, smp.gaugeMax[0]), max(inflightMax, smp.gaugeMax[1])
		counters = counters.plus(readCounters(rig.srv))
		rig.tearDown(e)
		ingest = append(ingest, mbPerSec(raw1-raw0, wall))
		opensPerSec = append(opensPerSec, float64(cycles1-cycles0)/wall.Seconds())
	}
	usage := meter.stop()

	var opens openStats
	var stats pushStats
	var opNs, coldNs int64
	tallies := []*tally{&e.t}
	for _, c := range cs {
		c.tr = nil
		opens.merge(&c.opens)
		stats.merge(&c.stats)
		opNs += c.opNs
		coldNs += c.coldNs
		tallies = append(tallies, &c.t)
	}
	if stats.n == 0 {
		return nil, fmt.Errorf("no attach cycle completed in the timed phase: %v", firstError(tallies...))
	}
	rounds := fmt.Sprintf("rounds of %d cycles", roundCycles)
	e.reportMedian(rep, "setup_s", "cold set-ups", setups)
	e.reportMedian(rep, "ingest_mb_s", rounds, ingest)
	e.reportMedian(rep, "attach.opens_per_s", rounds, opensPerSec)
	e.logf("# cold opens: %d of %d, %.1f %% of the generators' summed operation time", opens.cold.n, opens.cold.n+opens.warm.n, 100*ratio(coldNs, opNs))
	rep.set("attach.cold_time_frac", ratio(coldNs, opNs))
	opens.report(rep)
	stats.reportServed(rep)
	e.reportMedian(rep, "rss_mb", "samples", rss)
	rep.set(nsServe+".queue_depth.max", queueMax)
	rep.set(nsServe+".conn_inflight.max", inflightMax)
	usage.report(rep, stats.n, stats.raw)
	counters.report(rep)
	if e.cfg.trace {
		rep.set("trace.overhead_frac", tracedOverhead(opensPerSec))
	}

	// Read-back: one more, untimed, partial replay keeps its results; those
	// are then decoded and compared for the read-back time.
	rig, _, err = churnSetUp(e)
	if err != nil {
		return nil, fmt.Errorf("read-back: %w", err)
	}
	keep := make([][]kept, len(cs))
	thin := make([][]cycle, len(cs))
	for g := range cs {
		thin[g] = thinnedShapes()
		keep[g] = make([]kept, 0, len(thin[g]))
	}
	replayAll(rig, cs, thin, -1, time.Time{}, keep)
	rig.tearDown(e)
	readBackPhase(e, rep, keep, tallies[1:])
	for _, t := range tallies[1:] {
		e.t.merge(t)
	}

	if e.cfg.trace {
		if err := runLadder(e, rep, churnLadderShapes(cs[0]), stats.rtt.quantile(0.5)); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	return rep, nil
}

// thinnedShapes lists every (algorithm, SLO class) at every churnKeepEvery-th
// batch size: the same composition for every seed.
func thinnedShapes() []cycle {
	var out []cycle
	for alg := range churnAlgs {
		for slo := range churnSLOs {
			for size := 0; size < churnSizes; size += churnKeepEvery {
				out = append(out, cycle{size: uint8(size), alg: uint8(alg), slo: uint8(slo)})
			}
		}
	}
	return out
}

func churnTotals(cs []*churner) (raw, cycles int64) {
	for _, c := range cs {
		raw += c.stats.raw
		cycles += c.stats.n
	}
	return raw, cycles
}

// churnLadderShapes picks the shapes the ladder runs for this workload: every
// algorithm at the middle batch size, with that size's payload as a one-slot
// ring — the same shapes for every seed.
func churnLadderShapes(c *churner) []*shape {
	const size = churnSizes / 2
	var out []*shape
	for _, alg := range churnAlgs {
		out = append(out, &shape{alg: alg, slo: "silver", dataset: "Micro", batchBytes: c.sizes[size], ring: [][]byte{c.payloads[size]}})
	}
	return out
}
