package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/segstore"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/pkg/cstream"
)

// The ladder measures the layers from outside: after a traced workload, the
// same payload ring goes single-threaded through each layer's public function
// for a fixed number of iterations. A rung's self time is its time minus the
// rung below it — the outside-in stand-in for child spans until the program
// records spans of its own.

// ladderBytes is the raw bytes each rung pushes through, and ladderMinIters
// the fewest iterations it takes however large the batches; the iteration
// count follows from the workload's batch size, so it is fixed per workload.
const (
	ladderBytes      = 64 << 20
	ladderSmokeBytes = 256 << 10
	ladderMinIters   = 240
	// ladderPlanPasses is how many times the planner rungs go over the shapes.
	ladderPlanPasses = 8
	// ladderAttachCycles is how many warm open/close pairs the serve rung times.
	ladderAttachCycles = 64
)

// ladderItem is one (shape, ring slot) pair, prepared once: its bytes as a
// batch, its shape's reference deployment, and an unpooled copy of its
// compressed form for the decode and segment-append rungs.
type ladderItem struct {
	sh     *shape
	shape  int
	rd     *refDeployment
	data   []byte
	batch  *stream.Batch
	slices int
	stored *compress.PipelineResult
}

// Rung names. The chain kernel -> pipeline -> run_batch -> {cstream.push |
// serve.rtt_serial} is what self_ns is taken along; the other four stand alone.
const (
	rungKernel   = nsCompress + ".kernel"
	rungPipeline = nsCompress + ".pipeline"
	rungRunBatch = "core.run_batch"
	rungCstream  = "cstream.push"
	rungServe    = nsServe + ".rtt_serial"
	rungDecode   = nsCompress + ".decode"
	rungCodec    = nsServe + ".codec"
	rungAppend   = nsSegstore + ".append"
	rungRead     = nsSegstore + ".read"
)

type rung struct {
	name       string
	ns, allocs float64
}

// rungSpec is one rung before it is measured: the call it times, and what to
// do once every rung has been measured (release what it holds, report what
// it counted).
type rungSpec struct {
	name  string
	fn    func(it *ladderItem, i int) error
	after func(rep *report) error
}

type ladder struct {
	e      *env
	items  []*ladderItem
	shapes []*shape
	iters  int
	rungs  map[string]rung
}

// ladderBlocks is how many blocks each rung's iterations are cut into. The
// rungs take turns block by block, so that a change in the host's speed over
// the ladder's few seconds lands on every rung alike instead of on the
// difference between two of them; the turn order rotates from block to block
// because a rung that follows a single-threaded one pays for waking the
// scheduler's idle threads.
const ladderBlocks = 8

// measure times iters calls of every rung, in interleaved blocks, after one
// untimed pass over the items each; every block is a span on the main
// goroutine's buffer.
func (l *ladder) measure(specs []rungSpec) error {
	e := l.e
	for _, sp := range specs {
		for i, it := range l.items {
			if !e.t.op(sp.fn(it, i)) {
				return fmt.Errorf("%s: %w", sp.name, e.t.firstErr)
			}
		}
	}
	block := max(l.iters/ladderBlocks, 1)
	type acc struct {
		ns      time.Duration
		mallocs uint64
		iters   int
	}
	accs := make([]acc, len(specs))
	first := len(e.rungNames)
	for _, sp := range specs {
		e.rungNames = append(e.rungNames, sp.name)
	}
	var ms0, ms1 runtime.MemStats
	for done, b := 0, 0; done < l.iters; done, b = done+block, b+1 {
		for k := range specs {
			r := (k + b) % len(specs)
			sp := specs[r]
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			for i := done; i < done+block; i++ {
				if err := sp.fn(l.items[i%len(l.items)], i); err != nil {
					e.t.op(err)
					return fmt.Errorf("%s: %w", sp.name, err)
				}
			}
			t1 := time.Now()
			runtime.ReadMemStats(&ms1)
			accs[r].ns += t1.Sub(t0)
			accs[r].mallocs += ms1.Mallocs - ms0.Mallocs
			accs[r].iters += block
			e.t.attempted += int64(block)
			e.mainTracer().add(spanRung, uint64(first+r), -1, t0, t1)
		}
	}
	for r, sp := range specs {
		l.rungs[sp.name] = rung{name: sp.name, ns: float64(accs[r].ns) / float64(accs[r].iters), allocs: float64(accs[r].mallocs) / float64(accs[r].iters)}
	}
	return nil
}

func newLadder(e *env, shapes []*shape) (*ladder, error) {
	l := &ladder{e: e, shapes: shapes, rungs: map[string]rung{}}
	var bytesPerPass int
	for si, sh := range shapes {
		rd, err := e.ref.deployment(sh.alg, sh.slo, sh.batchBytes)
		if err != nil {
			return nil, err
		}
		for _, data := range sh.ring {
			it := &ladderItem{sh: sh, shape: si, rd: rd, data: data, batch: stream.NewBatchBytes(0, data), slices: rd.slices}
			// RunBatchData narrows the width for batches shorter than it.
			if w := len(data) / 4; w >= 1 && w < it.slices {
				it.slices = w
			}
			res, err := rd.dep.RunBatchData(context.Background(), rd.alg, it.batch, nil)
			if err != nil {
				return nil, err
			}
			it.stored = &compress.PipelineResult{InputBytes: res.InputBytes, TotalBits: res.TotalBits}
			for _, s := range res.Segments {
				it.stored.Segments = append(it.stored.Segments, compress.Segment{
					SliceIndex: s.SliceIndex, Compressed: append([]byte(nil), s.Compressed...), BitLen: s.BitLen, OrigLen: s.OrigLen,
				})
			}
			res.Release()
			l.items = append(l.items, it)
			bytesPerPass += len(data)
		}
	}
	l.iters = max(ladderBytes/(bytesPerPass/len(l.items)), ladderMinIters)
	if e.cfg.smoke {
		l.iters = max(ladderSmokeBytes/(bytesPerPass/len(l.items)), 2*len(l.items))
	}
	return l, nil
}

// runLadder runs every rung on the workload's shapes, fills in the per-layer
// metrics the workload itself has not produced, and prints the ladder table.
// e2eRTT is the workload's median round trip in ns, the table's yardstick.
func runLadder(e *env, rep *report, shapes []*shape, e2eRTT float64) error {
	l, err := newLadder(e, shapes)
	if err != nil {
		return err
	}
	var specs []rungSpec
	after := func() error {
		var first error
		for _, sp := range specs {
			if sp.after == nil {
				continue
			}
			if err := sp.after(rep); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for _, build := range []func(*report) (rungSpec, error){
		l.kernel, l.pipeline, l.runBatch, l.cstreamPush, l.serveSerial, l.decode, l.codec, l.segmentAppend,
	} {
		sp, err := build(rep)
		if err != nil {
			after() //nolint:errcheck // the build error is the one to report
			return err
		}
		specs = append(specs, sp)
	}
	if err := l.measure(specs); err != nil {
		after() //nolint:errcheck // the measurement error is the one to report
		return err
	}
	if err := after(); err != nil {
		return err
	}
	if err := l.planner(rep); err != nil {
		return err
	}
	for _, r := range l.rungs {
		unit := "batch"
		if r.name == rungCodec {
			unit = "frame"
		}
		rep.set(r.name+".ns_per_"+unit, r.ns)
		if r.name != nsSegstore+".read" {
			rep.set(r.name+".allocs_per_"+unit, r.allocs)
		}
	}
	type row struct{ name, below string }
	rows := []row{
		{rungKernel, ""}, {rungPipeline, rungKernel}, {rungRunBatch, rungPipeline},
		{rungCstream, rungRunBatch}, {rungServe, rungRunBatch},
		{rungDecode, ""}, {rungCodec, ""}, {rungAppend, ""}, {rungRead, ""},
	}
	e.logf("# ladder (%d iterations per rung; share is of the workload's median round trip, %.0f ns)", l.iters, e2eRTT)
	e.logf("# %-20s %12s %12s %10s %8s", "rung", "ns", "d_ns", "d_allocs", "share")
	for _, r := range rows {
		cur := l.rungs[r.name]
		dns, dallocs := cur.ns, cur.allocs
		if r.below != "" {
			below := l.rungs[r.below]
			dns, dallocs = cur.ns-below.ns, cur.allocs-below.allocs
			rep.set(r.name+".self_ns", dns)
		}
		e.logf("# %-20s %12.0f %12.0f %10.1f %7.1f%%", r.name, cur.ns, dns, dallocs, 100*cur.ns/e2eRTT)
	}
	return nil
}

func (l *ladder) kernel(*report) (rungSpec, error) {
	sessions := make([]compress.Session, len(l.shapes))
	for i, sh := range l.shapes {
		alg, err := compress.ByName(sh.alg)
		if err != nil {
			return rungSpec{}, err
		}
		sessions[i] = alg.NewSession()
	}
	return rungSpec{name: rungKernel, fn: func(it *ladderItem, _ int) error {
		if res := sessions[it.shape].CompressBatchReuse(it.batch); res.BitLen == 0 {
			return fmt.Errorf("empty kernel output")
		}
		return nil
	}}, nil
}

func (l *ladder) decode(*report) (rungSpec, error) {
	checked := map[*ladderItem]bool{}
	return rungSpec{name: rungDecode, fn: func(it *ladderItem, _ int) error {
		out, err := compress.DecodeSegments(it.sh.alg, it.stored)
		if err != nil {
			return err
		}
		// Full comparison once per item (the untimed pass); length after.
		if !checked[it] {
			checked[it] = true
			return checkDecoded(out, nil, it.data)
		}
		if len(out) != len(it.data) {
			return errMismatch
		}
		return nil
	}}, nil
}

func (l *ladder) pipeline(*report) (rungSpec, error) {
	return rungSpec{name: rungPipeline, fn: func(it *ladderItem, _ int) error {
		res, err := compress.RunPipeline(it.rd.alg, it.batch, it.slices, it.rd.workers)
		if err != nil {
			return err
		}
		res.Release()
		return nil
	}}, nil
}

func (l *ladder) runBatch(*report) (rungSpec, error) {
	ctx := context.Background()
	return rungSpec{name: rungRunBatch, fn: func(it *ladderItem, _ int) error {
		res, err := it.rd.dep.RunBatchData(ctx, it.rd.alg, it.batch, nil)
		if err != nil {
			return err
		}
		res.Release()
		return nil
	}}, nil
}

func (l *ladder) cstreamPush(rep *report) (rungSpec, error) {
	sessions := make([]*cstream.Session, 0, len(l.shapes))
	closeAll := func(*report) error {
		for _, sess := range sessions {
			l.e.t.op(sess.Close())
		}
		return nil
	}
	t0 := time.Now()
	for _, sh := range l.shapes {
		sess, err := cstream.NewSession(sh.alg, cstream.DatasetSource(serverProfileDataset, serverSeed),
			cstream.WithBatchBytes(sh.batchBytes), cstream.WithLatencyConstraint(sloLSet[sh.slo]), cstream.WithProfileBatches(serverProfileBatches))
		if !l.e.t.op(err) {
			closeAll(nil) //nolint:errcheck // always nil
			return rungSpec{}, err
		}
		sessions = append(sessions, sess)
	}
	rep.set("cstream.new_session.ns", float64(time.Since(t0))/float64(len(l.shapes)))
	ctx := context.Background()
	into := make([]cstream.BatchResult, len(l.shapes))
	return rungSpec{name: rungCstream, after: closeAll, fn: func(it *ladderItem, _ int) error {
		_, err := sessions[it.shape].PushReuse(ctx, it.data, &into[it.shape])
		return err
	}}, nil
}

func (l *ladder) codec(*report) (rungSpec, error) {
	fb := serve.AcquireFrameBuffer()
	var buf bytes.Buffer
	rd := bytes.NewReader(nil)
	return rungSpec{
		name:  rungCodec,
		after: func(*report) error { fb.Release(); return nil },
		fn: func(it *ladderItem, _ int) error {
			buf.Reset()
			if err := serve.WriteFrame(&buf, serve.FrameData, 1, it.data); err != nil {
				return err
			}
			rd.Reset(buf.Bytes())
			f, err := serve.ReadFrameInto(rd, fb)
			if err == nil && len(f.Payload) != len(it.data) {
				err = fmt.Errorf("frame carries %d of %d bytes", len(f.Payload), len(it.data))
			}
			return err
		},
	}, nil
}

// serveSerial is the serve rung and the single-threaded baseline: one
// server, one client, one session per shape, one batch in flight. Workloads
// without a server of their own take their serve.* counters from this one.
func (l *ladder) serveSerial(*report) (rungSpec, error) {
	e := l.e
	srv, err := serve.New(serve.Config{Seed: serverSeed})
	if err != nil {
		return rungSpec{}, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return rungSpec{}, err
	}
	cl, err := serve.Dial(srv.Addr().String())
	if !e.t.op(err) {
		srv.Close()
		return rungSpec{}, err
	}
	tearDown := func() {
		cl.Close()
		e.t.op(srv.Close())
	}
	request := func(sh *shape) serve.OpenRequest {
		return serve.OpenRequest{Tenant: "ladder", Algorithm: sh.alg, SLO: sh.slo, BatchBytes: sh.batchBytes}
	}
	sessions := make([]*serve.ClientSession, len(l.shapes))
	for i, sh := range l.shapes {
		if sessions[i], err = cl.Open(request(sh)); !e.t.op(err) {
			tearDown()
			return rungSpec{}, err
		}
	}
	queue, inflight := serverGauges(srv)
	smp := startSampler(queue, inflight)
	var rtt hist
	var violated int64
	res := make([]serve.Result, len(l.shapes))

	after := func(rep *report) error {
		defer tearDown()
		smp.finish()
		// Warm attach: plan shape 0 on every shard first, then time open
		// and close separately.
		var opens, closes hist
		for i := 0; i < 4*serverShards+ladderAttachCycles; i++ {
			t0 := time.Now()
			sess, err := cl.Open(request(l.shapes[0]))
			t1 := time.Now()
			if !e.t.op(err) {
				return err
			}
			if err := sess.Close(); !e.t.op(err) {
				return err
			}
			if i >= 4*serverShards {
				opens.record(int64(t1.Sub(t0)))
				closes.record(int64(time.Since(t1)))
			}
		}
		rep.set(nsServe+".open_warm.ns", opens.quantile(0.5))
		rep.set(nsServe+".close.ns", closes.quantile(0.5))
		for _, sess := range sessions {
			e.t.op(sess.Close())
		}
		rep.setDefault(nsServe+".push_rtt_p99_us", rtt.us(0.99))
		rep.setDefault(nsServe+".clcv_frac", float64(violated)/float64(max(rtt.n, 1)))
		rep.setDefault(nsServe+".queue_depth.max", smp.gaugeMax[0])
		rep.setDefault(nsServe+".conn_inflight.max", smp.gaugeMax[1])
		own := newReport()
		readCounters(srv).report(own)
		for name, v := range own.values {
			rep.setDefault(name, v)
		}
		return nil
	}
	return rungSpec{name: rungServe, after: after, fn: func(it *ladderItem, _ int) error {
		t0 := time.Now()
		if err := sessions[it.shape].PushReuse(it.data, &res[it.shape]); err != nil {
			return err
		}
		rtt.record(int64(time.Since(t0)))
		if res[it.shape].Measure.Violated {
			violated++
		}
		return nil
	}}, nil
}

// segmentAppend is the segment-store rung: appends through
// Store.AppendResult with the embed-durable workload's rotation policy; once
// measured, every segment file is opened and read back (frame parse and CRC;
// decoding is its own rung).
func (l *ladder) segmentAppend(*report) (rungSpec, error) {
	e := l.e
	root, err := os.MkdirTemp(e.cfg.tmpDir, "ladder-segstore-")
	if err != nil {
		return rungSpec{}, err
	}
	reg := telemetry.NewRegistry()
	stores := make([]*segstore.Store, 0, len(l.shapes))
	closeStores := func() (err error) {
		for _, st := range stores {
			if cerr := st.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	for i, sh := range l.shapes {
		st, err := segstore.Open(fmt.Sprintf("%s/%d", root, i), segstore.Options{
			Algorithm:  sh.alg,
			BatchBytes: sh.batchBytes,
			Rotate:     segstore.RotatePolicy{MaxSegmentBytes: embedRotation.MaxSegmentBytes},
			SyncEvery:  embedRotation.SyncEvery,
			Metrics:    reg,
		})
		if err != nil {
			closeStores() //nolint:errcheck // the open error is the one to report
			os.RemoveAll(root)
			return rungSpec{}, err
		}
		stores = append(stores, st)
	}
	var raw int64
	after := func(rep *report) error {
		defer os.RemoveAll(root)
		if err := closeStores(); err != nil {
			return err
		}
		counters := reg.Snapshot().Counters
		rep.set(nsSegstore+".rotations", float64(counters[segstore.MetricSegmentsRotated]))
		rep.set(nsSegstore+".bytes_persisted", float64(counters[segstore.MetricBytesPersisted]))
		rep.set(nsSegstore+".disk_bytes_per_raw_byte", float64(counters[segstore.MetricBytesPersisted])/float64(max(raw, 1)))
		return l.segmentRead(rep, stores)
	}
	return rungSpec{name: rungAppend, after: after, fn: func(it *ladderItem, i int) error {
		raw += int64(len(it.data))
		return stores[it.shape].AppendResult(i, time.Now().UnixNano(), it.stored)
	}}, nil
}

func (l *ladder) segmentRead(rep *report, stores []*segstore.Store) error {
	e := l.e
	var opens hist
	var readNs time.Duration
	var batches int
	t0 := time.Now()
	for _, st := range stores {
		paths, err := segstore.SegmentFiles(st.Dir())
		if err != nil {
			return err
		}
		for _, path := range paths {
			o0 := time.Now()
			seg, err := segstore.OpenSegment(path)
			if !e.t.op(err) {
				return err
			}
			r0 := time.Now()
			opens.record(int64(r0.Sub(o0)))
			for b := 0; b < seg.Batches(); b++ {
				if _, err := seg.ReadBatch(b); !e.t.op(err) {
					seg.Close()
					return err
				}
			}
			readNs += time.Since(r0)
			batches += seg.Batches()
			seg.Close()
		}
	}
	if batches == 0 {
		return fmt.Errorf("segstore rung read back no batch from %d files", opens.n)
	}
	rep.set(nsSegstore+".open_segment.ns", opens.quantile(0.5))
	l.rungs[nsSegstore+".read"] = rung{name: rungRead, ns: float64(readNs) / float64(batches)}
	e.mainTracer().add(spanRung, uint64(len(e.rungNames)), -1, t0, time.Now())
	e.rungNames = append(e.rungNames, nsSegstore+".read")
	return nil
}

// planner times the planning path per session shape: profiling, a deploy
// that has to search, a deploy served by a warm plan cache, and the search
// alone on the deployed graph.
func (l *ladder) planner(rep *report) error {
	passes := ladderPlanPasses
	if l.e.cfg.smoke {
		passes = 1
	}
	type planned struct {
		w    core.Workload
		prof *core.Profile
	}
	ps := make([]planned, len(l.shapes))
	for i, sh := range l.shapes {
		alg, err := compress.ByName(sh.alg)
		if err != nil {
			return err
		}
		if ps[i].w, err = refWorkload(alg, sh.batchBytes, sh.slo); err != nil {
			return err
		}
	}
	n := float64(passes * len(ps))
	t0 := time.Now()
	for pass := 0; pass < passes; pass++ {
		for i := range ps {
			ps[i].prof = core.ProfileWorkload(ps[i].w, serverProfileBatches, 0)
		}
	}
	rep.set("core.profile.ns_per_shape", float64(time.Since(t0))/n)

	deployAll := func(pl *core.Planner) (*core.Deployment, error) {
		var dep *core.Deployment
		for i := range ps {
			var err error
			if dep, err = pl.DeployProfile(ps[i].w, ps[i].prof, core.MechCStream); err != nil {
				return nil, err
			}
		}
		return dep, nil
	}
	cold, err := core.NewPlanner(amp.NewRK3399(), serverSeed)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	for pass := 0; pass < passes; pass++ {
		if _, err := deployAll(cold); err != nil {
			return err
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	rep.set("core.deploy_cold.ns_per_shape", float64(d)/n)
	rep.set("core.deploy_cold.allocs_per_shape", float64(ms1.Mallocs-ms0.Mallocs)/n)

	cached, err := core.NewPlanner(amp.NewRK3399(), serverSeed)
	if err != nil {
		return err
	}
	cached.EnablePlanCache(64)
	if _, err := deployAll(cached); err != nil {
		return err
	}
	t0 = time.Now()
	for pass := 0; pass < passes; pass++ {
		if _, err := deployAll(cached); err != nil {
			return err
		}
	}
	rep.set("core.deploy_cached.ns_per_shape", float64(time.Since(t0))/n)

	t0 = time.Now()
	for pass := 0; pass < passes; pass++ {
		for i := range ps {
			rd, err := l.e.ref.deployment(l.shapes[i].alg, l.shapes[i].slo, l.shapes[i].batchBytes)
			if err != nil {
				return err
			}
			if res := sched.Search(cold.Model, rd.dep.Graph, ps[i].w.LSet); len(res.Plan) != len(rd.dep.Graph.Tasks) {
				return fmt.Errorf("search on %s placed %d of %d tasks", l.shapes[i], len(res.Plan), len(rd.dep.Graph.Tasks))
			}
		}
	}
	rep.set("sched.search.ns_per_graph", float64(time.Since(t0))/n)
	return nil
}
