// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the paper (regenerating the artifact via internal/exp), plus
// ablation benchmarks for the design choices DESIGN.md calls out and raw
// throughput benchmarks for the compression algorithms themselves.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/exp"
	"repro/internal/sched"
	"repro/internal/segstore"
	"repro/internal/serve"
	"repro/internal/stream"
)

var (
	benchRunnerOnce sync.Once
	benchRunner     *exp.Runner
	benchRunnerErr  error
)

// runner builds one shared fast-config experiment runner, amortized across
// benches.
func runner(b *testing.B) *exp.Runner {
	b.Helper()
	benchRunnerOnce.Do(func() {
		benchRunner, benchRunnerErr = exp.NewRunner(exp.FastConfig())
	})
	if benchRunnerErr != nil {
		b.Fatal(benchRunnerErr)
	}
	return benchRunner
}

// benchExperiment regenerates one paper artifact per iteration.
func benchExperiment(b *testing.B, id string) {
	r := runner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		tab.Render(io.Discard)
	}
}

// --- one benchmark per paper artifact ---

func BenchmarkFig3Roofline(b *testing.B)           { benchExperiment(b, "fig3") }
func BenchmarkTable2Interconnect(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkFig5StateSharing(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig7Energy(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkFig8CLCV(b *testing.B)               { benchExperiment(b, "fig8") }
func BenchmarkFig9Adaptation(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10LatencyConstraint(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11BatchSize(b *testing.B)         { benchExperiment(b, "fig11") }
func BenchmarkFig12VocabDuplication(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13SymbolDuplication(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14DynamicRange(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15StaticFrequency(b *testing.B)   { benchExperiment(b, "fig15") }
func BenchmarkFig16DVFS(b *testing.B)              { benchExperiment(b, "fig16") }
func BenchmarkFig17Breakdown(b *testing.B)         { benchExperiment(b, "fig17") }
func BenchmarkTable4TaskComparison(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkTable5ModelAccuracy(b *testing.B)    { benchExperiment(b, "table5") }

// --- ablation benchmarks: design choices called out in DESIGN.md ---

func ablationGraph() *costmodel.Graph {
	return &costmodel.Graph{
		Tasks: []costmodel.Task{
			{ID: 0, Name: "t0a", InstrPerByte: 150, Kappa: 320, Replicas: 2},
			{ID: 1, Name: "t0b", InstrPerByte: 150, Kappa: 320, Replicas: 2},
			{ID: 2, Name: "t1", InstrPerByte: 80, Kappa: 102, Replicas: 1},
			{ID: 3, Name: "t2", InstrPerByte: 50, Kappa: 60, Replicas: 1},
			{ID: 4, Name: "t3", InstrPerByte: 40, Kappa: 25, Replicas: 1},
		},
		Edges: []costmodel.Edge{
			{From: 0, To: 2, BytesPerStreamByte: 0.6},
			{From: 1, To: 2, BytesPerStreamByte: 0.6},
			{From: 2, To: 3, BytesPerStreamByte: 1.0},
			{From: 3, To: 4, BytesPerStreamByte: 0.5},
		},
		BatchBytes: core.DefaultBatchBytes,
	}
}

// BenchmarkAblationSearchPruned measures the plan search with branch-and-
// bound pruning and core-symmetry breaking (the paper's DP enumeration).
func BenchmarkAblationSearchPruned(b *testing.B) {
	r := runner(b)
	g := ablationGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sched.Search(r.Planner().Model, g, 26)
		if len(res.Plan) != len(g.Tasks) {
			b.Fatal("search failed")
		}
	}
}

// BenchmarkAblationSearchExhaustive disables pruning; the optimum is
// identical, the cost difference is the value of the DP/memoization design.
func BenchmarkAblationSearchExhaustive(b *testing.B) {
	r := runner(b)
	g := ablationGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sched.SearchNoPrune(r.Planner().Model, g, 26)
		if len(res.Plan) != len(g.Tasks) {
			b.Fatal("search failed")
		}
	}
}

// BenchmarkAblationFusion measures the decomposition step with the fusion
// rule (Section IV-B) applied, versus the raw per-stage split below.
func BenchmarkAblationFusion(b *testing.B) {
	r := runner(b)
	w := core.NewWorkload(compress.NewTcomp32(), dataset.NewRovio(1))
	w.BatchBytes = 64 * 1024
	prof := core.ProfileWorkload(w, 2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tasks := core.Decompose(prof, r.Machine())
		if len(tasks) == 0 {
			b.Fatal("no tasks")
		}
	}
}

// BenchmarkAblationCommAsymmetryOn/Off quantify how much estimated energy
// changes when the model prices the two inter-cluster directions separately
// (Table II) versus symmetrically.
func BenchmarkAblationCommAsymmetryOn(b *testing.B) {
	benchCommAsymmetry(b, true)
}

func BenchmarkAblationCommAsymmetryOff(b *testing.B) {
	benchCommAsymmetry(b, false)
}

func benchCommAsymmetry(b *testing.B, asymmetric bool) {
	m := amp.NewRK3399()
	m.AsymmetricComm = asymmetric
	mod, err := costmodel.NewModel(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := ablationGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sched.Search(mod, g, 26)
		if len(res.Plan) != len(g.Tasks) {
			b.Fatal("search failed")
		}
	}
}

// --- raw compression throughput (the functional layer itself) ---

func benchCompress(b *testing.B, alg compress.Algorithm, gen dataset.Generator) {
	batch := gen.Batch(0, 256*1024)
	sess := alg.NewSession()
	b.SetBytes(int64(batch.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sess.CompressBatchReuse(batch)
		if res.BitLen == 0 {
			b.Fatal("empty output")
		}
	}
}

func BenchmarkCompressTcomp32Rovio(b *testing.B) {
	benchCompress(b, compress.NewTcomp32(), dataset.NewRovio(1))
}

func BenchmarkCompressTdic32Rovio(b *testing.B) {
	benchCompress(b, compress.NewTdic32(), dataset.NewRovio(1))
}

func BenchmarkCompressLZ4Sensor(b *testing.B) {
	benchCompress(b, compress.NewLZ4(), dataset.NewSensor(1))
}

func BenchmarkCompressLZ4Stock(b *testing.B) {
	benchCompress(b, compress.NewLZ4(), dataset.NewStock(1))
}

// benchPipeline measures the slice executor in its steady-state pattern:
// run, then Release the pooled result.
func benchPipeline(b *testing.B, alg compress.Algorithm, batch *stream.Batch, slices int, workers []int) {
	b.SetBytes(int64(batch.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := compress.RunPipeline(alg, batch, slices, workers)
		if err != nil || res.TotalBits == 0 {
			b.Fatal(err)
		}
		res.Release()
	}
}

// BenchmarkPipelineTcomp32 is the helper side of the executor's width rule:
// 256 KiB in 4 slices, so the caller and three helpers take one slice each.
func BenchmarkPipelineTcomp32(b *testing.B) {
	benchPipeline(b, compress.NewTcomp32(), dataset.NewRovio(1).Batch(0, 256*1024), 4, []int{2, 2})
}

// BenchmarkPipelineDelta32Small is the inline side with the executor's
// per-slice fixed cost in view: a 4 KiB batch forced into 12 slices with
// [2 1] workers, all on the calling goroutine. Deployments cut such a batch
// into one slice (compress.SliceCount); BenchmarkPipelineDeployHuff8Micro
// measures that shape.
func BenchmarkPipelineDelta32Small(b *testing.B) {
	benchPipeline(b, compress.NewDelta32(), dataset.NewStock(1).Batch(0, 4096), 12, []int{2, 1})
}

// BenchmarkPipelineDeployHuff8Micro runs a 16 KiB batch through a planned
// rk3399 CStream deployment's RunBatchData, so the slice count comes from
// the deployment's rule rather than from the benchmark. huff8 on Micro is
// the kernel with the largest per-slice fixed cost (a header and a tree per
// slice).
func BenchmarkPipelineDeployHuff8Micro(b *testing.B) {
	pl, err := core.NewPlanner(amp.NewRK3399(), 1)
	if err != nil {
		b.Fatal(err)
	}
	w := core.NewWorkload(compress.NewHuff8(), dataset.NewMicro(1))
	w.BatchBytes = 16 << 10
	dep, err := pl.Deploy(w, core.MechCStream)
	if err != nil {
		b.Fatal(err)
	}
	batch := w.Dataset.Batch(0, w.BatchBytes)
	ctx := context.Background()
	b.SetBytes(int64(batch.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dep.RunBatchData(ctx, w.Algorithm, batch, nil)
		if err != nil || res.TotalBits == 0 {
			b.Fatal(err)
		}
		res.Release()
	}
}

// BenchmarkPipelineLZ4Sensor is the paper's batch size in serve-large's
// shape: 932 800 B in the plan's 12 slices with the [1 2 1] worker vector
// CStream deploys for lz4 on rk3399, so four participants share the slices.
func BenchmarkPipelineLZ4Sensor(b *testing.B) {
	benchPipeline(b, compress.NewLZ4(), dataset.NewSensor(1).Batch(0, 932800), 12, []int{1, 2, 1})
}

// BenchmarkSegmentAppend measures the durable segment sink's hot path: one
// already-compressed batch framed, CRC'd, and appended to the active segment
// file per iteration (rotation included whenever the byte budget trips).
// Steady-state it must not allocate — the segstore alloc test pins that to
// exactly zero — so persistence overhead is the frame encode plus one write
// syscall. EXPERIMENTS.md's persistence-overhead section quotes this number.
func BenchmarkSegmentAppend(b *testing.B) {
	batch := dataset.NewStock(1).Batch(0, 256)
	res, err := compress.RunPipeline(compress.NewDelta32(), batch, 2, []int{1, 1})
	if err != nil {
		b.Fatal(err)
	}
	defer res.Release()
	st, err := segstore.Open(b.TempDir(), segstore.Options{
		Algorithm: "delta32",
		Rotate:    segstore.RotatePolicy{MaxSegmentBytes: 8 << 20},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.SetBytes(int64(batch.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.AppendResult(i, int64(i), res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressLZ4 measures the decoder path.
func BenchmarkDecompressLZ4(b *testing.B) {
	batch := dataset.NewSensor(1).Batch(0, 256*1024)
	res := compress.NewLZ4().NewSession().CompressBatch(batch)
	b.SetBytes(int64(batch.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := compress.DecompressLZ4(res.Compressed, batch.Size())
		if err != nil || len(out) != batch.Size() {
			b.Fatal(err)
		}
	}
}

// benchDecode measures compress.DecodeSegments, the funnel under every
// Decode, on one batch compressed in the given number of slices. The
// decoder contract allows one allocation per batch: its output buffer.
func benchDecode(b *testing.B, alg compress.Algorithm, batch *stream.Batch, slices int) {
	res, err := compress.RunPipeline(alg, batch, slices, make([]int, len(compress.StageSets(alg))))
	if err != nil {
		b.Fatal(err)
	}
	defer res.Release()
	b.SetBytes(int64(batch.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := compress.DecodeSegments(alg.Name(), res)
		if err != nil || len(out) != batch.Size() {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompressTcomp32Paper decodes serve-large's shape: the paper's
// B = 932 800 in 12 slices.
func BenchmarkDecompressTcomp32Paper(b *testing.B) {
	benchDecode(b, compress.NewTcomp32(), dataset.NewRovio(1).Batch(0, 932800), 12)
}

// BenchmarkDecompressTdic32Paper is the stateful bit-packed decoder at the
// paper's batch size.
func BenchmarkDecompressTdic32Paper(b *testing.B) {
	benchDecode(b, compress.NewTdic32(), dataset.NewRovio(1).Batch(0, 932800), 12)
}

// BenchmarkDecompressLZ4Paper is the byte-oriented decoder at the paper's
// batch size.
func BenchmarkDecompressLZ4Paper(b *testing.B) {
	benchDecode(b, compress.NewLZ4(), dataset.NewSensor(1).Batch(0, 932800), 12)
}

// BenchmarkDecompressHuff8Micro decodes a 16 KiB batch as one slice, where
// building the code table per batch is a visible share of the work.
func BenchmarkDecompressHuff8Micro(b *testing.B) {
	benchDecode(b, compress.NewHuff8(), dataset.NewMicro(1).Batch(0, 16<<10), 1)
}

// BenchmarkPlanDeployment measures end-to-end planning cost (profile +
// decompose + replicate + search) — the framework's own overhead, which
// E_mes includes per Section VI-C.
func BenchmarkPlanDeployment(b *testing.B) {
	r := runner(b)
	w := core.NewWorkload(compress.NewTcomp32(), dataset.NewRovio(1))
	w.BatchBytes = 64 * 1024
	prof := core.ProfileWorkload(w, 2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep, err := r.Planner().DeployProfile(w, prof, core.MechCStream)
		if err != nil || !dep.Feasible {
			b.Fatal("deployment failed")
		}
	}
}

// BenchmarkAttach measures what a warm session open costs the runtime: one
// Attach and Detach on an already planned deployment. Attach restarts the
// deployment's seeded executor instead of seeding a new one; the benchdiff
// gate pins its allocs/op.
func BenchmarkAttach(b *testing.B) {
	pl, err := core.NewPlanner(amp.NewRK3399(), 1)
	if err != nil {
		b.Fatal(err)
	}
	w := core.NewWorkload(compress.NewDelta32(), dataset.NewStock(1))
	w.BatchBytes = 4 << 10
	dep, err := pl.DeployProfile(w, core.ProfileWorkload(w, 1, 0), core.MechCStream)
	if err != nil {
		b.Fatal(err)
	}
	rt := core.NewMultiStreamRuntime(pl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := rt.Attach(w, dep)
		if err != nil {
			b.Fatal(err)
		}
		h.Detach()
	}
}

// BenchmarkCostModelFit measures the instantiation step: profiling both core
// types and fitting the four η/ζ rooflines. Every planner pays it once, so
// serve.New and each cstream.NewSession pay it once; the benchdiff gate pins
// its allocation count.
func BenchmarkCostModelFit(b *testing.B) {
	m := amp.NewRK3399()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := costmodel.NewModel(m, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileMicroPaper measures one proxy profile at the paper's
// B = 932 800: generating two Micro batches and compressing them with
// tcomp32, the cold set-up every serve shape, cstream.NewSession and
// experiment pays per (algorithm, batch bytes). The benchdiff gate pins its
// allocation count.
//
// A collection allocates (sync.Pool's per-P arrays, among others), and how
// many fall inside an iteration of megabytes varies from run to run, so the
// count is kept repeatable the way BenchmarkServeOpenCold keeps it: no
// collection inside an iteration, one outside it.
func BenchmarkProfileMicroPaper(b *testing.B) {
	w := core.NewWorkload(compress.NewTcomp32(), dataset.NewMicro(1))
	w.BatchBytes = 932800
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		if p := core.ProfileWorkload(w, 2, 0); p.Ratio <= 0 {
			b.Fatal("empty profile")
		}
	}
}

// --- extension benchmarks ---

func BenchmarkCompressDelta32Stock(b *testing.B) {
	benchCompress(b, compress.NewDelta32(), dataset.NewStock(1))
}

func BenchmarkCompressRLE32Micro(b *testing.B) {
	benchCompress(b, compress.NewRLE32(), dataset.NewMicro(1))
}

func BenchmarkCompressHuff8Sensor(b *testing.B) {
	benchCompress(b, compress.NewHuff8(), dataset.NewSensor(1))
}

// BenchmarkExtPlatformsJetson plans the paper's headline workload on the
// Jetson-class board (future-work portability).
func BenchmarkExtPlatformsJetson(b *testing.B) {
	m := amp.NewJetsonTX2()
	pl, err := core.NewPlanner(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := core.NewWorkload(compress.NewTcomp32(), dataset.NewRovio(1))
	w.BatchBytes = 64 * 1024
	prof := core.ProfileWorkload(w, 2, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep, err := pl.DeployProfile(w, prof, core.MechCStream)
		if err != nil || !dep.Feasible {
			b.Fatal("deployment failed")
		}
	}
}

// --- plan search and plan cache (public-API-era additions) ---

// BenchmarkSerialPlanSearch times the planner's full search, sched.Search
// (what core.Planner.searchPlan runs), on the task graph of a CStream
// deployment of the paper's headline workload.
func BenchmarkSerialPlanSearch(b *testing.B) {
	r := runner(b)
	w := core.NewWorkload(compress.NewTcomp32(), dataset.NewRovio(1))
	w.BatchBytes = 64 * 1024
	dep, err := r.Planner().DeployProfile(w, core.ProfileWorkload(w, 2, 0), core.MechCStream)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sched.Search(r.Planner().Model, dep.Graph, w.LSet)
		if len(res.Plan) != len(dep.Graph.Tasks) {
			b.Fatal("search failed")
		}
	}
}

// --- serve data plane (PR 10) ---

// BenchmarkServeFrameCodec measures the pooled frame codec round trip —
// WriteFrame's vectored encode plus ReadFrameInto's pooled decode — in
// isolation from compression and sockets. Steady-state this is the serve hot
// path's per-frame overhead and must not allocate: the benchdiff gate pins
// allocs/op to zero.
func BenchmarkServeFrameCodec(b *testing.B) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i >> 3)
	}
	fb := serve.AcquireFrameBuffer()
	defer fb.Release()
	var buf bytes.Buffer
	// One warm round trip sizes the write buffer and the pooled frame buffer.
	if err := serve.WriteFrame(&buf, serve.FrameData, 1, payload); err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(buf.Bytes())
	if _, err := serve.ReadFrameInto(rd, fb); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := serve.WriteFrame(&buf, serve.FrameData, 1, payload); err != nil {
			b.Fatal(err)
		}
		rd.Reset(buf.Bytes())
		f, err := serve.ReadFrameInto(rd, fb)
		if err != nil || len(f.Payload) != len(payload) {
			b.Fatalf("bad frame: %v", err)
		}
	}
}

// benchServeIngest pushes b.N batches end to end through a loopback ingest
// server — frame encode, socket, dispatch, compression pipeline, result frame
// back — split across the given number of concurrently pushing sessions on
// one multiplexed connection. Each client session is strict request/response,
// so `sessions` is also the number of server-side in-flight batches: the
// serial variant reproduces the old one-frame-at-a-time read loop, the
// multi-session variant measures what per-session dispatch overlaps.
func benchServeIngest(b *testing.B, sessions, maxInflight int) {
	srv, err := serve.New(serve.Config{Shards: 1, Seed: 42, ProfileBatches: 1, MaxInflight: maxInflight})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := serve.Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const batchLen = 4 << 10
	payload := make([]byte, batchLen)
	for i := range payload {
		payload[i] = byte(i >> 3)
	}
	sess := make([]*serve.ClientSession, sessions)
	for i := range sess {
		s, err := c.Open(serve.OpenRequest{Tenant: "bench", Algorithm: "delta32", SLO: "bronze", BatchBytes: batchLen})
		if err != nil {
			b.Fatal(err)
		}
		sess[i] = s
	}
	b.SetBytes(batchLen)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for si, s := range sess {
		n := b.N / sessions
		if si < b.N%sessions {
			n++
		}
		wg.Add(1)
		go func(s *serve.ClientSession, n int) {
			defer wg.Done()
			var res serve.Result
			for i := 0; i < n; i++ {
				if err := s.PushReuse(payload, &res); err != nil {
					b.Error(err)
					return
				}
			}
		}(s, n)
	}
	wg.Wait()
}

// BenchmarkServeIngestSerial is the baseline: one session, MaxInflight 1 —
// the strict serial read loop, where the socket round trip and the
// compression pipeline never overlap.
func BenchmarkServeIngestSerial(b *testing.B) { benchServeIngest(b, 1, 1) }

// BenchmarkServeIngest is the parallel data plane: eight sessions pushing
// concurrently over one connection. Throughput must stay at least 2x the
// serial baseline — the dispatch layer's reason to exist.
func BenchmarkServeIngest(b *testing.B) { benchServeIngest(b, 8, 64) }

// BenchmarkServeOpenCold measures cold session opens over loopback: each
// iteration builds a fresh four-shard server and, for every algorithm at
// 4 KiB and 16 KiB under silver and bronze, holds four sessions open (one per
// shard, since each open goes to the least-placed shard) and then closes
// them. The shards share the server's one planner, so the first open of a
// shape profiles and plans it and the other three attach to the memoized
// deployment. The open sequence, and so the work, is the same every
// iteration. The benchdiff gate pins its allocs/op,
// which count the profiling and planning a cold open pays.
//
// Client and server goroutines share sync.Pools, so how their Gets and Puts
// interleave moves the allocation count by a few per iteration. One P, no
// collection inside an iteration and emptied pools at its start keep the
// count repeatable, as the exact gate needs.
func BenchmarkServeOpenCold(b *testing.B) {
	algorithms := []string{"tcomp32", "tdic32", "lz4", "delta32", "rle32", "huff8"}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		srv, err := serve.New(serve.Config{Shards: 4, Seed: 42, ProfileBatches: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		c, err := serve.Dial(srv.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		for _, slo := range []string{"silver", "bronze"} {
			for _, alg := range algorithms {
				for _, batchBytes := range []int{4 << 10, 16 << 10} {
					var held [4]*serve.ClientSession
					for sh := range held {
						sess, err := c.Open(serve.OpenRequest{Tenant: "t", Algorithm: alg, SLO: slo, BatchBytes: batchBytes})
						if err != nil {
							b.Fatal(err)
						}
						if got := sess.Reply().Shard; got != sh {
							b.Fatalf("open %d of %s/%d/%s placed on shard %d", sh, alg, batchBytes, slo, got)
						}
						held[sh] = sess
					}
					for _, sess := range held {
						if err := sess.Close(); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		}
		c.Close()
		srv.Close()
	}
}

// BenchmarkPlanCacheAdaptation measures a replan served by the LRU plan
// cache (signature match, re-validation under the current model) against the
// full search that a cold planner would pay.
func BenchmarkPlanCacheAdaptation(b *testing.B) {
	m := amp.NewRK3399()
	pl, err := core.NewPlanner(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	pl.EnablePlanCache(16)
	w := core.NewWorkload(compress.NewTcomp32(), dataset.NewRovio(1))
	w.BatchBytes = 64 * 1024
	prof := core.ProfileWorkload(w, 2, 0)
	if _, err := pl.DeployProfile(w, prof, core.MechCStream); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep, err := pl.DeployProfile(w, prof, core.MechCStream)
		if err != nil {
			b.Fatal(err)
		}
		if len(dep.Plan) == 0 {
			b.Fatal("empty plan")
		}
	}
	b.StopTimer()
	if pl.PlanCacheStats().Hits < int64(b.N) {
		b.Fatal("replans were not served from the cache")
	}
}
