package compress

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// This file implements the functional pipeline runtime: the executable
// counterpart of the scheduling graphs. A batch is cut into word-aligned
// slices, each slice runs the algorithm's fused kernel in a session of its
// own (private state, Section IV-B), and the compressed bytes are a pure
// function of (algorithm, batch, slices) — real output, verified against the
// decoders.
//
// Each algorithm declares its *cut points*: the maximal step groups the
// planner may place and replicate separately while preserving the exact
// output of the fused kernel:
//
//	tcomp32: {s0 read, s1 encode} | {s2 write}
//	tdic32:  {s0..s3 read/hash/dict/encode} | {s4 write}
//	lz4:     {s0 read, s1 hash} | {s2 dict, s3 match} | {s4 token write}
//
// On the host every slice runs the whole kernel; the cut points size the
// plan's worker vector, whose total bounds how many slices run side by side.
//
// Execution is caller-runs and self-scheduled (DESIGN.md "Slice executor"):
// participants claim the next slice from an atomic cursor and run it to
// completion. The calling goroutine is always a participant; transient
// helpers join it only when every participant gets at least helperShare
// input bytes, so small batches run inline with no hand-off at all. Run
// state and the per-slice kernel sessions are pooled, so a caller that
// Releases its results allocates nothing in steady state.

// StageSets returns an algorithm's pipeline cut points in order (nil for an
// algorithm without pipeline stages). The result is shared: do not modify it.
func StageSets(alg Algorithm) [][]StepKind {
	return stageSpecs[alg.Name()]
}

// stageSpecs maps algorithm names to their pipeline cut points.
var stageSpecs = map[string][][]StepKind{
	"tcomp32": {{StepRead, StepEncode}, {StepWrite}},
	"tdic32":  {{StepRead, StepPreprocess, StepStateUpdate, StepStateEncode}, {StepWrite}},
	"lz4":     {{StepRead, StepPreprocess}, {StepStateUpdate, StepStateEncode}, {StepWrite}},
	"delta32": {{StepRead, StepPreprocess, StepStateUpdate, StepStateEncode}, {StepWrite}},
	"rle32":   {{StepRead, StepEncode}, {StepWrite}},
	"huff8":   {{StepRead, StepEncode}, {StepWrite}},
}

// sliceSession is a kernel session the executor can run on a raw slice.
type sliceSession interface {
	Session
	compressBytes(data []byte) *Result
}

// sessionPools holds each algorithm's idle slice sessions. Pool ownership
// rule (DESIGN.md "Hot path"): a finished slice attaches its session, whose
// scratch the segment's bytes alias, to Segment.pooled, and only an explicit
// PipelineResult.Release returns it. Sessions keep their scratch capacity
// across uses, so the steady state allocates nothing.
var sessionPools = func() map[string]*sync.Pool {
	pools := make(map[string]*sync.Pool)
	for _, alg := range append(All(), Extensions()...) {
		pools[alg.Name()] = &sync.Pool{New: func() any { return alg.NewSession() }}
	}
	return pools
}()

// Segment is one slice's compressed output from a pipeline run.
type Segment struct {
	// SliceIndex orders segments within the batch.
	SliceIndex int
	// Compressed holds the packed bits.
	Compressed []byte
	// BitLen is the exact compressed bit count.
	BitLen uint64
	// OrigLen is the slice's uncompressed byte count, needed to decode.
	OrigLen int
	// pooled, when non-nil, is the kernel session whose scratch Compressed
	// aliases; PipelineResult.Release returns it for reuse.
	pooled sliceSession
}

// PipelineResult is the outcome of a pipelined, data-parallel compression of
// one batch.
type PipelineResult struct {
	// Segments are per-slice outputs in slice order; decode each
	// independently (replicas keep private state, Section IV-B).
	Segments []Segment
	// InputBytes is the batch size.
	InputBytes int
	// TotalBits sums segment bit lengths.
	TotalBits uint64
	// run, when non-nil, is the pooled run state this result lives in.
	run *pipelineRun
}

// Ratio is the compression ratio achieved (compressed bits / input bits).
func (r *PipelineResult) Ratio() float64 {
	if r.InputBytes == 0 {
		return 0
	}
	return float64(r.TotalBits) / float64(r.InputBytes*8)
}

// Release recycles the result: the segments' kernel sessions and, for
// results RunPipeline returned, the result itself go back to their pools
// for later runs. It is opt-in: a caller that is done with the result may
// call it once, and must not touch the result, its segments, or any slice
// aliasing them afterwards. Results that were never pooled are unaffected.
func (r *PipelineResult) Release() {
	run := r.run
	for i := range r.Segments {
		seg := &r.Segments[i]
		if seg.pooled != nil && run != nil {
			run.sessions.Put(seg.pooled)
		}
		seg.pooled = nil
		seg.Compressed = nil
	}
	if run != nil {
		r.run = nil
		run.sessions = nil
		runPool.Put(run)
	}
}

// StageObserver receives one callback per completed slice of pipeline work,
// with the algorithm's name as the stage; internal/trace.Recorder.Record
// satisfies it.
type StageObserver func(stage string, slice int, start, end time.Time)

// helperShare is the least input, in bytes, every participant of a run must
// get before helper goroutines join the caller, and the least input a slice
// is cut for (SliceCount). Below it a helper's wake-up costs more than the
// slices it would take (a 4 KiB batch compresses in under 10 µs); at the
// paper's B=932800 every planned worker clears it.
const helperShare = 64 << 10

// SliceCount is the number of data-parallel slices a batch of batchBytes is
// cut into: one per helperShare of input, at least one and at most
// maxSlices. A slice is the unit a participant claims, and no participant
// joins for less than helperShare, so a finer cut buys no parallelism —
// only a fresh kernel state and a segment header per slice.
func SliceCount(batchBytes, maxSlices int) int {
	return max(1, min(batchBytes/helperShare, maxSlices))
}

// pipelineRun is the pooled state of one RunPipeline call. The result the
// caller receives is &run.res, so a released result recycles the whole run.
type pipelineRun struct {
	res PipelineResult
	// data is the batch being compressed; slice i is its i'th wordRange.
	data     []byte
	sessions *sync.Pool
	name     string
	obs      StageObserver
	// done is the run's ctx.Done(), read once: participants poll it per
	// slice without taking the context's lock.
	done <-chan struct{}
	// cursor is the next unclaimed slice.
	cursor atomic.Int32
	// helpers joins the transient helper goroutines; the inline path never
	// touches it.
	helpers sync.WaitGroup
}

var runPool = sync.Pool{New: func() any { return new(pipelineRun) }}

// RunPipeline is RunPipelineContext without cancellation or observation.
func RunPipeline(alg Algorithm, b *stream.Batch, slices int, workers []int) (*PipelineResult, error) {
	return RunPipelineContext(context.Background(), alg, b, slices, workers, nil)
}

// RunPipelineContext compresses one batch split into `slices` word-aligned
// data-parallel slices, each run through the algorithm's fused kernel in a
// session of its own, so the output is bit-exact with CompressBatch run per
// slice whatever the worker counts. workers[i] is the plan's replication of
// pipeline stage i (see StageSets); their sum bounds how many goroutines —
// the caller included — compress slices side by side (see helperShare). obs,
// when non-nil, is called once per completed slice. When ctx is cancelled
// participants stop before their next slice and ctx.Err() is returned
// instead of a result. No goroutine outlives the call.
func RunPipelineContext(ctx context.Context, alg Algorithm, b *stream.Batch, slices int, workers []int, obs StageObserver) (*PipelineResult, error) {
	sets := stageSpecs[alg.Name()]
	if sets == nil {
		return nil, fmt.Errorf("compress: algorithm %q has no pipeline stages", alg.Name())
	}
	if len(workers) != len(sets) {
		return nil, fmt.Errorf("compress: %s has %d stages, got %d worker counts", alg.Name(), len(sets), len(workers))
	}
	if slices < 1 {
		slices = 1
	}
	data := b.Bytes()

	run := runPool.Get().(*pipelineRun)
	run.data, run.sessions, run.name = data, sessionPools[alg.Name()], alg.Name()
	run.obs, run.done = obs, ctx.Done()
	run.cursor.Store(0)
	if cap(run.res.Segments) < slices {
		run.res.Segments = make([]Segment, slices)
	}
	run.res.Segments = run.res.Segments[:slices]
	clear(run.res.Segments)

	// Width: the plan's worker total, but never more participants than
	// slices or than helperShare-sized shares of the batch.
	width := 0
	for _, n := range workers {
		width += max(n, 1)
	}
	width = min(width, slices, len(data)/helperShare)
	for h := 1; h < width; h++ {
		run.helpers.Add(1)
		go func() {
			defer run.helpers.Done()
			run.drain()
		}()
	}
	run.drain()
	if width > 1 {
		run.helpers.Wait()
	}

	run.data, run.obs, run.done = nil, nil, nil
	res := &run.res
	res.InputBytes, res.TotalBits = len(data), 0
	for i := range res.Segments {
		res.TotalBits += res.Segments[i].BitLen
	}
	res.run = run
	if err := ctx.Err(); err != nil {
		// Slices that finished before the cancellation hold pooled sessions.
		res.Release()
		return nil, err
	}
	return res, nil
}

// drain claims slices off the run's cursor and compresses each, until the
// cursor is exhausted or the run is cancelled.
func (r *pipelineRun) drain() {
	for {
		i := int(r.cursor.Add(1)) - 1
		if i >= len(r.res.Segments) {
			return
		}
		select {
		case <-r.done:
			return
		default:
		}
		if r.obs != nil {
			start := time.Now()
			r.compressSlice(i)
			r.obs(r.name, i, start, time.Now())
		} else {
			r.compressSlice(i)
		}
	}
}

// compressSlice runs slice i through a pooled session with fresh state and
// records its segment.
func (r *pipelineRun) compressSlice(i int) {
	lo, hi := wordRange(len(r.data), len(r.res.Segments), i)
	sess := r.sessions.Get().(sliceSession)
	sess.Reset()
	out := sess.compressBytes(r.data[lo:hi])
	r.res.Segments[i] = Segment{
		SliceIndex: i,
		Compressed: out.Compressed,
		BitLen:     out.BitLen,
		OrigLen:    hi - lo,
		pooled:     sess,
	}
}

// DecodeSegments reverses a PipelineResult for the given algorithm,
// reassembling the original batch bytes.
func DecodeSegments(algName string, res *PipelineResult) ([]byte, error) {
	out := make([]byte, 0, res.InputBytes)
	for _, seg := range res.Segments {
		var part []byte
		var err error
		switch algName {
		case "tcomp32":
			part, err = DecompressTcomp32(seg.Compressed, seg.BitLen, seg.OrigLen)
		case "tdic32":
			part, err = DecompressTdic32(seg.Compressed, seg.BitLen, seg.OrigLen)
		case "lz4":
			part, err = DecompressLZ4(seg.Compressed, seg.OrigLen)
		case "delta32":
			part, err = DecompressDelta32(seg.Compressed, seg.BitLen, seg.OrigLen)
		case "rle32":
			part, err = DecompressRLE32(seg.Compressed, seg.BitLen, seg.OrigLen)
		case "huff8":
			part, err = DecompressHuff8(seg.Compressed, seg.BitLen, seg.OrigLen)
		default:
			return nil, fmt.Errorf("compress: unknown algorithm %q", algName)
		}
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", seg.SliceIndex, err)
		}
		out = append(out, part...)
	}
	return out, nil
}
