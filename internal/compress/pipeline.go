package compress

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitio"
	"repro/internal/stream"
)

// This file implements the functional pipeline runtime: the executable
// counterpart of the scheduling graphs. A batch is cut into word-aligned
// slices, each slice runs the algorithm's whole stage chain with private
// state, and the compressed bytes are a pure function of (algorithm, batch,
// slices) — real output, verified against the decoders.
//
// Each algorithm declares its *cut points*: maximal stage groups that are
// separately schedulable while preserving the exact output of the fused
// implementation:
//
//	tcomp32: {s0 read, s1 encode} | {s2 write}
//	tdic32:  {s0..s3 read/hash/dict/encode} | {s4 write}
//	lz4:     {s0 read, s1 hash} | {s2 dict, s3 match} | {s4 token write}
//
// Execution is caller-runs and self-scheduled (DESIGN.md "Slice executor"):
// participants claim the next slice from an atomic cursor and run it to
// completion. The calling goroutine is always a participant; transient
// helpers join it only when every participant gets at least helperShare
// input bytes, so small batches run inline with no hand-off at all. Run
// state, stage intermediates and segment output buffers are pooled, so a
// caller that Releases its results allocates nothing in steady state.

// StageSets returns an algorithm's pipeline cut points in order (nil for an
// algorithm without pipeline stages). The result is shared: do not modify it.
func StageSets(alg Algorithm) [][]StepKind {
	if spec := stageSpecs[alg.Name()]; spec != nil {
		return spec.sets
	}
	return nil
}

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
	// pooled, when non-nil, is the pool-owned buffer Compressed aliases;
	// PipelineResult.Release returns it for reuse.
	pooled any
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

// Release recycles the result: the segments' pool-owned output buffers and,
// for results RunPipeline returned, the result itself go back to their pools
// for later runs. It is opt-in: a caller that is done with the result may
// call it once, and must not touch the result, its segments, or any slice
// aliasing them afterwards. Results that were never pooled are unaffected.
func (r *PipelineResult) Release() {
	for i := range r.Segments {
		seg := &r.Segments[i]
		switch p := seg.pooled.(type) {
		case *segWriter:
			segWriterPool.Put(p)
		case *segBuf:
			segBufPool.Put(p)
		}
		seg.pooled = nil
		seg.Compressed = nil
	}
	if run := r.run; run != nil {
		r.run = nil
		runPool.Put(run)
	}
}

// sliceWork carries one slice through the stage chain.
type sliceWork struct {
	orig []byte
	// payload is the stage-specific intermediate representation, a pointer
	// to a pooled struct.
	payload any
	// seg is the finished output, set by the chain's last stage.
	seg Segment
}

// stageFunc transforms a slice's intermediate representation in place.
type stageFunc func(w *sliceWork)

// StageObserver receives one callback per completed (stage, slice) unit of
// pipeline work; internal/trace.Recorder.Record satisfies it.
type StageObserver func(stage string, slice int, start, end time.Time)

// helperShare is the least input, in bytes, every participant of a run must
// get before helper goroutines join the caller. Below it a helper's wake-up
// costs more than the slices it would take (a 4 KiB batch compresses in
// under 10 µs); at the paper's B=932800 every planned worker clears it.
const helperShare = 64 << 10

// pipelineRun is the pooled state of one RunPipeline call. The result the
// caller receives is &run.res, so a released result recycles the whole run.
type pipelineRun struct {
	res   PipelineResult
	works []sliceWork

	spec *stageSpec
	obs  StageObserver
	// done is the run's ctx.Done(), read once: participants poll it per
	// (stage, slice) without taking the context's lock.
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

// RunPipelineContext compresses one batch with the algorithm's pipeline
// stages, split into `slices` word-aligned data-parallel slices. Stateful
// algorithms keep per-slice private state, so the output is bit-exact with
// CompressBatch run per slice whatever the worker counts. workers[i] is the
// plan's replication of stage i; their sum bounds how many goroutines —
// the caller included — compress slices side by side (see helperShare). obs,
// when non-nil, is called once per completed (stage, slice). When ctx is
// cancelled participants stop at the next stage boundary and ctx.Err() is
// returned instead of a result. No goroutine outlives the call.
func RunPipelineContext(ctx context.Context, alg Algorithm, b *stream.Batch, slices int, workers []int, obs StageObserver) (*PipelineResult, error) {
	spec := stageSpecs[alg.Name()]
	if spec == nil {
		return nil, fmt.Errorf("compress: algorithm %q has no pipeline stages", alg.Name())
	}
	if len(workers) != len(spec.fns) {
		return nil, fmt.Errorf("compress: %s has %d stages, got %d worker counts", alg.Name(), len(spec.fns), len(workers))
	}
	if slices < 1 {
		slices = 1
	}
	data := b.Bytes()

	run := runPool.Get().(*pipelineRun)
	run.spec, run.obs, run.done = spec, obs, ctx.Done()
	run.cursor.Store(0)
	if cap(run.works) < slices {
		run.works = make([]sliceWork, slices)
		run.res.Segments = make([]Segment, slices)
	}
	run.works = run.works[:slices]
	run.res.Segments = run.res.Segments[:slices]
	for i := range run.works {
		lo, hi := wordRange(len(data), slices, i)
		run.works[i].orig = data[lo:hi]
	}

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

	run.obs, run.done = nil, nil
	res := &run.res
	res.InputBytes, res.TotalBits = len(data), 0
	for i := range run.works {
		w := &run.works[i]
		res.Segments[i] = w.seg
		res.TotalBits += w.seg.BitLen
		*w = sliceWork{}
	}
	res.run = run
	if err := ctx.Err(); err != nil {
		// Slices that finished before the cancellation hold pooled buffers.
		res.Release()
		return nil, err
	}
	return res, nil
}

// drain claims slices off the run's cursor and runs each through the whole
// stage chain, until the cursor is exhausted or the run is cancelled.
func (r *pipelineRun) drain() {
	for {
		i := int(r.cursor.Add(1)) - 1
		if i >= len(r.works) {
			return
		}
		w := &r.works[i]
		for si, fn := range r.spec.fns {
			select {
			case <-r.done:
				return
			default:
			}
			if r.obs != nil {
				start := time.Now()
				fn(w)
				r.obs(r.spec.names[si], i, start, time.Now())
			} else {
				fn(w)
			}
		}
		w.seg.SliceIndex = i
		w.seg.OrigLen = len(w.orig)
	}
}

// stageSpec is an algorithm's pipeline: its cut points, the runnable stage
// function of each, and each stage's observer-facing name (the first and
// last step of its cut point).
type stageSpec struct {
	sets  [][]StepKind
	fns   []stageFunc
	names []string
}

func newSpec(sets [][]StepKind, fns ...stageFunc) *stageSpec {
	spec := &stageSpec{sets: sets, fns: fns}
	for _, set := range sets {
		name := set[0].String()
		if len(set) > 1 {
			name += "+" + set[len(set)-1].String()
		}
		spec.names = append(spec.names, name)
	}
	return spec
}

// stageSpecs maps algorithm names to their pipelines.
var stageSpecs = map[string]*stageSpec{
	"tcomp32": newSpec([][]StepKind{{StepRead, StepEncode}, {StepWrite}},
		tcomp32StageEncode, tcomp32StageWrite),
	"tdic32": newSpec([][]StepKind{{StepRead, StepPreprocess, StepStateUpdate, StepStateEncode}, {StepWrite}},
		tdic32StageFront, tdic32StageWrite),
	"lz4": newSpec([][]StepKind{{StepRead, StepPreprocess}, {StepStateUpdate, StepStateEncode}, {StepWrite}},
		lz4StageReadHash, lz4StageMatch, lz4StageWrite),
	"delta32": newSpec([][]StepKind{{StepRead, StepPreprocess, StepStateUpdate, StepStateEncode}, {StepWrite}},
		delta32StageFront, delta32StageWrite),
	"rle32": newSpec([][]StepKind{{StepRead, StepEncode}, {StepWrite}},
		rle32StageScan, rle32StageWrite),
	"huff8": newSpec([][]StepKind{{StepRead, StepEncode}, {StepWrite}},
		huff8StageBuild, huff8StageWrite),
}

// --- intermediate and output pools ---
//
// Pool ownership rule (DESIGN.md "Hot path"): the stage that *consumes* an
// intermediate returns it to its pool; the stage that produces a segment
// attaches the pool-owned buffer to Segment.pooled, and only an explicit
// PipelineResult.Release recycles it. Pooled slices keep their capacity
// across uses, so the steady state allocates nothing.

var (
	tcPool        = sync.Pool{New: func() any { return new(tcIntermediate) }}
	tdPool        = sync.Pool{New: func() any { return new(tdIntermediate) }}
	lzHashPool    = sync.Pool{New: func() any { return new(lz4Hashed) }}
	lzSeqPool     = sync.Pool{New: func() any { return new(lz4Sequences) }}
	dlPool        = sync.Pool{New: func() any { return new(dlIntermediate) }}
	rlePool       = sync.Pool{New: func() any { return new(rleIntermediate) }}
	h8Pool        = sync.Pool{New: func() any { return new(h8Intermediate) }}
	segWriterPool = sync.Pool{New: func() any { return new(segWriter) }}
	segBufPool    = sync.Pool{New: func() any { return new(segBuf) }}
)

// segWriter wraps a bit writer whose buffer backs a Segment's output.
type segWriter struct {
	w bitio.Writer
}

// segBuf is a pooled raw output buffer (lz4's byte-oriented segments).
type segBuf struct {
	b []byte
}

// growU8 returns s resized to n elements, reallocating only when capacity is
// insufficient. Contents are unspecified.
func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

// growU32 is growU8 for []uint32.
func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

// growU64 is growU8 for []uint64.
func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// --- tcomp32 stages ---

type tcIntermediate struct {
	words  []uint32
	widths []uint8
	tail   []byte
}

func tcomp32StageEncode(w *sliceWork) {
	data := w.orig
	n := len(data) / 4
	im := tcPool.Get().(*tcIntermediate)
	im.words = growU32(im.words, n)
	im.widths = growU8(im.widths, n)
	im.tail = data[n*4:]
	for i := 0; i < n; i++ {
		v := binary.LittleEndian.Uint32(data[i*4:])
		im.words[i] = v
		im.widths[i] = uint8(symbolWidth(v))
	}
	w.payload = im
}

func tcomp32StageWrite(w *sliceWork) {
	im := w.payload.(*tcIntermediate)
	sw := segWriterPool.Get().(*segWriter)
	bw := &sw.w
	bw.Reset()
	for i, v := range im.words {
		n := uint(im.widths[i])
		bw.WriteBits(uint64(n-1)|uint64(v)<<5, 5+n)
	}
	for _, b := range im.tail {
		bw.WriteBits(uint64(b), 8)
	}
	im.tail = nil
	tcPool.Put(im)
	w.payload = nil
	w.seg = Segment{Compressed: bw.Bytes(), BitLen: bw.BitLen(), pooled: sw}
}

// --- tdic32 stages ---

type tdIntermediate struct {
	encoded []uint64
	bits    []uint8
	tail    []byte
}

func tdic32StageFront(w *sliceWork) {
	data := w.orig
	n := len(data) / 4
	im := tdPool.Get().(*tdIntermediate)
	im.encoded = growU64(im.encoded, n)
	im.bits = growU8(im.bits, n)
	im.tail = data[n*4:]
	var table [tdicTableSize]uint32
	var used [tdicTableSize]bool
	for i := 0; i < n; i++ {
		v := binary.LittleEndian.Uint32(data[i*4:])
		idx := tdicHash(v)
		if used[idx] && table[idx] == v {
			im.encoded[i] = uint64(idx)<<1 | 1
			im.bits[i] = TdicTableBits + 1
		} else {
			table[idx] = v
			used[idx] = true
			im.encoded[i] = uint64(v) << 1
			im.bits[i] = 33
		}
	}
	w.payload = im
}

func tdic32StageWrite(w *sliceWork) {
	im := w.payload.(*tdIntermediate)
	sw := segWriterPool.Get().(*segWriter)
	bw := &sw.w
	bw.Reset()
	for i, enc := range im.encoded {
		bw.WriteBits(enc, uint(im.bits[i]))
	}
	for _, b := range im.tail {
		bw.WriteBits(uint64(b), 8)
	}
	im.tail = nil
	tdPool.Put(im)
	w.payload = nil
	w.seg = Segment{Compressed: bw.Bytes(), BitLen: bw.BitLen(), pooled: sw}
}

// --- lz4 stages ---

type lz4Hashed struct {
	// hashes[i] is the hash of the 4 bytes at position i (valid for
	// i+4 ≤ len); the hash stage computes every position speculatively so
	// the match stage never recomputes.
	hashes []uint32
}

type lz4Seq struct {
	litStart, litEnd int // literal range in the slice
	offset, matchLen int // zero matchLen marks the terminator
}

type lz4Sequences struct {
	seqs []lz4Seq
}

func lz4StageReadHash(w *sliceWork) {
	src := w.orig
	n := len(src) - lz4MinMatch + 1
	if n < 0 {
		n = 0
	}
	im := lzHashPool.Get().(*lz4Hashed)
	im.hashes = growU32(im.hashes, n)
	h := im.hashes
	for i := 0; i < n; i++ {
		h[i] = lz4Hash(binary.LittleEndian.Uint32(src[i:]))
	}
	w.payload = im
}

func lz4StageMatch(w *sliceWork) {
	src := w.orig
	hashed := w.payload.(*lz4Hashed)
	var table [lz4TableSize]int32
	out := lzSeqPool.Get().(*lz4Sequences)
	out.seqs = out.seqs[:0]
	litStart := 0
	pos := 0
	for pos+lz4MinMatch <= len(src) {
		h := hashed.hashes[pos]
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		if cand >= 0 && pos-cand <= LZ4MaxSearch &&
			binary.LittleEndian.Uint32(src[cand:]) == binary.LittleEndian.Uint32(src[pos:]) {
			matchLen := lz4MinMatch
			for pos+matchLen < len(src) && src[cand+matchLen] == src[pos+matchLen] {
				matchLen++
			}
			//lint:allow hotpathalloc sequence count is data-dependent; the pooled backing array converges to the high-water mark, so steady-state appends stay in place
			out.seqs = append(out.seqs, lz4Seq{
				litStart: litStart, litEnd: pos,
				offset: pos - cand, matchLen: matchLen,
			})
			pos += matchLen
			litStart = pos
			continue
		}
		pos++
	}
	out.seqs = append(out.seqs, lz4Seq{litStart: litStart, litEnd: len(src)})
	lzHashPool.Put(hashed)
	w.payload = out
}

func lz4StageWrite(w *sliceWork) {
	src := w.orig
	seqs := w.payload.(*lz4Sequences)
	sb := segBufPool.Get().(*segBuf)
	if need := len(src) + len(src)/255 + 32; cap(sb.b) < need {
		sb.b = make([]byte, 0, need)
	}
	dst := sb.b[:0]
	for _, s := range seqs.seqs {
		dst = appendLZ4Sequence(dst, src[s.litStart:s.litEnd], s.offset, s.matchLen)
	}
	sb.b = dst
	lzSeqPool.Put(seqs)
	w.payload = nil
	w.seg = Segment{Compressed: dst, BitLen: uint64(len(dst)) * 8, pooled: sb}
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

// --- delta32 stages ---

type dlIntermediate struct {
	deltas []uint32
	widths []uint8
	tail   []byte
}

func delta32StageFront(w *sliceWork) {
	data := w.orig
	n := len(data) / 4
	im := dlPool.Get().(*dlIntermediate)
	im.deltas = growU32(im.deltas, n)
	im.widths = growU8(im.widths, n)
	im.tail = data[n*4:]
	var prev uint32
	for i := 0; i < n; i++ {
		v := binary.LittleEndian.Uint32(data[i*4:])
		z := zigzag(int32(v) - int32(prev))
		prev = v
		im.deltas[i] = z
		width := uint8(1)
		if z != 0 {
			width = uint8(bits.Len32(z))
		}
		im.widths[i] = width
	}
	w.payload = im
}

func delta32StageWrite(w *sliceWork) {
	im := w.payload.(*dlIntermediate)
	sw := segWriterPool.Get().(*segWriter)
	bw := &sw.w
	bw.Reset()
	for i, z := range im.deltas {
		n := uint(im.widths[i])
		bw.WriteBits(uint64(n-1)|uint64(z)<<5, 5+n)
	}
	for _, b := range im.tail {
		bw.WriteBits(uint64(b), 8)
	}
	im.tail = nil
	dlPool.Put(im)
	w.payload = nil
	w.seg = Segment{Compressed: bw.Bytes(), BitLen: bw.BitLen(), pooled: sw}
}

// --- rle32 stages ---

type rleRun struct {
	value  uint32
	length uint8 // 1..64
}

type rleIntermediate struct {
	runs []rleRun
	tail []byte
}

func rle32StageScan(w *sliceWork) {
	data := w.orig
	n := len(data) / 4
	im := rlePool.Get().(*rleIntermediate)
	im.runs = im.runs[:0]
	im.tail = data[n*4:]
	i := 0
	for i < n {
		v := binary.LittleEndian.Uint32(data[i*4:])
		runLen := 1
		for i+runLen < n && runLen < rle32MaxRun &&
			binary.LittleEndian.Uint32(data[(i+runLen)*4:]) == v {
			runLen++
		}
		//lint:allow hotpathalloc run count is data-dependent; the pooled backing array converges to the high-water mark, so steady-state appends stay in place
		im.runs = append(im.runs, rleRun{value: v, length: uint8(runLen)})
		i += runLen
	}
	w.payload = im
}

func rle32StageWrite(w *sliceWork) {
	im := w.payload.(*rleIntermediate)
	sw := segWriterPool.Get().(*segWriter)
	bw := &sw.w
	bw.Reset()
	for _, run := range im.runs {
		bw.WriteBits(uint64(run.length-1)|uint64(run.value)<<6, 38)
	}
	for _, b := range im.tail {
		bw.WriteBits(uint64(b), 8)
	}
	im.tail = nil
	rlePool.Put(im)
	w.payload = nil
	w.seg = Segment{Compressed: bw.Bytes(), BitLen: bw.BitLen(), pooled: sw}
}

// --- huff8 stages ---

type h8Intermediate struct {
	lengths [256]uint8
	codes   [256]uint32
}

func huff8StageBuild(w *sliceWork) {
	var freq [256]int
	for _, c := range w.orig {
		freq[c]++
	}
	im := h8Pool.Get().(*h8Intermediate)
	im.lengths = buildCodeLengths(&freq)
	im.codes = canonicalCodes(&im.lengths)
	w.payload = im
}

func huff8StageWrite(w *sliceWork) {
	im := w.payload.(*h8Intermediate)
	sw := segWriterPool.Get().(*segWriter)
	bw := &sw.w
	bw.Reset()
	for _, l := range im.lengths {
		bw.WriteBits(uint64(l), 5)
	}
	for _, c := range w.orig {
		l := uint(im.lengths[c])
		rev := bits.Reverse32(im.codes[c]) >> (32 - l)
		bw.WriteBits(uint64(rev), l)
	}
	h8Pool.Put(im)
	w.payload = nil
	w.seg = Segment{Compressed: bw.Bytes(), BitLen: bw.BitLen(), pooled: sw}
}
