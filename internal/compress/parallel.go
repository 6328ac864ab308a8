package compress

import (
	"sync"

	"repro/internal/stream"
)

// Lock-contention cost weights for the shared-dictionary variant of tdic32
// (Fig. 5): every dictionary access pays an acquire/release cost plus a
// cacheline-bouncing term that grows with the number of contending threads.
const (
	tdicLockInstrBase      = 60
	tdicLockInstrPerThread = 90
	tdicLockMemBase        = 2.0
	tdicLockMemPerThread   = 1.0
)

// Tdic32ParallelResult reports the outcome of compressing one batch with
// multiple tdic32 worker threads (Section IV-B / Fig. 5).
type Tdic32ParallelResult struct {
	// PerThread holds each worker's compression result.
	PerThread []*Result
	// Ratio is the overall compression ratio across all workers.
	Ratio float64
	// SerialCost is work that must execute with the dictionary held
	// exclusively (zero for private dictionaries).
	SerialCost Cost
	// ParallelCost is work the threads perform concurrently.
	ParallelCost Cost
	// Shared records which variant ran.
	Shared bool
	// Threads is the worker count.
	Threads int
}

// TotalCost returns serial plus parallel cost.
func (r *Tdic32ParallelResult) TotalCost() Cost {
	c := r.SerialCost
	c.Add(r.ParallelCost)
	return c
}

// wordRange returns the i'th of n contiguous ranges partitioning size bytes,
// aligned to 32-bit words so every worker sees whole symbols; the last range
// takes the tail bytes.
func wordRange(size, n, i int) (lo, hi int) {
	words := size / 4
	lo = i * words / n * 4
	hi = (i + 1) * words / n * 4
	if i == n-1 {
		hi = size
	}
	return lo, hi
}

// splitWords returns all n ranges of wordRange.
func splitWords(size, n int) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		out[i][0], out[i][1] = wordRange(size, n, i)
	}
	return out
}

// CompressTdic32Parallel compresses one batch with the given number of
// worker threads. With shared=false each worker keeps a private dictionary
// (the framework's default); with shared=true all workers use one common
// dictionary whose accesses are serialized, reproducing the share/not-share
// comparison of Fig. 5. The shared variant interleaves workers
// deterministically (round-robin by word) so results are reproducible.
func CompressTdic32Parallel(b *stream.Batch, threads int, shared bool) *Tdic32ParallelResult {
	if threads < 1 {
		threads = 1
	}
	data := b.Bytes()
	ranges := splitWords(len(data), threads)
	res := &Tdic32ParallelResult{
		//lint:allow hotpathalloc experiment entry point (Fig. 5 reproduction), not a steady-state loop; callers retain the per-thread results
		PerThread: make([]*Result, threads),
		Shared:    shared,
		Threads:   threads,
	}

	if !shared {
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				sess := NewTdic32().NewSession()
				res.PerThread[t] = sess.CompressBatch(b.Slice(ranges[t][0], ranges[t][1]))
			}(t)
		}
		wg.Wait()
	} else {
		res.PerThread = compressTdic32Shared(b, ranges, threads)
	}

	var inBits, outBits float64
	stepOrder := NewTdic32().Steps()
	for t := 0; t < threads; t++ {
		r := res.PerThread[t]
		inBits += float64(r.InputBytes) * 8
		outBits += float64(r.BitLen)
		// Iterate steps in pipeline order so float accumulation is
		// deterministic.
		for _, kind := range stepOrder {
			st := r.Steps[kind]
			if shared && (kind == StepStateUpdate) {
				res.SerialCost.Add(st.Cost)
			} else {
				res.ParallelCost.Add(st.Cost)
			}
		}
	}
	if inBits > 0 {
		res.Ratio = outBits / inBits
	}
	return res
}

// compressTdic32Shared runs the shared-dictionary variant: one dictionary,
// deterministic round-robin interleaving, lock overhead charged to s2.
func compressTdic32Shared(b *stream.Batch, ranges [][2]int, threads int) []*Result {
	data := b.Bytes()
	shared := &tdic32Session{}
	lockCost := Cost{
		Instructions: tdicLockInstrBase + tdicLockInstrPerThread*float64(threads-1),
		MemAccesses:  tdicLockMemBase + tdicLockMemPerThread*float64(threads-1),
	}

	// Per-thread single-word scratch sessions share the one dictionary by
	// compressing word-sized slices through the shared session round-robin.
	//lint:allow hotpathalloc experiment path: per-call result slices are returned to the caller
	results := make([]*Result, threads)
	//lint:allow hotpathalloc experiment path: one small slice per invocation
	cursors := make([]int, threads)
	for t := range results {
		results[t] = &Result{}
		cursors[t] = ranges[t][0]
	}
	// Reuse the per-word compression path of tdic32Session by feeding it
	// 4-byte batches; accumulate into each thread's result.
	active := threads
	for active > 0 {
		active = 0
		for t := 0; t < threads; t++ {
			lo, hi := cursors[t], ranges[t][1]
			if lo+4 > hi {
				continue
			}
			active++
			word := stream.NewBatchBytes(b.Index, data[lo:lo+4])
			// The reuse path is safe here: every field of r is folded into
			// the accumulator before the next call overwrites the scratch.
			r := shared.CompressBatchReuse(word)
			acc := results[t]
			acc.InputBytes += 4
			//lint:allow hotpathalloc accumulated output is retained per thread and returned; no steady-state reuse is possible here
			acc.Compressed = append(acc.Compressed, r.Compressed...)
			acc.BitLen += r.BitLen
			for kind, st := range r.Steps {
				cur := &acc.Steps[kind]
				cur.Cost.Add(st.Cost)
				cur.OutBytes += st.OutBytes
				if StepKind(kind) == StepStateUpdate {
					cur.Cost.Add(lockCost)
				}
			}
			cursors[t] = lo + 4
		}
	}
	// Tail bytes of the last range are stored raw by a private pass.
	lastLo, lastHi := cursors[threads-1], ranges[threads-1][1]
	if lastLo < lastHi {
		sess := NewTdic32().NewSession()
		r := sess.CompressBatchReuse(b.Slice(lastLo, lastHi))
		acc := results[threads-1]
		acc.InputBytes += r.InputBytes
		acc.Compressed = append(acc.Compressed, r.Compressed...)
		acc.BitLen += r.BitLen
		for kind, st := range r.Steps {
			cur := &acc.Steps[kind]
			cur.Cost.Add(st.Cost)
			cur.OutBytes += st.OutBytes
		}
	}
	return results
}
