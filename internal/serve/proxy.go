package serve

import (
	"sync"

	"repro/internal/dataset"
	"repro/internal/stream"
)

// proxySlot is the server's one proxy generator behind a one-size slot: it
// keeps the batches generated for the most recent size, at most the
// profiling depth of them, and hands them out again when a later cold open
// profiles another algorithm at that size. A request at a new size starts the
// slot over, so it holds one size's batches however many sizes clients open.
//
// Batch is a pure function of (index, size) (the dataset.Generator
// contract), so a hit is byte-identical to a fresh generation; profiles only
// read their batches, so concurrent cold opens may share them. Name and
// TupleSize are the embedded generator's, so workload labels and plan-cache
// signatures are those of the bare generator.
type proxySlot struct {
	dataset.Generator

	mu sync.Mutex
	// size is the batch size every non-nil entry of batches was generated
	// at; batches[i] is batch i, or nil until generated. Its length is the
	// profiling depth and never changes, so a miss allocates nothing beyond
	// the generator's own batch.
	size    int
	batches []*stream.Batch
}

func newProxySlot(gen dataset.Generator, depth int) *proxySlot {
	return &proxySlot{Generator: gen, batches: make([]*stream.Batch, depth)}
}

// Batch implements dataset.Generator. Indices past the profiling depth pass
// through uncached. A miss generates outside the lock, so the batches
// core.ProfileWorkload generates side by side still generate in parallel.
func (p *proxySlot) Batch(index, size int) *stream.Batch {
	if index < 0 || index >= len(p.batches) {
		return p.Generator.Batch(index, size)
	}
	p.mu.Lock()
	if b := p.batches[index]; b != nil && p.size == size {
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	b := p.Generator.Batch(index, size)
	p.mu.Lock()
	if p.size != size {
		clear(p.batches)
		p.size = size
	}
	p.batches[index] = b
	p.mu.Unlock()
	return b
}
