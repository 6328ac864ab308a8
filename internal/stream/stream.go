// Package stream models the data-stream abstractions from the paper: tuples
// that arrive chronologically and batches of a tunable size B. A batch is
// held as its flat bytes plus the tuple width that frames them; the tuple
// view is derived on demand.
package stream

import (
	"fmt"
	"time"
)

// Tuple is one stream event: a timestamp plus an opaque payload. All three
// evaluated algorithms read payloads as a flat byte sequence, so the payload
// is kept as raw bytes; dataset generators control its framing (128-bit for
// Sensor, 64+64-bit for Rovio, 32+32-bit for Stock, 32-bit for Micro).
type Tuple struct {
	// Seq is the arrival sequence number within the stream.
	Seq uint64
	// Arrival is the event timestamp.
	Arrival time.Time
	// Payload is the raw event payload.
	Payload []byte
}

// Size returns the payload size in bytes.
func (t Tuple) Size() int { return len(t.Payload) }

// Batch is a contiguous run of stream bytes handed to one compression
// procedure invocation (Definition 1). The paper treats the batch size B as a
// byte count, so a batch is its flat bytes; the tuple width that frames them
// is kept alongside, and Tuples derives the tuple view from both.
type Batch struct {
	// Index is the batch's position in the stream (0-based).
	Index int
	// data is the batch's payload bytes, tuples back to back.
	data []byte
	// tupleSize is the framing width in bytes; 0 frames the whole batch as
	// one tuple.
	tupleSize int
}

// NewBatchBytes wraps raw bytes as a batch framed as one tuple.
func NewBatchBytes(index int, data []byte) *Batch {
	return &Batch{Index: index, data: data}
}

// NewFramedBatch wraps flat bytes framed as back-to-back tupleSize-byte
// tuples, as dataset generators produce them. The bytes are not copied.
func NewFramedBatch(index int, data []byte, tupleSize int) *Batch {
	return &Batch{Index: index, data: data, tupleSize: tupleSize}
}

// Bytes returns the flattened payload bytes of the batch.
func (b *Batch) Bytes() []byte { return b.data }

// Size returns the batch size in bytes (the paper's B).
func (b *Batch) Size() int { return len(b.data) }

// Tuples returns the batch's events in arrival order. Payloads alias the
// batch bytes. A framed batch yields one tuple per whole tupleSize bytes,
// numbered Index<<32 | i; an unframed one is a single tuple numbered Index.
// Nothing on the data path reads tuples, so the view is built per call.
func (b *Batch) Tuples() []Tuple {
	if b.tupleSize <= 0 {
		return []Tuple{{Seq: uint64(b.Index), Payload: b.data}}
	}
	tuples := make([]Tuple, len(b.data)/b.tupleSize)
	for i := range tuples {
		tuples[i] = Tuple{
			Seq:     uint64(b.Index)<<32 | uint64(i),
			Payload: b.data[i*b.tupleSize : (i+1)*b.tupleSize],
		}
	}
	return tuples
}

// Slice returns a sub-batch covering data[lo:hi], used when replicated tasks
// split a batch for data parallelism. Tuple boundaries are not preserved;
// replicas operate on byte ranges exactly as the paper's s2 threads do.
func (b *Batch) Slice(lo, hi int) *Batch {
	if lo < 0 || hi > len(b.data) || lo > hi {
		panic(fmt.Sprintf("stream: Slice [%d:%d) out of range 0..%d", lo, hi, len(b.data)))
	}
	return NewBatchBytes(b.Index, b.data[lo:hi])
}
