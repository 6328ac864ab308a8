// Package stream models the data-stream abstractions from the paper: tuples
// that arrive chronologically, batches of a tunable size B, and the bounded
// message-passing queues that connect decomposed compression tasks.
package stream

import (
	"errors"
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
// byte count, so Batch exposes both the tuple view and the flat byte view.
type Batch struct {
	// Index is the batch's position in the stream (0-based).
	Index int
	// Tuples are the events contained in the batch, in arrival order.
	Tuples []Tuple
	// data caches the flattened payload bytes.
	data []byte
}

// NewBatch assembles a batch from tuples, flattening their payloads.
func NewBatch(index int, tuples []Tuple) *Batch {
	total := 0
	for _, t := range tuples {
		total += len(t.Payload)
	}
	data := make([]byte, 0, total)
	for _, t := range tuples {
		data = append(data, t.Payload...)
	}
	return &Batch{Index: index, Tuples: tuples, data: data}
}

// NewBatchBytes wraps raw bytes as a single-tuple batch. Generators that
// produce flat byte streams use this to avoid per-tuple overhead.
func NewBatchBytes(index int, data []byte) *Batch {
	return &Batch{
		Index:  index,
		Tuples: []Tuple{{Seq: uint64(index), Payload: data}},
		data:   data,
	}
}

// Bytes returns the flattened payload bytes of the batch.
func (b *Batch) Bytes() []byte { return b.data }

// Size returns the batch size in bytes (the paper's B).
func (b *Batch) Size() int { return len(b.data) }

// Slice returns a sub-batch covering data[lo:hi], used when replicated tasks
// split a batch for data parallelism. Tuple boundaries are not preserved;
// replicas operate on byte ranges exactly as the paper's s2 threads do.
func (b *Batch) Slice(lo, hi int) *Batch {
	if lo < 0 || hi > len(b.data) || lo > hi {
		panic(fmt.Sprintf("stream: Slice [%d:%d) out of range 0..%d", lo, hi, len(b.data)))
	}
	return NewBatchBytes(b.Index, b.data[lo:hi])
}

// Split partitions the batch into n near-equal contiguous sub-batches.
func (b *Batch) Split(n int) []*Batch {
	if n <= 0 {
		panic("stream: Split with n <= 0")
	}
	out := make([]*Batch, 0, n)
	size := len(b.data)
	for i := 0; i < n; i++ {
		lo := i * size / n
		hi := (i + 1) * size / n
		out = append(out, b.Slice(lo, hi))
	}
	return out
}

// ErrClosed is the sentinel consumers may use to signal a torn-down queue
// to their callers; Queue itself follows channel semantics (Recv reports
// closure via its ok result, Send on a closed queue panics).
var ErrClosed = errors.New("stream: queue closed")

// Queue is a bounded FIFO connecting two pipeline tasks. It is a thin wrapper
// over a buffered channel so producer and consumer goroutines synchronize via
// message passing, matching the paper's inter-task communication model.
type Queue struct {
	ch chan *Message
}

// Message is one unit of inter-task communication: a chunk of (possibly
// partially compressed) data plus bookkeeping for the cost model.
type Message struct {
	// BatchIndex identifies the originating batch.
	BatchIndex int
	// Data is the payload handed downstream.
	Data []byte
	// Meta carries algorithm-specific side information between steps (e.g.
	// tcomp32 bit widths from encode to write).
	Meta any
	// Last marks the final message of a stream; consumers drain and stop.
	Last bool
}

// NewQueue creates a queue with the given buffer capacity (≥1).
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{ch: make(chan *Message, capacity)}
}

// Send enqueues m, blocking while the queue is full. Sending on a closed
// queue panics (a programming error), as with channels.
func (q *Queue) Send(m *Message) { q.ch <- m }

// Recv dequeues the next message, blocking while empty. ok is false once the
// queue is closed and drained.
func (q *Queue) Recv() (m *Message, ok bool) {
	m, ok = <-q.ch
	return m, ok
}

// Close marks the producer side finished.
func (q *Queue) Close() { close(q.ch) }

// Len reports the number of buffered messages.
func (q *Queue) Len() int { return len(q.ch) }

// Batcher groups tuples arriving on a channel into batches of at least
// batchBytes payload bytes — the "data stream is a list of tuples
// chronologically arriving" front end of a stream compression procedure
// (Definition 1 fixes B; the batcher closes each batch as soon as it
// reaches B). The final, possibly short batch is emitted when the input
// closes; out is closed afterwards.
func Batcher(in <-chan Tuple, batchBytes int, out chan<- *Batch) {
	if batchBytes < 1 {
		batchBytes = 1
	}
	var pending []Tuple
	size := 0
	index := 0
	for t := range in {
		pending = append(pending, t)
		size += t.Size()
		if size >= batchBytes {
			out <- NewBatch(index, pending)
			index++
			pending = nil
			size = 0
		}
	}
	if len(pending) > 0 {
		out <- NewBatch(index, pending)
	}
	close(out)
}
