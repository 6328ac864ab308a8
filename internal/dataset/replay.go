package dataset

import (
	"fmt"
	"os"

	"repro/internal/stream"
)

// Replay serves batches from a raw byte buffer, the equivalent of the
// paper's setup where real datasets are loaded into memory before the
// experiment to exclude network/disk effects. Batches tile the buffer and
// wrap around, so any batch index is valid.
type Replay struct {
	// DatasetName labels the replayed data.
	DatasetName string
	// Data is the raw trace.
	Data []byte
	// Tuple is the framing width in bytes (defaults to 4).
	Tuple int
}

// NewReplay wraps an in-memory trace.
func NewReplay(name string, data []byte, tupleSize int) (*Replay, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("dataset: replay %q has no data", name)
	}
	if tupleSize <= 0 {
		tupleSize = 4
	}
	if len(data) < tupleSize {
		return nil, fmt.Errorf("dataset: replay %q smaller than one %d-byte tuple", name, tupleSize)
	}
	return &Replay{DatasetName: name, Data: data, Tuple: tupleSize}, nil
}

// LoadReplay reads a trace file from disk into memory.
func LoadReplay(name, path string, tupleSize int) (*Replay, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: load replay: %w", err)
	}
	return NewReplay(name, data, tupleSize)
}

// Name implements Generator.
func (r *Replay) Name() string { return r.DatasetName }

// TupleSize implements Generator.
func (r *Replay) TupleSize() int { return r.Tuple }

// Batch implements Generator: batch i covers bytes [i*size, (i+1)*size) of
// the trace, wrapping around its end, truncated to whole tuples.
func (r *Replay) Batch(index, size int) *stream.Batch {
	n := tupleCount(size, r.Tuple) * r.Tuple
	out := make([]byte, n)
	start := (index * n) % len(r.Data)
	// The first chunk runs from start to the trace's end; the rest tile the
	// trace from its beginning.
	for w := 0; w < n; start = 0 {
		w += copy(out[w:], r.Data[start:])
	}
	return stream.NewFramedBatch(index, out, r.Tuple)
}
