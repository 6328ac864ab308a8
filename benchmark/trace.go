package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names: one per call a generator makes into a layer, plus one per
// ladder rung. Spans inside the program under test are a later change; these
// are recorded from the benchmark's side of each layer boundary.
const (
	spanDial = iota
	spanOpen
	spanPush
	spanDecodeVerify
	spanClose
	spanNewSession
	spanOpenSegment
	spanReadBatch
	spanDecode
	spanRung // ladder rungs carry their name in rungNames, indexed by op
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"dial", "open", "push", "decode_verify", "close",
	"new_session", "open_segment", "read_batch", "decode", "rung",
}

// span is one timed call. Spans of one operation (one loop iteration of a
// generator: a push and its verification, or a whole attach cycle) share op;
// the first span of an operation is its root (parent -1) and the rest point
// at it.
type span struct {
	name       uint8
	parent     int32
	op         uint64
	start, end int64 // ns since the tracer's epoch
}

// tracer is one generator's in-memory span buffer. It is preallocated and
// owned by a single goroutine: recording is an append into spare capacity,
// and a full buffer drops (and counts) further spans rather than growing.
type tracer struct {
	gen     int
	epoch   time.Time
	spans   []span
	dropped int64
	// on gates recording; the traced run flips it per window or round so the
	// same phase yields traced and untraced throughput side by side.
	on bool
}

func newTracer(gen int, epoch time.Time, capacity int) *tracer {
	return &tracer{gen: gen, epoch: epoch, spans: make([]span, 0, capacity)}
}

// add records one span and returns its index (for use as a parent), or -1
// when tracing is off or the buffer is full. A nil tracer is the untraced run.
func (t *tracer) add(name uint8, op uint64, parent int32, start, end time.Time) int32 {
	if t == nil || !t.on {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		name: name, parent: parent, op: op,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
	})
	return int32(len(t.spans) - 1)
}

// writeSpans dumps every tracer's buffer as JSON: a name table and one
// compact row per span, [gen, index, parent, op, name, start_ns, end_ns].
func writeSpans(path string, tracers []*tracer, rungNames []string) (spans int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"columns\":[\"gen\",\"index\",\"parent\",\"op\",\"name\",\"start_ns\",\"end_ns\"],\n\"names\":[")
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprintf(w, "],\n\"rungs\":[")
	for i, n := range rungNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprintf(w, "],\n\"spans\":[\n")
	first := true
	for _, t := range tracers {
		for i, s := range t.spans {
			if !first {
				w.WriteString(",\n")
			}
			first = false
			fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d,%d]", t.gen, i, s.parent, s.op, s.name, s.start, s.end)
			spans++
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return spans, err
	}
	return spans, f.Close()
}
