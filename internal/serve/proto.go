// Package serve is the multi-tenant network front-end of the CStream
// reproduction: a length-prefixed, session-multiplexed TCP ingest protocol
// feeding sharded multi-stream runtimes, each session placed on the shard
// holding the fewest, with per-tenant admission control and an HTTP
// control/metrics plane.
//
// Many logical compression sessions share one TCP connection — every frame
// carries a session ID — so tens of thousands of concurrent sessions fit in
// a few dozen sockets. Frames on a connection are processed in arrival
// order; the natural TCP flow control is the backpressure mechanism (a slow
// shard stops reading, the client's writes stall).
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"repro/internal/compress"
	"repro/internal/recframe"
)

// Frame types of the wire protocol. Clients send Open/Data/Close; the server
// answers with OpenOK or Shed, Result, Closed, and Error.
const (
	// FrameOpen requests a new session; payload is an OpenRequest in JSON.
	FrameOpen = byte(iota + 1)
	// FrameOpenOK accepts a session; payload is an OpenReply in JSON.
	FrameOpenOK
	// FrameShed declines a session; payload is the shed reason string.
	FrameShed
	// FrameData pushes one batch of raw bytes to an open session.
	FrameData
	// FrameResult returns the compressed segments for one Data frame.
	FrameResult
	// FrameClose ends a session (client request).
	FrameClose
	// FrameClosed acknowledges the session teardown.
	FrameClosed
	// FrameError reports a per-session failure; payload is the message. The
	// session stays open unless the connection itself is torn down.
	FrameError
)

// MaxFrameBytes bounds a frame's advertised length. ReadFrame rejects larger
// frames before allocating their payload, so a corrupt or hostile length
// prefix cannot balloon memory.
const MaxFrameBytes = 8 << 20

// Framing errors, distinguishable with errors.Is.
var (
	// ErrFrameTooLarge reports a length prefix above MaxFrameBytes.
	ErrFrameTooLarge = recframe.ErrTooLarge
	// ErrFrameTooShort reports a length prefix below the fixed overhead.
	ErrFrameTooShort = recframe.ErrTooShort
	// ErrShed reports that the server declined a session at admission.
	ErrShed = errors.New("serve: session shed")
)

// Frame is one decoded protocol frame.
type Frame struct {
	// Type is one of the Frame* constants.
	Type byte
	// Session is the multiplexing ID, scoped to one TCP connection.
	Session uint32
	// Payload is the type-specific body (may be empty).
	Payload []byte
}

// FrameBuffer is a reusable frame-body buffer for ReadFrameInto. Buffers are
// drawn from a package-level sync.Pool via AcquireFrameBuffer and returned
// with Release, so steady-state frame reads perform no per-frame allocation:
// the body buffer grows to its high-water mark once and is then recycled
// across frames and connections.
//
// Ownership rule: a FrameBuffer has exactly one owner at a time. Whoever
// acquired it either reuses it for the next ReadFrameInto or Releases it —
// never both — and must not touch the previous frame's Payload (which
// aliases the buffer) after either. Release is not idempotent: releasing a
// buffer twice corrupts the pool.
type FrameBuffer struct {
	data  []byte
	fresh bool
}

var frameBufPool = sync.Pool{New: func() any { return &FrameBuffer{fresh: true} }}

// AcquireFrameBuffer returns a pooled frame buffer. Pair it with Release.
func AcquireFrameBuffer() *FrameBuffer {
	fb, _ := acquireFrameBuffer()
	return fb
}

// acquireFrameBuffer is AcquireFrameBuffer plus a report of whether the pool
// had to allocate a new buffer — the server's frame-pool metrics count both.
func acquireFrameBuffer() (fb *FrameBuffer, fresh bool) {
	fb = frameBufPool.Get().(*FrameBuffer)
	fresh = fb.fresh
	fb.fresh = false
	return fb, fresh
}

// Release returns the buffer to the pool. The caller must hold no alias into
// the buffer (in particular no Frame.Payload from a ReadFrameInto on it).
func (fb *FrameBuffer) Release() {
	frameBufPool.Put(fb)
}

// ReadFrame decodes one frame from r. A torn stream — EOF inside the length
// prefix or the body — surfaces as io.ErrUnexpectedEOF (io.EOF only on a
// clean boundary); an oversized or undersized length prefix fails with
// ErrFrameTooLarge / ErrFrameTooShort before any payload is allocated.
//
// The returned Payload is freshly allocated and owned by the caller; the
// steady-state data plane uses ReadFrameInto instead, which recycles body
// buffers through the frame pool.
func ReadFrame(r io.Reader) (Frame, error) {
	return ReadFrameInto(r, &FrameBuffer{})
}

// ReadFrameInto is ReadFrame reusing fb's body buffer: the returned
// Frame.Payload aliases fb and stays valid only until the buffer's next
// ReadFrameInto or Release. On error fb is untouched apart from scratch
// growth and may be reused. Once the buffer has grown to the connection's
// largest frame, reads allocate nothing.
func ReadFrameInto(r io.Reader, fb *FrameBuffer) (Frame, error) {
	if cap(fb.data) < recframe.HeaderLen {
		fb.data = make([]byte, 0, 4<<10)
	}
	hdr := fb.data[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, err
	}
	n, err := recframe.BodyLen(hdr, MaxFrameBytes)
	if err != nil {
		return Frame{}, err
	}
	if cap(fb.data) < n {
		fb.data = make([]byte, 0, n)
	}
	body := fb.data[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	typ, session, payload := recframe.Split(body)
	return Frame{Type: typ, Session: session, Payload: payload}, nil
}

// frameHeader pools the encoded wire header and the two-element vector list
// WriteFrame hands to the vectored write, so framing a payload allocates
// nothing. wr is the cursor actually handed to WriteTo: the write consumes
// it in place (advancing the slice base), so it must be distinct from vecs,
// which keeps the stable backing array — and it must live in the pooled
// struct, because WriteTo's pointer receiver would force a stack-local
// net.Buffers to escape on every frame.
type frameHeader struct {
	hdr  [recframe.HeaderLen]byte
	vecs net.Buffers
	wr   net.Buffers
}

var frameHeaderPool = sync.Pool{New: func() any {
	return &frameHeader{vecs: make(net.Buffers, 0, 2)}
}}

// WriteFrame encodes one frame to w. The header is built in pooled scratch
// and the payload joins it in a vectored write (writev on a TCP conn), so
// the payload bytes are never copied. Callers that share w across goroutines
// must serialize WriteFrame calls under their own lock — the server's
// connection writer and the client's write mutex both do — so frames never
// interleave.
func WriteFrame(w io.Writer, typ byte, session uint32, payload []byte) error {
	if len(payload) > MaxFrameBytes-recframe.Overhead {
		return fmt.Errorf("%w: %d payload bytes", ErrFrameTooLarge, len(payload))
	}
	fh := frameHeaderPool.Get().(*frameHeader)
	hdr := recframe.AppendHeader(fh.hdr[:0], len(payload), typ, session)
	var err error
	if len(payload) == 0 {
		_, err = w.Write(hdr)
	} else {
		fh.vecs = append(fh.vecs[:0], hdr, payload)
		fh.wr = fh.vecs
		_, err = fh.wr.WriteTo(w)
		// WriteTo consumed wr in place; clear the stable backing entries so
		// the pool does not pin the caller's payload memory.
		fh.vecs[0], fh.vecs[1] = nil, nil
		fh.wr = nil
	}
	frameHeaderPool.Put(fh)
	return err
}

// OpenRequest is the JSON payload of a FrameOpen.
type OpenRequest struct {
	// Tenant identifies the paying principal for admission and metrics.
	Tenant string `json:"tenant"`
	// Algorithm names the compression kernel (as compress.ByName accepts).
	Algorithm string `json:"algorithm"`
	// SLO names the service class, mapped server-side to a compressing
	// latency constraint (CLC).
	SLO string `json:"slo"`
	// BatchBytes is the session's batch size B; 0 takes the server default.
	// A size above the largest Data payload (MaxFrameBytes less the frame
	// header) is refused with a FrameError.
	BatchBytes int `json:"batch_bytes,omitempty"`
}

// OpenReply is the JSON payload of a FrameOpenOK.
type OpenReply struct {
	// Shard is the index of the multi-stream runtime hosting the session.
	Shard int `json:"shard"`
	// LSetUSPerByte is the CLC the SLO class resolved to.
	LSetUSPerByte float64 `json:"lset_us_per_byte"`
	// Feasible is the planner's verdict for the session's deployment.
	Feasible bool `json:"feasible"`
}

// Measure is the runtime's accounting for one served batch, mirrored to the
// client inside every Result.
type Measure struct {
	// LatencyPerByte is the simulated compressing latency (µs/B) stretched
	// by shard contention; EnergyPerByte is the simulated energy (µJ/B).
	LatencyPerByte, EnergyPerByte float64
	// Contention is the capacity-contention factor the batch saw.
	Contention float64
	// Violated reports whether the stretched latency broke the session CLC.
	Violated bool
}

// Result is one served batch: the real compressed segments plus the
// runtime's simulated measurement.
type Result struct {
	// Algorithm echoes the session's kernel, so Decode needs no context.
	Algorithm string
	// InputBytes is the pushed batch's size.
	InputBytes int
	// Segments are the per-slice compressed outputs, independently decodable.
	Segments []compress.Segment
	// TotalBits sums the segments' exact compressed bit lengths.
	TotalBits uint64
	// Measure is the batch's latency/energy accounting.
	Measure Measure
}

// Ratio returns compressed bits over input bits.
func (r *Result) Ratio() float64 {
	if r.InputBytes == 0 {
		return 0
	}
	return float64(r.TotalBits) / float64(r.InputBytes*8)
}

// Decode reconstructs the original batch bytes from the segments.
func (r *Result) Decode() ([]byte, error) {
	return compress.DecodeSegments(r.Algorithm, &compress.PipelineResult{
		Segments:   r.Segments,
		InputBytes: r.InputBytes,
		TotalBits:  r.TotalBits,
	})
}

// resultFixedLen is the Result payload's fixed block: input bytes, three
// float64 measures, the violation flag, the segment count. Each segment
// follows as a recframe metadata block and its bytes.
const resultFixedLen = 4 + 8*3 + 1 + 4

// resultPayloadLen returns the exact FrameResult payload size for res.
func resultPayloadLen(res *compress.PipelineResult) int {
	n := resultFixedLen
	for i := range res.Segments {
		n += recframe.SegmentMetaLen + len(res.Segments[i].Compressed)
	}
	return n
}

// appendResultFixed appends the fixed result block; change it only in
// lockstep with decodeResultInto.
func appendResultFixed(dst []byte, res *compress.PipelineResult, m Measure) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(res.InputBytes))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.LatencyPerByte))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.EnergyPerByte))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Contention))
	if m.Violated {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return binary.BigEndian.AppendUint32(dst, uint32(len(res.Segments)))
}

// resultScratch holds the reusable metadata buffer and vector list for
// writeResultFrame. Each connection writer owns one, serialized by its
// write lock.
type resultScratch struct {
	meta []byte
	vecs net.Buffers
	// wr is the consumable cursor handed to WriteTo; kept here rather than
	// in a local so the vectored write does not force an escape per result.
	wr net.Buffers
}

// writeResultFrame writes a FrameResult for res to w, byte-identical on the
// wire to WriteFrame(w, FrameResult, session, encodeResult(res, m)) with the
// tests' reference encoder, but zero-copy: the frame header, fixed block and
// per-segment metadata are encoded into rs's reused scratch, and the
// segments' compressed buffers join the vectored write in place — pipeline
// output reaches the socket without an intermediate payload copy. The caller must keep res alive (not
// Released) until writeResultFrame returns, and must serialize calls sharing
// w or rs.
func writeResultFrame(w io.Writer, session uint32, res *compress.PipelineResult, m Measure, rs *resultScratch) error {
	payloadLen := resultPayloadLen(res)
	if payloadLen > MaxFrameBytes-recframe.Overhead {
		return fmt.Errorf("%w: %d payload bytes", ErrFrameTooLarge, payloadLen)
	}
	// All metadata — frame header, fixed block, every segment's meta — lives
	// contiguously in rs.meta; the vector list interleaves slices of it with
	// the segments' own buffers. Pre-sizing is exact, so the appends below
	// never reallocate and the vector slices stay valid.
	metaNeed := recframe.HeaderLen + resultFixedLen + len(res.Segments)*recframe.SegmentMetaLen
	if cap(rs.meta) < metaNeed {
		rs.meta = make([]byte, 0, metaNeed)
	}
	nvec := 1 + 2*len(res.Segments)
	if cap(rs.vecs) < nvec {
		rs.vecs = make(net.Buffers, nvec)
	}
	meta := recframe.AppendHeader(rs.meta[:0], payloadLen, FrameResult, session)
	meta = appendResultFixed(meta, res, m)
	vecs := rs.vecs[:cap(rs.vecs)][:nvec]
	head := len(meta)
	for i := range res.Segments {
		s := &res.Segments[i]
		start := len(meta)
		meta = recframe.AppendSegmentMeta(meta, s)
		vecs[1+2*i] = meta[start:len(meta):len(meta)]
		vecs[2+2*i] = s.Compressed
	}
	vecs[0] = meta[:head:head]
	rs.meta = meta
	rs.wr = vecs
	_, err := rs.wr.WriteTo(w)
	// WriteTo consumed the cursor in place; clear the stable backing entries
	// so the scratch does not pin released segment buffers until the next
	// result.
	for i := range vecs {
		vecs[i] = nil
	}
	rs.wr = nil
	return err
}

// errTruncatedResult reports a Result payload shorter than its own counts.
var errTruncatedResult = errors.New("serve: truncated result payload")

// decodeResult unpacks a FrameResult payload. The segments' bytes are copied
// out of p, so the payload may alias a pooled frame buffer that is reused or
// released after the call.
func decodeResult(algorithm string, p []byte) (*Result, error) {
	r := &Result{}
	if err := decodeResultInto(r, algorithm, p); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeResultInto is decodeResult reusing r's segment slice and each
// segment's Compressed buffer past their high-water marks, so a caller that
// recycles one Result across batches decodes with no steady-state
// allocation. Every payload byte is copied out before return, which is what
// makes pooled frame buffers safe to recycle under the decoded result. On a
// truncated payload r is left partially overwritten but safe to reuse.
func decodeResultInto(r *Result, algorithm string, p []byte) error {
	rd := recframe.NewReader(p)
	r.Algorithm = algorithm
	r.InputBytes = int(rd.U32())
	r.Measure = Measure{
		LatencyPerByte: math.Float64frombits(rd.U64()),
		EnergyPerByte:  math.Float64frombits(rd.U64()),
		Contention:     math.Float64frombits(rd.U64()),
		Violated:       rd.U8() == 1,
	}
	r.TotalBits = 0
	// Count refuses a segment count the payload cannot hold, so the segment
	// slice never grows past what the payload describes.
	nsegs := rd.Count(recframe.SegmentMetaLen)
	if !rd.OK() {
		return errTruncatedResult
	}
	if cap(r.Segments) < nsegs {
		grown := make([]compress.Segment, nsegs)
		// Carry the old segments over so their Compressed buffers keep
		// getting recycled after growth.
		copy(grown, r.Segments[:cap(r.Segments)])
		r.Segments = grown
	} else {
		r.Segments = r.Segments[:nsegs]
	}
	for i := range r.Segments {
		sl := &r.Segments[i]
		clen := rd.SegmentMeta(sl)
		sl.Compressed = append(sl.Compressed[:0], rd.Bytes(clen)...)
		r.TotalBits += sl.BitLen
	}
	if !rd.OK() {
		return errTruncatedResult
	}
	return nil
}
