package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/recframe"
)

// encodeResult packs a pipeline result and its measurement into a
// FrameResult payload: the plain reference encoder that writeResultFrame's
// vectored write must match byte for byte. It writes every field itself and
// shares no helper with the production encoder, so the comparison is
// between two encoders. The segments' bytes are copied, so the caller may
// Release the pipeline result immediately afterwards.
func encodeResult(res *compress.PipelineResult, m Measure) []byte {
	be := binary.BigEndian
	dst := be.AppendUint32(nil, uint32(res.InputBytes))
	dst = be.AppendUint64(dst, math.Float64bits(m.LatencyPerByte))
	dst = be.AppendUint64(dst, math.Float64bits(m.EnergyPerByte))
	dst = be.AppendUint64(dst, math.Float64bits(m.Contention))
	if m.Violated {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = be.AppendUint32(dst, uint32(len(res.Segments)))
	for _, s := range res.Segments {
		dst = be.AppendUint32(dst, uint32(s.SliceIndex))
		dst = be.AppendUint32(dst, uint32(s.OrigLen))
		dst = be.AppendUint64(dst, s.BitLen)
		dst = be.AppendUint32(dst, uint32(len(s.Compressed)))
		dst = append(dst, s.Compressed...)
	}
	return dst
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := WriteFrame(&buf, FrameData, 7, payload); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameData || f.Session != 7 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("bad frame %+v", f)
	}
	// Empty payload is legal (FrameClose).
	if err := WriteFrame(&buf, FrameClose, 9, nil); err != nil {
		t.Fatal(err)
	}
	f, err = ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameClose || f.Session != 9 || len(f.Payload) != 0 {
		t.Fatalf("bad empty frame %+v", f)
	}
}

func TestReadFrameTornStream(t *testing.T) {
	// Torn inside the length prefix: not even four bytes arrive.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn prefix: err = %v, want io.ErrUnexpectedEOF", err)
	}
	// Clean boundary: a bare EOF is io.EOF, so stream ends are distinguishable.
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("clean EOF: err = %v, want io.EOF", err)
	}
	// Torn inside the body: the prefix promises more bytes than arrive.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameData, 1, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	if _, err := ReadFrame(bytes.NewReader(whole[:len(whole)-3])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn body: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// shortReader yields the 4-byte prefix and then fails, proving ReadFrame
// rejected the advertised length before trying to read (or allocate) the
// body.
type prefixOnlyReader struct {
	prefix []byte
	off    int
}

func (r *prefixOnlyReader) Read(p []byte) (int, error) {
	if r.off >= len(r.prefix) {
		panic("serve: body read attempted after rejected length prefix")
	}
	n := copy(p, r.prefix[r.off:])
	r.off += n
	return n, nil
}

func TestReadFrameRejectsOversizedBeforeAllocation(t *testing.T) {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], MaxFrameBytes+1)
	_, err := ReadFrame(&prefixOnlyReader{prefix: prefix[:]})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsUndersized(t *testing.T) {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], recframe.Overhead-1)
	_, err := ReadFrame(&prefixOnlyReader{prefix: prefix[:]})
	if !errors.Is(err, ErrFrameTooShort) {
		t.Fatalf("err = %v, want ErrFrameTooShort", err)
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	err := WriteFrame(io.Discard, FrameData, 1, make([]byte, MaxFrameBytes))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestResultPayloadRoundTrip(t *testing.T) {
	res := &compress.PipelineResult{
		InputBytes: 1024,
		Segments: []compress.Segment{
			{SliceIndex: 0, Compressed: []byte{1, 2, 3}, BitLen: 17, OrigLen: 512},
			{SliceIndex: 1, Compressed: []byte{4, 5}, BitLen: 12, OrigLen: 512},
		},
		TotalBits: 29,
	}
	m := Measure{LatencyPerByte: 1.5, EnergyPerByte: 0.25, Contention: 2, Violated: true}
	out, err := decodeResult("tcomp32", encodeResult(res, m))
	if err != nil {
		t.Fatal(err)
	}
	if out.InputBytes != 1024 || out.TotalBits != 29 || out.Algorithm != "tcomp32" {
		t.Fatalf("bad result header %+v", out)
	}
	if out.Measure != m {
		t.Fatalf("measure = %+v, want %+v", out.Measure, m)
	}
	if len(out.Segments) != 2 {
		t.Fatalf("segments = %d", len(out.Segments))
	}
	for i := range res.Segments {
		want, got := res.Segments[i], out.Segments[i]
		if got.SliceIndex != want.SliceIndex || got.BitLen != want.BitLen ||
			got.OrigLen != want.OrigLen || !bytes.Equal(got.Compressed, want.Compressed) {
			t.Fatalf("segment %d: %+v != %+v", i, got, want)
		}
	}
}

func TestDecodeResultTruncated(t *testing.T) {
	res := &compress.PipelineResult{
		InputBytes: 8,
		Segments:   []compress.Segment{{Compressed: []byte{1, 2, 3, 4}, BitLen: 32, OrigLen: 8}},
		TotalBits:  32,
	}
	whole := encodeResult(res, Measure{})
	for _, cut := range []int{1, 10, len(whole) - 2} {
		if _, err := decodeResult("lz4", whole[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestDecodeResultHugeSegmentCount is a 33-byte result payload whose fixed
// block claims 2^28 segments and carries none. It must come back as
// errTruncatedResult before the segment slice grows, not as an
// unrecoverable out-of-memory crash.
func TestDecodeResultHugeSegmentCount(t *testing.T) {
	p := appendResultFixed(nil, &compress.PipelineResult{}, Measure{})
	binary.BigEndian.PutUint32(p[len(p)-4:], 1<<28)
	var r Result
	if err := decodeResultInto(&r, "tcomp32", p); !errors.Is(err, errTruncatedResult) {
		t.Fatalf("err = %v, want errTruncatedResult", err)
	}
	if cap(r.Segments) != 0 {
		t.Fatalf("segment slice grew to %d before the payload was checked", cap(r.Segments))
	}
}

// TestResultDecodeInconsistentSegment decodes well-framed results whose
// segment cannot describe the batch: one claims more bits than it
// carries, and used to panic in the bit reader; one claims a 4 GiB slice
// of no bits, and used to allocate it. Decode returns an error for both.
func TestResultDecodeInconsistentSegment(t *testing.T) {
	for _, res := range []*compress.PipelineResult{
		{
			InputBytes: 8,
			Segments:   []compress.Segment{{Compressed: []byte{1, 2, 3, 4}, BitLen: 33, OrigLen: 8}},
			TotalBits:  33,
		},
		{InputBytes: 1<<32 - 1, Segments: []compress.Segment{{OrigLen: 1<<32 - 1}}},
	} {
		r, err := decodeResult("tcomp32", encodeResult(res, Measure{}))
		if err != nil {
			t.Fatal(err)
		}
		if out, err := r.Decode(); err == nil {
			t.Fatalf("decoded %d bytes from a %d-byte slice in %d bits", len(out), res.InputBytes, res.Segments[0].BitLen)
		}
	}
}

func TestReadFrameIntoReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameData, 3, []byte("first payload")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, FrameResult, 4, []byte("2nd")); err != nil {
		t.Fatal(err)
	}
	fb := AcquireFrameBuffer()
	defer fb.Release()
	f, err := ReadFrameInto(&buf, fb)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameData || f.Session != 3 || string(f.Payload) != "first payload" {
		t.Fatalf("bad frame %+v", f)
	}
	firstCap := cap(fb.data)
	// The second, smaller frame must decode into the same backing array.
	f, err = ReadFrameInto(&buf, fb)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameResult || f.Session != 4 || string(f.Payload) != "2nd" {
		t.Fatalf("bad frame %+v", f)
	}
	if cap(fb.data) != firstCap {
		t.Fatalf("smaller frame regrew the buffer: cap %d -> %d", firstCap, cap(fb.data))
	}
}

// TestWriteResultFrameMatchesEncodeResult pins the vectored hot path to the
// allocating reference encoder byte for byte: writeResultFrame must emit
// exactly WriteFrame(FrameResult, encodeResult(res, m)), or remote results
// stop being byte-identical to the library path.
func TestWriteResultFrameMatchesEncodeResult(t *testing.T) {
	cases := []*compress.PipelineResult{
		{InputBytes: 64, TotalBits: 40, Segments: []compress.Segment{
			{SliceIndex: 0, Compressed: []byte{1, 2, 3, 4, 5}, BitLen: 40, OrigLen: 64},
		}},
		{InputBytes: 4096, TotalBits: 99, Segments: []compress.Segment{
			{SliceIndex: 0, Compressed: []byte{9}, BitLen: 7, OrigLen: 1024},
			{SliceIndex: 1, Compressed: nil, BitLen: 0, OrigLen: 1024},
			{SliceIndex: 2, Compressed: bytes.Repeat([]byte{0xAB}, 300), BitLen: 2400, OrigLen: 2048},
		}},
		{InputBytes: 8, TotalBits: 0, Segments: nil},
	}
	m := Measure{LatencyPerByte: 0.75, EnergyPerByte: 1.25, Contention: 3, Violated: true}
	var rs resultScratch
	for i, res := range cases {
		var want bytes.Buffer
		if err := WriteFrame(&want, FrameResult, 42, encodeResult(res, m)); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := writeResultFrame(&got, 42, res, m, &rs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("case %d: vectored frame diverges from reference encoding\n got %x\nwant %x", i, got.Bytes(), want.Bytes())
		}
		// Scratch reuse across differently-shaped results must not leak
		// previous vector entries: every vecs slot is cleared after WriteTo.
		for j, v := range rs.vecs[:cap(rs.vecs)] {
			if v != nil {
				t.Fatalf("case %d: vecs[%d] still pins %d bytes after write", i, j, len(v))
			}
		}
	}
}

func TestDecodeResultIntoReuse(t *testing.T) {
	m := Measure{LatencyPerByte: 2, EnergyPerByte: 0.5}
	big := &compress.PipelineResult{InputBytes: 2048, TotalBits: 1200, Segments: []compress.Segment{
		{SliceIndex: 0, Compressed: bytes.Repeat([]byte{1}, 100), BitLen: 800, OrigLen: 1024},
		{SliceIndex: 1, Compressed: bytes.Repeat([]byte{2}, 50), BitLen: 400, OrigLen: 1024},
	}}
	small := &compress.PipelineResult{InputBytes: 16, TotalBits: 8, Segments: []compress.Segment{
		{SliceIndex: 0, Compressed: []byte{7}, BitLen: 8, OrigLen: 16},
	}}

	var r Result
	for round, res := range []*compress.PipelineResult{big, small, big} {
		if err := decodeResultInto(&r, "delta32", encodeResult(res, m)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if r.InputBytes != res.InputBytes || r.TotalBits != res.TotalBits || len(r.Segments) != len(res.Segments) {
			t.Fatalf("round %d: header mismatch %+v", round, r)
		}
		for i := range res.Segments {
			want, got := res.Segments[i], r.Segments[i]
			if got.SliceIndex != want.SliceIndex || got.BitLen != want.BitLen ||
				got.OrigLen != want.OrigLen || !bytes.Equal(got.Compressed, want.Compressed) {
				t.Fatalf("round %d segment %d: %+v != %+v", round, i, got, want)
			}
		}
	}
	// Decoding into reused storage must copy the payload out: mutating the
	// encoded buffer afterwards cannot reach the decoded segments.
	enc := encodeResult(big, m)
	if err := decodeResultInto(&r, "delta32", enc); err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xFF
	}
	if !bytes.Equal(r.Segments[0].Compressed, big.Segments[0].Compressed) {
		t.Fatal("decoded segment aliases the wire buffer")
	}
}
