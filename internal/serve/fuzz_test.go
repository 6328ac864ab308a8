package serve

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/recframe"
)

// FuzzFrameCodec drives ReadFrame with arbitrary byte streams. The invariants
// under test: a hostile length prefix never panics or allocates past
// MaxFrameBytes (it fails with the documented sentinel errors), a torn stream
// surfaces as io.ErrUnexpectedEOF rather than a silent short frame, and any
// frame ReadFrame accepts survives a WriteFrame→ReadFrame round trip intact,
// and the pooled ReadFrameInto agrees with ReadFrame on every input.
// The checked-in seed corpus (testdata/fuzz/FuzzFrameCodec) covers the
// boundary cases — oversized, undersized, truncated, zero-length, valid, and
// a result frame whose segment count its payload cannot hold — and replays
// on every plain `go test` run.
func FuzzFrameCodec(f *testing.F) {
	// A well-formed Data frame, built by the real encoder.
	var valid bytes.Buffer
	if err := WriteFrame(&valid, FrameData, 7, []byte("abc")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})                                         // zero-length input: clean io.EOF
	f.Add([]byte{0x00, 0x80})                               // torn length prefix
	f.Add([]byte{0x00, 0x80, 0x00, 0x01})                   // length > MaxFrameBytes
	f.Add([]byte{0x00, 0x00, 0x00, 0x02})                   // length < recframe.Overhead
	f.Add([]byte{0x00, 0x00, 0x00, 0x0a, 0x04, 0x00, 0x00}) // truncated body

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))

		// Differential: the pooled ReadFrameInto must classify every input
		// exactly like the allocating ReadFrame — same sentinel on rejection,
		// same frame on acceptance. A divergence means the zero-copy codec
		// changed the wire contract.
		fb := AcquireFrameBuffer()
		fr2, err2 := ReadFrameInto(bytes.NewReader(data), fb)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("ReadFrame err=%v but ReadFrameInto err=%v", err, err2)
		}
		if err != nil {
			for _, sentinel := range []error{ErrFrameTooLarge, ErrFrameTooShort, io.EOF, io.ErrUnexpectedEOF} {
				if errors.Is(err, sentinel) != errors.Is(err2, sentinel) {
					t.Fatalf("error class diverged: ReadFrame=%v ReadFrameInto=%v", err, err2)
				}
			}
		} else {
			if fr2.Type != fr.Type || fr2.Session != fr.Session || !bytes.Equal(fr2.Payload, fr.Payload) {
				t.Fatalf("pooled decode diverged: %+v != %+v", fr2, fr)
			}
		}
		fb.Release()

		if err != nil {
			// Rejections must be classifiable: one of the framing sentinels,
			// or an io error for a torn stream. Anything else is a new,
			// undocumented failure mode.
			switch {
			case errors.Is(err, ErrFrameTooLarge), errors.Is(err, ErrFrameTooShort):
			case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
			default:
				t.Fatalf("undocumented ReadFrame error: %v", err)
			}
			return
		}
		if len(fr.Payload) > MaxFrameBytes-recframe.Overhead {
			t.Fatalf("accepted payload of %d bytes, above the %d cap", len(fr.Payload), MaxFrameBytes-recframe.Overhead)
		}
		if fr.Type == FrameResult {
			// A result payload decodes or is refused as truncated, whatever
			// its counts claim.
			var r Result
			if err := decodeResultInto(&r, "tcomp32", fr.Payload); err != nil && !errors.Is(err, errTruncatedResult) {
				t.Fatalf("undocumented result decode error: %v", err)
			}
		}

		// Round trip: re-encoding an accepted frame and decoding it again
		// must reproduce it exactly.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr.Type, fr.Session, fr.Payload); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if got.Type != fr.Type || got.Session != fr.Session || !bytes.Equal(got.Payload, fr.Payload) {
			t.Fatalf("round trip changed the frame: %+v != %+v", got, fr)
		}
	})
}
