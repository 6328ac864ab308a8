package bitio

import (
	"bytes"
	"testing"
)

// bitOp is one decoded fuzz operation: either WriteBits(v, n) or, when
// isBytes is set, WriteBytes(raw).
type bitOp struct {
	v       uint64
	n       uint
	isBytes bool
	raw     []byte
}

// decodeOps turns arbitrary fuzz input into a deterministic op sequence.
// Each 10-byte chunk yields one op; the selector byte routes ~1/4 of chunks
// to WriteBytes so the aligned bulk path and its pending-byte drain get
// exercised alongside arbitrary-width WriteBits.
func decodeOps(data []byte) []bitOp {
	var ops []bitOp
	for len(data) >= 10 {
		chunk := data[:10]
		data = data[10:]
		if chunk[0]&3 == 3 {
			k := int(chunk[9] % 9)
			ops = append(ops, bitOp{isBytes: true, raw: chunk[1 : 1+k]})
			continue
		}
		var v uint64
		for _, b := range chunk[1:9] {
			v = v<<8 | uint64(b)
		}
		ops = append(ops, bitOp{v: v, n: uint(chunk[9] % 65)})
	}
	return ops
}

// FuzzBitioWordVsReference proves the word-at-a-time Writer/Reader are
// bit-exactly interchangeable with the per-byte reference implementation for
// arbitrary (v, n) sequences: same packed bytes, same BitLen, same read-back
// values, and EOF at the same bit.
func FuzzBitioWordVsReference(f *testing.F) {
	f.Add([]byte{})
	// A 37-bit tcomp32-style token: 5-bit width header + 32-bit value.
	f.Add([]byte{0, 0, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 37})
	// Unaligned tail: 3 bits, then a WriteBytes run, then 61 bits.
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 0, 0, 0x05, 3,
		3, 1, 2, 3, 4, 5, 6, 7, 8, 8,
		0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 61,
	})
	// Exact 64-bit writes back to back.
	f.Add([]byte{
		0, 0xaa, 0xbb, 0xcc, 0xdd, 0x11, 0x22, 0x33, 0x44, 64,
		0, 0x55, 0x66, 0x77, 0x88, 0x99, 0x00, 0xee, 0xff, 64,
	})
	// Zero-width writes interleaved with single bits.
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		var w Writer
		var ref ReferenceWriter
		for _, op := range ops {
			if op.isBytes {
				w.WriteBytes(op.raw)
				ref.WriteBytes(op.raw)
			} else {
				w.WriteBits(op.v, op.n)
				ref.WriteBits(op.v, op.n)
			}
		}
		if w.BitLen() != ref.BitLen() {
			t.Fatalf("BitLen mismatch: word=%d reference=%d", w.BitLen(), ref.BitLen())
		}
		got, want := w.Bytes(), ref.Bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("packed bytes mismatch:\n  word      %x\n  reference %x", got, want)
		}
		if w.Len() != (int(w.BitLen())+7)/8 {
			t.Fatalf("Len()=%d want ceil(%d/8)", w.Len(), w.BitLen())
		}

		// Read the stream back through both readers with the same op widths,
		// plus one extra read past the end to check EOF agreement.
		// A third reader takes each read of up to 57 bits as Peek then Skip.
		r := NewReaderBits(want, ref.BitLen())
		rr := NewReferenceReaderBits(want, ref.BitLen())
		pr := NewReaderBits(want, ref.BitLen())
		for i, op := range ops {
			n := op.n
			if op.isBytes {
				n = uint(len(op.raw)) * 8
				if n > 64 {
					n = 64
				}
			}
			v1, err1 := r.ReadBits(n)
			v2, err2 := rr.ReadBits(n)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("op %d: error mismatch: word=%v reference=%v", i, err1, err2)
			}
			if err1 != nil {
				break
			}
			if v1 != v2 {
				t.Fatalf("op %d: ReadBits(%d) mismatch: word=%#x reference=%#x", i, n, v1, v2)
			}
			if n <= 57 {
				if v3, err3 := pr.Peek()&(1<<n-1), pr.Skip(n); err3 != nil || v3 != v2 {
					t.Fatalf("op %d: Peek/Skip(%d) = %#x, %v, want %#x", i, n, v3, err3, v2)
				}
			} else if _, err := pr.ReadBits(n); err != nil {
				t.Fatalf("op %d: ReadBits(%d) after Peek/Skip: %v", i, n, err)
			}
		}
		// Drain any remainder one bit at a time (slow-path tail coverage).
		for r.Remaining() > 0 {
			v1, err1 := r.ReadBits(1)
			v2, err2 := rr.ReadBits(1)
			if err1 != nil || err2 != nil {
				t.Fatalf("tail drain errored: word=%v reference=%v", err1, err2)
			}
			if v1 != v2 {
				t.Fatalf("tail bit mismatch at offset %d: word=%d reference=%d", r.Offset()-1, v1, v2)
			}
		}
		if _, err := r.ReadBits(1); err != ErrUnexpectedEOF {
			t.Fatalf("expected EOF after drain, got %v", err)
		}
	})
}
