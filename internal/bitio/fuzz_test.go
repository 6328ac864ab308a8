package bitio

import (
	"bytes"
	"testing"
)

// bitOp is one decoded fuzz operation: either WriteBits(v, n) or, when
// isBytes is set, WriteBytes(raw). A staged op goes through Stage instead:
// v masked to its low n bits as one token, or each byte of raw as an 8-bit
// token.
type bitOp struct {
	v       uint64
	n       uint
	isBytes bool
	raw     []byte
	staged  bool
}

// decodeOps turns arbitrary fuzz input into a deterministic op sequence.
// Each 10-byte chunk yields one op; the selector byte routes ~1/4 of chunks
// to WriteBytes so the aligned bulk path and its pending-byte drain get
// exercised alongside arbitrary-width WriteBits, and its bit 2 marks the op
// staged.
func decodeOps(data []byte) []bitOp {
	var ops []bitOp
	for len(data) >= 10 {
		chunk := data[:10]
		data = data[10:]
		staged := chunk[0]&4 != 0
		if chunk[0]&3 == 3 {
			k := int(chunk[9] % 9)
			ops = append(ops, bitOp{isBytes: true, raw: chunk[1 : 1+k], staged: staged})
			continue
		}
		var v uint64
		for _, b := range chunk[1:9] {
			v = v<<8 | uint64(b)
		}
		ops = append(ops, bitOp{v: v, n: uint(chunk[9] % 65), staged: staged})
	}
	return ops
}

// writeRun writes one run of ops, all staged or all plain, to w and ref.
// A staged run starts from an empty staged word, stages every op's tokens
// (masked to their widths, as Stage requires) and ends with one
// WriteBits(acc, n), as a kernel's hot loop does.
func writeRun(w *Writer, ref *ReferenceWriter, run []bitOp) {
	for _, op := range run {
		if op.isBytes {
			ref.WriteBytes(op.raw)
		} else {
			ref.WriteBits(op.v, op.n)
		}
	}
	if !run[0].staged {
		for _, op := range run {
			if op.isBytes {
				w.WriteBytes(op.raw)
			} else {
				w.WriteBits(op.v, op.n)
			}
		}
		return
	}
	acc, n := uint64(0), uint(0)
	for _, op := range run {
		if op.isBytes {
			for _, b := range op.raw {
				acc, n = w.Stage(acc, n, uint64(b), 8)
			}
			continue
		}
		tok := op.v
		if op.n < 64 {
			tok &= 1<<op.n - 1
		}
		acc, n = w.Stage(acc, n, tok, op.n)
	}
	w.WriteBits(acc, n)
}

// FuzzBitioWordVsReference proves the word-at-a-time Writer/Reader are
// bit-exactly interchangeable with the per-byte reference implementation for
// arbitrary (v, n) sequences: same packed bytes, same BitLen, same read-back
// values, and EOF at the same bit. The ops are split into runs, each written
// through plain WriteBits/WriteBytes or staged through Stage, and the bytes
// must match the reference after every run.
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
	// Staged: k = 0, k = 64, then 37- and 61-bit tokens whose flushes carry
	// bits into the next word, then k = 0 and k = 64 with 34 bits staged.
	f.Add([]byte{
		4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0,
		4, 0xf0, 0x0d, 0xca, 0xfe, 0xba, 0xbe, 0x12, 0x34, 64,
		4, 0, 0, 0, 0x1f, 0xde, 0xad, 0xbe, 0xef, 37,
		4, 0x1f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 61,
		4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0,
		4, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 64,
	})
	// Staged tokens of 37 and 27 bits fill a word exactly, so the closing
	// WriteBits has n = 0. A plain 64-bit write keeps the writer without
	// pending bits, the next staged run (bytes, then 3 bits) continues
	// without Reset, and a plain 5-bit write follows it as a kernel's raw
	// tail does. The final staged run finds pending bits and resets first.
	f.Add([]byte{
		4, 0, 0, 0, 0x1f, 0xde, 0xad, 0xbe, 0xef, 37,
		4, 0, 0, 0, 0, 0x07, 0xff, 0xff, 0xff, 27,
		0, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 64,
		7, 1, 2, 3, 4, 5, 6, 7, 8, 8,
		4, 0, 0, 0, 0, 0, 0, 0, 0x05, 3,
		0, 0, 0, 0, 0, 0, 0, 0, 0x15, 5,
		4, 0, 0, 0, 0, 0, 0, 0, 0x2a, 6,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		var w Writer
		var ref ReferenceWriter
		var seg []bitOp // ops written since the last Reset
		for len(ops) > 0 {
			// A run is the longest prefix of ops that are all staged or all
			// plain. A staged run needs a writer without pending bits; when
			// it has some, read back what was written and start over on
			// Reset.
			end := 1
			for end < len(ops) && ops[end].staged == ops[0].staged {
				end++
			}
			run := ops[:end]
			ops = ops[end:]
			if run[0].staged && w.nAcc != 0 {
				checkReadBack(t, &w, &ref, seg)
				w.Reset()
				ref = ReferenceWriter{}
				seg = seg[:0]
			}
			writeRun(&w, &ref, run)
			seg = append(seg, run...)
			if w.BitLen() != ref.BitLen() || !bytes.Equal(w.Bytes(), ref.Bytes()) {
				t.Fatalf("after a run of %d ops: word %d bits %x, reference %d bits %x",
					len(run), w.BitLen(), w.Bytes(), ref.BitLen(), ref.Bytes())
			}
		}
		checkReadBack(t, &w, &ref, seg)
	})
}

// checkReadBack asserts that the stream w and ref both wrote from ops, whose
// bytes already matched, reads back identically through Reader and
// ReferenceReader with the ops' widths.
func checkReadBack(t *testing.T, w *Writer, ref *ReferenceWriter, ops []bitOp) {
	t.Helper()
	want := ref.Bytes()
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
}
