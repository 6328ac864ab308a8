// Package bitio provides bit-granular writers and readers used by the
// byte-unaligned stream compression encodings (tcomp32, tdic32, lz4 tokens).
//
// The writer packs bits LSB-first into a growing byte slice; the reader
// consumes them in the same order, so any sequence of WriteBits calls can be
// replayed with matching ReadBits calls.
//
// Both sides operate a word at a time: the writer gathers bits in a 64-bit
// accumulator and flushes whole little-endian words, the reader loads 8-byte
// windows and shifts. A kernel's hot loop keeps the accumulator in its own
// locals through Writer.Stage. The tests keep the original per-byte
// implementation as the oracle for differential fuzzing
// (FuzzBitioWordVsReference); the two must stay bit-exactly interchangeable.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned by Reader when fewer bits remain than requested.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of bit stream")

// Writer accumulates bits LSB-first into an internal buffer.
// The zero value is ready to use.
//
// Bits are staged in a 64-bit accumulator and flushed to the byte buffer as
// whole little-endian words, so a WriteBits call touches the slice at most
// once regardless of n.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits, LSB-first; only the low nAcc bits are set
	nAcc uint   // number of pending bits in acc, always < 64
}

// NewWriter returns a Writer with capacity for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBits appends the low n bits of v, LSB-first. n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits with n=%d > 64", n))
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	w.acc |= v << w.nAcc
	w.nAcc += n
	if w.nAcc >= 64 {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, w.acc)
		w.nAcc -= 64
		w.acc = 0
		if w.nAcc > 0 {
			// Shift count is 64-nAccOld < 64 here, so the carry bits of v
			// survive the shift.
			w.acc = v >> (n - w.nAcc)
		}
	}
}

// Stage is WriteBits for a hot loop that keeps the pending word in its own
// locals: it ORs tok onto acc, which holds n < 64 staged bits, and returns
// the new word and count. When 64 bits fill, Stage appends the whole word
// little-endian and keeps the carry bits staged. A staged run starts from
// acc, n = 0, 0 and ends with one WriteBits(acc, n). Stage inlines, so acc
// and n stay in registers across the loop rather than going through the
// writer on every token.
//
// Stage checks nothing. Its preconditions are:
//   - tok < 1<<k: no bit of tok is set at or above k;
//   - k ≤ 64;
//   - the writer has no pending bits when the staged run starts, as after
//     Reset, since Stage appends to the buffer directly.
func (w *Writer) Stage(acc uint64, n uint, tok uint64, k uint) (uint64, uint) {
	acc |= tok << n
	n += k
	if n >= 64 {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, acc)
		n -= 64
		// The shift count is 64 minus the old n, in [1, 64]; at 64 (no
		// carry) Go's shift yields 0.
		acc = tok >> (k - n)
	}
	return acc, n
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// WriteByte appends one full byte. It never fails; the error return satisfies
// io.ByteWriter.
func (w *Writer) WriteByte(b byte) error {
	w.WriteBits(uint64(b), 8)
	return nil
}

// WriteBytes appends a run of full bytes.
func (w *Writer) WriteBytes(p []byte) {
	if w.nAcc&7 == 0 {
		// Fast path: byte aligned. Drain whole pending bytes, then bulk copy.
		for w.nAcc > 0 {
			w.buf = append(w.buf, byte(w.acc))
			w.acc >>= 8
			w.nAcc -= 8
		}
		w.buf = append(w.buf, p...)
		return
	}
	for _, b := range p {
		w.WriteBits(uint64(b), 8)
	}
}

// Len returns the number of complete-or-partial bytes written so far.
func (w *Writer) Len() int { return int((w.BitLen() + 7) / 8) }

// BitLen returns the exact number of bits written so far.
func (w *Writer) BitLen() uint64 { return uint64(len(w.buf))*8 + uint64(w.nAcc) }

// Bytes returns the packed buffer. The final byte is zero-padded in its high
// bits if BitLen is not a multiple of 8. The returned slice aliases the
// writer's storage; it is valid until the next Write call.
func (w *Writer) Bytes() []byte {
	out := w.buf
	acc := w.acc
	for n := w.nAcc; n > 0; {
		out = append(out, byte(acc))
		acc >>= 8
		if n >= 8 {
			n -= 8
		} else {
			n = 0
		}
	}
	return out
}

// Reset discards all written bits, retaining the underlying storage.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.nAcc = 0
}

// Reader consumes bits LSB-first from a byte slice produced by Writer.
type Reader struct {
	buf  []byte
	pos  uint64 // bit cursor
	nBit uint64 // total readable bits
}

// NewReader returns a Reader over p, exposing len(p)*8 bits.
func NewReader(p []byte) *Reader {
	return &Reader{buf: p, nBit: uint64(len(p)) * 8}
}

// NewReaderBits returns a Reader over p exposing exactly nBits bits, which
// must not exceed len(p)*8.
func NewReaderBits(p []byte, nBits uint64) *Reader {
	if nBits > uint64(len(p))*8 {
		panic("bitio: NewReaderBits nBits exceeds buffer")
	}
	return &Reader{buf: p, nBit: nBits}
}

// ReadBits reads n bits (n in [0, 64]) and returns them LSB-aligned.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: ReadBits with n=%d > 64", n))
	}
	pos := r.pos
	if pos+uint64(n) > r.nBit {
		return 0, ErrUnexpectedEOF
	}
	i := pos >> 3
	if int(i)+8 <= len(r.buf) {
		// Fast path: an aligned-enough 8-byte window covers at least 57 bits
		// past the cursor; one extra byte covers the rest of any n <= 64.
		off := uint(pos & 7)
		v := binary.LittleEndian.Uint64(r.buf[i:]) >> off
		if avail := 64 - off; n > avail {
			// pos+n <= nBit <= len(buf)*8 guarantees byte i+8 exists when the
			// window falls short.
			v |= uint64(r.buf[i+8]) << avail
		}
		if n < 64 {
			v &= (1 << n) - 1
		}
		r.pos = pos + uint64(n)
		return v, nil
	}
	return r.readBitsSlow(n)
}

// readBitsSlow handles reads within 8 bytes of the end of the buffer, where
// the word-at-a-time window would run past the slice.
func (r *Reader) readBitsSlow(n uint) (uint64, error) {
	var v uint64
	var got uint
	for got < n {
		byteIdx := r.pos >> 3
		bitPos := uint(r.pos & 7)
		avail := 8 - bitPos
		take := n - got
		if take > avail {
			take = avail
		}
		chunk := uint64(r.buf[byteIdx]>>bitPos) & ((1 << take) - 1)
		v |= chunk << got
		got += take
		r.pos += uint64(take)
	}
	return v, nil
}

// Peek returns the bits from the cursor on, LSB-first, without consuming
// them: at least the low 57 are the buffer's, and bits past the end of the
// buffer read as zero. A decoder reads a token of up to 57 bits from it and
// consumes the token with Skip, which checks it against the readable bits.
func (r *Reader) Peek() uint64 {
	i := r.pos >> 3
	if i+8 <= uint64(len(r.buf)) {
		return binary.LittleEndian.Uint64(r.buf[i:]) >> (r.pos & 7)
	}
	return r.peekSlow()
}

// peekSlow is Peek within 8 bytes of the end of the buffer.
func (r *Reader) peekSlow() uint64 {
	var w [8]byte
	copy(w[:], r.buf[r.pos>>3:])
	return binary.LittleEndian.Uint64(w[:]) >> (r.pos & 7)
}

// Skip consumes n bits as ReadBits(n) would, without returning them.
func (r *Reader) Skip(n uint) error {
	if r.pos+uint64(n) > r.nBit {
		return ErrUnexpectedEOF
	}
	r.pos += uint64(n)
	return nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.nBit {
		return false, ErrUnexpectedEOF
	}
	b := r.buf[r.pos>>3] >> (r.pos & 7) & 1
	r.pos++
	return b == 1, nil
}

// ReadByte reads one full byte, satisfying io.ByteReader.
func (r *Reader) ReadByte() (byte, error) {
	v, err := r.ReadBits(8)
	return byte(v), err
}

// Remaining reports how many bits are left to read.
func (r *Reader) Remaining() uint64 { return r.nBit - r.pos }

// Offset returns the current bit cursor position.
func (r *Reader) Offset() uint64 { return r.pos }
