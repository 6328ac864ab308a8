// Package recframe is the one record layout under the serve wire protocol
// and `.cseg` segment files. A frame is
//
//	[4]len [1]kind [4]seq payload [4]crc32c
//
// where len counts kind, seq and payload, every integer is big-endian, and
// only sealed frames (segments) carry the trailing CRC32C of the bytes len
// counts. A compressed segment travels as a SegmentMetaLen metadata block
// followed by its bytes in both formats. Each format keeps its own length
// cap.
package recframe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/compress"
)

const (
	// Overhead is the part of a frame's length that is not payload: kind
	// and seq.
	Overhead = 5
	// HeaderLen is the length prefix plus Overhead.
	HeaderLen = 4 + Overhead
	// CRCLen is the checksum a sealed frame appends.
	CRCLen = 4
	// SegmentMetaLen is one segment's metadata block: slice index, original
	// length, bit length, compressed length.
	SegmentMetaLen = 4 + 4 + 8 + 4
)

// Framing errors, distinguishable with errors.Is. ParseSealed wraps every
// failure in ErrCorrupt.
var (
	ErrTooLarge = errors.New("frame length exceeds its cap")
	ErrTooShort = errors.New("frame shorter than header")
	ErrCorrupt  = errors.New("corrupt frame")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32C (Castagnoli) of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// AppendHeader appends the header of a frame carrying payloadLen bytes.
func AppendHeader(dst []byte, payloadLen int, kind byte, seq uint32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(Overhead+payloadLen))
	dst = append(dst, kind)
	return binary.BigEndian.AppendUint32(dst, seq)
}

// BodyLen validates the 4-byte length prefix against max and returns the
// body length it announces (Overhead plus payload), so a hostile length is
// refused before anything is allocated for it.
func BodyLen(prefix []byte, max int) (int, error) {
	n := binary.BigEndian.Uint32(prefix)
	if n > uint32(max) {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if n < Overhead {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooShort, n)
	}
	return int(n), nil
}

// Split cuts a frame body of at least Overhead bytes into its fields; the
// payload aliases body.
func Split(body []byte) (kind byte, seq uint32, payload []byte) {
	return body[0], binary.BigEndian.Uint32(body[1:Overhead]), body[Overhead:]
}

// Begin appends the header of a sealed frame whose payload is appended next,
// and returns the frame's start for Seal.
func Begin(buf []byte, kind byte, seq uint32) ([]byte, int) {
	return AppendHeader(buf, 0, kind, seq), len(buf)
}

// Seal patches the length of the frame begun at start and appends its CRC.
func Seal(buf []byte, start int) []byte {
	body := buf[start+4:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(body)))
	return binary.BigEndian.AppendUint32(buf, Checksum(body))
}

// Frame is one sealed frame parsed in place.
type Frame struct {
	Kind    byte
	Seq     uint32
	Payload []byte // aliases the parsed bytes
	Size    int    // length prefix, body and CRC
}

// ParseSealed validates and decodes the sealed frame whose length prefix
// starts at data[off], with len at most max.
func ParseSealed(data []byte, off, max int) (Frame, error) {
	if off < 0 || off > len(data)-4 {
		return Frame{}, fmt.Errorf("%w: truncated length prefix at %d", ErrCorrupt, off)
	}
	n, err := BodyLen(data[off:], max)
	if err != nil {
		return Frame{}, fmt.Errorf("%w: %w at %d", ErrCorrupt, err, off)
	}
	end := off + 4 + n + CRCLen
	if end > len(data) {
		return Frame{}, fmt.Errorf("%w: frame at %d runs past EOF", ErrCorrupt, off)
	}
	body := data[off+4 : end-CRCLen]
	if Checksum(body) != binary.BigEndian.Uint32(data[end-CRCLen:]) {
		return Frame{}, fmt.Errorf("%w: CRC mismatch at %d", ErrCorrupt, off)
	}
	kind, seq, payload := Split(body)
	return Frame{Kind: kind, Seq: seq, Payload: payload, Size: end - off}, nil
}

// AppendSegmentMeta appends s's metadata block (not its bytes).
func AppendSegmentMeta(dst []byte, s *compress.Segment) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.SliceIndex))
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.OrigLen))
	dst = binary.BigEndian.AppendUint64(dst, s.BitLen)
	return binary.BigEndian.AppendUint32(dst, uint32(len(s.Compressed)))
}

// Reader is a sticky bounds-checked big-endian decoder: the first read past
// the end (or a refused Count) fails it, and every later read returns zero.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader reads b from its start.
func NewReader(b []byte) Reader { return Reader{b: b} }

// OK reports whether every read so far was in bounds.
func (r *Reader) OK() bool { return !r.bad }

// Len is the number of unread bytes (0 once the reader has failed).
func (r *Reader) Len() int { return len(r.b) }

// Bytes consumes n bytes and returns them aliasing the input, capacity
// capped at n; nil past the end.
func (r *Reader) Bytes(n int) []byte {
	if r.bad || n < 0 || n > len(r.b) {
		r.b, r.bad = nil, true
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// U8 consumes one byte.
func (r *Reader) U8() byte {
	if p := r.Bytes(1); p != nil {
		return p[0]
	}
	return 0
}

// U32 consumes a big-endian uint32.
func (r *Reader) U32() uint32 {
	if p := r.Bytes(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// U64 consumes a big-endian uint64.
func (r *Reader) U64() uint64 {
	if p := r.Bytes(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// Count consumes a uint32 element count and refuses (returning 0) a count
// the unread bytes cannot hold at minLen bytes per element, so a caller may
// allocate count elements before reading them.
func (r *Reader) Count(minLen int) int {
	n := uint64(r.U32())
	if n > uint64(len(r.b)/minLen) {
		r.b, r.bad = nil, true
		return 0
	}
	return int(n)
}

// SegmentMeta consumes one segment's metadata block into s and returns the
// compressed length it announces; s.Compressed is left to the caller.
func (r *Reader) SegmentMeta(s *compress.Segment) (clen int) {
	s.SliceIndex = int(r.U32())
	s.OrigLen = int(r.U32())
	s.BitLen = r.U64()
	return int(r.U32())
}
