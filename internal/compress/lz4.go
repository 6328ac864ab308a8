package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/stream"
)

// LZ4 block-format parameters (simplified per Algorithm 5 of the paper).
const (
	lz4HashBits  = 13
	lz4TableSize = 1 << lz4HashBits
	lz4MinMatch  = 4
	// LZ4MaxSearch is ml in Algorithm 5: the maximum backward-search window.
	LZ4MaxSearch = 65535
)

// Cost weights for lz4, mostly per input byte, with per-match and
// per-sequence terms. They give s2 (state update) a κ that falls with
// vocabulary duplication and s3 (state-based encoding) a κ that rises with
// it, the two opposing trends behind Fig. 12.
const (
	lz4ReadInstr = 25.0
	lz4ReadMem   = 3.75

	lz4HashInstr = 75.0
	lz4HashMem   = 0.25

	lz4TableReadInstr   = 12.5
	lz4TableReadMem     = 3.75
	lz4TableUpdateInstr = 30.0
	lz4TableUpdateMem   = 3.75
	// Per input byte: clearing buffer contents older than bytePointer-ml
	// (Algorithm 5 line 12) runs for every byte, even inside matches.
	lz4WindowInstr = 5.0
	lz4WindowMem   = 2.5

	lz4MatchByteInstr   = 62.5
	lz4MatchByteMem     = 2.0
	lz4LiteralByteInstr = 10.0
	lz4LiteralByteMem   = 1.25

	lz4WriteLiteralInstr = 15.0
	lz4WriteLiteralMem   = 3.0
	lz4WriteSeqInstr     = 150.0
	lz4WriteSeqMem       = 10.0
)

// LZ4 is the paper's simplified LZ77-based stateful stream compression
// (Algorithm 5): a hash table replaces the classic dictionary, literals
// accumulate between matches, and each match emits an lz4 token.
type LZ4 struct{}

// NewLZ4 returns the lz4 algorithm.
func NewLZ4() *LZ4 { return &LZ4{} }

// Name implements Algorithm.
func (*LZ4) Name() string { return "lz4" }

// Stateful implements Algorithm.
func (*LZ4) Stateful() bool { return true }

// Steps implements Algorithm: s0 read, s1 hash, s2 state update, s3
// match search / literal tracking, s4 token write.
func (*LZ4) Steps() []StepKind {
	return []StepKind{StepRead, StepPreprocess, StepStateUpdate, StepStateEncode, StepWrite}
}

// NewSession implements Algorithm. Match offsets cannot cross batch
// boundaries (each batch is an independent procedure run, Definition 1), so
// the hash table is cleared per batch.
func (*LZ4) NewSession() Session { return &lz4Session{} }

type lz4Session struct {
	dst []byte
	res Result
}

// Reset implements Session.
func (*lz4Session) Reset() {}

func lz4Hash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lz4HashBits)
}

// CompressBatch implements Session, producing a standard-style lz4 block:
// sequences of [token][literal-length ext][literals][offset][match-length
// ext], terminated by a literals-only sequence.
func (s *lz4Session) CompressBatch(b *stream.Batch) *Result {
	return cloneResult(s.CompressBatchReuse(b))
}

// CompressBatchReuse implements Session: the zero-steady-state-allocation
// path. The output block is built in the session-owned dst buffer, which
// grows to the working-set size on the first call and is reused afterwards.
//
// The loop counts events (probes, matched bytes, literal bytes, sequences)
// and the cost tallies are the counts times the constants, once per call.
// Every lz4 constant is a multiple of 1/4 and every partial sum stays far
// below 2^51, so the per-event float sums this replaces were exact and the
// products give the same Cost bits.
func (s *lz4Session) CompressBatchReuse(b *stream.Batch) *Result {
	return s.compressBytes(b.Bytes())
}

// compressBytes is CompressBatchReuse on raw bytes; the slice executor
// calls it per slice so no stream.Batch is built.
func (s *lz4Session) compressBytes(src []byte) *Result {
	res := &s.res
	resetResult(res, len(src))

	// table holds position+1 per hash, 0 = empty. The empty uint64 field
	// aligns it to 8 bytes so the per-call clear runs as whole-word stores:
	// a plain [N]int32 can land 4-byte aligned in the frame, which made the
	// clear ~5× slower and dominated 1–2 KiB slices.
	var table struct {
		_    [0]uint64
		slot [lz4TableSize]int32
	}
	if need := len(src) + len(src)/255 + 32; cap(s.dst) < need {
		s.dst = make([]byte, 0, need)
	}
	dst := s.dst[:0]
	litStart := 0
	probes := 0       // s1 hashes and s2 table probes, one per position tried
	matches := 0      // probes that found a match
	matchedBytes := 0 // s3 match extension, per matched byte
	literalBytes := 0 // literals carried by the emitted sequences
	sequences := 0

	pos := 0
	for pos+lz4MinMatch <= len(src) {
		// s1: hash the newest 32 bits; s2: dictionary probe + update.
		v := binary.LittleEndian.Uint32(src[pos:])
		h := lz4Hash(v)
		cand := int(table.slot[h]) - 1
		table.slot[h] = int32(pos + 1)
		probes++

		if cand >= 0 && pos-cand <= LZ4MaxSearch &&
			binary.LittleEndian.Uint32(src[cand:]) == v {
			// s3: expand the match forward ("backward searching" in the
			// buffer relative to the stream head).
			matchLen := lz4MatchLen(src, cand, pos)

			// s4: emit the sequence token.
			dst = appendLZ4Sequence(dst, src[litStart:pos], pos-cand, matchLen)
			matches++
			sequences++
			matchedBytes += matchLen
			literalBytes += pos - litStart

			pos += matchLen
			litStart = pos
			continue
		}
		pos++
	}
	// Final literals-only sequence.
	dst = appendLZ4Sequence(dst, src[litStart:], 0, 0)
	sequences++
	literalBytes += len(src) - litStart

	read := &res.Steps[StepRead]
	pre := &res.Steps[StepPreprocess]
	upd := &res.Steps[StepStateUpdate]
	enc := &res.Steps[StepStateEncode]
	wr := &res.Steps[StepWrite]
	fn := float64(len(src))
	fp := float64(probes)
	// s3 tallies each literal twice: once at the position that found no
	// match, and once in the sequence that carries it.
	flit := float64(probes-matches) + float64(literalBytes)
	// s0: every input byte enters the sliding buffer.
	read.Cost.Instructions = lz4ReadInstr * fn
	read.Cost.MemAccesses = lz4ReadMem * fn
	pre.Cost.Instructions = lz4HashInstr * fp
	pre.Cost.MemAccesses = lz4HashMem * fp
	// s2 window maintenance runs per input byte regardless of matches, so
	// heavy matching (high vocabulary duplication) dilutes s2's probe work
	// and lowers its operational intensity.
	upd.Cost.Instructions = lz4WindowInstr*fn + (lz4TableReadInstr+lz4TableUpdateInstr)*fp
	upd.Cost.MemAccesses = lz4WindowMem*fn + (lz4TableReadMem+lz4TableUpdateMem)*fp
	enc.Cost.Instructions = lz4MatchByteInstr*float64(matchedBytes) + lz4LiteralByteInstr*flit
	enc.Cost.MemAccesses = lz4MatchByteMem*float64(matchedBytes) + lz4LiteralByteMem*flit
	wr.Cost.Instructions = lz4WriteSeqInstr*float64(sequences) + lz4WriteLiteralInstr*float64(literalBytes)
	wr.Cost.MemAccesses = lz4WriteSeqMem*float64(sequences) + lz4WriteLiteralMem*float64(literalBytes)

	s.dst = dst // keep any growth for the next call
	res.Compressed = dst
	res.BitLen = uint64(len(dst)) * 8
	read.OutBytes = len(src)
	pre.OutBytes = len(src) + len(src)/2
	upd.OutBytes = len(src)
	enc.OutBytes = literalBytes + sequences*8
	wr.OutBytes = len(dst)
	return res
}

// lz4MatchLen returns how many bytes of src from pos equal those from cand,
// given that the first lz4MinMatch do. It compares 8 bytes at a time while
// a whole word remains: the lowest set bit of the XOR of the two words is
// in the first byte that differs.
func lz4MatchLen(src []byte, cand, pos int) int {
	n := lz4MinMatch
	for pos+n+8 <= len(src) {
		if x := binary.LittleEndian.Uint64(src[pos+n:]) ^ binary.LittleEndian.Uint64(src[cand+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for pos+n < len(src) && src[cand+n] == src[pos+n] {
		n++
	}
	return n
}

// appendLZ4Sequence emits one sequence. A zero matchLen marks the
// terminating literals-only sequence (no offset field).
func appendLZ4Sequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	var token byte
	if litLen >= 15 {
		token = 0xF0
	} else {
		token = byte(litLen) << 4
	}
	mlCode := 0
	if matchLen > 0 {
		mlCode = matchLen - lz4MinMatch
		if mlCode >= 15 {
			token |= 0x0F
		} else {
			token |= byte(mlCode)
		}
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendLenExt(dst, litLen-15)
	}
	dst = append(dst, literals...)
	if matchLen > 0 {
		dst = append(dst, byte(offset), byte(offset>>8))
		if mlCode >= 15 {
			dst = appendLenExt(dst, mlCode-15)
		}
	}
	return dst
}

// appendLenExt encodes the lz4 extended-length convention: 255-valued bytes
// followed by a final byte < 255.
func appendLenExt(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// ErrLZ4Corrupt reports malformed lz4 block input.
var ErrLZ4Corrupt = errors.New("lz4: corrupt block")

// DecompressLZ4 reverses CompressBatch, producing exactly origLen bytes.
func DecompressLZ4(block []byte, origLen int) ([]byte, error) {
	return decodeFresh(origLen, func(dst []byte) error { return decodeLZ4Into(dst, block) })
}

// decodeLZ4Into decodes block into all of dst. The block ends when dst is
// full: at a sequence whose literals fill it, or at the end of the block
// after a match that does.
func decodeLZ4Into(dst, block []byte) error {
	o, i := 0, 0
	for {
		if i >= len(block) {
			if o == len(dst) {
				return nil
			}
			return fmt.Errorf("%w: ran out of input at %d/%d bytes", ErrLZ4Corrupt, o, len(dst))
		}
		token := block[i]
		i++
		litLen := int(token >> 4)
		if litLen == 15 {
			var n int
			n, i = readLenExt(block, i)
			if i < 0 {
				return fmt.Errorf("%w: truncated literal length", ErrLZ4Corrupt)
			}
			litLen += n
		}
		if i+litLen > len(block) {
			return fmt.Errorf("%w: truncated literals", ErrLZ4Corrupt)
		}
		if o+litLen > len(dst) {
			return fmt.Errorf("%w: output overrun (%d > %d)", ErrLZ4Corrupt, o+litLen, len(dst))
		}
		o += copy(dst[o:], block[i:i+litLen])
		i += litLen
		if o == len(dst) {
			// Terminating sequence reached.
			return nil
		}
		if i+2 > len(block) {
			// A literals-only terminator that did not fill dst.
			return fmt.Errorf("%w: missing match offset", ErrLZ4Corrupt)
		}
		offset := int(block[i]) | int(block[i+1])<<8
		i += 2
		if offset == 0 || offset > o {
			return fmt.Errorf("%w: bad offset %d at output %d", ErrLZ4Corrupt, offset, o)
		}
		matchLen := int(token & 0x0F)
		if matchLen == 15 {
			var n int
			n, i = readLenExt(block, i)
			if i < 0 {
				return fmt.Errorf("%w: truncated match length", ErrLZ4Corrupt)
			}
			matchLen += n
		}
		end := o + matchLen + lz4MinMatch
		if end > len(dst) {
			return fmt.Errorf("%w: output overrun (%d > %d)", ErrLZ4Corrupt, end, len(dst))
		}
		// The source dst[start:o] is periodic in offset and every copy
		// extends it by a multiple of offset, so each copy reads only
		// bytes already written: one copy when offset ≥ the match length,
		// doubling copies when the match overlaps itself.
		for start := o - offset; o < end; {
			o += copy(dst[o:end], dst[start:o])
		}
	}
}

// readLenExt decodes the 255-run extension starting at i; returns (value,
// next index) or next index -1 on truncation.
func readLenExt(block []byte, i int) (int, int) {
	v := 0
	for {
		if i >= len(block) {
			return 0, -1
		}
		b := block[i]
		i++
		v += int(b)
		if b != 255 {
			return v, i
		}
	}
}
