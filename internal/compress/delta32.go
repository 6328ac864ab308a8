package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/bitio"
	"repro/internal/stream"
)

// delta32 is an extension algorithm beyond the paper's three (its future
// work calls for "more stream compression algorithms"): stateful delta
// coding for smooth numeric streams. Each 32-bit symbol is replaced by the
// zigzag-encoded difference to its predecessor and then stored with a 5-bit
// width indicator, tcomp32-style. Sensor values and stock prices, which
// move in small increments, compress far better than under plain null
// suppression.
//
// Steps follow the stateful template of Algorithm 3:
//
//	s0 read     — fetch the next 32-bit symbol
//	s1 pre      — compute the zigzag delta against the predecessor
//	s2 update   — predecessor := current (the algorithm's state)
//	s3 encode   — find the delta's significant width
//	s4 write    — emit 5-bit width + width-bit delta

// Cost weights for delta32, per 32-bit symbol.
const (
	dl32ReadInstr = 40
	dl32ReadMem   = 2.5

	dl32DeltaInstr = 180
	dl32DeltaMem   = 0.2

	dl32UpdateInstr = 30
	dl32UpdateMem   = 1.2

	dl32EncodeInstrBase   = 520
	dl32EncodeInstrPerBit = 20
	dl32EncodeMem         = 0.6

	dl32WriteInstrBase   = 260
	dl32WriteInstrPerBit = 14
	dl32WriteMemBase     = 3.0
)

// Delta32 is the delta + zigzag + null-suppression extension algorithm.
type Delta32 struct{}

// NewDelta32 returns the delta32 algorithm.
func NewDelta32() *Delta32 { return &Delta32{} }

// Name implements Algorithm.
func (*Delta32) Name() string { return "delta32" }

// Stateful implements Algorithm: the predecessor symbol is state.
func (*Delta32) Stateful() bool { return true }

// Steps implements Algorithm.
func (*Delta32) Steps() []StepKind {
	return []StepKind{StepRead, StepPreprocess, StepStateUpdate, StepStateEncode, StepWrite}
}

// NewSession implements Algorithm.
func (*Delta32) NewSession() Session { return &delta32Session{} }

type delta32Session struct {
	prev uint32
	w    bitio.Writer
	res  Result
}

// Reset implements Session; the writer and result scratch survive Reset.
func (s *delta32Session) Reset() { s.prev = 0 }

// zigzag maps a signed delta to an unsigned code with small magnitudes near
// zero (0, -1, 1, -2, 2 → 0, 1, 2, 3, 4).
func zigzag(d int32) uint32 { return uint32(d<<1) ^ uint32(d>>31) }

// unzigzag reverses zigzag.
func unzigzag(z uint32) int32 { return int32(z>>1) ^ -int32(z&1) }

// CompressBatch implements Session. The predecessor persists across batches
// of the session.
func (s *delta32Session) CompressBatch(b *stream.Batch) *Result {
	return cloneResult(s.CompressBatchReuse(b))
}

// CompressBatchReuse implements Session: the fused zero-allocation path.
//
// As in tcomp32, the width indicator and delta concatenate into one ≤37-bit
// token, staged through bitio.Writer.Stage with the pending word in locals,
// and every exactly-representable cost tally (integers, multiples of 1/8 —
// including s4's 3.0-based memory term) is accumulated as an integer and
// converted once, bit-identical to the original sequential sums. The inexact
// constants (dl32DeltaMem, dl32UpdateMem, dl32EncodeMem) keep their per-word
// accumulation order.
func (s *delta32Session) CompressBatchReuse(b *stream.Batch) *Result {
	return s.compressBytes(b.Bytes())
}

// compressBytes is CompressBatchReuse on raw bytes; the slice executor
// calls it per slice so no stream.Batch is built.
func (s *delta32Session) compressBytes(data []byte) *Result {
	res := &s.res
	resetResult(res, len(data))
	w := &s.w
	w.Reset()

	prev := s.prev
	nWords := len(data) / 4
	widthSum := 0
	var preMem, updMem, encMem float64
	acc, nAcc := uint64(0), uint(0)
	for i := 0; i < nWords; i++ {
		// s0 read, s1 zigzag delta, s2 predecessor update, s3 width scan,
		// s4 combined width+delta token write.
		v := binary.LittleEndian.Uint32(data[i*4:])
		z := zigzag(int32(v) - int32(prev))
		preMem += dl32DeltaMem
		prev = v
		updMem += dl32UpdateMem
		n := uint(1)
		if z != 0 {
			n = uint(bits.Len32(z))
		}
		widthSum += int(n)
		encMem += dl32EncodeMem
		acc, nAcc = w.Stage(acc, nAcc, uint64(n-1)|uint64(z)<<5, 5+n)
	}
	w.WriteBits(acc, nAcc)
	s.prev = prev

	read := res.Steps[StepRead]
	pre := res.Steps[StepPreprocess]
	upd := res.Steps[StepStateUpdate]
	enc := res.Steps[StepStateEncode]
	wr := res.Steps[StepWrite]
	fw := float64(nWords)
	fws := float64(widthSum)
	read.Cost.Instructions = dl32ReadInstr * fw
	read.Cost.MemAccesses = dl32ReadMem * fw
	pre.Cost.Instructions = dl32DeltaInstr * fw
	pre.Cost.MemAccesses = preMem
	upd.Cost.Instructions = dl32UpdateInstr * fw
	upd.Cost.MemAccesses = updMem
	enc.Cost.Instructions = dl32EncodeInstrBase*fw + dl32EncodeInstrPerBit*fws
	enc.Cost.MemAccesses = encMem
	wr.Cost.Instructions = dl32WriteInstrBase*fw + dl32WriteInstrPerBit*fws
	wr.Cost.MemAccesses = dl32WriteMemBase*fw + (5*fw+fws)/8

	for i := nWords * 4; i < len(data); i++ {
		w.WriteBits(uint64(data[i]), 8)
		read.Cost.Instructions += dl32ReadInstr / 4
		read.Cost.MemAccesses += dl32ReadMem / 4
		wr.Cost.Instructions += dl32WriteInstrBase / 4
		wr.Cost.MemAccesses += 1
	}

	res.Compressed = w.Bytes()
	res.BitLen = w.BitLen()
	read.OutBytes = len(data)
	pre.OutBytes = len(data)
	upd.OutBytes = len(data)
	enc.OutBytes = len(data) + nWords
	wr.OutBytes = (int(res.BitLen) + 7) / 8
	res.Steps[StepRead] = read
	res.Steps[StepPreprocess] = pre
	res.Steps[StepStateUpdate] = upd
	res.Steps[StepStateEncode] = enc
	res.Steps[StepWrite] = wr
	return res
}

// Delta32Decoder mirrors the encoder's predecessor state across batches.
type Delta32Decoder struct {
	prev uint32
}

// NewDelta32Decoder returns a decoder with zero predecessor.
func NewDelta32Decoder() *Delta32Decoder { return &Delta32Decoder{} }

// Reset clears the predecessor.
func (d *Delta32Decoder) Reset() { d.prev = 0 }

// DecompressBatch reverses one delta32 batch.
func (d *Delta32Decoder) DecompressBatch(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	return decodeFresh(origLen, func(dst []byte) error { return decodeDelta32Into(&d.prev, dst, packed, bitLen) })
}

// DecompressDelta32 decodes a single batch from a fresh delta32 session.
func DecompressDelta32(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	var d Delta32Decoder
	return d.DecompressBatch(packed, bitLen, origLen)
}

// decodeDelta32Into decodes bitLen bits of packed data into all of dst,
// starting from predecessor *prev and leaving the last symbol there once
// every symbol decoded.
func decodeDelta32Into(prev *uint32, dst, packed []byte, bitLen uint64) error {
	if err := checkBitLen(packed, bitLen); err != nil {
		return err
	}
	r := bitio.NewReaderBits(packed, bitLen)
	v, i := *prev, 0
	for ; i+4 <= len(dst); i += 4 {
		// One token: a 5-bit width, then n bits of zigzagged delta.
		w := r.Peek()
		n := uint(w&31) + 1
		if err := r.Skip(5 + n); err != nil {
			return fmt.Errorf("delta32: truncated token: %w", err)
		}
		v = uint32(int32(v) + unzigzag(uint32(w>>5&(1<<n-1))))
		binary.LittleEndian.PutUint32(dst[i:], v)
	}
	*prev = v
	for ; i < len(dst); i++ {
		b, err := r.ReadBits(8)
		if err != nil {
			return fmt.Errorf("delta32: truncated tail: %w", err)
		}
		dst[i] = byte(b)
	}
	return nil
}
