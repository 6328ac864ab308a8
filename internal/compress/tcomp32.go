package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/bitio"
	"repro/internal/stream"
)

// Cost weights for tcomp32, expressed per 32-bit word. The constants are
// calibrated so that on the Rovio workload the fused read+encode task (t0)
// lands at κ≈320 with ≈300 instructions/byte and the write task (t1) at
// κ≈102 with ≈130 instructions/byte, matching Table IV of the paper.
const (
	tc32ReadInstr = 40
	tc32ReadMem   = 2.5

	tc32EncodeInstrBase   = 952
	tc32EncodeInstrPerBit = 25
	tc32EncodeMem         = 1.25

	tc32WriteInstrBase   = 370
	tc32WriteInstrPerBit = 18
	tc32WriteMemBase     = 3.4
)

// Tcomp32 is the stateless bit-level null-suppression algorithm (Algorithm 2
// in the paper): each non-overlapping 32-bit symbol is encoded as a 5-bit
// length indicator followed by its incompressible low n bits.
type Tcomp32 struct{}

// NewTcomp32 returns the tcomp32 algorithm.
func NewTcomp32() *Tcomp32 { return &Tcomp32{} }

// Name implements Algorithm.
func (*Tcomp32) Name() string { return "tcomp32" }

// Stateful implements Algorithm; tcomp32 is stateless.
func (*Tcomp32) Stateful() bool { return false }

// Steps implements Algorithm: s0 read, s1 encode, s2 write.
func (*Tcomp32) Steps() []StepKind { return []StepKind{StepRead, StepEncode, StepWrite} }

// NewSession implements Algorithm.
func (*Tcomp32) NewSession() Session { return &tcomp32Session{} }

type tcomp32Session struct {
	w   bitio.Writer
	res Result
}

// Reset implements Session; tcomp32 has no state.
func (*tcomp32Session) Reset() {}

// symbolWidth returns n: 1 for zero, otherwise ceil(log2(v+1)), i.e. the
// number of significant bits of v.
func symbolWidth(v uint32) uint {
	if v == 0 {
		return 1
	}
	return uint(bits.Len32(v))
}

// CompressBatch implements Session.
func (s *tcomp32Session) CompressBatch(b *stream.Batch) *Result {
	return cloneResult(s.CompressBatchReuse(b))
}

// CompressBatchReuse implements Session: the fused zero-allocation path.
//
// The hot loop stages one token per symbol through bitio.Writer.Stage, with
// the pending word in locals (the 5-bit length indicator and the n-bit
// symbol concatenate LSB-first into one ≤37-bit token), plus one float
// accumulation. Cost fields whose per-word addends are exactly representable
// (integers and multiples of 1/8) are tallied as integers and converted once
// — the sequential float sums they replace are exact at every partial sum,
// so the resulting Cost bits are identical to the original per-word
// accumulation. Only s2's memory tally keeps the per-word float add:
// tc32WriteMemBase is not exactly representable, so its rounding sequence
// must be preserved.
func (s *tcomp32Session) CompressBatchReuse(b *stream.Batch) *Result {
	return s.compressBytes(b.Bytes())
}

// compressBytes is CompressBatchReuse on raw bytes; the slice executor
// calls it per slice so no stream.Batch is built.
func (s *tcomp32Session) compressBytes(data []byte) *Result {
	res := &s.res
	resetResult(res, len(data))
	w := &s.w
	w.Reset()

	nWords := len(data) / 4
	widthSum := 0
	wrMem := 0.0
	acc, nAcc := uint64(0), uint(0)
	for i := 0; i < nWords; i++ {
		// s0 read, s1 significant-width scan, s2 token write.
		v := binary.LittleEndian.Uint32(data[i*4:])
		n := symbolWidth(v)
		widthSum += int(n)
		acc, nAcc = w.Stage(acc, nAcc, uint64(n-1)|uint64(v)<<5, 5+n)
		wrMem += tc32WriteMemBase + float64(5+n)/8
	}
	w.WriteBits(acc, nAcc)

	read := res.Steps[StepRead]
	enc := res.Steps[StepEncode]
	wr := res.Steps[StepWrite]
	fw := float64(nWords)
	fws := float64(widthSum)
	read.Cost.Instructions = tc32ReadInstr * fw
	read.Cost.MemAccesses = tc32ReadMem * fw
	enc.Cost.Instructions = tc32EncodeInstrBase*fw + tc32EncodeInstrPerBit*fws
	enc.Cost.MemAccesses = tc32EncodeMem * fw
	wr.Cost.Instructions = tc32WriteInstrBase*fw + tc32WriteInstrPerBit*fws
	wr.Cost.MemAccesses = wrMem

	// Tail bytes that do not fill a 32-bit symbol are stored raw.
	for i := nWords * 4; i < len(data); i++ {
		w.WriteBits(uint64(data[i]), 8)
		read.Cost.Instructions += tc32ReadInstr / 4
		read.Cost.MemAccesses += tc32ReadMem / 4
		wr.Cost.Instructions += tc32WriteInstrBase / 4
		wr.Cost.MemAccesses += 1
	}

	res.Compressed = w.Bytes()
	res.BitLen = w.BitLen()
	read.OutBytes = len(data)
	// s1 forwards the symbols plus one width byte per symbol.
	enc.OutBytes = len(data) + nWords
	wr.OutBytes = (int(res.BitLen) + 7) / 8
	res.Steps[StepRead] = read
	res.Steps[StepEncode] = enc
	res.Steps[StepWrite] = wr
	return res
}

// DecompressTcomp32 reverses tcomp32: it decodes bitLen bits of packed data
// into exactly origLen output bytes.
func DecompressTcomp32(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	return decodeFresh(origLen, func(dst []byte) error { return decodeTcomp32Into(dst, packed, bitLen) })
}

// decodeTcomp32Into decodes bitLen bits of packed data into all of dst.
func decodeTcomp32Into(dst, packed []byte, bitLen uint64) error {
	if err := checkBitLen(packed, bitLen); err != nil {
		return err
	}
	r := bitio.NewReaderBits(packed, bitLen)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		// One token: a 5-bit length indicator, then n symbol bits.
		w := r.Peek()
		n := uint(w&31) + 1
		if err := r.Skip(5 + n); err != nil {
			return fmt.Errorf("tcomp32: truncated token: %w", err)
		}
		binary.LittleEndian.PutUint32(dst[i:], uint32(w>>5&(1<<n-1)))
	}
	for ; i < len(dst); i++ {
		v, err := r.ReadBits(8)
		if err != nil {
			return fmt.Errorf("tcomp32: truncated tail: %w", err)
		}
		dst[i] = byte(v)
	}
	return nil
}
