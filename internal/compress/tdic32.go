package compress

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/stream"
)

// TdicTableBits is n in Algorithm 4: the dictionary has 2^n entries and a
// dictionary hit is encoded in n+1 bits.
const TdicTableBits = 12

// tdicTableSize is the dictionary entry count.
const tdicTableSize = 1 << TdicTableBits

// Cost weights for tdic32, per 32-bit symbol. Calibrated so the whole
// procedure sits near κ≈85 on low-duplication data and drops to κ≈60 —
// inside the little core's κ∈[30,70] stall region — as symbol duplication
// grows, the effect behind Fig. 13.
const (
	td32ReadInstr = 40
	td32ReadMem   = 2.5

	td32HashInstr = 180
	td32HashMem   = 0.72

	td32TableReadInstr   = 15
	td32TableReadMem     = 2.0
	td32TableUpdateInstr = 60
	td32TableUpdateMem   = 0.55

	td32EncodeHitInstr  = 85
	td32EncodeMissInstr = 245
	td32EncodeMem       = 0.3

	td32WriteInstrPerBit = 15
	// A miss writes an unaligned 33-bit token straddling word boundaries,
	// costing extra shift/mask work beyond the per-bit packing.
	td32WriteMissExtraInstr = 20
	td32WriteMemBase        = 1.8
)

// tdicHash is the multiplicative hash shared by encoder and decoder.
func tdicHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - TdicTableBits)
}

// Tdic32 is the stateful dictionary variable-length coding of Algorithm 4:
// a 2^n-entry hash table maps symbols to short indices; hits are encoded in
// n+1 bits, misses in 33 bits.
type Tdic32 struct{}

// NewTdic32 returns the tdic32 algorithm.
func NewTdic32() *Tdic32 { return &Tdic32{} }

// Name implements Algorithm.
func (*Tdic32) Name() string { return "tdic32" }

// Stateful implements Algorithm.
func (*Tdic32) Stateful() bool { return true }

// Steps implements Algorithm: s0 read, s1 pre-process (hash), s2 state
// update, s3 state-based encoding, s4 write.
func (*Tdic32) Steps() []StepKind {
	return []StepKind{StepRead, StepPreprocess, StepStateUpdate, StepStateEncode, StepWrite}
}

// NewSession implements Algorithm. Each session owns a private dictionary,
// the default replication strategy from Section IV-B.
func (*Tdic32) NewSession() Session {
	return &tdic32Session{}
}

type tdic32Session struct {
	table [tdicTableSize]uint32
	used  [tdicTableSize]bool
	w     bitio.Writer
	res   Result
}

// Reset implements Session. The writer and result scratch survive Reset —
// only the algorithm's cross-batch state (the dictionary) is cleared. A slot
// is read only while its used flag is set, so clearing the flags empties the
// dictionary without touching the 16 KiB of slot values.
func (s *tdic32Session) Reset() {
	s.used = [tdicTableSize]bool{}
}

// CompressBatch implements Session. The dictionary persists across batches
// of the same session, as stateful stream compression keeps information
// about past tuples.
func (s *tdic32Session) CompressBatch(b *stream.Batch) *Result {
	return cloneResult(s.CompressBatchReuse(b))
}

// CompressBatchReuse implements Session: the fused zero-allocation path.
//
// Each symbol's hit or miss token is staged through bitio.Writer.Stage with
// the pending word in locals. Integer-valued cost tallies (instruction
// counts, the exact 2.5/2.0 per-word memory terms) are accumulated as
// integers and converted once — bit-identical to the original sequential
// float adds, whose partial sums are all exactly representable. The inexact
// constants (td32HashMem, td32TableUpdateMem, td32EncodeMem,
// td32WriteMemBase) keep their original per-word accumulation order so their
// rounding sequence is preserved.
func (s *tdic32Session) CompressBatchReuse(b *stream.Batch) *Result {
	return s.compressBytes(b.Bytes())
}

// compressBytes is CompressBatchReuse on raw bytes; the slice executor
// calls it per slice so no stream.Batch is built.
func (s *tdic32Session) compressBytes(data []byte) *Result {
	res := &s.res
	resetResult(res, len(data))
	w := &s.w
	w.Reset()

	nWords := len(data) / 4
	misses := 0
	nbitsSum := 0
	var preMem, updMem, encMem, wrMem float64
	acc, nAcc := uint64(0), uint(0)
	for i := 0; i < nWords; i++ {
		// s0: read the 32-bit symbol.
		v := binary.LittleEndian.Uint32(data[i*4:])

		// s1: pre-process — hash the symbol to a dictionary index.
		idx := tdicHash(v)
		preMem += td32HashMem

		// s2: state update — read the slot, overwrite it with the symbol.
		// A hit leaves the slot unchanged, so the dirty write is skipped;
		// this is why higher symbol duplication shrinks s2's work.
		updMem += td32TableReadMem
		hit := s.used[idx] && s.table[idx] == v

		// s3 + s4: encoding decision and variable-length write.
		var encoded uint64
		var nbits uint
		if hit {
			encoded = uint64(idx)<<1 | 1
			nbits = TdicTableBits + 1
		} else {
			s.table[idx] = v
			s.used[idx] = true
			updMem += td32TableUpdateMem
			misses++
			encoded = uint64(v) << 1
			nbits = 33
		}
		encMem += td32EncodeMem
		acc, nAcc = w.Stage(acc, nAcc, encoded, nbits)
		nbitsSum += int(nbits)
		wrMem += td32WriteMemBase + float64(nbits)/8
	}
	w.WriteBits(acc, nAcc)

	read := res.Steps[StepRead]
	pre := res.Steps[StepPreprocess]
	upd := res.Steps[StepStateUpdate]
	enc := res.Steps[StepStateEncode]
	wr := res.Steps[StepWrite]
	fw := float64(nWords)
	fm := float64(misses)
	read.Cost.Instructions = td32ReadInstr * fw
	read.Cost.MemAccesses = td32ReadMem * fw
	pre.Cost.Instructions = td32HashInstr * fw
	pre.Cost.MemAccesses = preMem
	upd.Cost.Instructions = td32TableReadInstr*fw + td32TableUpdateInstr*fm
	upd.Cost.MemAccesses = updMem
	enc.Cost.Instructions = td32EncodeHitInstr*(fw-fm) + td32EncodeMissInstr*fm
	enc.Cost.MemAccesses = encMem
	wr.Cost.Instructions = td32WriteInstrPerBit*float64(nbitsSum) + td32WriteMissExtraInstr*fm
	wr.Cost.MemAccesses = wrMem

	// Raw tail bytes (input not a multiple of 4).
	for i := nWords * 4; i < len(data); i++ {
		w.WriteBits(uint64(data[i]), 8)
		read.Cost.Instructions += td32ReadInstr / 4
		read.Cost.MemAccesses += td32ReadMem / 4
		wr.Cost.Instructions += td32WriteInstrPerBit * 8
		wr.Cost.MemAccesses += 1
	}

	res.Compressed = w.Bytes()
	res.BitLen = w.BitLen()
	read.OutBytes = len(data)
	pre.OutBytes = len(data) + nWords*2 // symbols plus 12-bit indices
	upd.OutBytes = len(data) + nWords
	enc.OutBytes = (int(res.BitLen)+7)/8 + nWords
	wr.OutBytes = (int(res.BitLen) + 7) / 8
	res.Steps[StepRead] = read
	res.Steps[StepPreprocess] = pre
	res.Steps[StepStateUpdate] = upd
	res.Steps[StepStateEncode] = enc
	res.Steps[StepWrite] = wr
	return res
}

// Tdic32Decoder mirrors the encoder's dictionary so successive batches of a
// session decode correctly.
type Tdic32Decoder struct {
	table [tdicTableSize]uint32
}

// NewTdic32Decoder returns a decoder with an empty dictionary.
func NewTdic32Decoder() *Tdic32Decoder { return &Tdic32Decoder{} }

// Reset clears the dictionary.
func (d *Tdic32Decoder) Reset() { d.table = [tdicTableSize]uint32{} }

// DecompressBatch reverses one batch produced by a tdic32 session whose
// preceding batches were decoded by this decoder in order.
func (d *Tdic32Decoder) DecompressBatch(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	return decodeFresh(origLen, func(dst []byte) error { return decodeTdic32Into(&d.table, dst, packed, bitLen) })
}

// DecompressTdic32 decodes a single batch produced by a fresh tdic32 session.
func DecompressTdic32(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	var d Tdic32Decoder
	return d.DecompressBatch(packed, bitLen, origLen)
}

// decodeTdic32Into decodes bitLen bits of packed data into all of dst,
// reading and updating the dictionary dict as the encoder did.
func decodeTdic32Into(dict *[tdicTableSize]uint32, dst, packed []byte, bitLen uint64) error {
	if err := checkBitLen(packed, bitLen); err != nil {
		return err
	}
	r := bitio.NewReaderBits(packed, bitLen)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		// One token: a hit flag, then a table index or a raw symbol.
		// A truncated miss may enter dict before Skip refuses it; the
		// batch fails either way.
		w := r.Peek()
		v, n := uint32(w>>1), uint(33)
		if w&1 != 0 {
			v, n = dict[v&(tdicTableSize-1)], TdicTableBits+1
		} else {
			dict[tdicHash(v)] = v
		}
		if err := r.Skip(n); err != nil {
			return fmt.Errorf("tdic32: truncated token: %w", err)
		}
		binary.LittleEndian.PutUint32(dst[i:], v)
	}
	for ; i < len(dst); i++ {
		v, err := r.ReadBits(8)
		if err != nil {
			return fmt.Errorf("tdic32: truncated tail: %w", err)
		}
		dst[i] = byte(v)
	}
	return nil
}
