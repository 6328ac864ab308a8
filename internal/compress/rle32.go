package compress

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/stream"
)

// rle32 is a second extension algorithm: stateless run-length encoding over
// 32-bit symbols, the classic choice for bursty IoT telemetry where readings
// stay constant for stretches (door sensors, status words). Each run is
// encoded as a 6-bit length (1..64) followed by the 32-bit symbol.
//
// It follows the stateless template of Algorithm 1: s0 read, s1 encode (run
// detection), s2 write.

// Cost weights for rle32, per 32-bit symbol scanned, plus per run emitted.
const (
	rle32ReadInstr = 40
	rle32ReadMem   = 2.5

	rle32ScanInstr = 150
	rle32ScanMem   = 0.4

	rle32WriteRunInstr = 420
	rle32WriteRunMem   = 7.5
)

// rle32MaxRun is the largest run a single token can carry.
const rle32MaxRun = 64

// RLE32 is the run-length extension algorithm.
type RLE32 struct{}

// NewRLE32 returns the rle32 algorithm.
func NewRLE32() *RLE32 { return &RLE32{} }

// Name implements Algorithm.
func (*RLE32) Name() string { return "rle32" }

// Stateful implements Algorithm: runs never cross batch boundaries.
func (*RLE32) Stateful() bool { return false }

// Steps implements Algorithm.
func (*RLE32) Steps() []StepKind { return []StepKind{StepRead, StepEncode, StepWrite} }

// NewSession implements Algorithm.
func (*RLE32) NewSession() Session { return &rle32Session{} }

type rle32Session struct {
	w   bitio.Writer
	res Result
}

// Reset implements Session.
func (*rle32Session) Reset() {}

// CompressBatch implements Session.
func (s *rle32Session) CompressBatch(b *stream.Batch) *Result {
	return cloneResult(s.CompressBatchReuse(b))
}

// CompressBatchReuse implements Session: the fused zero-allocation path.
//
// Each run's 6-bit length and 32-bit symbol concatenate into one 38-bit
// token, staged through bitio.Writer.Stage with the pending word in locals.
// Integer tallies replace the exactly-representable cost sums (every partial
// sum is an integer or multiple of 0.5); only the scan memory term keeps its
// per-run float accumulation, since rle32ScanMem is not exactly
// representable.
func (s *rle32Session) CompressBatchReuse(b *stream.Batch) *Result {
	return s.compressBytes(b.Bytes())
}

// compressBytes is CompressBatchReuse on raw bytes; the slice executor
// calls it per slice so no stream.Batch is built.
func (s *rle32Session) compressBytes(data []byte) *Result {
	res := &s.res
	resetResult(res, len(data))
	w := &s.w
	w.Reset()

	nWords := len(data) / 4
	runs := 0
	encMem := 0.0
	acc, nAcc := uint64(0), uint(0)
	i := 0
	for i < nWords {
		// s0: read the run's head symbol; s1: scan forward while it repeats.
		v := binary.LittleEndian.Uint32(data[i*4:])
		runLen := 1
		for i+runLen < nWords && runLen < rle32MaxRun &&
			binary.LittleEndian.Uint32(data[(i+runLen)*4:]) == v {
			runLen++
		}
		// Scanning touches each symbol of the run once.
		encMem += rle32ScanMem * float64(runLen)

		// s2: emit 6-bit run length + 32-bit symbol as one token.
		acc, nAcc = w.Stage(acc, nAcc, uint64(runLen-1)|uint64(v)<<6, 38)

		runs++
		i += runLen
	}
	w.WriteBits(acc, nAcc)

	read := res.Steps[StepRead]
	enc := res.Steps[StepEncode]
	wr := res.Steps[StepWrite]
	fw := float64(nWords)
	fr := float64(runs)
	read.Cost.Instructions = rle32ReadInstr * fw
	read.Cost.MemAccesses = rle32ReadMem * fw
	enc.Cost.Instructions = rle32ScanInstr * fw
	enc.Cost.MemAccesses = encMem
	wr.Cost.Instructions = rle32WriteRunInstr * fr
	wr.Cost.MemAccesses = rle32WriteRunMem * fr

	for j := nWords * 4; j < len(data); j++ {
		w.WriteBits(uint64(data[j]), 8)
		read.Cost.Instructions += rle32ReadInstr / 4
		read.Cost.MemAccesses += rle32ReadMem / 4
		wr.Cost.Instructions += rle32WriteRunInstr / 8
		wr.Cost.MemAccesses += 1
	}

	res.Compressed = w.Bytes()
	res.BitLen = w.BitLen()
	read.OutBytes = len(data)
	enc.OutBytes = runs * 5
	wr.OutBytes = (int(res.BitLen) + 7) / 8
	res.Steps[StepRead] = read
	res.Steps[StepEncode] = enc
	res.Steps[StepWrite] = wr
	return res
}

// DecompressRLE32 reverses rle32 into exactly origLen bytes.
func DecompressRLE32(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	return decodeFresh(origLen, func(dst []byte) error { return decodeRLE32Into(dst, packed, bitLen) })
}

// decodeRLE32Into decodes bitLen bits of packed data into all of dst.
func decodeRLE32Into(dst, packed []byte, bitLen uint64) error {
	if err := checkBitLen(packed, bitLen); err != nil {
		return err
	}
	r := bitio.NewReaderBits(packed, bitLen)
	i := 0
	for i+4 <= len(dst) {
		// One token: a 6-bit run length, then the 32-bit symbol.
		w := r.Peek()
		if err := r.Skip(38); err != nil {
			return fmt.Errorf("rle32: truncated token: %w", err)
		}
		end := i + 4*(int(w&63)+1)
		if end > len(dst) {
			return fmt.Errorf("rle32: run overflows output (%d bytes)", len(dst))
		}
		for ; i < end; i += 4 {
			binary.LittleEndian.PutUint32(dst[i:], uint32(w>>6))
		}
	}
	for ; i < len(dst); i++ {
		v, err := r.ReadBits(8)
		if err != nil {
			return fmt.Errorf("rle32: truncated tail: %w", err)
		}
		dst[i] = byte(v)
	}
	return nil
}
