package compress

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitio"
	"repro/internal/stream"
)

// huff8 is a third extension algorithm: an order-0 canonical Huffman coder
// over bytes, the entropy-coding family the paper's related work surveys
// (Huffman 1952, Moffat 2019). Each batch is coded independently: a
// frequency pass builds code lengths (limited to huff8MaxCodeLen bits), a
// canonical code assignment makes the header compact (one 5-bit length per
// byte value), and a packing pass emits the codes.
//
// It is stateless and follows the Algorithm 1 template — but unlike the
// bit-suppression coders its encode step is batch-global (the histogram and
// tree), making its operational-intensity profile distinctly different:
// a κ-heavy s1 and an s2 whose cost tracks the achieved entropy.

// huff8MaxCodeLen caps code lengths so the canonical header stays at 5 bits
// per symbol and the decoder's tables stay small.
const huff8MaxCodeLen = 15

// Cost weights for huff8.
const (
	h8ReadInstr = 30.0
	h8ReadMem   = 2.0

	h8HistInstr = 45.0
	h8HistMem   = 0.3
	// Tree construction, per distinct symbol.
	h8TreeInstr = 2200.0
	h8TreeMem   = 14.0

	h8WriteInstrPerBit = 22.0
	h8WriteMemBase     = 1.4
)

// Huff8 is the canonical-Huffman extension algorithm.
type Huff8 struct{}

// NewHuff8 returns the huff8 algorithm.
func NewHuff8() *Huff8 { return &Huff8{} }

// Name implements Algorithm.
func (*Huff8) Name() string { return "huff8" }

// Stateful implements Algorithm: each batch carries its own code table.
func (*Huff8) Stateful() bool { return false }

// Steps implements Algorithm.
func (*Huff8) Steps() []StepKind { return []StepKind{StepRead, StepEncode, StepWrite} }

// NewSession implements Algorithm.
func (*Huff8) NewSession() Session { return &huff8Session{} }

// huff8Session holds the per-batch tables (tree scratch, histogram,
// bit-reversed codewords) instead of the goroutine stack, so a fresh
// goroutine's first batch does not grow its stack.
type huff8Session struct {
	w    bitio.Writer
	res  Result
	tree huffTree
	freq [256]int
	rev  [256]uint32
}

// Reset implements Session.
func (*huff8Session) Reset() {}

// huffTree is the scratch of one code-length build.
type huffTree struct {
	// leaves holds weight<<8 | symbol for every used symbol, sorted: the
	// leaf queue, in the (weight, symbol) order a heap would pop. Weights
	// are byte counts of one batch, far below 2^56.
	leaves [256]uint64
	// weight holds the internal nodes' weights in creation order, which is
	// non-decreasing: the internal queue.
	weight [255]int
	// parent and depth are indexed by node: leaves 0..n-1 in sorted order,
	// then internal nodes n..2n-2 in creation order.
	parent [511]uint16
	depth  [511]uint8
}

// codeLengths returns per-symbol code lengths for the histogram,
// length-limited by iterative flattening. Symbols with zero frequency get
// length 0. A single-symbol alphabet gets length 1.
//
// The tree is built with two queues: sorted leaves and internal nodes in
// creation order. Each step merges the two lightest nodes, a leaf winning a
// tie with an internal node, which pops exactly what a min-heap ordered by
// (weight, arena index) pops when leaves are numbered by symbol and internal
// nodes after them: the tree, and so every length, is the heap build's.
func (t *huffTree) codeLengths(freq *[256]int) [256]uint8 {
	var lengths [256]uint8
	n := 0
	for s, f := range freq {
		if f > 0 {
			t.leaves[n] = uint64(f)<<8 | uint64(s)
			n++
		}
	}
	switch n {
	case 0:
		return lengths
	case 1:
		lengths[t.leaves[0]&0xff] = 1
		return lengths
	}
	leaves := t.leaves[:n]
	slices.Sort(leaves)
	li, ii := 0, 0 // heads of the leaf and internal queues
	for k := 0; k < n-1; k++ {
		var pair [2]int
		for j := range pair {
			if li < n && (ii == k || int(leaves[li]>>8) <= t.weight[ii]) {
				pair[j] = int(leaves[li] >> 8)
				t.parent[li] = uint16(n + k)
				li++
			} else {
				pair[j] = t.weight[ii]
				t.parent[n+ii] = uint16(n + k)
				ii++
			}
		}
		t.weight[k] = pair[0] + pair[1]
	}
	// Parents are created after their children, so one descending pass
	// from the root assigns every depth.
	root := 2*n - 2
	t.depth[root] = 0
	for id := root - 1; id >= 0; id-- {
		t.depth[id] = t.depth[t.parent[id]] + 1
	}
	for i, key := range leaves {
		lengths[key&0xff] = t.depth[i]
	}
	// Length-limit by demoting over-deep leaves; the canonical assignment
	// below only needs Kraft-satisfying lengths.
	limitLengths(&lengths)
	return lengths
}

// limitLengths enforces huff8MaxCodeLen while keeping the Kraft sum ≤ 1:
// over-long codes are clamped, then other codes are lengthened until the
// Kraft inequality holds again.
func limitLengths(lengths *[256]uint8) {
	kraft := 0.0
	for _, l := range lengths {
		if l > huff8MaxCodeLen {
			l = huff8MaxCodeLen
		}
		if l > 0 {
			kraft += 1 / float64(uint32(1)<<l)
		}
	}
	for s := range lengths {
		if lengths[s] > huff8MaxCodeLen {
			lengths[s] = huff8MaxCodeLen
		}
	}
	if kraft <= 1 {
		return
	}
	// Lengthen the shortest codes until the code space fits.
	for kraft > 1 {
		best := -1
		for s := range lengths {
			l := lengths[s]
			if l == 0 || l >= huff8MaxCodeLen {
				continue
			}
			if best < 0 || l < lengths[best] {
				best = s
			}
		}
		if best < 0 {
			return // cannot happen with ≤256 symbols and max 15 bits
		}
		kraft -= 1 / float64(uint32(1)<<lengths[best])
		lengths[best]++
		kraft += 1 / float64(uint32(1)<<lengths[best])
	}
}

// canonicalCodes assigns canonical codewords (shorter lengths first, then by
// symbol) from code lengths of at most huff8MaxCodeLen bits, as DEFLATE
// does: the first code of each length follows from the per-length counts,
// and symbols take their length's codes in symbol order.
func canonicalCodes(lengths *[256]uint8) [256]uint32 {
	var count, next [huff8MaxCodeLen + 1]uint32
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0 // unused symbols take no code
	code := uint32(0)
	for l := 1; l <= huff8MaxCodeLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	var codes [256]uint32
	for s, l := range lengths {
		if l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// CompressBatch implements Session. The output layout is: 256 × 5-bit code
// lengths, then the MSB-first codewords of every input byte.
func (s *huff8Session) CompressBatch(b *stream.Batch) *Result {
	return cloneResult(s.CompressBatchReuse(b))
}

// CompressBatchReuse implements Session: the fused zero-allocation path.
//
// The header's 5-bit lengths and then one token per input byte are staged
// through bitio.Writer.Stage with the pending word in locals. The per-bit
// instruction tally (22·l, all-integer partial sums) is batched into one
// product; the write memory term keeps its per-byte accumulation order
// because h8WriteMemBase is not exactly representable.
func (s *huff8Session) CompressBatchReuse(b *stream.Batch) *Result {
	return s.compressBytes(b.Bytes())
}

// compressBytes is CompressBatchReuse on raw bytes; the slice executor
// calls it per slice so no stream.Batch is built.
func (s *huff8Session) compressBytes(data []byte) *Result {
	res := &s.res
	resetResult(res, len(data))
	read := res.Steps[StepRead]
	enc := res.Steps[StepEncode]
	wr := res.Steps[StepWrite]

	freq := &s.freq
	*freq = [256]int{}
	for _, c := range data {
		freq[c]++
	}
	read.Cost.Instructions = h8ReadInstr * float64(len(data))
	read.Cost.MemAccesses = h8ReadMem * float64(len(data))
	enc.Cost.Instructions = h8HistInstr * float64(len(data))
	enc.Cost.MemAccesses = h8HistMem * float64(len(data))

	lengths := s.tree.codeLengths(freq)
	distinct := 0
	for _, l := range lengths {
		if l > 0 {
			distinct++
		}
	}
	enc.Cost.Instructions += h8TreeInstr * float64(distinct)
	enc.Cost.MemAccesses += h8TreeMem * float64(distinct)

	// A byte's token is its bit-reversed codeword: LSB-first packing then
	// emits the codeword MSB-first, exactly as the original per-bit loop
	// did. Each codeword is reversed once per table, not once per byte.
	codes := canonicalCodes(&lengths)
	rev := &s.rev
	for c, l := range lengths {
		rev[c] = bits.Reverse32(codes[c]) >> (32 - l)
	}
	w := &s.w
	w.Reset()
	acc, nAcc := uint64(0), uint(0)
	for _, l := range lengths {
		acc, nAcc = w.Stage(acc, nAcc, uint64(l), 5)
	}
	bitSum := 0
	wrMem := 0.0
	for _, c := range data {
		l := uint(lengths[c])
		acc, nAcc = w.Stage(acc, nAcc, uint64(rev[c]), l)
		bitSum += int(l)
		wrMem += h8WriteMemBase + float64(l)/8
	}
	w.WriteBits(acc, nAcc)
	wr.Cost.Instructions = h8WriteInstrPerBit * float64(bitSum)
	wr.Cost.MemAccesses = wrMem

	res.Compressed = w.Bytes()
	res.BitLen = w.BitLen()
	read.OutBytes = len(data)
	enc.OutBytes = len(data) + 256
	wr.OutBytes = (int(res.BitLen) + 7) / 8
	res.Steps[StepRead] = read
	res.Steps[StepEncode] = enc
	res.Steps[StepWrite] = wr
	return res
}

// DecompressHuff8 reverses CompressBatch into exactly origLen bytes.
func DecompressHuff8(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	return decodeFresh(origLen, func(dst []byte) error { return decodeHuff8Into(dst, packed, bitLen) })
}

// huff8FastBits is the width of the decoder's primary table: a code of up
// to this many bits resolves in one lookup, a longer one by a canonical
// search over the remaining lengths. 2^10 two-byte entries build in a
// fraction of the time a full 2^15 table takes.
const huff8FastBits = 10

// huff8Decoder is the canonical code of one huff8 batch, built from its
// header's code lengths.
type huff8Decoder struct {
	// fast maps the next huff8FastBits stream bits (LSB-first, so the
	// codeword bit-reversed) to symbol | length<<8; 0 means no code of at
	// most huff8FastBits bits is a prefix of them.
	fast [1 << huff8FastBits]uint16
	// first and count give, per code length l, the first canonical code of
	// that length and how many there are; sorted lists the symbols in
	// canonical order, the first of length l at offset[l].
	first  [huff8MaxCodeLen + 1]uint32
	count  [huff8MaxCodeLen + 1]uint32
	offset [huff8MaxCodeLen + 1]uint32
	sorted [256]byte
}

// build assigns the canonical code for lengths exactly as canonicalCodes
// does: by length, then by symbol. It refuses the headers the encoder
// cannot write, a length above huff8MaxCodeLen or a Kraft sum above 1,
// whose codes would not be prefix-free.
func (d *huff8Decoder) build(lengths *[256]uint8) error {
	kraft := 0
	for _, l := range lengths {
		if l > huff8MaxCodeLen {
			return fmt.Errorf("huff8: code length %d above %d", l, huff8MaxCodeLen)
		}
		if l > 0 {
			d.count[l]++
			kraft += 1 << (huff8MaxCodeLen - l)
		}
	}
	if kraft > 1<<huff8MaxCodeLen {
		return errors.New("huff8: over-subscribed code lengths")
	}
	var next [huff8MaxCodeLen + 1]uint32
	code, at := uint32(0), uint32(0)
	for l := 1; l <= huff8MaxCodeLen; l++ {
		code = (code + d.count[l-1]) << 1
		d.first[l], next[l], d.offset[l] = code, code, at
		at += d.count[l]
	}
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		c := next[l]
		next[l]++
		d.sorted[d.offset[l]+c-d.first[l]] = byte(s)
		if l <= huff8FastBits {
			entry := uint16(s) | uint16(l)<<8
			for k := bits.Reverse16(uint16(c)) >> (16 - l); k < 1<<huff8FastBits; k += 1 << l {
				d.fast[k] = entry
			}
		}
	}
	return nil
}

// long decodes a code longer than huff8FastBits at the start of w, the
// stream's next bits LSB-first, by a canonical search over the remaining
// lengths. It returns the symbol and the code's length, or length 0 when no
// code matches.
func (d *huff8Decoder) long(w uint64) (byte, uint) {
	code := uint32(bits.Reverse16(uint16(w))) >> (16 - huff8FastBits)
	for l := uint(huff8FastBits + 1); l <= huff8MaxCodeLen; l++ {
		code = code<<1 | uint32(w>>(l-1))&1
		if k := code - d.first[l]; k < d.count[l] {
			return d.sorted[d.offset[l]+k], l
		}
	}
	return 0, 0
}

// decodeHuff8Into decodes bitLen bits of packed data, a code-length header
// then the codewords, into all of dst.
func decodeHuff8Into(dst, packed []byte, bitLen uint64) error {
	if err := checkBitLen(packed, bitLen); err != nil {
		return err
	}
	r := bitio.NewReaderBits(packed, bitLen)
	var lengths [256]uint8
	for s := range lengths {
		v, err := r.ReadBits(5)
		if err != nil {
			return fmt.Errorf("huff8: truncated header: %w", err)
		}
		lengths[s] = uint8(v)
	}
	if len(dst) == 0 {
		return nil
	}
	var d huff8Decoder
	if err := d.build(&lengths); err != nil {
		return err
	}
	// Decode from a peeked window while a longest code still fits in its
	// 57 bits, then consume what was used; Skip finds a stream that ran
	// past its bits, at the latest when the last symbol is consumed.
	w, used := r.Peek(), uint(0)
	for i := range dst {
		if used > 57-huff8MaxCodeLen {
			if err := r.Skip(used); err != nil {
				return fmt.Errorf("huff8: truncated stream: %w", err)
			}
			w, used = r.Peek(), 0
		}
		e := d.fast[w&(1<<huff8FastBits-1)]
		sym, l := byte(e), uint(e>>8)
		if e == 0 {
			if sym, l = d.long(w); l == 0 {
				return fmt.Errorf("huff8: invalid code at byte %d", i)
			}
		}
		dst[i] = sym
		w >>= l
		used += l
	}
	if err := r.Skip(used); err != nil {
		return fmt.Errorf("huff8: truncated stream: %w", err)
	}
	return nil
}
