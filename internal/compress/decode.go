package compress

import "fmt"

// The decode side (DESIGN.md "Decoder contract"). A batch decodes into one
// output buffer of InputBytes: DecodeSegments checks every segment's
// metadata first, allocates that buffer once, and each slice decodes in
// place into its own range of it. Each kernel has one decode<Alg>Into that
// fills a caller-sized dst and allocates nothing; the exported
// Decompress<Alg> functions and the stateful decoders' DecompressBatch wrap
// it with a fresh buffer. The bit-packed kernels read each token from one
// bitio.Reader.Peek window and consume it with a checked Skip; lz4 copies.

// segmentDecoder decodes one kind of segment: into fills dst, exactly the
// slice's OrigLen bytes, and maxLen bounds the bytes a segment of that kind
// can decode to, from its BitLen and packed bytes.
type segmentDecoder struct {
	into   func(dst []byte, seg *Segment) error
	maxLen func(seg *Segment) uint64
}

// segmentDecoders maps algorithm names to their slice decoders. Slices are
// independent (Section IV-B), so the stateful kernels start from empty
// state.
var segmentDecoders = map[string]segmentDecoder{
	"tcomp32": {
		into: func(dst []byte, seg *Segment) error {
			return decodeTcomp32Into(dst, seg.Compressed, seg.BitLen)
		},
		// A word is at least a 5-bit width and a 1-bit symbol.
		maxLen: wordsIn(6),
	},
	"tdic32": {
		into: func(dst []byte, seg *Segment) error {
			var dict [tdicTableSize]uint32
			return decodeTdic32Into(&dict, dst, seg.Compressed, seg.BitLen)
		},
		// A word is at least a hit: a flag and a table index.
		maxLen: wordsIn(1 + TdicTableBits),
	},
	"lz4": {
		into: func(dst []byte, seg *Segment) error {
			return decodeLZ4Into(dst, seg.Compressed)
		},
		// Each block byte yields at most 255 output bytes: a length
		// extension byte adds at most 255, and a 3-byte sequence head
		// (token, offset) at most 15+4.
		maxLen: func(seg *Segment) uint64 { return 255 * uint64(len(seg.Compressed)) },
	},
	"delta32": {
		into: func(dst []byte, seg *Segment) error {
			var prev uint32
			return decodeDelta32Into(&prev, dst, seg.Compressed, seg.BitLen)
		},
		maxLen: wordsIn(6),
	},
	"rle32": {
		into: func(dst []byte, seg *Segment) error {
			return decodeRLE32Into(dst, seg.Compressed, seg.BitLen)
		},
		// 38 bits are a run of up to 64 words.
		maxLen: func(seg *Segment) uint64 { return 256*(seg.BitLen/38) + 3 },
	},
	"huff8": {
		into: func(dst []byte, seg *Segment) error {
			return decodeHuff8Into(dst, seg.Compressed, seg.BitLen)
		},
		// Every codeword is at least one bit.
		maxLen: func(seg *Segment) uint64 { return seg.BitLen },
	},
}

// wordsIn bounds a word-token kernel's output: 4 bytes per token of at
// least minBits bits, and up to 3 raw tail bytes.
func wordsIn(minBits uint64) func(seg *Segment) uint64 {
	return func(seg *Segment) uint64 { return 4*(seg.BitLen/minBits) + 3 }
}

// DecodeSegments reverses a PipelineResult for the given algorithm,
// reassembling the original batch bytes. Segment metadata that cannot
// describe the batch — a BitLen past its bytes, a slice longer than its
// bits can encode, slice indices out of order, slice lengths that do not
// sum to InputBytes — is an error, found before anything is allocated.
func DecodeSegments(algName string, res *PipelineResult) ([]byte, error) {
	dec, ok := segmentDecoders[algName]
	if !ok {
		return nil, fmt.Errorf("compress: unknown algorithm %q", algName)
	}
	if err := checkSegments(dec, res); err != nil {
		return nil, err
	}
	out := make([]byte, res.InputBytes)
	lo := 0
	for i := range res.Segments {
		seg := &res.Segments[i]
		hi := lo + seg.OrigLen
		if err := dec.into(out[lo:hi:hi], seg); err != nil {
			return nil, fmt.Errorf("segment %d: %w", seg.SliceIndex, err)
		}
		lo = hi
	}
	return out, nil
}

// checkSegments validates res's segment metadata against itself and
// against what dec's segments can decode to.
func checkSegments(dec segmentDecoder, res *PipelineResult) error {
	rest := res.InputBytes
	if rest < 0 {
		return fmt.Errorf("compress: negative batch size %d", rest)
	}
	for i := range res.Segments {
		seg := &res.Segments[i]
		switch {
		case seg.SliceIndex != i:
			return fmt.Errorf("compress: segment %d carries slice index %d", i, seg.SliceIndex)
		case seg.BitLen > uint64(len(seg.Compressed))*8:
			return fmt.Errorf("compress: segment %d: %d bits in %d bytes", i, seg.BitLen, len(seg.Compressed))
		case seg.OrigLen < 0 || seg.OrigLen > rest:
			return fmt.Errorf("compress: segment %d: slice of %d bytes with %d of the batch left", i, seg.OrigLen, rest)
		case uint64(seg.OrigLen) > dec.maxLen(seg):
			return fmt.Errorf("compress: segment %d: slice of %d bytes from %d bits", i, seg.OrigLen, seg.BitLen)
		}
		rest -= seg.OrigLen
	}
	if rest != 0 {
		return fmt.Errorf("compress: segments cover %d of the batch's %d bytes", res.InputBytes-rest, res.InputBytes)
	}
	return nil
}

// decodeFresh runs a decode<Alg>Into on a fresh buffer of origLen bytes:
// the single-batch decoders.
func decodeFresh(origLen int, decode func(dst []byte) error) ([]byte, error) {
	if origLen < 0 {
		return nil, fmt.Errorf("compress: negative output length %d", origLen)
	}
	out := make([]byte, origLen)
	if err := decode(out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkBitLen rejects a bit length past the packed bytes, which no encoder
// writes and no reader may index.
func checkBitLen(packed []byte, bitLen uint64) error {
	if bitLen > uint64(len(packed))*8 {
		return fmt.Errorf("compress: %d bits in %d bytes", bitLen, len(packed))
	}
	return nil
}
