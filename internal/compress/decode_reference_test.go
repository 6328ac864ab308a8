package compress

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitio"
)

// Reference decoders: the straightforward symbol-at-a-time decoders every
// kernel shipped with before the word-window and table-driven ones, kept
// unchanged as test oracles. FuzzDecodeMatchesReference holds the shipped
// decoders to them (decode_diff_test.go).

func referenceDecompressTcomp32(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	r := bitio.NewReaderBits(packed, bitLen)
	out := make([]byte, 0, origLen)
	for len(out)+4 <= origLen {
		nMinus1, err := r.ReadBits(5)
		if err != nil {
			return nil, fmt.Errorf("tcomp32: truncated length indicator: %w", err)
		}
		v, err := r.ReadBits(uint(nMinus1) + 1)
		if err != nil {
			return nil, fmt.Errorf("tcomp32: truncated symbol: %w", err)
		}
		var word [4]byte
		binary.LittleEndian.PutUint32(word[:], uint32(v))
		out = append(out, word[:]...)
	}
	for len(out) < origLen {
		v, err := r.ReadBits(8)
		if err != nil {
			return nil, fmt.Errorf("tcomp32: truncated tail: %w", err)
		}
		out = append(out, byte(v))
	}
	return out, nil
}

type referenceTdic32Decoder struct {
	table [tdicTableSize]uint32
}

func (d *referenceTdic32Decoder) DecompressBatch(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	r := bitio.NewReaderBits(packed, bitLen)
	out := make([]byte, 0, origLen)
	for len(out)+4 <= origLen {
		flag, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("tdic32: truncated flag: %w", err)
		}
		var v uint32
		if flag {
			idx, err := r.ReadBits(TdicTableBits)
			if err != nil {
				return nil, fmt.Errorf("tdic32: truncated index: %w", err)
			}
			v = d.table[idx]
		} else {
			raw, err := r.ReadBits(32)
			if err != nil {
				return nil, fmt.Errorf("tdic32: truncated symbol: %w", err)
			}
			v = uint32(raw)
			d.table[tdicHash(v)] = v
		}
		var word [4]byte
		binary.LittleEndian.PutUint32(word[:], v)
		out = append(out, word[:]...)
	}
	for len(out) < origLen {
		v, err := r.ReadBits(8)
		if err != nil {
			return nil, fmt.Errorf("tdic32: truncated tail: %w", err)
		}
		out = append(out, byte(v))
	}
	return out, nil
}

func referenceDecompressTdic32(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	return (&referenceTdic32Decoder{}).DecompressBatch(packed, bitLen, origLen)
}

type referenceDelta32Decoder struct {
	prev uint32
}

func (d *referenceDelta32Decoder) DecompressBatch(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	r := bitio.NewReaderBits(packed, bitLen)
	out := make([]byte, 0, origLen)
	prev := d.prev
	for len(out)+4 <= origLen {
		nMinus1, err := r.ReadBits(5)
		if err != nil {
			return nil, fmt.Errorf("delta32: truncated width: %w", err)
		}
		z, err := r.ReadBits(uint(nMinus1) + 1)
		if err != nil {
			return nil, fmt.Errorf("delta32: truncated delta: %w", err)
		}
		v := uint32(int32(prev) + unzigzag(uint32(z)))
		prev = v
		var word [4]byte
		binary.LittleEndian.PutUint32(word[:], v)
		out = append(out, word[:]...)
	}
	d.prev = prev
	for len(out) < origLen {
		v, err := r.ReadBits(8)
		if err != nil {
			return nil, fmt.Errorf("delta32: truncated tail: %w", err)
		}
		out = append(out, byte(v))
	}
	return out, nil
}

func referenceDecompressDelta32(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	return (&referenceDelta32Decoder{}).DecompressBatch(packed, bitLen, origLen)
}

func referenceDecompressRLE32(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	r := bitio.NewReaderBits(packed, bitLen)
	out := make([]byte, 0, origLen)
	for len(out)+4 <= origLen {
		runMinus1, err := r.ReadBits(6)
		if err != nil {
			return nil, fmt.Errorf("rle32: truncated run length: %w", err)
		}
		v, err := r.ReadBits(32)
		if err != nil {
			return nil, fmt.Errorf("rle32: truncated symbol: %w", err)
		}
		var word [4]byte
		binary.LittleEndian.PutUint32(word[:], uint32(v))
		for k := 0; k <= int(runMinus1); k++ {
			if len(out)+4 > origLen {
				return nil, fmt.Errorf("rle32: run overflows output (%d bytes)", origLen)
			}
			out = append(out, word[:]...)
		}
	}
	for len(out) < origLen {
		v, err := r.ReadBits(8)
		if err != nil {
			return nil, fmt.Errorf("rle32: truncated tail: %w", err)
		}
		out = append(out, byte(v))
	}
	return out, nil
}

func referenceDecompressLZ4(block []byte, origLen int) ([]byte, error) {
	out := make([]byte, 0, origLen)
	i := 0
	for {
		if i >= len(block) {
			if len(out) == origLen {
				return out, nil
			}
			return nil, fmt.Errorf("%w: ran out of input at %d/%d bytes", ErrLZ4Corrupt, len(out), origLen)
		}
		token := block[i]
		i++
		litLen := int(token >> 4)
		if litLen == 15 {
			var n int
			n, i = readLenExt(block, i)
			if i < 0 {
				return nil, fmt.Errorf("%w: truncated literal length", ErrLZ4Corrupt)
			}
			litLen += n
		}
		if i+litLen > len(block) {
			return nil, fmt.Errorf("%w: truncated literals", ErrLZ4Corrupt)
		}
		out = append(out, block[i:i+litLen]...)
		i += litLen
		if len(out) >= origLen {
			// Terminating sequence reached.
			if len(out) != origLen {
				return nil, fmt.Errorf("%w: output overrun (%d > %d)", ErrLZ4Corrupt, len(out), origLen)
			}
			return out, nil
		}
		if i+2 > len(block) {
			// A literals-only terminator that did not fill origLen.
			return nil, fmt.Errorf("%w: missing match offset", ErrLZ4Corrupt)
		}
		offset := int(block[i]) | int(block[i+1])<<8
		i += 2
		if offset == 0 || offset > len(out) {
			return nil, fmt.Errorf("%w: bad offset %d at output %d", ErrLZ4Corrupt, offset, len(out))
		}
		matchLen := int(token & 0x0F)
		if matchLen == 15 {
			var n int
			n, i = readLenExt(block, i)
			if i < 0 {
				return nil, fmt.Errorf("%w: truncated match length", ErrLZ4Corrupt)
			}
			matchLen += n
		}
		matchLen += lz4MinMatch
		// Overlapping copy, byte by byte (offsets may be < matchLen).
		start := len(out) - offset
		for j := 0; j < matchLen; j++ {
			out = append(out, out[start+j])
		}
	}
}

func referenceDecompressHuff8(packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	r := bitio.NewReaderBits(packed, bitLen)
	var lengths [256]uint8
	for s := 0; s < 256; s++ {
		v, err := r.ReadBits(5)
		if err != nil {
			return nil, fmt.Errorf("huff8: truncated header: %w", err)
		}
		lengths[s] = uint8(v)
	}
	if origLen == 0 {
		return []byte{}, nil
	}
	codes := referenceCanonicalCodes(&lengths)
	// Decode with a (code,length)→symbol map; fine for a reference decoder.
	type key struct {
		code uint32
		len  uint8
	}
	table := make(map[key]byte, 256)
	for s, l := range lengths {
		if l > 0 {
			table[key{codes[s], l}] = byte(s)
		}
	}
	out := make([]byte, 0, origLen)
	for len(out) < origLen {
		var code uint32
		var l uint8
		for {
			bit, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("huff8: truncated stream at byte %d: %w", len(out), err)
			}
			code = code<<1 | boolBit(bit)
			l++
			if sym, ok := table[key{code, l}]; ok {
				out = append(out, sym)
				break
			}
			if l > huff8MaxCodeLen {
				return nil, fmt.Errorf("huff8: invalid code at byte %d", len(out))
			}
		}
	}
	return out, nil
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
