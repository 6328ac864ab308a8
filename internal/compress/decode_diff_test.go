package compress

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/bitio"
	"repro/internal/dataset"
	"repro/internal/stream"
)

// decodeAlgs lists every kernel in the order the differential fuzz target
// indexes them.
var decodeAlgs = []string{"tcomp32", "tdic32", "lz4", "delta32", "rle32", "huff8"}

// shippedDecode runs the exported single-batch decoder for name.
func shippedDecode(name string, packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	switch name {
	case "tcomp32":
		return DecompressTcomp32(packed, bitLen, origLen)
	case "tdic32":
		return DecompressTdic32(packed, bitLen, origLen)
	case "lz4":
		return DecompressLZ4(packed, origLen)
	case "delta32":
		return DecompressDelta32(packed, bitLen, origLen)
	case "rle32":
		return DecompressRLE32(packed, bitLen, origLen)
	default:
		return DecompressHuff8(packed, bitLen, origLen)
	}
}

// referenceDecode runs the reference decoder for name.
func referenceDecode(name string, packed []byte, bitLen uint64, origLen int) ([]byte, error) {
	switch name {
	case "tcomp32":
		return referenceDecompressTcomp32(packed, bitLen, origLen)
	case "tdic32":
		return referenceDecompressTdic32(packed, bitLen, origLen)
	case "lz4":
		return referenceDecompressLZ4(packed, origLen)
	case "delta32":
		return referenceDecompressDelta32(packed, bitLen, origLen)
	case "rle32":
		return referenceDecompressRLE32(packed, bitLen, origLen)
	default:
		return referenceDecompressHuff8(packed, bitLen, origLen)
	}
}

// huff8HeaderUnreachable reports whether a huff8 stream's code-length
// header is one the encoder never writes: a length above huff8MaxCodeLen,
// or lengths whose Kraft sum exceeds 1. The shipped decoder rejects such
// headers outright, where the reference may still decode some streams.
func huff8HeaderUnreachable(packed []byte, bitLen uint64) bool {
	r := bitio.NewReaderBits(packed, bitLen)
	kraft := 0
	for s := 0; s < 256; s++ {
		l, err := r.ReadBits(5)
		if err != nil {
			return false
		}
		if l > huff8MaxCodeLen {
			return true
		}
		if l > 0 {
			kraft += 1 << (huff8MaxCodeLen - l)
		}
	}
	return kraft > 1<<huff8MaxCodeLen
}

// lzevilEdges are the round-trip edge cases of the lzevil LZ test suite:
// empty, single and repeated bytes, a period-3 repeat with and without a
// break, a palindrome around a run, the period-4 overlapping copy, and a
// 192 KiB buffer that is zero except for sparse small values.
func lzevilEdges() [][]byte {
	sparse := make([]byte, 0x30000)
	seed := 0
	for i := range sparse {
		seed = seed*1103515245 + 12345
		v := byte(((seed >> 16) & 0x7FFF) % 200)
		if v > 5 {
			v = 0
		}
		sparse[i] = v
	}
	var out [][]byte
	for _, s := range []string{"", "1", "11", "123123123", "123123123x", "1123xxxxx3211", "abcdabcdabcdabcd"} {
		out = append(out, []byte(s))
	}
	return append(out, sparse)
}

// FuzzDecodeMatchesReference holds every shipped decoder to its reference
// twin on arbitrary (algorithm, packed bytes, BitLen, OrigLen):
//
//   - if the shipped decoder accepts an input, the reference accepts it
//     with identical bytes;
//   - if the reference accepts it, so does the shipped decoder, with
//     identical bytes, except for a huff8 header the encoder cannot emit
//     (huff8HeaderUnreachable), which the shipped decoder may reject;
//   - DecodeSegments on the input as one segment agrees with the
//     single-batch decoder.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, data := range lzevilEdges() {
		for i, name := range decodeAlgs {
			alg, err := ByName(name)
			if err != nil {
				f.Fatal(err)
			}
			r := alg.NewSession().CompressBatch(stream.NewBatchBytes(0, data))
			f.Add(uint8(i), r.Compressed, r.BitLen, len(data))
		}
	}
	// Hostile inputs: an lz4 offset-1 run, a match past the output, a
	// huff8 header with a 16-bit length and one with three 1-bit codes,
	// a huff8 stream with 64 spare bits after its last code, an rle32 run
	// longer than the output, and truncated tdic32 hits.
	f.Add(uint8(2), []byte{0x1F, 'a', 0x01, 0x00, 0x05}, uint64(40), 25)
	f.Add(uint8(2), []byte{0x10, 'a', 0x01, 0x00}, uint64(32), 6)
	huffLong, huffOver := bitio.NewWriter(0), bitio.NewWriter(0)
	for s := 0; s < 256; s++ {
		var long, over uint64
		if s == 'a' {
			long = 16
		}
		if s < 3 {
			over = 1
		}
		huffLong.WriteBits(long, 5)
		huffOver.WriteBits(over, 5)
	}
	huffLong.WriteBits(0, 16)
	huffOver.WriteBits(0b110, 3)
	f.Add(uint8(5), huffLong.Bytes(), huffLong.BitLen(), 1)
	f.Add(uint8(5), huffOver.Bytes(), huffOver.BitLen(), 2)
	spare := NewHuff8().NewSession().CompressBatch(stream.NewBatchBytes(0, []byte("abcabc")))
	f.Add(uint8(5), append(spare.Compressed, make([]byte, 8)...), uint64(len(spare.Compressed)+8)*8, 6)
	f.Add(uint8(4), []byte{0xFF, 0x01, 0x00, 0x00, 0x00}, uint64(38), 8)
	f.Add(uint8(1), []byte{0xFF, 0xFF, 0xFF, 0xFF}, uint64(32), 12)

	f.Fuzz(func(t *testing.T, algIdx uint8, packed []byte, bitLen uint64, origLen int) {
		if origLen < 0 || origLen > 1<<18 {
			return
		}
		if bitLen > uint64(len(packed))*8 {
			bitLen = uint64(len(packed)) * 8
		}
		name := decodeAlgs[int(algIdx)%len(decodeAlgs)]
		got, err := shippedDecode(name, packed, bitLen, origLen)
		want, refErr := referenceDecode(name, packed, bitLen, origLen)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("%s: shipped decoder accepts what the reference rejects (%v)", name, refErr)
		case err != nil && refErr == nil:
			if name != "huff8" || !huff8HeaderUnreachable(packed, bitLen) {
				t.Fatalf("%s: shipped decoder rejects what the reference accepts: %v", name, err)
			}
		case err == nil && !bytes.Equal(got, want):
			t.Fatalf("%s: shipped and reference decoders disagree on the output bytes", name)
		}

		seg, segErr := DecodeSegments(name, &PipelineResult{
			Segments:   []Segment{{Compressed: packed, BitLen: bitLen, OrigLen: origLen}},
			InputBytes: origLen,
		})
		if (segErr == nil) != (err == nil) || !bytes.Equal(seg, got) {
			t.Fatalf("%s: DecodeSegments (err %v) disagrees with the batch decoder (err %v)", name, segErr, err)
		}
	})
}

// TestDecodeSegmentsRoundTrip round-trips every dataset and every lzevil
// edge case through every kernel as one slice and as twelve, the shapes
// the deployments cut small and paper-size batches into.
func TestDecodeSegmentsRoundTrip(t *testing.T) {
	var inputs [][]byte
	for _, gen := range dataset.All(1) {
		// 12 slices of several words each, plus a three-byte raw tail.
		inputs = append(inputs, gen.Batch(0, 96<<10+3).Bytes())
	}
	for _, data := range append(inputs, lzevilEdges()...) {
		batch := stream.NewBatchBytes(0, data)
		for _, name := range decodeAlgs {
			alg, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, slices := range []int{1, 12} {
				res, err := RunPipeline(alg, batch, slices, make([]int, len(StageSets(alg))))
				if err != nil {
					t.Fatal(err)
				}
				got, err := DecodeSegments(name, res)
				res.Release()
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s on %d bytes in %d slices: round trip failed (err %v)", name, len(data), slices, err)
				}
			}
		}
	}
}

// TestDecodeSegmentsOneAlloc pins the decoder contract: a batch decodes
// into one output buffer, whatever the kernel and slice count.
func TestDecodeSegmentsOneAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	batch := allocBatch(256<<10 + 3)
	for _, name := range decodeAlgs {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunPipeline(alg, batch, 12, make([]int, len(StageSets(alg))))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := DecodeSegments(name, res); err != nil {
				t.Fatal(err)
			}
		})
		res.Release()
		if allocs != 1 {
			t.Errorf("%s: DecodeSegments allocated %.1f times per batch, want 1", name, allocs)
		}
	}
}

// TestDecodeSegmentsRejectsInconsistentSegments checks that segment
// metadata that cannot describe the batch comes back as an error before
// any kernel runs, never as a panic.
func TestDecodeSegmentsRejectsInconsistentSegments(t *testing.T) {
	res, err := RunPipeline(NewTcomp32(), allocBatch(4096), 2, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	for _, tc := range []struct {
		name   string
		mutate func(r *PipelineResult)
	}{
		{"bit length past the bytes", func(r *PipelineResult) { r.Segments[1].BitLen = uint64(len(r.Segments[1].Compressed))*8 + 1 }},
		{"slice lengths short of the batch", func(r *PipelineResult) { r.InputBytes++ }},
		{"slice lengths past the batch", func(r *PipelineResult) { r.Segments[0].OrigLen += 4 }},
		{"negative slice length", func(r *PipelineResult) { r.Segments[0].OrigLen = -4 }},
		{"slices out of order", func(r *PipelineResult) {
			r.Segments[0].SliceIndex, r.Segments[1].SliceIndex = 1, 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := &PipelineResult{InputBytes: res.InputBytes, Segments: append([]Segment(nil), res.Segments...)}
			tc.mutate(bad)
			if _, err := DecodeSegments("tcomp32", bad); err == nil {
				t.Fatal("inconsistent segments decoded without an error")
			}
		})
	}
}

// TestDecodeSegmentsRejectsOversizedSlice is a hostile header: a 4 GiB
// batch in one slice of no bits. Every kernel needs some bits per output
// byte, so DecodeSegments refuses it before allocating the output buffer.
func TestDecodeSegmentsRejectsOversizedSlice(t *testing.T) {
	const size = 1<<32 - 1
	bad := &PipelineResult{InputBytes: size, Segments: []Segment{{OrigLen: size}}}
	for _, name := range decodeAlgs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := DecodeSegments(name, bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: decoded %d bytes from a slice of no bits", name, len(out))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: allocated %d bytes before refusing the slice", name, grew)
		}
	}
}
