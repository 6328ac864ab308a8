package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/stream"
)

func TestExtensionsRegistry(t *testing.T) {
	exts := Extensions()
	if len(exts) != 3 {
		t.Fatalf("Extensions = %d", len(exts))
	}
	for _, a := range exts {
		got, err := ByName(a.Name())
		if err != nil || got.Name() != a.Name() {
			t.Fatalf("ByName(%s): %v", a.Name(), err)
		}
		if StageSets(a) == nil {
			t.Fatalf("%s: no stage sets", a.Name())
		}
	}
	// Extensions must not leak into the paper's evaluation set.
	for _, a := range All() {
		switch a.Name() {
		case "delta32", "rle32", "huff8":
			t.Fatal("extension leaked into All()")
		}
	}
}

// --- delta32 ---

func TestZigzag(t *testing.T) {
	cases := map[int32]uint32{0: 0, -1: 1, 1: 2, -2: 3, 2: 4, 1 << 30: 1 << 31}
	for d, want := range cases {
		if got := zigzag(d); got != want {
			t.Fatalf("zigzag(%d) = %d, want %d", d, got, want)
		}
		if back := unzigzag(want); back != d {
			t.Fatalf("unzigzag(%d) = %d, want %d", want, back, d)
		}
	}
}

func TestQuickZigzagRoundTrip(t *testing.T) {
	f := func(d int32) bool { return unzigzag(zigzag(d)) == d }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDelta32RoundTripSimple(t *testing.T) {
	words := []uint32{100, 101, 103, 99, 99, 1 << 30, 0, 0xFFFFFFFF}
	data := make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(data[i*4:], w)
	}
	r := NewDelta32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	got, err := DecompressDelta32(r.Compressed, r.BitLen, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestDelta32SmoothStreamsCompressWell(t *testing.T) {
	// A slowly drifting signal: deltas fit in a few bits.
	data := make([]byte, 4000)
	v := int32(1 << 20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i+4 <= len(data); i += 4 {
		v += int32(rng.Intn(7)) - 3
		binary.LittleEndian.PutUint32(data[i:], uint32(v))
	}
	b := stream.NewBatchBytes(0, data)
	delta := NewDelta32().NewSession().CompressBatch(b)
	plain := NewTcomp32().NewSession().CompressBatch(b)
	if delta.Ratio() >= plain.Ratio() {
		t.Fatalf("delta32 (%.3f) should beat tcomp32 (%.3f) on smooth data",
			delta.Ratio(), plain.Ratio())
	}
	if delta.Ratio() > 0.35 {
		t.Fatalf("delta32 ratio %.3f too weak for smooth data", delta.Ratio())
	}
}

func TestDelta32StatePersistsAcrossBatches(t *testing.T) {
	// Batch 2 continues batch 1's ramp: with a persisted predecessor the
	// first word of batch 2 is a small delta, without it a 21-bit raw value.
	mk := func(start uint32) []byte {
		data := make([]byte, 40)
		for i := 0; i < 10; i++ {
			binary.LittleEndian.PutUint32(data[i*4:], start+uint32(i))
		}
		return data
	}
	sess := NewDelta32().NewSession()
	r1 := sess.CompressBatch(stream.NewBatchBytes(0, mk(1<<20)))
	r2 := sess.CompressBatch(stream.NewBatchBytes(1, mk(1<<20+10)))
	if r2.BitLen >= r1.BitLen {
		t.Fatalf("persisted state should shrink batch 2: %d vs %d bits", r2.BitLen, r1.BitLen)
	}
	dec := NewDelta32Decoder()
	g1, err := dec.DecompressBatch(r1.Compressed, r1.BitLen, 40)
	if err != nil || !bytes.Equal(g1, mk(1<<20)) {
		t.Fatalf("batch 1 decode failed: %v", err)
	}
	g2, err := dec.DecompressBatch(r2.Compressed, r2.BitLen, 40)
	if err != nil || !bytes.Equal(g2, mk(1<<20+10)) {
		t.Fatalf("batch 2 decode failed: %v", err)
	}
}

func TestDelta32Reset(t *testing.T) {
	sess := NewDelta32().NewSession()
	data := make([]byte, 8)
	binary.LittleEndian.PutUint32(data, 500)
	binary.LittleEndian.PutUint32(data[4:], 501)
	r1 := sess.CompressBatch(stream.NewBatchBytes(0, data))
	sess.Reset()
	r2 := sess.CompressBatch(stream.NewBatchBytes(1, data))
	if r1.BitLen != r2.BitLen {
		t.Fatalf("Reset did not clear predecessor: %d vs %d", r1.BitLen, r2.BitLen)
	}
}

func TestQuickDelta32RoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		data := make([]byte, n)
		rng.Read(data)
		r := NewDelta32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
		got, err := DecompressDelta32(r.Compressed, r.BitLen, n)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// --- rle32 ---

func TestRLE32RoundTripSimple(t *testing.T) {
	words := []uint32{7, 7, 7, 7, 9, 9, 1, 2, 3, 3, 3}
	data := make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(data[i*4:], w)
	}
	r := NewRLE32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	got, err := DecompressRLE32(r.Compressed, r.BitLen, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestRLE32LongRunsSplit(t *testing.T) {
	// A run of 200 identical words must split into 64-word tokens.
	data := make([]byte, 200*4)
	for i := 0; i < 200; i++ {
		binary.LittleEndian.PutUint32(data[i*4:], 0xABCD)
	}
	r := NewRLE32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	// ceil(200/64) = 4 tokens of 38 bits.
	if r.BitLen != 4*38 {
		t.Fatalf("BitLen = %d, want %d", r.BitLen, 4*38)
	}
	got, err := DecompressRLE32(r.Compressed, r.BitLen, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestRLE32BurstyBeatsTcomp32(t *testing.T) {
	// Status-word telemetry: long constant stretches.
	data := make([]byte, 8000)
	rng := rand.New(rand.NewSource(2))
	v := uint32(0xDEAD0001)
	for i := 0; i+4 <= len(data); i += 4 {
		if rng.Intn(20) == 0 {
			v = rng.Uint32()
		}
		binary.LittleEndian.PutUint32(data[i:], v)
	}
	b := stream.NewBatchBytes(0, data)
	rle := NewRLE32().NewSession().CompressBatch(b)
	plain := NewTcomp32().NewSession().CompressBatch(b)
	if rle.Ratio() >= plain.Ratio() {
		t.Fatalf("rle32 (%.3f) should beat tcomp32 (%.3f) on bursty data", rle.Ratio(), plain.Ratio())
	}
}

func TestRLE32IncompressibleBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 4000)
	rng.Read(data)
	r := NewRLE32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	// Worst case: 38 bits per 32-bit word = ×1.1875.
	if float64(r.BitLen) > float64(len(data)*8)*1.19 {
		t.Fatalf("expansion too large: %d bits for %d bytes", r.BitLen, len(data))
	}
	got, err := DecompressRLE32(r.Compressed, r.BitLen, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestQuickRLE32RoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8, runRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 1
		data := make([]byte, 0, n)
		for len(data) < n {
			word := make([]byte, 4)
			rng.Read(word)
			repeats := rng.Intn(int(runRaw)%10+1) + 1
			for k := 0; k < repeats && len(data) < n; k++ {
				data = append(data, word...)
			}
		}
		data = data[:n]
		r := NewRLE32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
		got, err := DecompressRLE32(r.Compressed, r.BitLen, n)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// --- pipeline integration for extensions ---

func TestExtensionPipelineRoundTrip(t *testing.T) {
	for _, alg := range Extensions() {
		for _, g := range dataset.All(13) {
			b := g.Batch(0, 16*1024)
			workers := make([]int, len(StageSets(alg)))
			for i := range workers {
				workers[i] = 2
			}
			res, err := RunPipeline(alg, b, 3, workers)
			if err != nil {
				t.Fatalf("%s-%s: %v", alg.Name(), g.Name(), err)
			}
			got, err := DecodeSegments(alg.Name(), res)
			if err != nil || !bytes.Equal(got, b.Bytes()) {
				t.Fatalf("%s-%s: pipeline round trip failed: %v", alg.Name(), g.Name(), err)
			}
		}
	}
}

func TestExtensionPipelineMatchesFused(t *testing.T) {
	// Per-slice state means pipeline output equals per-slice fused output.
	for _, alg := range Extensions() {
		b := dataset.NewStock(4).Batch(0, 8*1024)
		res, err := RunPipeline(alg, b, 1, make([]int, len(StageSets(alg))))
		if err != nil {
			t.Fatal(err)
		}
		fused := alg.NewSession().CompressBatch(b)
		if res.Segments[0].BitLen != fused.BitLen ||
			!bytes.Equal(res.Segments[0].Compressed, fused.Compressed) {
			t.Fatalf("%s: staged output differs from fused", alg.Name())
		}
	}
}

func TestExtensionKappaProfiles(t *testing.T) {
	// Extensions must expose the same κ structure the scheduler relies on:
	// read lowest, an arithmetic-heavy step highest.
	for _, alg := range Extensions() {
		b := dataset.NewStock(4).Batch(0, 32*1024)
		r := alg.NewSession().CompressBatch(b)
		kRead := r.Steps[StepRead].Cost.Kappa()
		maxK := 0.0
		for _, st := range r.Steps {
			if k := st.Cost.Kappa(); k > maxK {
				maxK = k
			}
		}
		if maxK <= kRead*2 {
			t.Fatalf("%s: no high-κ step exposed (read %.1f, max %.1f)", alg.Name(), kRead, maxK)
		}
	}
}

// --- huff8 ---

func TestHuff8RoundTripSimple(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog, the dog sleeps")
	r := NewHuff8().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	got, err := DecompressHuff8(r.Compressed, r.BitLen, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestHuff8SkewedDataCompresses(t *testing.T) {
	// 90% one symbol: entropy ≈ 0.8 bits/byte incl. header.
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 16384)
	for i := range data {
		if rng.Intn(10) != 0 {
			data[i] = 'a'
		} else {
			data[i] = byte(rng.Intn(8))
		}
	}
	r := NewHuff8().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	if r.Ratio() > 0.35 {
		t.Fatalf("ratio %.3f too weak for skewed data", r.Ratio())
	}
	got, err := DecompressHuff8(r.Compressed, r.BitLen, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestHuff8SingleSymbol(t *testing.T) {
	data := bytes.Repeat([]byte{0x42}, 500)
	r := NewHuff8().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	got, err := DecompressHuff8(r.Compressed, r.BitLen, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("single-symbol round trip failed: %v", err)
	}
	// 1 bit per byte plus the 1280-bit header.
	if r.BitLen != 256*5+500 {
		t.Fatalf("BitLen = %d", r.BitLen)
	}
}

func TestHuff8EmptyInput(t *testing.T) {
	r := NewHuff8().NewSession().CompressBatch(stream.NewBatchBytes(0, nil))
	got, err := DecompressHuff8(r.Compressed, r.BitLen, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
}

func TestHuff8AllSymbols(t *testing.T) {
	// Uniform alphabet: 8-bit codes, output ≈ input + header.
	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i)
	}
	r := NewHuff8().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	got, err := DecompressHuff8(r.Compressed, r.BitLen, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("uniform round trip failed: %v", err)
	}
	if r.BitLen > uint64(len(data))*8+256*5+64 {
		t.Fatalf("uniform data expanded: %d bits", r.BitLen)
	}
}

func TestHuff8KraftInvariant(t *testing.T) {
	// Property: code lengths always satisfy the Kraft inequality and yield
	// prefix-free canonical codes.
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%4000 + 1
		var freq [256]int
		for i := 0; i < n; i++ {
			// Skewed draws to exercise deep trees.
			freq[byte(rng.ExpFloat64()*8)&0xFF]++
		}
		lengths := new(huffTree).codeLengths(&freq)
		kraft := 0.0
		for _, l := range lengths {
			if l > huff8MaxCodeLen {
				return false
			}
			if l > 0 {
				kraft += 1 / float64(uint32(1)<<l)
			}
		}
		return kraft <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHuff8RoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16, skew uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%3000 + 1
		data := make([]byte, n)
		mask := byte(0xFF)
		if skew%3 == 0 {
			mask = 0x0F // narrow alphabet
		}
		for i := range data {
			data[i] = byte(rng.Intn(256)) & mask
		}
		r := NewHuff8().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
		got, err := DecompressHuff8(r.Compressed, r.BitLen, n)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestHuff8BeatsTcomp32OnText(t *testing.T) {
	b := dataset.NewSensor(3).Batch(0, 32*1024)
	h := NewHuff8().NewSession().CompressBatch(b)
	tc := NewTcomp32().NewSession().CompressBatch(b)
	if h.Ratio() >= tc.Ratio() {
		t.Fatalf("huff8 (%.3f) should beat tcomp32 (%.3f) on ASCII text", h.Ratio(), tc.Ratio())
	}
}
