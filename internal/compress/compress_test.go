package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/stream"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"tcomp32", "tdic32", "lz4"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("Name = %s", a.Name())
		}
	}
	if _, err := ByName("zstd"); err == nil {
		t.Fatal("expected error")
	}
}

func TestStepTemplates(t *testing.T) {
	if s := NewTcomp32().Steps(); len(s) != 3 || s[0] != StepRead || s[2] != StepWrite {
		t.Fatalf("tcomp32 steps: %v", s)
	}
	for _, a := range []Algorithm{NewTdic32(), NewLZ4()} {
		s := a.Steps()
		if len(s) != 5 || s[0] != StepRead || s[4] != StepWrite {
			t.Fatalf("%s steps: %v", a.Name(), s)
		}
		if !a.Stateful() {
			t.Fatalf("%s should be stateful", a.Name())
		}
	}
	if NewTcomp32().Stateful() {
		t.Fatal("tcomp32 should be stateless")
	}
}

func TestStepKindString(t *testing.T) {
	names := map[StepKind]string{
		StepRead: "read", StepEncode: "encode", StepPreprocess: "pre-process",
		StepStateUpdate: "state-update", StepStateEncode: "state-encode", StepWrite: "write",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %s, want %s", k, k.String(), want)
		}
	}
	if StepKind(99).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
}

// TestResultStepsArray pins the Steps layout: every kernel fills only its
// template's entries, and TotalCost adds the steps in StepKind order, so the
// sum is bit-exact and independent of anything but the stats themselves.
func TestResultStepsArray(t *testing.T) {
	batch := dataset.NewRovio(3).Batch(0, 16*1024+3)
	for _, alg := range append(All(), Extensions()...) {
		r := alg.NewSession().CompressBatch(batch)
		inTemplate := map[StepKind]bool{}
		for _, k := range alg.Steps() {
			inTemplate[k] = true
		}
		var want Cost
		for k := StepKind(0); k < numStepKinds; k++ {
			st := r.Steps[k]
			if !inTemplate[k] && st != (StepStats{}) {
				t.Fatalf("%s: step %v outside the template has stats %+v", alg.Name(), k, st)
			}
			if inTemplate[k] && st.Cost.Instructions == 0 {
				t.Fatalf("%s: template step %v counted no instructions", alg.Name(), k)
			}
			want.Instructions += st.Cost.Instructions
			want.MemAccesses += st.Cost.MemAccesses
		}
		got := r.TotalCost()
		if math.Float64bits(got.Instructions) != math.Float64bits(want.Instructions) ||
			math.Float64bits(got.MemAccesses) != math.Float64bits(want.MemAccesses) {
			t.Fatalf("%s: TotalCost = %+v, want %+v in StepKind order", alg.Name(), got, want)
		}
	}
}

func TestCostKappa(t *testing.T) {
	c := Cost{Instructions: 300, MemAccesses: 3}
	if c.Kappa() != 100 {
		t.Fatalf("Kappa = %f", c.Kappa())
	}
	z := Cost{Instructions: 42}
	if z.Kappa() != 42 {
		t.Fatalf("zero-access Kappa = %f", z.Kappa())
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{Instructions: 1, MemAccesses: 2}
	a.Add(Cost{Instructions: 3, MemAccesses: 4})
	if a.Instructions != 4 || a.MemAccesses != 6 {
		t.Fatalf("Add = %+v", a)
	}
}

// --- tcomp32 ---

func TestSymbolWidth(t *testing.T) {
	cases := map[uint32]uint{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, 0xFFFFFFFF: 32}
	for v, want := range cases {
		if got := symbolWidth(v); got != want {
			t.Fatalf("symbolWidth(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestTcomp32RoundTripSimple(t *testing.T) {
	words := []uint32{0, 1, 3, 500, 1 << 20, 0xFFFFFFFF, 42}
	data := make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(data[i*4:], w)
	}
	r := NewTcomp32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	got, err := DecompressTcomp32(r.Compressed, r.BitLen, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch")
	}
}

func TestTcomp32CompressesSmallValues(t *testing.T) {
	data := make([]byte, 4000) // all zeros: 6 bits per 32-bit word
	r := NewTcomp32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	if r.Ratio() > 0.25 {
		t.Fatalf("ratio %f too high for zero data", r.Ratio())
	}
}

func TestTcomp32TailBytes(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6, 7} // one word + 3 tail bytes
	r := NewTcomp32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	got, err := DecompressTcomp32(r.Compressed, r.BitLen, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("tail round trip: %v vs %v", got, data)
	}
}

func TestTcomp32EmptyInput(t *testing.T) {
	r := NewTcomp32().NewSession().CompressBatch(stream.NewBatchBytes(0, nil))
	if r.BitLen != 0 || r.InputBytes != 0 {
		t.Fatalf("empty input produced bits: %+v", r)
	}
	got, err := DecompressTcomp32(r.Compressed, 0, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty decompress: %v %v", got, err)
	}
}

func TestTcomp32KappaOrdering(t *testing.T) {
	// Encode must have the highest operational intensity, read the lowest
	// (Observation 1 / Fig. 3 dashed lines).
	b := dataset.NewRovio(1).Batch(0, 64*1024)
	r := NewTcomp32().NewSession().CompressBatch(b)
	kRead := r.Steps[StepRead].Cost.Kappa()
	kEnc := r.Steps[StepEncode].Cost.Kappa()
	kWr := r.Steps[StepWrite].Cost.Kappa()
	if !(kRead < kWr && kWr < kEnc) {
		t.Fatalf("κ ordering violated: read=%.1f write=%.1f encode=%.1f", kRead, kWr, kEnc)
	}
}

func TestTcomp32DynamicRangeSensitivity(t *testing.T) {
	cost := func(rangeMax uint32) float64 {
		m := dataset.NewMicro(1)
		m.DynamicRange = rangeMax
		r := NewTcomp32().NewSession().CompressBatch(m.Batch(0, 64*1024))
		return r.TotalCost().Instructions / float64(r.InputBytes)
	}
	if cost(500) >= cost(50000) {
		t.Fatal("tcomp32 cost should grow with dynamic range")
	}
}

func TestTcomp32Truncated(t *testing.T) {
	data := make([]byte, 40)
	for i := range data {
		data[i] = byte(i * 17)
	}
	r := NewTcomp32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	if _, err := DecompressTcomp32(r.Compressed, r.BitLen/2, len(data)); err == nil {
		t.Fatal("expected error on truncated stream")
	}
}

// --- tdic32 ---

func TestTdic32RoundTripSimple(t *testing.T) {
	words := []uint32{7, 7, 7, 123456, 7, 123456, 0, 0, 99}
	data := make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(data[i*4:], w)
	}
	r := NewTdic32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	got, err := DecompressTdic32(r.Compressed, r.BitLen, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestTdic32StatePersistsAcrossBatches(t *testing.T) {
	// Batch 2 repeats batch 1's symbols; with persistent state it must be
	// far smaller, and the stateful decoder must still round-trip.
	words := make([]byte, 400)
	for i := 0; i < 100; i++ {
		binary.LittleEndian.PutUint32(words[i*4:], uint32(i*100+1))
	}
	sess := NewTdic32().NewSession()
	r1 := sess.CompressBatch(stream.NewBatchBytes(0, words))
	r2 := sess.CompressBatch(stream.NewBatchBytes(1, words))
	if r2.BitLen >= r1.BitLen {
		t.Fatalf("state not persisted: batch1=%d bits batch2=%d bits", r1.BitLen, r2.BitLen)
	}
	dec := NewTdic32Decoder()
	g1, err := dec.DecompressBatch(r1.Compressed, r1.BitLen, len(words))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := dec.DecompressBatch(r2.Compressed, r2.BitLen, len(words))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g1, words) || !bytes.Equal(g2, words) {
		t.Fatal("stateful round trip mismatch")
	}
}

func TestTdic32Reset(t *testing.T) {
	words := make([]byte, 400)
	for i := 0; i < 100; i++ {
		binary.LittleEndian.PutUint32(words[i*4:], uint32(i*31+5))
	}
	sess := NewTdic32().NewSession()
	r1 := sess.CompressBatch(stream.NewBatchBytes(0, words))
	sess.Reset()
	r2 := sess.CompressBatch(stream.NewBatchBytes(1, words))
	if r1.BitLen != r2.BitLen {
		t.Fatalf("Reset did not clear state: %d vs %d", r1.BitLen, r2.BitLen)
	}
}

func TestTdic32DuplicationShrinksOutput(t *testing.T) {
	size := func(dup float64) uint64 {
		m := dataset.NewMicro(1)
		m.DynamicRange = 1 << 30
		m.SymbolDuplication = dup
		m.VocabDuplication = 0
		r := NewTdic32().NewSession().CompressBatch(m.Batch(0, 64*1024))
		return r.BitLen
	}
	if size(0.9) >= size(0.05) {
		t.Fatal("symbol duplication should shrink tdic32 output")
	}
}

func TestTdic32KappaDropsWithDuplication(t *testing.T) {
	kappa := func(dup float64) float64 {
		m := dataset.NewMicro(1)
		m.DynamicRange = 1 << 30
		m.SymbolDuplication = dup
		m.VocabDuplication = 0
		r := NewTdic32().NewSession().CompressBatch(m.Batch(0, 64*1024))
		return r.TotalCost().Kappa()
	}
	lo, hi := kappa(0.05), kappa(0.95)
	if hi >= lo {
		t.Fatalf("tdic32 κ should drop with duplication: %.1f -> %.1f", lo, hi)
	}
}

func TestTdic32ZeroWordVirginSlot(t *testing.T) {
	// A zero symbol against an untouched table slot must be encoded as a
	// miss, not a spurious hit (the used-flag guard), and still round-trip.
	data := make([]byte, 8) // two zero words
	r := NewTdic32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	// First word miss (33 bits), second hit (13 bits).
	if r.BitLen != 33+TdicTableBits+1 {
		t.Fatalf("BitLen = %d, want %d", r.BitLen, 33+TdicTableBits+1)
	}
	got, err := DecompressTdic32(r.Compressed, r.BitLen, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v %v", got, err)
	}
}

// --- lz4 ---

func TestLZ4RoundTripSimple(t *testing.T) {
	data := []byte("abcdabcdabcdabcd-the-quick-brown-fox-abcdabcdabcd")
	r := NewLZ4().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	got, err := DecompressLZ4(r.Compressed, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch:\n got %q\nwant %q", got, data)
	}
}

func TestLZ4CompressesRepetitive(t *testing.T) {
	data := bytes.Repeat([]byte("HELLOWORLD"), 1000)
	r := NewLZ4().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	if r.Ratio() > 0.1 {
		t.Fatalf("ratio %f too high for repetitive data", r.Ratio())
	}
	got, err := DecompressLZ4(r.Compressed, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestLZ4IncompressibleExpandsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 10000)
	rng.Read(data)
	r := NewLZ4().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	if float64(len(r.Compressed)) > float64(len(data))*1.1 {
		t.Fatalf("expansion too large: %d -> %d", len(data), len(r.Compressed))
	}
	got, err := DecompressLZ4(r.Compressed, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestLZ4OverlappingMatch(t *testing.T) {
	// RLE-style data forces offset < matchLen (overlapping copy).
	data := append([]byte{1, 2, 3, 4}, bytes.Repeat([]byte{7}, 200)...)
	r := NewLZ4().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	got, err := DecompressLZ4(r.Compressed, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("overlap round trip failed: %v", err)
	}
}

func TestLZ4LongLiteralRun(t *testing.T) {
	// > 270 distinct literals exercises the 255-run extension encoding.
	data := make([]byte, 1200)
	for i := range data {
		data[i] = byte(i*7 + i/256) // avoid 4-byte repeats
	}
	r := NewLZ4().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
	got, err := DecompressLZ4(r.Compressed, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("long literal round trip failed: %v", err)
	}
}

func TestLZ4EmptyInput(t *testing.T) {
	r := NewLZ4().NewSession().CompressBatch(stream.NewBatchBytes(0, nil))
	got, err := DecompressLZ4(r.Compressed, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: %v %v", got, err)
	}
}

func TestLZ4CorruptInput(t *testing.T) {
	if _, err := DecompressLZ4(nil, 5); err == nil {
		t.Fatal("expected error for empty block with nonzero origLen")
	}
	// Token promising literals beyond the block.
	if _, err := DecompressLZ4([]byte{0xF0, 10}, 100); err == nil {
		t.Fatal("expected error for truncated literals")
	}
	// Bad offset 0.
	if _, err := DecompressLZ4([]byte{0x10, 'a', 0, 0}, 100); err == nil {
		t.Fatal("expected error for offset 0")
	}
}

func TestLZ4VocabDuplicationTrends(t *testing.T) {
	run := func(dup float64) *Result {
		m := dataset.NewMicro(1)
		m.DynamicRange = 1 << 30
		m.SymbolDuplication = 0
		m.VocabDuplication = dup
		return NewLZ4().NewSession().CompressBatch(m.Batch(0, 128*1024))
	}
	lo, hi := run(0.02), run(0.85)
	// κ(s2) decreases with vocabulary duplication (fewer table updates);
	// κ(s3) increases (more backward searching). Section VII-B2.
	if hi.Steps[StepStateUpdate].Cost.Kappa() >= lo.Steps[StepStateUpdate].Cost.Kappa() {
		t.Fatalf("s2 κ should fall with duplication: %.2f -> %.2f",
			lo.Steps[StepStateUpdate].Cost.Kappa(), hi.Steps[StepStateUpdate].Cost.Kappa())
	}
	if hi.Steps[StepStateEncode].Cost.Kappa() <= lo.Steps[StepStateEncode].Cost.Kappa() {
		t.Fatalf("s3 κ should rise with duplication: %.2f -> %.2f",
			lo.Steps[StepStateEncode].Cost.Kappa(), hi.Steps[StepStateEncode].Cost.Kappa())
	}
	if hi.Ratio() >= lo.Ratio() {
		t.Fatal("higher vocabulary duplication should compress better")
	}
}

// --- cross-algorithm round trips on every dataset ---

func TestRoundTripAllDatasets(t *testing.T) {
	for _, g := range dataset.All(11) {
		b := g.Batch(0, 32*1024)
		data := b.Bytes()

		t.Run("tcomp32-"+g.Name(), func(t *testing.T) {
			r := NewTcomp32().NewSession().CompressBatch(b)
			got, err := DecompressTcomp32(r.Compressed, r.BitLen, len(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("round trip failed: %v", err)
			}
		})
		t.Run("tdic32-"+g.Name(), func(t *testing.T) {
			r := NewTdic32().NewSession().CompressBatch(b)
			got, err := DecompressTdic32(r.Compressed, r.BitLen, len(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("round trip failed: %v", err)
			}
		})
		t.Run("lz4-"+g.Name(), func(t *testing.T) {
			r := NewLZ4().NewSession().CompressBatch(b)
			got, err := DecompressLZ4(r.Compressed, len(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("round trip failed: %v", err)
			}
		})
	}
}

// Property-based round trips on random word streams.

func TestQuickTcomp32RoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		data := make([]byte, n)
		rng.Read(data)
		r := NewTcomp32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
		got, err := DecompressTcomp32(r.Compressed, r.BitLen, n)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTdic32RoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8, dupRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		data := make([]byte, n)
		// Mix duplicated and random words.
		pool := []uint32{1, 2, 3, rng.Uint32(), rng.Uint32()}
		for i := 0; i+4 <= n; i += 4 {
			var v uint32
			if rng.Intn(256) < int(dupRaw) {
				v = pool[rng.Intn(len(pool))]
			} else {
				v = rng.Uint32()
			}
			binary.LittleEndian.PutUint32(data[i:], v)
		}
		r := NewTdic32().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
		got, err := DecompressTdic32(r.Compressed, r.BitLen, n)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLZ4RoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16, repRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%4000 + 1
		data := make([]byte, 0, n)
		for len(data) < n {
			if rng.Intn(256) < int(repRaw) && len(data) > 8 {
				// Repeat an earlier chunk to create matches.
				start := rng.Intn(len(data) - 4)
				l := rng.Intn(20) + 4
				if start+l > len(data) {
					l = len(data) - start
				}
				data = append(data, data[start:start+l]...)
			} else {
				data = append(data, byte(rng.Intn(256)))
			}
		}
		data = data[:n]
		r := NewLZ4().NewSession().CompressBatch(stream.NewBatchBytes(0, data))
		got, err := DecompressLZ4(r.Compressed, n)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// --- parallel tdic32 (Fig. 5) ---

func TestParallelPrivateDecodable(t *testing.T) {
	b := dataset.NewRovio(3).Batch(0, 16*1024)
	res := CompressTdic32Parallel(b, 6, false)
	if len(res.PerThread) != 6 {
		t.Fatalf("threads = %d", len(res.PerThread))
	}
	var re []byte
	off := 0
	for _, r := range res.PerThread {
		got, err := DecompressTdic32(r.Compressed, r.BitLen, r.InputBytes)
		if err != nil {
			t.Fatal(err)
		}
		re = append(re, got...)
		off += r.InputBytes
	}
	if !bytes.Equal(re, b.Bytes()) {
		t.Fatal("parallel private round trip mismatch")
	}
	if res.SerialCost.Instructions != 0 {
		t.Fatal("private dictionaries must have no serial cost")
	}
}

func TestParallelSharedVsPrivate(t *testing.T) {
	b := dataset.NewRovio(3).Batch(0, 32*1024)
	shared := CompressTdic32Parallel(b, 6, true)
	private := CompressTdic32Parallel(b, 6, false)
	// Shared dictionary sees all data: compression ratio must be at least
	// as good (paper: private loses ~0.03 ratio).
	if shared.Ratio > private.Ratio+1e-9 {
		t.Fatalf("shared ratio %f worse than private %f", shared.Ratio, private.Ratio)
	}
	// Sharing pays lock overhead: total instructions strictly larger.
	if shared.TotalCost().Instructions <= private.TotalCost().Instructions {
		t.Fatal("shared variant should cost more instructions")
	}
	if shared.SerialCost.Instructions == 0 {
		t.Fatal("shared variant must report serialized work")
	}
}

func TestParallelDeterministicShared(t *testing.T) {
	b := dataset.NewRovio(3).Batch(0, 8*1024)
	a := CompressTdic32Parallel(b, 4, true)
	c := CompressTdic32Parallel(b, 4, true)
	if a.Ratio != c.Ratio || a.TotalCost() != c.TotalCost() {
		t.Fatal("shared variant must be deterministic")
	}
}

func TestSplitWords(t *testing.T) {
	ranges := splitWords(103, 4)
	if len(ranges) != 4 {
		t.Fatalf("ranges = %v", ranges)
	}
	prev := 0
	for i, r := range ranges {
		if r[0] != prev {
			t.Fatalf("gap at range %d: %v", i, ranges)
		}
		if i < 3 && r[1]%4 != 0 {
			t.Fatalf("range %d not word aligned: %v", i, ranges)
		}
		prev = r[1]
	}
	if prev != 103 {
		t.Fatalf("ranges do not cover input: %v", ranges)
	}
}
