package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"sync"
	"testing"
	"testing/quick"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"Sensor", "Rovio", "Stock", "Micro"} {
		g, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("Name = %s, want %s", g.Name(), name)
		}
	}
	if _, err := ByName("Nope", 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestAllDatasets(t *testing.T) {
	gens := All(42)
	if len(gens) != 4 {
		t.Fatalf("All returned %d generators", len(gens))
	}
	want := []string{"Sensor", "Rovio", "Stock", "Micro"}
	for i, g := range gens {
		if g.Name() != want[i] {
			t.Fatalf("order: got %s at %d", g.Name(), i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, g := range All(7) {
		a := g.Batch(3, 4096).Bytes()
		h, _ := ByName(g.Name(), 7)
		b := h.Batch(3, 4096).Bytes()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: batches differ across identical generators", g.Name())
		}
	}
}

func TestBatchesDifferByIndex(t *testing.T) {
	for _, g := range All(7) {
		a := g.Batch(0, 4096).Bytes()
		b := g.Batch(1, 4096).Bytes()
		if bytes.Equal(a, b) {
			t.Fatalf("%s: batch 0 and 1 identical", g.Name())
		}
	}
}

func TestTupleFraming(t *testing.T) {
	for _, g := range All(3) {
		b := g.Batch(0, 1000)
		ts := g.TupleSize()
		if b.Size()%ts != 0 {
			t.Fatalf("%s: size %d not multiple of tuple size %d", g.Name(), b.Size(), ts)
		}
		for _, tu := range b.Tuples() {
			if tu.Size() != ts {
				t.Fatalf("%s: tuple size %d, want %d", g.Name(), tu.Size(), ts)
			}
		}
	}
}

// TestBatchConcurrentUse checks the Generator contract that Batch is a pure
// function of (receiver fields, index, size), safe for concurrent use: eight
// goroutines walk every generator's batches, each from a different starting
// point so mixed indices run side by side, and every result must equal the
// serial output.
func TestBatchConcurrentUse(t *testing.T) {
	type job struct {
		g           Generator
		index, size int
		want        []byte
	}
	var jobs []job
	for _, g := range vectorGenerators() {
		for _, size := range []int{1, 1000, 65539} {
			for _, index := range []int{0, 7, 1, 3} {
				jobs = append(jobs, job{g, index, size, g.Batch(index, size).Bytes()})
			}
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range jobs {
				j := jobs[(k+w*len(jobs)/goroutines)%len(jobs)]
				if got := j.g.Batch(j.index, j.size).Bytes(); !bytes.Equal(got, j.want) {
					t.Errorf("%s: Batch(%d, %d) on goroutine %d differs from the serial output", j.g.Name(), j.index, j.size, w)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestSensorIsASCII(t *testing.T) {
	b := NewSensor(1).Batch(0, 8192)
	for i, c := range b.Bytes() {
		if c > 0x7F {
			t.Fatalf("non-ASCII byte %#x at %d", c, i)
		}
	}
}

func TestSensorContainsXMLTags(t *testing.T) {
	b := NewSensor(1).Batch(0, 8192)
	if !bytes.Contains(b.Bytes(), []byte("<obs>")) || !bytes.Contains(b.Bytes(), []byte("<tmp>")) {
		t.Fatal("expected XML tag vocabulary in Sensor data")
	}
}

func TestRovioKeyDuplication(t *testing.T) {
	b := NewRovio(1).Batch(0, 64*1024)
	keys := map[uint64]int{}
	data := b.Bytes()
	for i := 0; i+16 <= len(data); i += 16 {
		keys[binary.LittleEndian.Uint64(data[i:])]++
	}
	n := len(data) / 16
	distinct := len(keys)
	// High duplication: far fewer distinct keys than tuples.
	if float64(distinct) > 0.15*float64(n) {
		t.Fatalf("Rovio key duplication too low: %d distinct of %d", distinct, n)
	}
}

func TestStockKeyDuplicationLow(t *testing.T) {
	b := NewStock(1).Batch(0, 64*1024)
	keys := map[uint32]int{}
	data := b.Bytes()
	for i := 0; i+8 <= len(data); i += 8 {
		keys[binary.LittleEndian.Uint32(data[i:])]++
	}
	n := len(data) / 8
	distinct := len(keys)
	// Low duplication: most tuples carry near-unique keys relative to Rovio.
	if float64(distinct) < 0.25*float64(n) {
		t.Fatalf("Stock key duplication unexpectedly high: %d distinct of %d", distinct, n)
	}
}

func TestMicroDynamicRangeRespected(t *testing.T) {
	m := NewMicro(1)
	m.DynamicRange = 1000
	m.SymbolDuplication = 0
	m.VocabDuplication = 0
	b := m.Batch(0, 40000)
	data := b.Bytes()
	for i := 0; i+4 <= len(data); i += 4 {
		v := binary.LittleEndian.Uint32(data[i:])
		if v >= 1000 {
			t.Fatalf("value %d exceeds dynamic range", v)
		}
	}
}

func TestMicroSymbolDuplicationEffect(t *testing.T) {
	distinctAt := func(dup float64) int {
		m := NewMicro(1)
		m.DynamicRange = 1 << 30
		m.SymbolDuplication = dup
		m.VocabDuplication = 0
		data := m.Batch(0, 40000).Bytes()
		set := map[uint32]bool{}
		for i := 0; i+4 <= len(data); i += 4 {
			set[binary.LittleEndian.Uint32(data[i:])] = true
		}
		return len(set)
	}
	low, high := distinctAt(0.05), distinctAt(0.9)
	if high >= low {
		t.Fatalf("symbol duplication knob ineffective: distinct %d (low dup) vs %d (high dup)", low, high)
	}
}

func TestMicroVocabDuplicationEffect(t *testing.T) {
	// Higher vocabulary duplication should create more repeated 16-byte runs.
	runsAt := func(dup float64) int {
		m := NewMicro(1)
		m.DynamicRange = 1 << 30
		m.SymbolDuplication = 0
		m.VocabDuplication = dup
		data := m.Batch(0, 40000).Bytes()
		seen := map[string]int{}
		repeats := 0
		for i := 0; i+16 <= len(data); i += 16 {
			k := string(data[i : i+16])
			if seen[k] > 0 {
				repeats++
			}
			seen[k]++
		}
		return repeats
	}
	low, high := runsAt(0.0), runsAt(0.8)
	if high <= low {
		t.Fatalf("vocab duplication knob ineffective: repeats %d vs %d", low, high)
	}
}

func TestMicroEntropyGrowsWithRange(t *testing.T) {
	entropy := func(rangeMax uint32) float64 {
		m := NewMicro(1)
		m.DynamicRange = rangeMax
		m.SymbolDuplication = 0
		m.VocabDuplication = 0
		data := m.Batch(0, 40000).Bytes()
		counts := map[byte]int{}
		for _, b := range data {
			counts[b]++
		}
		var h float64
		for _, c := range counts {
			p := float64(c) / float64(len(data))
			h -= p * math.Log2(p)
		}
		return h
	}
	if entropy(16) >= entropy(1<<24) {
		t.Fatal("byte entropy should grow with dynamic range")
	}
}

func TestSmallBatchHasAtLeastOneTuple(t *testing.T) {
	for _, g := range All(2) {
		b := g.Batch(0, 1)
		if len(b.Tuples()) < 1 {
			t.Fatalf("%s: empty batch for tiny size", g.Name())
		}
	}
}

func TestQuickBatchSizeClose(t *testing.T) {
	f := func(seedRaw int64, sizeRaw uint16) bool {
		size := int(sizeRaw)%65536 + 64
		for _, g := range All(seedRaw) {
			b := g.Batch(0, size)
			// Size must be within one tuple of the request (Sensor may
			// truncate to whole records below the request).
			if b.Size() > size+g.TupleSize() {
				return false
			}
			if b.Size() <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- replay ---

func TestReplayRoundTiling(t *testing.T) {
	data := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	r, err := NewReplay("trace", data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "trace" || r.TupleSize() != 4 {
		t.Fatalf("descriptor: %s %d", r.Name(), r.TupleSize())
	}
	b0 := r.Batch(0, 8)
	if !bytes.Equal(b0.Bytes(), data[:8]) {
		t.Fatalf("batch0 = %v", b0.Bytes())
	}
	b1 := r.Batch(1, 8)
	// Wraps: bytes 8..11 then 0..3.
	want := append(append([]byte{}, data[8:]...), data[:4]...)
	if !bytes.Equal(b1.Bytes(), want) {
		t.Fatalf("batch1 = %v, want %v", b1.Bytes(), want)
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := NewReplay("x", nil, 4); err == nil {
		t.Fatal("empty data must fail")
	}
	if _, err := NewReplay("x", []byte{1, 2}, 4); err == nil {
		t.Fatal("sub-tuple data must fail")
	}
	r, err := NewReplay("x", []byte{1, 2, 3, 4}, 0)
	if err != nil || r.TupleSize() != 4 {
		t.Fatalf("default tuple size: %v %d", err, r.TupleSize())
	}
}

func TestLoadReplayFromFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.bin"
	payload := NewRovio(5).Batch(0, 4096).Bytes()
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadReplay("rovio-file", path, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Batch(0, 4096).Bytes(), payload[:r.Batch(0, 4096).Size()]) {
		t.Fatal("replayed batch differs from file contents")
	}
	if _, err := LoadReplay("missing", dir+"/nope.bin", 4); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestReplayFeedsCompression(t *testing.T) {
	// A replayed trace must be a drop-in Generator for the framework.
	raw := NewStock(9).Batch(0, 16*1024).Bytes()
	r, err := NewReplay("stock-replay", raw, 8)
	if err != nil {
		t.Fatal(err)
	}
	var g Generator = r
	b := g.Batch(3, 2048)
	if b.Size() == 0 || b.Size()%8 != 0 {
		t.Fatalf("replayed batch size %d", b.Size())
	}
}
