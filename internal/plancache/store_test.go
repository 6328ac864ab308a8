package plancache

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compress"
	"repro/internal/costmodel"
)

// TestQuantizeEdgeInputs pins the sentinel contract for hostile inputs: all
// non-positive and non-finite values collapse to the MinInt32 sentinel (and
// never collide with any real bucket), and QuantizeLSet stays total over the
// same inputs.
func TestQuantizeEdgeInputs(t *testing.T) {
	for _, v := range []float64{0, -1, -1e300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if q := QuantizeLog(v); q != math.MinInt32 {
			t.Fatalf("QuantizeLog(%g) = %d, want sentinel", v, q)
		}
	}
	for _, v := range []float64{1e-300, 1e300, 1, 0.5} {
		if QuantizeLog(v) == math.MinInt32 {
			t.Fatalf("QuantizeLog(%g) collided with the sentinel", v)
		}
	}
	if QuantizeLSet(0) != 0 || QuantizeLSet(-2) != -2000 {
		t.Fatalf("QuantizeLSet must be exact on non-positive constraints, got %d and %d",
			QuantizeLSet(0), QuantizeLSet(-2))
	}
}

// testKey builds a distinct exact key per signature value.
func testKey(alg string, sig uint64) PlanKey {
	return PlanKey{Algorithm: alg, Policy: "p", Signature: sig, LSetQ: 26000}
}

func entryTasks(name string) []costmodel.LogicalTask {
	return []costmodel.LogicalTask{{
		Name:         name,
		Steps:        []compress.StepKind{compress.StepRead, compress.StepEncode},
		InstrPerByte: 12.5, Kappa: 0.4, OutPerByte: 0.3, Replicas: 1,
	}}
}

// TestGetReturnsDeepCopies: mutating a returned entry must not corrupt the
// cached canonical copy.
func TestGetReturnsDeepCopies(t *testing.T) {
	c := NewPlanCache(4)
	k := testKey("alg", 7)
	c.Put(k, entryTasks("t"), costmodel.Plan{0, 1})
	e, _ := c.Get(k)
	e.Tasks[0].Replicas = 99
	e.Plan[0] = 99
	e2, _ := c.Get(k)
	if e2.Tasks[0].Replicas == 99 || e2.Plan[0] == 99 {
		t.Fatal("cache shared mutable state with a caller")
	}
}

// TestPersistRoundTrip exercises the persist → kill → reload path: save a
// populated cache, load it into a fresh one, and check contents and recency
// order survive. A file written by the version-1 encoder loads as a cold
// start.
func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plans.cspc")
	c := NewPlanCache(8)
	sigs := []uint64{1, 4, 7}
	for i, sig := range sigs {
		c.Put(testKey("alg", sig), entryTasks("t"), costmodel.Plan{i, i + 1})
	}
	c.Get(testKey("alg", sigs[0])) // recency: 0 > 2 > 1
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// "Kill": a brand-new cache warm-started from the file.
	w := NewPlanCache(8)
	n, err := w.LoadFile(path)
	if err != nil || n != 3 {
		t.Fatalf("LoadFile = (%d,%v), want (3,nil)", n, err)
	}
	for i, sig := range sigs {
		e, ok := w.Get(testKey("alg", sig))
		if !ok {
			t.Fatalf("entry %d lost in round-trip", i)
		}
		if !e.Plan.Equal(costmodel.Plan{i, i + 1}) {
			t.Fatalf("entry %d corrupted: %+v", i, e)
		}
		if len(e.Tasks) != 1 || e.Tasks[0].Name != "t" || len(e.Tasks[0].Steps) != 2 {
			t.Fatalf("entry %d tasks corrupted: %+v", i, e.Tasks)
		}
	}
	// Recency survived: filling a capacity-3 cache with the same load order
	// then adding one more must evict sigs[1] (the least recent at save).
	w3 := NewPlanCache(3)
	if _, err := w3.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	w3.Put(testKey("alg", 100), entryTasks("x"), costmodel.Plan{0})
	if _, ok := w3.Get(testKey("alg", sigs[1])); ok {
		t.Fatal("least-recent entry should have been evicted after reload")
	}
	if _, ok := w3.Get(testKey("alg", sigs[0])); !ok {
		t.Fatal("most-recent entry should have survived after reload")
	}

	// testdata/v1.cspc is a one-entry file from the version-1 encoder, which
	// also stored a signature vector and an energy estimate per entry.
	v1 := NewPlanCache(8)
	if n, err := v1.LoadFile(filepath.Join("testdata", "v1.cspc")); n != 0 || err != nil || v1.Len() != 0 {
		t.Fatalf("LoadFile(v1) = (%d,%v), len %d; want (0,nil), empty", n, err, v1.Len())
	}
}

// TestLoadMissingFileIsColdStart: no file means an empty cache and no error.
func TestLoadMissingFileIsColdStart(t *testing.T) {
	c := NewPlanCache(4)
	n, err := c.LoadFile(filepath.Join(t.TempDir(), "absent.cspc"))
	if n != 0 || err != nil {
		t.Fatalf("LoadFile(missing) = (%d,%v), want (0,nil)", n, err)
	}
}

// TestTornFileRecovery truncates a persisted cache at every byte offset and
// checks the load never errors, never panics, and restores a prefix of the
// original entries — the degraded cache simply forces full searches.
func TestTornFileRecovery(t *testing.T) {
	c := NewPlanCache(8)
	for sig := uint64(1); sig <= 3; sig++ {
		c.Put(testKey("alg", sig), entryTasks("t"), costmodel.Plan{0})
	}
	full := EncodeEntries(c.Entries())
	prev := 0
	for cut := 0; cut <= len(full); cut++ {
		got := LoadBytes(full[:cut])
		if len(got) > 3 {
			t.Fatalf("cut %d: %d entries from a 3-entry file", cut, len(got))
		}
		if len(got) < prev && cut > 0 {
			// Decodable prefix can only grow as more bytes survive.
			t.Fatalf("cut %d: prefix shrank from %d to %d", cut, prev, len(got))
		}
		prev = len(got)
	}
	if prev != 3 {
		t.Fatalf("full file decoded %d entries, want 3", prev)
	}
}

// TestCorruptRecordStopsLoad flips a payload byte so its CRC fails: the load
// must keep the records before it and drop the rest, silently.
func TestCorruptRecordStopsLoad(t *testing.T) {
	c := NewPlanCache(8)
	for sig := uint64(1); sig <= 3; sig++ {
		c.Put(testKey("alg", sig), entryTasks("t"), costmodel.Plan{0})
	}
	entries := c.Entries()
	one := len(EncodeEntries(entries[:1]))
	two := len(EncodeEntries(entries[:2]))
	full := EncodeEntries(entries)
	full[one+8+(two-one-8)/2] ^= 0xff // inside record 2's payload
	got := LoadBytes(full)
	if len(got) != 1 {
		t.Fatalf("decoded %d entries past a corrupt record, want 1", len(got))
	}
	if got[0].Key != entries[0].Key {
		t.Fatal("surviving prefix does not match the first persisted entry")
	}
}

// TestBadHeaderDegradesToEmpty: wrong magic or future version yields an empty
// cache, not an error.
func TestBadHeaderDegradesToEmpty(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		data []byte
	}{
		{"wrong-magic", []byte("XXXX\x00\x00\x00\x02")},
		{"future-version", []byte("CSPC\x00\x00\x00\x63")},
		{"short", []byte("CSPC")[:2]},
		{"empty", nil},
	}
	for _, tc := range cases {
		name, data := tc.name, tc.data
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewPlanCache(4)
		n, err := c.LoadFile(path)
		if n != 0 || err != nil || c.Len() != 0 {
			t.Fatalf("%s: LoadFile = (%d,%v), len %d; want empty cold start", name, n, err, c.Len())
		}
	}
}
