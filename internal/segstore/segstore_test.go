package segstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// testBatch compresses a deterministic payload for batch index i through the
// real pipeline, so stored frames carry genuine kernel output.
func testBatch(t testing.TB, alg string, i, size int) ([]byte, *compress.PipelineResult) {
	t.Helper()
	a, err := compress.ByName(alg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	for j := range data {
		data[j] = byte(j>>3) ^ byte(i*31) ^ byte(j)
	}
	res, err := compress.RunPipeline(a, stream.NewBatchBytes(i, data), 2, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return data, res
}

// crash abandons the store without sealing, simulating a killed process: the
// fd closes (as it would when the process dies) but no footer is written and
// the .partial name stays.
func crash(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.f.Close(); err != nil {
		t.Fatal(err)
	}
	s.f = nil
	s.closed = true
}

func assertBatchEqual(t *testing.T, got *StoredBatch, raw []byte, want *compress.PipelineResult) {
	t.Helper()
	if got.InputBytes != want.InputBytes || got.TotalBits != want.TotalBits {
		t.Fatalf("batch shape: got %d B / %d bits, want %d B / %d bits",
			got.InputBytes, got.TotalBits, want.InputBytes, want.TotalBits)
	}
	if len(got.Segments) != len(want.Segments) {
		t.Fatalf("segment count %d, want %d", len(got.Segments), len(want.Segments))
	}
	for i := range want.Segments {
		g, w := got.Segments[i], want.Segments[i]
		if g.SliceIndex != w.SliceIndex || g.OrigLen != w.OrigLen || g.BitLen != w.BitLen || !bytes.Equal(g.Compressed, w.Compressed) {
			t.Fatalf("segment %d differs from the pipeline's output", i)
		}
	}
	decoded, err := got.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(decoded, raw) {
		t.Fatal("decoded batch differs from original input")
	}
}

func TestStoreRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	st, err := Open(dir, Options{
		Algorithm:  "delta32",
		BatchBytes: 4096,
		Rotate:     RotatePolicy{MaxSegmentBatches: 3},
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	raws := make([][]byte, n)
	results := make([]*compress.PipelineResult, n)
	for i := 0; i < n; i++ {
		raws[i], results[i] = testBatch(t, "delta32", i, 4096)
		if err := st.AppendResult(i, int64(1000+i), results[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 8 batches at 3 per segment: two full sealed segments, one sealed at
	// Close with the remainder. No partials survive a clean Close.
	if len(files) != 3 {
		t.Fatalf("segment files = %v, want 3 sealed", files)
	}
	for _, f := range files {
		if strings.HasSuffix(f, partialSuffix) {
			t.Fatalf("partial segment %s after clean Close", f)
		}
	}
	if got := reg.Counter(MetricSegmentsRotated).Value(); got != 3 {
		t.Fatalf("%s = %d, want 3", MetricSegmentsRotated, got)
	}
	if got := reg.Counter(MetricBatchesPersisted).Value(); got != n {
		t.Fatalf("%s = %d, want %d", MetricBatchesPersisted, got, n)
	}

	read := 0
	for _, f := range files {
		seg, err := OpenSegment(f)
		if err != nil {
			t.Fatal(err)
		}
		if !seg.Sealed() {
			t.Fatalf("%s: not sealed", f)
		}
		if seg.Algorithm() != "delta32" || seg.Header().BatchBytes != 4096 {
			t.Fatalf("%s: header %+v", f, seg.Header())
		}
		for i := 0; i < seg.Batches(); i++ {
			b, err := seg.ReadBatch(i)
			if err != nil {
				t.Fatal(err)
			}
			if b.Batch != read || b.TimestampNanos != int64(1000+read) {
				t.Fatalf("batch ordinal %d: index %d ts %d", read, b.Batch, b.TimestampNanos)
			}
			assertBatchEqual(t, b, raws[read], results[read])
			read++
		}
		if _, err := seg.ReadBatch(seg.Batches()); err == nil {
			t.Fatal("ReadBatch past the index succeeded")
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := seg.ReadBatch(0); err == nil {
			t.Fatal("ReadBatch after Close succeeded")
		}
	}
	if read != n {
		t.Fatalf("read %d batches across segments, want %d", read, n)
	}
}

// TestStoreReadsMultiSliceBatches is the compatibility check for the slice
// rule: a 4 KiB batch is now cut into one slice, but records written before
// it carry twelve. A store holding both kinds reads each back segment for
// segment and decodes it to the original bytes.
func TestStoreReadsMultiSliceBatches(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Algorithm: "delta32", BatchBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := testBatch(t, "delta32", 0, 4096)
	var results []*compress.PipelineResult
	for _, slices := range []int{12, compress.SliceCount(len(raw), 12)} {
		res, err := compress.RunPipeline(compress.NewDelta32(), stream.NewBatchBytes(0, raw), slices, []int{2, 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendResult(len(results), 0, res); err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(results[0].Segments); n != 12 {
		t.Fatalf("legacy batch has %d segments, want 12", n)
	}
	if n := len(results[1].Segments); n != 1 {
		t.Fatalf("current batch has %d segments, want 1", n)
	}
	files, err := SegmentFiles(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("segment files = %v, %v", files, err)
	}
	seg, err := OpenSegment(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for i, want := range results {
		got, err := seg.ReadBatch(i)
		if err != nil {
			t.Fatal(err)
		}
		assertBatchEqual(t, got, raw, want)
	}
}

func TestStoreRecoversCrashedPartial(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Algorithm: "rle32"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	raws := make([][]byte, n)
	results := make([]*compress.PipelineResult, n)
	for i := 0; i < n; i++ {
		raws[i], results[i] = testBatch(t, "rle32", i, 2048)
		if err := st.AppendResult(i, int64(i), results[i]); err != nil {
			t.Fatal(err)
		}
	}
	partial := st.path
	crash(t, st)

	// Tear the final frame: drop its trailing 5 bytes (CRC and more).
	fi, err := os.Stat(partial)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(partial, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	st2, err := Open(dir, Options{Algorithm: "rle32", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	rep := st2.Recovery()
	if rep.PartialSegments != 1 || rep.RecoveredBatches != n-1 || rep.TruncatedFrames != 1 || rep.TruncatedBytes == 0 {
		t.Fatalf("recovery report %+v", rep)
	}
	if got := reg.Counter(MetricRecoveryTruncatedFrames).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricRecoveryTruncatedFrames, got)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("segment files after recovery = %v", files)
	}
	seg, err := OpenSegment(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if !seg.Sealed() || seg.Batches() != n-1 {
		t.Fatalf("recovered segment sealed=%v batches=%d", seg.Sealed(), seg.Batches())
	}
	for i := 0; i < n-1; i++ {
		b, err := seg.ReadBatch(i)
		if err != nil {
			t.Fatal(err)
		}
		assertBatchEqual(t, b, raws[i], results[i])
	}
}

func TestStoreRecoveryWithCheckpointFooters(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Algorithm: "delta32", Rotate: RotatePolicy{CheckpointEvery: 2}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	raws := make([][]byte, n)
	results := make([]*compress.PipelineResult, n)
	for i := 0; i < n; i++ {
		raws[i], results[i] = testBatch(t, "delta32", i, 1024)
		if err := st.AppendResult(i, int64(i), results[i]); err != nil {
			t.Fatal(err)
		}
	}
	partial := st.path
	lastOff := int64(st.index[n-1].Offset)
	crash(t, st)

	// Cut inside the final batch frame; the last valid checkpoint footer
	// (after batch 4) re-anchors the index during the scan.
	if err := os.Truncate(partial, lastOff+7); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Algorithm: "delta32"})
	if err != nil {
		t.Fatal(err)
	}
	if rep := st2.Recovery(); rep.RecoveredBatches != n-1 || rep.TruncatedFrames != 1 {
		t.Fatalf("recovery report %+v", rep)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := SegmentFiles(dir)
	if len(files) != 1 {
		t.Fatalf("files = %v", files)
	}
	seg, err := OpenSegment(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.Batches() != n-1 {
		t.Fatalf("batches = %d, want %d", seg.Batches(), n-1)
	}
	for i := 0; i < n-1; i++ {
		b, err := seg.ReadBatch(i)
		if err != nil {
			t.Fatal(err)
		}
		assertBatchEqual(t, b, raws[i], results[i])
	}
}

func TestStoreQuarantinesCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	bogus := filepath.Join(dir, segPrefix+"00000001"+segSuffix+partialSuffix)
	if err := os.WriteFile(bogus, []byte("not a segment at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{Algorithm: "delta32"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rep := st.Recovery(); rep.QuarantinedFiles != 1 {
		t.Fatalf("recovery report %+v", rep)
	}
	if _, err := os.Stat(bogus + corruptSuffix); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
}

func TestStoreClosedAndEmptySemantics(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Algorithm: "delta32"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(); err != nil { // empty rotate is a no-op
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	_, res := testBatch(t, "delta32", 0, 512)
	if err := st.AppendResult(0, 0, res); err != ErrClosed {
		t.Fatalf("append after Close: %v, want ErrClosed", err)
	}
	files, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("empty store left files: %v", files)
	}
}

func TestOpenSegmentRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk"+segSuffix)
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xAB}, 256), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(path); err == nil {
		t.Fatal("OpenSegment accepted garbage")
	}
}
