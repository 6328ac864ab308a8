package cstream_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/segstore"
	"repro/pkg/cstream"
)

// TestSegmentSinkRoundTrip is the storage acceptance path: batches written
// through the public facade's segment sink must read back byte-identical to
// what the library path returned — same segment bytes, same decode — both
// from sealed segments and from a partial torn mid-frame. Batches are three
// 64 KiB slices' worth, so every record carries several segments.
func TestSegmentSinkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tel := cstream.NewTelemetry()
	s, err := cstream.NewSession("delta32", cstream.DatasetSource("Rovio", 3),
		cstream.WithBatchBytes(3*(64<<10)+8),
		cstream.WithTelemetry(tel),
		cstream.WithSegmentSink(dir, cstream.SegmentRotation{}))
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	want := make([]*cstream.BatchResult, n)
	raw := make([][]byte, n)
	for i := 0; i < n; i++ {
		raw[i] = s.RawBatch(i)
		want[i], err = s.Push(context.Background(), raw[i])
		if err != nil {
			t.Fatal(err)
		}
	}

	// Library-path decode is the reference: every stored batch must match it.
	assertStored := func(t *testing.T, seg *cstream.SegmentReader, upto int) {
		t.Helper()
		if seg.Batches() != upto {
			t.Fatalf("segment holds %d batches, want %d", seg.Batches(), upto)
		}
		for i := 0; i < upto; i++ {
			got, err := seg.ReadBatch(i)
			if err != nil {
				t.Fatal(err)
			}
			w := want[i]
			if got.Batch != w.Batch || got.InputBytes != w.InputBytes || got.TotalBits != w.TotalBits {
				t.Fatalf("batch %d shape differs: %+v vs %+v", i, got, w)
			}
			if len(got.Segments) != len(w.Segments) || len(w.Segments) != 3 {
				t.Fatalf("batch %d segment count %d, library path %d, want 3", i, len(got.Segments), len(w.Segments))
			}
			for j := range w.Segments {
				if !bytes.Equal(got.Segments[j].Compressed, w.Segments[j].Compressed) {
					t.Fatalf("batch %d segment %d compressed bytes differ from the library path", i, j)
				}
			}
			decoded, err := got.Decode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(decoded, raw[i]) {
				t.Fatalf("batch %d decode differs from the raw input", i)
			}
		}
	}

	// Torn mid-frame while still partial: the tail batch is dropped, every
	// complete batch survives.
	files, err := cstream.ListSegments(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("ListSegments = %v, %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.cseg")
	if err := os.WriteFile(torn, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	seg, err := cstream.OpenSegment(torn)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Sealed() || seg.Recovery().TruncatedFrames != 1 {
		t.Fatalf("torn open: sealed=%v recovery=%+v", seg.Sealed(), seg.Recovery())
	}
	assertStored(t, seg, n-1)
	seg.Close()

	// Clean Close seals; the sealed segment holds every batch.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, err = cstream.ListSegments(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("ListSegments after Close = %v, %v", files, err)
	}
	if strings.HasSuffix(files[0], ".partial") {
		t.Fatalf("clean Close left partial %s", files[0])
	}
	seg, err = cstream.OpenSegment(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if !seg.Sealed() || seg.Algorithm() != "delta32" {
		t.Fatalf("sealed=%v alg=%s", seg.Sealed(), seg.Algorithm())
	}
	if ts := seg.Timestamp(0); ts.IsZero() {
		t.Fatal("persist timestamp missing")
	}
	assertStored(t, seg, n)

	// The sink reports through the shared telemetry handle.
	mj, err := tel.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(mj, []byte(segstore.MetricBytesPersisted)) {
		t.Fatalf("segstore metrics missing from telemetry: %s", mj)
	}
}

// TestSegmentSinkSessionPush covers the caller-supplied-bytes entry point:
// pushed batches of the caller's own bytes land in the sink and decode back
// to the pushed bytes.
func TestSegmentSinkSessionPush(t *testing.T) {
	dir := t.TempDir()
	sess, err := cstream.NewSession("rle32",
		cstream.BytesSource("sensor", []byte{1, 2, 3, 4}, 4),
		cstream.WithSeed(2),
		cstream.WithBatchBytes(8*1024),
		cstream.WithSegmentSink(dir, cstream.SegmentRotation{}))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8*1024)
	for i := range payload {
		payload[i] = byte(i >> 4)
	}
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := sess.Push(context.Background(), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := cstream.ListSegments(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("ListSegments = %v, %v", files, err)
	}
	seg, err := cstream.OpenSegment(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.Batches() != n {
		t.Fatalf("batches = %d, want %d", seg.Batches(), n)
	}
	for i := 0; i < n; i++ {
		b, err := seg.ReadBatch(i)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := b.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(decoded, payload) {
			t.Fatalf("pushed batch %d did not round trip through the segment store", i)
		}
	}
}

// TestSegmentSinkOptionAndRotate covers the facade edges: option validation,
// directory recovery on reopen, and the operator-facing RotateSegment.
func TestSegmentSinkOptionAndRotate(t *testing.T) {
	src := cstream.DatasetSource("Rovio", 1)
	if _, err := cstream.NewSession("delta32", src, cstream.WithSegmentSink("", cstream.SegmentRotation{})); !errors.Is(err, cstream.ErrInvalidOption) {
		t.Fatalf("empty sink dir: %v, want ErrInvalidOption", err)
	}

	s, err := cstream.NewSession("delta32", src, cstream.WithBatchBytes(8*1024))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RotateSegment(); err == nil {
		t.Fatal("RotateSegment without a sink succeeded")
	}

	dir := t.TempDir()
	s2, err := cstream.NewSession("delta32", src, cstream.WithBatchBytes(8*1024),
		cstream.WithSegmentSink(dir, cstream.SegmentRotation{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Push(context.Background(), s2.RawBatch(0)); err != nil {
		t.Fatal(err)
	}
	if err := s2.RotateSegment(); err != nil {
		t.Fatal(err)
	}
	// Rotation seals the old segment and immediately opens the next active
	// partial; Close removes that empty partial, leaving one sealed file.
	files, err := cstream.ListSegments(dir)
	if err != nil || len(files) != 2 || strings.HasSuffix(files[0], ".partial") {
		t.Fatalf("after RotateSegment: %v, %v", files, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if files, err = cstream.ListSegments(dir); err != nil || len(files) != 1 {
		t.Fatalf("after Close: %v, %v", files, err)
	}

	// Reopening the same directory recovers it and keeps appending: the old
	// sealed segment stays, new batches land in a new one.
	s3, err := cstream.NewSession("delta32", src, cstream.WithBatchBytes(8*1024),
		cstream.WithSegmentSink(dir, cstream.SegmentRotation{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Push(context.Background(), s3.RawBatch(1)); err != nil {
		t.Fatal(err)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	files, err = cstream.ListSegments(dir)
	if err != nil || len(files) != 2 {
		t.Fatalf("after reopen: %v, %v", files, err)
	}
}
