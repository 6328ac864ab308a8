package cstream_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/pkg/cstream"
)

// ExampleWithSegmentSink attaches the durable segment sink to a Session: every
// compressed batch is additionally framed, checksummed, and appended to an
// append-only segment file, rotated per the policy and sealed atomically at
// rotation and Close. ListSegments and OpenSegment read the files back.
func ExampleWithSegmentSink() {
	dir, err := os.MkdirTemp("", "cstream-segments")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	session, err := cstream.NewSession("delta32", cstream.DatasetSource("Rovio", 1),
		cstream.WithBatchBytes(64*1024),
		cstream.WithSegmentSink(dir, cstream.SegmentRotation{MaxSegmentBatches: 2}))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := session.Push(context.Background(), session.RawBatch(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := session.Close(); err != nil { // seals the active segment
		log.Fatal(err)
	}

	files, err := cstream.ListSegments(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("segments:", len(files))
	seg, err := cstream.OpenSegment(files[0])
	if err != nil {
		log.Fatal(err)
	}
	defer seg.Close()
	fmt.Println("sealed:", seg.Sealed(), "algorithm:", seg.Algorithm(), "batches:", seg.Batches())
	// Output:
	// segments: 2
	// sealed: true algorithm: delta32 batches: 2
}

// ExampleOpenSegment shows crash recovery on the read path: a segment is
// written but never sealed (the writer "crashes"), its tail is torn
// mid-frame, and OpenSegment still surfaces every complete batch — each one
// decoding byte-identically to the original input.
func ExampleOpenSegment() {
	dir, err := os.MkdirTemp("", "cstream-segments")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	session, err := cstream.NewSession("delta32", cstream.DatasetSource("Rovio", 1),
		cstream.WithBatchBytes(32*1024),
		cstream.WithSegmentSink(dir, cstream.SegmentRotation{}))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := session.Push(context.Background(), session.RawBatch(i)); err != nil {
			log.Fatal(err)
		}
	}

	// Simulate the crash: the session is never closed, so the active segment
	// stays partial; tear bytes off its final frame as an interrupted write
	// would.
	files, err := cstream.ListSegments(dir)
	if err != nil {
		log.Fatal(err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		log.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.cseg")
	if err := os.WriteFile(torn, data[:len(data)-7], 0o644); err != nil {
		log.Fatal(err)
	}

	seg, err := cstream.OpenSegment(torn)
	if err != nil {
		log.Fatal(err)
	}
	defer seg.Close()
	fmt.Println("sealed:", seg.Sealed(), "batches:", seg.Batches(), "torn frames:", seg.Recovery().TruncatedFrames)
	for i := 0; i < seg.Batches(); i++ {
		b, err := seg.ReadBatch(i)
		if err != nil {
			log.Fatal(err)
		}
		decoded, err := b.Decode()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d round trip: %v\n", b.Batch, bytes.Equal(decoded, session.RawBatch(b.Batch)))
	}
	// Output:
	// sealed: false batches: 2 torn frames: 1
	// batch 0 round trip: true
	// batch 1 round trip: true
}
