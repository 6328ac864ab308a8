package cstream_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/pkg/cstream"
)

// ExampleSession plans a compression pipeline for one stream, compresses a
// batch for real, and verifies the round trip — the minimal end-to-end use
// of the facade.
func ExampleSession() {
	session, err := cstream.NewSession("tdic32", cstream.DatasetSource("Rovio", 1),
		cstream.WithBatchBytes(64*1024))
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	res, err := session.Push(context.Background(), session.RawBatch(0))
	if err != nil {
		log.Fatal(err)
	}
	decoded, err := cstream.DecodeSegments("tdic32", res.Segments, res.InputBytes)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s\n", session.Workload())
	fmt.Printf("feasible %v\n", session.Feasible())
	fmt.Printf("compressed %v, lossless %v\n",
		res.TotalBits < uint64(res.InputBytes)*8,
		bytes.Equal(decoded, session.RawBatch(0)))
	// Output:
	// workload tdic32-Rovio
	// feasible true
	// compressed true, lossless true
}

// ExampleNewSession opens a source-agnostic session whose planner profiles a
// caller-supplied sample — the ingest path a network front-end uses when the
// real stream arrives over a socket.
func ExampleNewSession() {
	// The sample stands in for recorded traffic; live batches arrive later
	// via Push and need not equal the sample.
	sample := make([]byte, 64*1024)
	for i := range sample {
		sample[i] = byte(i / 64)
	}
	session, err := cstream.NewSession("delta32",
		cstream.BytesSource("plant-7", sample, 0),
		cstream.WithSeed(1),
		cstream.WithBatchBytes(64*1024))
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	fmt.Printf("workload %s\n", session.Workload())
	fmt.Printf("source %s, feasible %v\n", session.SourceName(), session.Feasible())
	// Output:
	// workload delta32-plant-7
	// source plant-7, feasible true
}

// ExampleSession_Push compresses caller-supplied bytes through the planned
// pipeline and verifies the round trip.
func ExampleSession_Push() {
	session, err := cstream.NewSession("rle32",
		cstream.DatasetSource("Micro", 1),
		cstream.WithBatchBytes(32*1024))
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	data := bytes.Repeat([]byte{7, 7, 7, 7}, 8192)
	res, err := session.Push(context.Background(), data)
	if err != nil {
		log.Fatal(err)
	}
	decoded, err := res.Decode()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pushed %d bytes, compressed %v, lossless %v\n",
		res.InputBytes,
		res.TotalBits < uint64(res.InputBytes)*8,
		bytes.Equal(decoded, data))
	fmt.Printf("pushes %d\n", session.Pushes())
	// Output:
	// pushed 32768 bytes, compressed true, lossless true
	// pushes 1
}
