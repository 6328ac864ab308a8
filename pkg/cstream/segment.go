package cstream

import (
	"fmt"
	"time"

	"repro/internal/segstore"
)

// SegmentRotation tunes the durable segment sink attached with
// WithSegmentSink. The zero value rotates on the default 64 MiB byte budget,
// never on batch count, and fsyncs only at rotation and Close.
type SegmentRotation struct {
	// MaxSegmentBytes seals the active segment when its size would exceed
	// this after an append; <= 0 uses the 64 MiB default.
	MaxSegmentBytes int64
	// MaxSegmentBatches seals after this many batches; 0 means unbounded.
	MaxSegmentBatches int
	// SyncEvery fsyncs the active segment after every N batches. 0 syncs only
	// at rotation and Close: a crash loses at most the unsynced tail, and
	// recovery drops any torn frame in it.
	SyncEvery int
}

// WithSegmentSink attaches a durable segment store at dir: every batch the
// Session compresses (Push or PushReuse) is additionally framed,
// checksummed, and appended to an append-only segment file, rotated per the
// policy and sealed atomically. Opening recovers any partial segments a
// crashed process left in dir. Read segments back with OpenSegment; see
// STORAGE.md for the format and the operator runbook.
//
// With WithTelemetry attached, the sink reports the segstore.* metrics
// (bytes/batches persisted, rotations, recovery outcomes) through the same
// handle.
func WithSegmentSink(dir string, rotate SegmentRotation) Option {
	return func(c *config) {
		if dir == "" {
			c.optionErr("WithSegmentSink(%q): directory must not be empty", dir)
			return
		}
		c.segmentDir = dir
		c.segmentRotate = rotate
	}
}

// openSegmentStore builds the Session's segment sink from the applied
// config; NewSession calls it once the algorithm name is resolved. Returns
// (nil, nil) when no sink was requested.
func openSegmentStore(alg string, cfg config) (*segstore.Store, error) {
	if cfg.segmentDir == "" {
		return nil, nil
	}
	opts := segstore.Options{
		Algorithm:  alg,
		BatchBytes: cfg.batchBytes,
		Rotate: segstore.RotatePolicy{
			MaxSegmentBytes:   cfg.segmentRotate.MaxSegmentBytes,
			MaxSegmentBatches: cfg.segmentRotate.MaxSegmentBatches,
		},
		SyncEvery: cfg.segmentRotate.SyncEvery,
	}
	if cfg.telemetry != nil {
		opts.Metrics = cfg.telemetry.sink.Metrics()
	}
	st, err := segstore.Open(cfg.segmentDir, opts)
	if err != nil {
		return nil, fmt.Errorf("cstream: segment sink: %w", err)
	}
	return st, nil
}

// RotateSegment seals the sink's active segment now and starts the next one,
// regardless of the rotation policy — operators use it to flush a consistent,
// sealed segment on demand (e.g. before copying files off the device). It is
// a no-op when the active segment is empty, and fails when the Session was
// opened without WithSegmentSink.
func (s *Session) RotateSegment() error {
	if s.closed {
		return errClosed("cstream: RotateSegment")
	}
	if s.store == nil {
		return fmt.Errorf("cstream: RotateSegment requires WithSegmentSink")
	}
	return s.store.Rotate()
}

// SegmentRecovery reports what opening a segment (or the sink's directory)
// had to skip or repair.
type SegmentRecovery struct {
	// TruncatedFrames counts torn tail frames dropped.
	TruncatedFrames int
	// TruncatedBytes counts the bytes those torn frames occupied.
	TruncatedBytes int
}

// SegmentReader is a read-only view of one segment file produced by the
// segment sink — sealed, or a partial left by a crashed writer. The file is
// memory-mapped where the platform supports it and batches decompress lazily.
// A SegmentReader is safe for concurrent ReadBatch calls.
type SegmentReader struct {
	seg *segstore.Segment
}

// OpenSegment opens one segment file for reading. Sealed segments open in
// O(1) via their footer; partial or torn files are scanned frame by frame,
// CRC-validating each, and Recovery reports what the scan skipped. Opening
// never modifies the file.
func OpenSegment(path string) (*SegmentReader, error) {
	seg, err := segstore.OpenSegment(path)
	if err != nil {
		return nil, fmt.Errorf("cstream: %w", err)
	}
	return &SegmentReader{seg: seg}, nil
}

// ListSegments lists the segment files under dir in read order: sealed
// segments first, then any partials, each group in sequence order.
func ListSegments(dir string) ([]string, error) {
	return segstore.SegmentFiles(dir)
}

// Path returns the file the segment was opened from.
func (s *SegmentReader) Path() string { return s.seg.Path() }

// Algorithm returns the compression kernel every batch in the segment was
// produced by.
func (s *SegmentReader) Algorithm() string { return s.seg.Algorithm() }

// Sealed reports whether the file carried a valid seal footer (false for
// partials and torn files, whose index was rebuilt by scanning).
func (s *SegmentReader) Sealed() bool { return s.seg.Sealed() }

// Recovery reports the torn tail skipped at open (zero for sealed files).
func (s *SegmentReader) Recovery() SegmentRecovery {
	info := s.seg.Recovery()
	return SegmentRecovery{TruncatedFrames: info.TruncatedFrames, TruncatedBytes: info.TruncatedBytes}
}

// Batches returns how many complete batches the segment holds.
func (s *SegmentReader) Batches() int { return s.seg.Batches() }

// ReadBatch reads the i'th batch (0 <= i < Batches) back as a BatchResult —
// the same shape Push returned when the batch was written, so
// BatchResult.Decode reconstructs the original bytes through the library's
// one decode path. The segments are copied out of the mapped file; the result
// stays valid after Close.
func (s *SegmentReader) ReadBatch(i int) (*BatchResult, error) {
	b, err := s.seg.ReadBatch(i)
	if err != nil {
		return nil, fmt.Errorf("cstream: %w", err)
	}
	for i := range b.Segments {
		seg := &b.Segments[i]
		seg.Compressed = append([]byte(nil), seg.Compressed...)
	}
	return &BatchResult{
		Batch:      b.Batch,
		InputBytes: b.InputBytes,
		TotalBits:  b.TotalBits,
		Segments:   b.Segments,
		alg:        s.seg.Algorithm(),
	}, nil
}

// Timestamp returns the wall-clock time batch i was persisted at.
func (s *SegmentReader) Timestamp(i int) time.Time {
	return time.Unix(0, s.seg.Info(i).TimestampNanos)
}

// Close unmaps the segment file.
func (s *SegmentReader) Close() error { return s.seg.Close() }
