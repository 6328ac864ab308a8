package segstore

import (
	"fmt"

	"repro/internal/recframe"
	"repro/internal/segstore/mmap"
)

// RecoveryInfo describes the torn tail (if any) a read-only open skipped.
type RecoveryInfo struct {
	// TruncatedFrames is 1 when the file ends inside a frame that never
	// completed (or at a frame with an invalid CRC), 0 when it ends on a
	// frame boundary. TruncatedBytes counts the unreadable tail.
	TruncatedFrames int
	TruncatedBytes  int
}

// Segment is a read-only view of one segment file, sealed or torn. The file
// is memory-mapped where the platform supports it (see the mmap subpackage),
// and batches decompress lazily: OpenSegment only parses the header and the
// index; frame payloads are touched — and pages faulted in — when ReadBatch
// asks for them.
//
// Opening never modifies the file: a torn tail is skipped in memory, not
// truncated on disk (the Store's crash recovery owns repairs). A Segment is
// safe for concurrent ReadBatch calls.
type Segment struct {
	data   *mmap.Data
	path   string
	hdr    Header
	index  []IndexEntry
	sealed bool
	info   RecoveryInfo
}

// OpenSegment opens path — a sealed segment, or a partial one left by a
// crashed (or still-running) writer. A sealed file opens in O(1) via the
// footer the trailer points at; anything else is scanned frame by frame from
// the header, CRC-validating each, and the index is rebuilt from what
// survives (Recovery reports what did not).
func OpenSegment(path string) (*Segment, error) {
	data, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	s := &Segment{data: data, path: path}
	view := data.Bytes()
	if idx, ok := sealedIndex(view); ok {
		s.hdr, err = parseHeader(view)
		if err != nil {
			data.Close()
			return nil, err
		}
		s.index = idx
		s.sealed = true
		return s, nil
	}
	hdr, res, err := scanSegment(view)
	if err != nil {
		data.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.hdr = hdr
	s.index = res.index
	s.info = RecoveryInfo{TruncatedFrames: res.truncatedFrames, TruncatedBytes: res.truncatedBytes}
	return s, nil
}

// Path returns the file the segment was opened from.
func (s *Segment) Path() string { return s.path }

// Header returns the decoded segment header.
func (s *Segment) Header() Header { return s.hdr }

// Algorithm returns the kernel every batch in the segment was produced by.
func (s *Segment) Algorithm() string { return s.hdr.Algorithm }

// Sealed reports whether the file carried a valid seal footer and trailer
// (false for partials and torn files, whose index was rebuilt by scanning).
func (s *Segment) Sealed() bool { return s.sealed }

// Recovery reports the torn tail skipped at open (zero for sealed files).
func (s *Segment) Recovery() RecoveryInfo { return s.info }

// Batches returns how many complete batches the segment holds.
func (s *Segment) Batches() int { return len(s.index) }

// Info returns the index entry of batch ordinal i (0 <= i < Batches), the
// footer's offset/timestamp row.
func (s *Segment) Info(i int) IndexEntry { return s.index[i] }

// ReadBatch parses the i'th batch frame (ordinal position in the segment,
// not the writer's batch index — see Info). The frame's CRC is re-verified
// and its segments are returned aliasing the mapped file, so nothing is
// copied or decompressed until StoredBatch.Decode. The result is invalid
// after Close.
func (s *Segment) ReadBatch(i int) (*StoredBatch, error) {
	if s.data == nil {
		return nil, ErrClosed
	}
	if i < 0 || i >= len(s.index) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBatchRange, i, len(s.index))
	}
	off := int(s.index[i].Offset)
	f, err := recframe.ParseSealed(s.data.Bytes(), off, MaxFrameBytes)
	if err != nil {
		return nil, fmt.Errorf("%s: batch %d: %w", s.path, i, err)
	}
	if f.Kind != FrameBatch {
		return nil, fmt.Errorf("%s: batch %d: %w: kind 0x%02x", s.path, i, ErrCorruptFrame, f.Kind)
	}
	return parseBatchPayload(f, off, s.hdr.Algorithm)
}

// Close unmaps the file. Batches read from the segment must not be used
// afterwards.
func (s *Segment) Close() error {
	if s.data == nil {
		return nil
	}
	d := s.data
	s.data = nil
	return d.Close()
}
