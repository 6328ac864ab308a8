// Package segstore gives compressed output somewhere durable to live: an
// append-only, tickfile-style segment format holding the pipeline's
// per-batch compressed frames, with atomic rotation, an mmap-backed lazy
// read path, and torn-write crash recovery.
//
// One segment file is
//
//	header | frame* | footer frame | trailer
//
// where every frame is an internal/recframe sealed frame: a 4-byte
// big-endian length prefix covering a 1-byte kind, a 4-byte sequence field
// and the payload, then a CRC32C (Castagnoli) of everything after the length
// prefix. A segment being written lacks the footer and trailer and carries a
// ".partial" suffix; sealing writes the footer index (offset/timestamp per
// batch), fsyncs, and atomically renames the file to its final name. Recovery scans a partial segment frame by frame from the
// header, rebuilds the index from the batch frames, truncates the torn tail,
// and seals what survived. The full byte layout, rotation semantics, and the
// operator runbook live in STORAGE.md at the repository root.
package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/compress"
	"repro/internal/recframe"
)

// Format constants. The frame layout is internal/recframe's.
const (
	// Version is the on-disk format version written into every header.
	Version = 1

	// headerSize is the fixed segment header length in bytes.
	headerSize = 40
	// algField is the width of the header's NUL-padded algorithm name.
	algField = 16

	// trailerSize is the fixed seal trailer: footer offset + magic.
	trailerSize = 16

	// footerEntrySize is one batch's footer index entry: offset, batch
	// index, input bytes, timestamp.
	footerEntrySize = 24

	// batchFixed is the fixed prefix of a batch frame payload: timestamp,
	// input bytes, total bits, segment count.
	batchFixed = 8 + 4 + 8 + 4

	// MaxFrameBytes bounds a frame's advertised length; the recovery scan
	// treats anything larger as a torn tail instead of seeking past it.
	MaxFrameBytes = 64 << 20
)

// Frame kinds. Values are disjoint from serve's wire frame types so a
// misdirected file is caught by kind, not just by CRC.
const (
	// FrameBatch holds one compressed batch (all its segments).
	FrameBatch = byte(0x10)
	// FrameFooter holds the index of every batch frame before it. A sealed
	// segment ends with one; a segment an older writer left may also hold
	// earlier checkpoint footers, which the recovery scan skips.
	FrameFooter = byte(0x11)
)

var (
	headerMagic  = [8]byte{'C', 'S', 'T', 'R', 'S', 'E', 'G', '1'}
	trailerMagic = [8]byte{'C', 'S', 'T', 'R', 'F', 'T', 'R', '1'}
)

// Sentinel errors, distinguishable with errors.Is.
var (
	// ErrNotSegment reports a file whose header is missing, truncated, or
	// corrupt — nothing in it can be trusted.
	ErrNotSegment = errors.New("segstore: not a segment file (bad or torn header)")
	// ErrCorruptFrame reports a frame whose CRC32C or structure is invalid.
	ErrCorruptFrame = recframe.ErrCorrupt
	// ErrClosed reports use of a closed Store or Segment.
	ErrClosed = errors.New("segstore: closed")
	// ErrBatchRange reports a batch ordinal outside the segment's index.
	ErrBatchRange = errors.New("segstore: batch ordinal out of range")
)

// Header is the decoded fixed-size segment header.
type Header struct {
	// Version is the format version (currently 1).
	Version uint32
	// Algorithm names the compression kernel every batch frame in the
	// segment was produced by (at most 16 bytes).
	Algorithm string
	// BatchBytes is the writing session's batch size B, informational.
	BatchBytes int
}

// appendHeader encodes h onto buf.
func appendHeader(buf []byte, h Header) ([]byte, error) {
	if len(h.Algorithm) == 0 || len(h.Algorithm) > algField {
		return buf, fmt.Errorf("segstore: algorithm %q must be 1..%d bytes", h.Algorithm, algField)
	}
	start := len(buf)
	buf = append(buf, headerMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, h.Version)
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.BatchBytes))
	var alg [algField]byte
	copy(alg[:], h.Algorithm)
	buf = append(buf, alg[:]...)
	buf = binary.BigEndian.AppendUint32(buf, 0) // reserved
	buf = binary.BigEndian.AppendUint32(buf, recframe.Checksum(buf[start:start+headerSize-recframe.CRCLen]))
	return buf, nil
}

// parseHeader decodes and validates the segment header at the start of data.
func parseHeader(data []byte) (Header, error) {
	if len(data) < headerSize {
		return Header{}, fmt.Errorf("%w: %d bytes", ErrNotSegment, len(data))
	}
	if [8]byte(data[:8]) != headerMagic {
		return Header{}, fmt.Errorf("%w: bad magic", ErrNotSegment)
	}
	want := binary.BigEndian.Uint32(data[headerSize-recframe.CRCLen : headerSize])
	if recframe.Checksum(data[:headerSize-recframe.CRCLen]) != want {
		return Header{}, fmt.Errorf("%w: header CRC mismatch", ErrNotSegment)
	}
	h := Header{
		Version:    binary.BigEndian.Uint32(data[8:12]),
		BatchBytes: int(binary.BigEndian.Uint32(data[12:16])),
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("%w: unsupported version %d", ErrNotSegment, h.Version)
	}
	alg := data[16 : 16+algField]
	n := 0
	for n < algField && alg[n] != 0 {
		n++
	}
	if n == 0 {
		return Header{}, fmt.Errorf("%w: empty algorithm", ErrNotSegment)
	}
	h.Algorithm = string(alg[:n])
	return h, nil
}

// appendBatchFrame encodes one compressed batch as a sealed frame onto buf.
// The payload is the timestamp, input bytes, total bits and segment count,
// then each segment's recframe metadata block and compressed bytes.
func appendBatchFrame(buf []byte, batch uint32, tsNanos int64, res *compress.PipelineResult) []byte {
	buf, start := recframe.Begin(buf, FrameBatch, batch)
	buf = binary.BigEndian.AppendUint64(buf, uint64(tsNanos))
	buf = binary.BigEndian.AppendUint32(buf, uint32(res.InputBytes))
	buf = binary.BigEndian.AppendUint64(buf, res.TotalBits)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(res.Segments)))
	for i := range res.Segments {
		s := &res.Segments[i]
		buf = recframe.AppendSegmentMeta(buf, s)
		buf = append(buf, s.Compressed...)
	}
	return recframe.Seal(buf, start)
}

// IndexEntry locates one batch frame inside a segment; the footer is a list
// of these, and recovery rebuilds the same list by scanning.
type IndexEntry struct {
	// Offset is the file offset of the frame's length prefix.
	Offset uint64
	// Batch is the batch index recorded by the writer.
	Batch uint32
	// InputBytes is the batch's uncompressed size.
	InputBytes uint32
	// TimestampNanos is the writer-supplied batch timestamp (Unix nanos).
	TimestampNanos int64
}

// appendFooterFrame encodes the index as a footer frame followed by the seal
// trailer (footer offset + trailer magic). footerBase is the file offset of
// buf[0], so the footer frame lands at footerBase+len(buf).
func appendFooterFrame(buf []byte, footerBase int, index []IndexEntry) []byte {
	footerOff := footerBase + len(buf)
	buf, start := recframe.Begin(buf, FrameFooter, uint32(len(index)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(index)))
	for _, e := range index {
		buf = binary.BigEndian.AppendUint64(buf, e.Offset)
		buf = binary.BigEndian.AppendUint32(buf, e.Batch)
		buf = binary.BigEndian.AppendUint32(buf, e.InputBytes)
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.TimestampNanos))
	}
	buf = recframe.Seal(buf, start)
	buf = binary.BigEndian.AppendUint64(buf, uint64(footerOff))
	return append(buf, trailerMagic[:]...)
}

// StoredBatch is one batch read back from a segment. Segments alias the
// underlying (possibly memory-mapped) file view: they are valid until the
// owning Segment is closed and must not be mutated.
type StoredBatch struct {
	// Batch is the writer's batch index.
	Batch int
	// TimestampNanos is the writer-supplied timestamp (Unix nanos).
	TimestampNanos int64
	// InputBytes is the uncompressed batch size; TotalBits sums the
	// segments' exact compressed bit lengths.
	InputBytes int
	TotalBits  uint64
	// Segments are the per-slice compressed outputs in slice order.
	Segments []compress.Segment

	alg string
}

// Decode decompresses the stored batch back to its original bytes — the
// lazy half of the mmap read path: nothing is decompressed until asked.
func (b *StoredBatch) Decode() ([]byte, error) {
	return compress.DecodeSegments(b.alg, &compress.PipelineResult{
		Segments:   b.Segments,
		InputBytes: b.InputBytes,
		TotalBits:  b.TotalBits,
	})
}

// parseBatchPayload decodes the FrameBatch f found at off. Segment byte
// slices alias the payload.
func parseBatchPayload(f recframe.Frame, off int, alg string) (*StoredBatch, error) {
	r := recframe.NewReader(f.Payload)
	b := &StoredBatch{
		Batch:          int(f.Seq),
		TimestampNanos: int64(r.U64()),
		InputBytes:     int(r.U32()),
		TotalBits:      r.U64(),
		alg:            alg,
	}
	b.Segments = make([]compress.Segment, r.Count(recframe.SegmentMetaLen))
	for i := range b.Segments {
		seg := &b.Segments[i]
		seg.Compressed = r.Bytes(r.SegmentMeta(seg))
	}
	if !r.OK() || r.Len() != 0 {
		return nil, fmt.Errorf("%w: batch frame at %d does not hold its segments exactly", ErrCorruptFrame, off)
	}
	return b, nil
}

// parseFooterPayload decodes the FrameFooter f found at off into its index
// entries.
func parseFooterPayload(f recframe.Frame, off int) ([]IndexEntry, error) {
	r := recframe.NewReader(f.Payload)
	count := r.Count(footerEntrySize)
	if !r.OK() || r.Len() != count*footerEntrySize {
		return nil, fmt.Errorf("%w: footer count %d vs %d payload bytes at %d", ErrCorruptFrame, count, len(f.Payload), off)
	}
	index := make([]IndexEntry, count)
	for i := range index {
		index[i] = IndexEntry{Offset: r.U64(), Batch: r.U32(), InputBytes: r.U32(), TimestampNanos: int64(r.U64())}
	}
	return index, nil
}

// scanResult is what a forward scan of a segment view learned.
type scanResult struct {
	index []IndexEntry
	// validLen is the file length up to the end of the last valid frame —
	// recovery truncates here.
	validLen int
	// truncatedFrames is 1 when bytes past validLen began a frame that
	// never completed, 0 when the file ended exactly on a frame boundary.
	truncatedFrames int
	// truncatedBytes counts the torn tail's length.
	truncatedBytes int
	// footerAt is the offset of the last valid footer frame, -1 if none;
	// the scan uses it only to recognise a seal trailer.
	footerAt int
}

// scanSegment walks data frame by frame after the header, validating each
// CRC, and stops at the first invalid frame: everything before it is the
// recovered segment, everything after is the torn tail. The index comes from
// the CRC-valid batch frames alone. A footer frame met on the way — a seal
// torn before its trailer, or a checkpoint an older writer left — is
// skipped: its entries are never trusted over the frames the scan has seen.
func scanSegment(data []byte) (Header, scanResult, error) {
	h, err := parseHeader(data)
	if err != nil {
		return Header{}, scanResult{}, err
	}
	res := scanResult{validLen: headerSize, footerAt: -1}
	off := headerSize
	for off < len(data) {
		f, err := recframe.ParseSealed(data, off, MaxFrameBytes)
		if err != nil {
			res.truncatedFrames = 1
			break
		}
		switch f.Kind {
		case FrameBatch:
			if len(f.Payload) < batchFixed {
				res.truncatedFrames = 1
				res.truncatedBytes = len(data) - res.validLen
				return h, res, nil
			}
			res.index = append(res.index, IndexEntry{
				Offset:         uint64(off),
				Batch:          f.Seq,
				InputBytes:     binary.BigEndian.Uint32(f.Payload[8:12]),
				TimestampNanos: int64(binary.BigEndian.Uint64(f.Payload[0:8])),
			})
		case FrameFooter:
			res.footerAt = off
		default:
			// An unknown kind with a valid CRC is not torn, it is foreign;
			// stop without trusting anything at or past it.
			res.truncatedFrames = 1
			res.truncatedBytes = len(data) - off
			return h, res, nil
		}
		off += f.Size
		res.validLen = off
		// A seal trailer directly after a footer ends the segment cleanly;
		// tolerate it mid-scan so sealed files scan identically.
		if res.footerAt >= 0 && off+trailerSize <= len(data) &&
			[8]byte(data[off+8:off+trailerSize]) == trailerMagic &&
			binary.BigEndian.Uint64(data[off:off+8]) == uint64(res.footerAt) {
			off += trailerSize
			res.validLen = off
		}
	}
	res.truncatedBytes = len(data) - res.validLen
	if res.truncatedBytes > 0 && res.truncatedFrames == 0 {
		res.truncatedFrames = 1
	}
	return h, res, nil
}

// footerOffsetsValid reports whether every index entry a footer carries points
// at a plausible frame position strictly before the footer itself. A footer
// whose CRC holds but whose offsets wander outside that range is treated as
// corrupt rather than trusted — recovery must never hand out an index entry
// it could not, in principle, have rebuilt by scanning.
func footerOffsetsValid(idx []IndexEntry, footerOff int) bool {
	for _, e := range idx {
		if e.Offset < headerSize || e.Offset >= uint64(footerOff) {
			return false
		}
	}
	return true
}

// sealedIndex tries the O(1) sealed-segment open: a valid trailer at EOF
// pointing at a footer frame whose CRC holds. It returns false when the file
// is not cleanly sealed (the caller falls back to a scan).
func sealedIndex(data []byte) ([]IndexEntry, bool) {
	if len(data) < headerSize+trailerSize {
		return nil, false
	}
	t := data[len(data)-trailerSize:]
	if [8]byte(t[8:16]) != trailerMagic {
		return nil, false
	}
	footerOff := binary.BigEndian.Uint64(t[0:8])
	if footerOff < headerSize || footerOff > uint64(len(data)-trailerSize) {
		return nil, false
	}
	f, err := recframe.ParseSealed(data, int(footerOff), MaxFrameBytes)
	if err != nil || f.Kind != FrameFooter || int(footerOff)+f.Size != len(data)-trailerSize {
		return nil, false
	}
	idx, err := parseFooterPayload(f, int(footerOff))
	if err != nil || !footerOffsetsValid(idx, int(footerOff)) {
		return nil, false
	}
	return idx, true
}
