package segstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/compress"
	"repro/internal/telemetry"
)

// Segment file naming. The active segment carries the partial suffix until
// it is sealed; sealing renames it atomically, so a reader listing the
// directory never observes a final-named file without a valid footer (crash
// windows leave only .partial or .corrupt files behind).
const (
	segPrefix     = "seg-"
	segSuffix     = ".cseg"
	partialSuffix = ".partial"
	corruptSuffix = ".corrupt"
)

// RotatePolicy decides when the active segment is sealed and a new one
// started. The zero value never rotates on batches and rotates on the
// default byte budget.
type RotatePolicy struct {
	// MaxSegmentBytes seals the active segment when its size would exceed
	// this after an append; <= 0 takes DefaultMaxSegmentBytes.
	MaxSegmentBytes int64
	// MaxSegmentBatches seals after this many batches; 0 means unbounded.
	MaxSegmentBatches int
}

// DefaultMaxSegmentBytes is the rotation byte budget when the policy leaves
// MaxSegmentBytes unset.
const DefaultMaxSegmentBytes = int64(64 << 20)

// Options parameterizes a Store.
type Options struct {
	// Algorithm names the kernel whose output the store persists; it is
	// written into every segment header (required, at most 16 bytes).
	Algorithm string
	// BatchBytes is the writing session's batch size, recorded in headers
	// for operators (informational; 0 is fine).
	BatchBytes int
	// Rotate is the segment rotation policy.
	Rotate RotatePolicy
	// SyncEvery fsyncs the active segment after every N appended batches.
	// 0 syncs only at rotation and Close: a crash can lose at most the
	// unsynced tail, and recovery drops any torn frame in it.
	SyncEvery int
	// Metrics receives the segstore.* counters; nil disables (all counter
	// methods on nil receivers no-op).
	Metrics *telemetry.Registry
}

// RecoveryReport summarizes what Open found and repaired.
type RecoveryReport struct {
	// PartialSegments counts .partial files found; RecoveredBatches counts
	// complete batches that survived inside them.
	PartialSegments  int
	RecoveredBatches int
	// TruncatedFrames counts torn tail frames dropped; TruncatedBytes the
	// bytes they occupied.
	TruncatedFrames int
	TruncatedBytes  int
	// QuarantinedFiles counts files sidelined with a .corrupt suffix
	// because their header was unusable.
	QuarantinedFiles int
}

// segmentFile is what a Store needs of its active segment: *os.File in
// production, a fault-injecting shim in tests.
type segmentFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Store is an append-only store of compressed batches in one directory:
// one active ".partial" segment receiving appends, rotation sealing it and
// starting the next, and crash recovery at Open. A Store is safe for
// concurrent use; appends are serialized by an internal mutex (the file is
// the serialization point regardless).
//
// The first failed Write, Sync or rotation poisons the store: a short write
// leaves the file offset inside a torn frame, so no later frame can be
// placed or indexed safely. Every later AppendResult, Rotate and Close
// returns that error, and the active segment stays ".partial" for the next
// Open to recover, keeping every batch acknowledged before the failure.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       segmentFile
	err     error  // the failure that poisoned the store, if any
	path    string // active partial path
	seq     uint64 // active segment sequence number
	size    int64  // bytes written to the active segment
	index   []IndexEntry
	scratch []byte
	unsync  int // batches since last fsync
	closed  bool

	recovery RecoveryReport

	// Counters are resolved once so the append path is map-lookup-free.
	cBytes, cBatches, cRotated *telemetry.Counter
}

// Open creates dir if needed, recovers and seals any partial segments a
// previous process left behind (rebuilding each index from its batch frames
// and truncating torn tails), and starts a fresh active segment for appends.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Algorithm == "" || len(opts.Algorithm) > algField {
		return nil, fmt.Errorf("segstore: Options.Algorithm %q must be 1..%d bytes", opts.Algorithm, algField)
	}
	if opts.Rotate.MaxSegmentBytes <= 0 {
		opts.Rotate.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		cBytes:   opts.Metrics.Counter(MetricBytesPersisted),
		cBatches: opts.Metrics.Counter(MetricBatchesPersisted),
		cRotated: opts.Metrics.Counter(MetricSegmentsRotated),
	}
	if opts.Rotate.MaxSegmentBatches > 0 {
		s.index = make([]IndexEntry, 0, opts.Rotate.MaxSegmentBatches)
	}
	if err := s.recoverDir(); err != nil {
		return nil, err
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Recovery returns what Open found and repaired.
func (s *Store) Recovery() RecoveryReport { return s.recovery }

// recoverDir seals every partial segment left by a crashed writer and
// records the highest sequence number in use.
func (s *Store) recoverDir() error {
	names, err := SegmentFiles(s.dir)
	if err != nil {
		return err
	}
	reg := s.opts.Metrics
	for _, path := range names {
		seq, partial := parseSegName(filepath.Base(path))
		if seq > s.seq {
			s.seq = seq
		}
		if !partial {
			continue
		}
		s.recovery.PartialSegments++
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		_, res, err := scanSegment(data)
		if err != nil {
			// Header unusable: quarantine rather than destroy evidence.
			if qerr := os.Rename(path, path+corruptSuffix); qerr != nil {
				return qerr
			}
			s.recovery.QuarantinedFiles++
			reg.Counter(MetricSegmentsQuarantined).Add(1)
			continue
		}
		s.recovery.RecoveredBatches += len(res.index)
		s.recovery.TruncatedFrames += res.truncatedFrames
		s.recovery.TruncatedBytes += res.truncatedBytes
		reg.Counter(MetricRecoveryTruncatedFrames).Add(int64(res.truncatedFrames))
		reg.Counter(MetricRecoveryTruncatedBytes).Add(int64(res.truncatedBytes))
		reg.Counter(MetricBatchesRecovered).Add(int64(len(res.index)))
		reg.Counter(MetricSegmentsRecovered).Add(1)
		if len(res.index) == 0 {
			// Nothing survived; an empty sealed segment serves no reader.
			if err := os.Remove(path); err != nil {
				return err
			}
			continue
		}
		if err := s.sealFile(path, data[:res.validLen], res.index); err != nil {
			return err
		}
	}
	return nil
}

// sealFile truncates a recovered partial to its valid prefix, appends the
// seal footer and trailer, fsyncs, and renames it to its final name.
func (s *Store) sealFile(path string, valid []byte, index []IndexEntry) error {
	// Rewrite rather than truncate-in-place: the valid prefix is already in
	// memory and a rewrite leaves no window where the file has neither tail
	// nor footer. The temp name stays inside the partial namespace so a
	// crash mid-seal is re-recovered on the next open.
	out := appendFooterFrame(valid, 0, index)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	if err := syncPath(path); err != nil {
		return err
	}
	final := strings.TrimSuffix(path, partialSuffix)
	if err := os.Rename(path, final); err != nil {
		return err
	}
	return syncDir(s.dir)
}

// openActive creates the next partial segment and writes its header.
func (s *Store) openActive() error {
	s.seq++
	s.path = filepath.Join(s.dir, fmt.Sprintf("%s%08d%s%s", segPrefix, s.seq, segSuffix, partialSuffix))
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s.scratch, err = appendHeader(s.scratch[:0], Header{
		Version:    Version,
		Algorithm:  s.opts.Algorithm,
		BatchBytes: s.opts.BatchBytes,
	})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(s.scratch); err != nil {
		f.Close()
		return err
	}
	s.f = f
	s.size = int64(len(s.scratch))
	s.index = s.index[:0]
	s.unsync = 0
	return nil
}

// AppendResult persists one compressed batch: the pipeline result is framed
// (a recframe sealed frame) and appended to the active segment,
// rotating first if the policy says so. It is the pipeline sink's hot path:
// steady-state it allocates nothing — the frame is encoded into a reused
// scratch buffer and written with one syscall. The caller keeps ownership of
// res and may Release it as soon as AppendResult returns.
func (s *Store) AppendResult(batch int, tsNanos int64, res *compress.PipelineResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	s.scratch = appendBatchFrame(s.scratch[:0], uint32(batch), tsNanos, res)
	need := int64(len(s.scratch))
	if s.size+need > s.opts.Rotate.MaxSegmentBytes && len(s.index) > 0 {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		// openActive reused the scratch buffer for the header; re-encode.
		s.scratch = appendBatchFrame(s.scratch[:0], uint32(batch), tsNanos, res)
	}
	entry := IndexEntry{
		Offset:         uint64(s.size),
		Batch:          uint32(batch),
		InputBytes:     uint32(res.InputBytes),
		TimestampNanos: tsNanos,
	}
	if _, err := s.f.Write(s.scratch); err != nil {
		return s.poison(err)
	}
	s.size += need
	s.index = append(s.index, entry)
	s.cBytes.Add(need)
	s.cBatches.Add(1)
	s.unsync++
	if s.opts.SyncEvery > 0 && s.unsync >= s.opts.SyncEvery {
		if err := s.f.Sync(); err != nil {
			return s.poison(err)
		}
		s.unsync = 0
	}
	if mb := s.opts.Rotate.MaxSegmentBatches; mb > 0 && len(s.index) >= mb {
		return s.rotateLocked()
	}
	return nil
}

// Rotate seals the active segment (footer, fsync, atomic rename) and opens
// the next one. Rotating an empty segment is a no-op.
func (s *Store) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	if len(s.index) == 0 {
		return nil
	}
	return s.rotateLocked()
}

// usable returns the error a poisoned or closed store answers every call
// with.
func (s *Store) usable() error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return ErrClosed
	}
	return nil
}

// poison records the store's first failure (err may be nil) and returns err.
func (s *Store) poison(err error) error {
	if s.err == nil {
		s.err = err
	}
	return err
}

// rotateLocked seals the active segment and opens its successor.
func (s *Store) rotateLocked() error {
	if err := s.sealActiveLocked(); err != nil {
		return s.poison(err)
	}
	return s.poison(s.openActive())
}

// sealActiveLocked writes the footer and trailer, fsyncs, closes, and
// renames the active segment to its final name. On a failure before the
// close, the file stays open for Close to release.
func (s *Store) sealActiveLocked() error {
	s.scratch = appendFooterFrame(s.scratch[:0], int(s.size), s.index)
	if _, err := s.f.Write(s.scratch); err != nil {
		return err
	}
	s.cBytes.Add(int64(len(s.scratch)))
	if err := s.f.Sync(); err != nil {
		return err
	}
	f := s.f
	s.f = nil
	if err := f.Close(); err != nil {
		return err
	}
	final := strings.TrimSuffix(s.path, partialSuffix)
	if err := os.Rename(s.path, final); err != nil {
		return err
	}
	s.cRotated.Add(1)
	return syncDir(s.dir)
}

// Close seals the active segment and releases the store. A segment with no
// batches is removed instead of sealed. Further appends fail with ErrClosed.
// A poisoned store (or one whose seal fails here) only closes its file,
// leaving the segment ".partial", and returns the poisoning error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.err == nil && len(s.index) == 0 {
		s.f.Close()
		return os.Remove(s.path)
	}
	if s.err == nil {
		s.poison(s.sealActiveLocked())
	}
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	return s.err
}

// SegmentFiles lists the segment files under dir — sealed first, then any
// partials, each group in sequence order. Quarantined .corrupt files are
// excluded.
func SegmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var sealed, partial []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			sealed = append(sealed, filepath.Join(dir, name))
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix+partialSuffix):
			partial = append(partial, filepath.Join(dir, name))
		}
	}
	sort.Strings(sealed)
	sort.Strings(partial)
	return append(sealed, partial...), nil
}

// parseSegName extracts the sequence number from a segment file name and
// whether it is a partial.
func parseSegName(name string) (seq uint64, partial bool) {
	partial = strings.HasSuffix(name, partialSuffix)
	name = strings.TrimSuffix(name, partialSuffix)
	name = strings.TrimSuffix(name, segSuffix)
	name = strings.TrimPrefix(name, segPrefix)
	for _, c := range []byte(name) {
		if c < '0' || c > '9' {
			return 0, partial
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, partial
}

// syncPath fsyncs one file by path.
func syncPath(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// syncDir fsyncs a directory so a rename survives power loss. Platforms
// that cannot sync directories (e.g. Windows) report an error from Sync;
// that is ignored — the rename itself is still atomic on the live system.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	d.Sync() //nolint:errcheck
	return nil
}
