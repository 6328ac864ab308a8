// Persistent plan-cache format ("CSPC"): a warm-start file so a restarted
// planner resumes from its learned plan regimes instead of cold full
// searches. The on-disk discipline mirrors segstore's recovery rules: every
// record is CRC32C-guarded (Castagnoli, big-endian framing), lengths are
// bounds-checked before allocation, loading tolerates torn files by keeping
// the decodable prefix, and any corruption degrades to a smaller (possibly
// empty) cache — never an error, never a panic. Writes are atomic: a
// ".partial" temp file is fsynced and renamed over the final path.
//
// Layout:
//
//	header  = magic "CSPC" | version u32
//	record* = payloadLen u32 | crc32c(payload) u32 | payload
//
// where each payload encodes one Entry (key, logical tasks, plan), all
// integers big-endian, strings and slices length-prefixed with u32 counts.
// Version 1 records also carried a signature vector and an energy estimate;
// a version-1 file loads as a cold start.
package plancache

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/recframe"
)

const (
	persistMagic   = "CSPC"
	persistVersion = 2

	// Sanity caps: a legitimate entry is a handful of tasks over a few dozen
	// steps; anything claiming more is a lying length field and the record
	// (and the rest of the file) is discarded rather than allocated.
	maxPayloadLen = 1 << 20
	maxStringLen  = 1 << 12
	maxTasks      = 1 << 12
	maxSteps      = 1 << 8
	maxPlanLen    = 1 << 16
)

// EncodeEntries serializes entries into the CSPC file image (header plus one
// CRC-guarded record per entry).
func EncodeEntries(entries []*Entry) []byte {
	buf := append([]byte(nil), persistMagic...)
	buf = binary.BigEndian.AppendUint32(buf, persistVersion)
	for _, e := range entries {
		if e == nil {
			continue
		}
		payload := encodeEntry(e)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.BigEndian.AppendUint32(buf, recframe.Checksum(payload))
		buf = append(buf, payload...)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func encodeEntry(e *Entry) []byte {
	var buf []byte
	buf = appendString(buf, e.Key.Algorithm)
	buf = appendString(buf, e.Key.Policy)
	buf = binary.BigEndian.AppendUint64(buf, e.Key.PolicyParams)
	buf = binary.BigEndian.AppendUint64(buf, e.Key.Signature)
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.Key.LSetQ))
	buf = binary.BigEndian.AppendUint64(buf, e.Key.PlatformHash)
	buf = appendString(buf, e.Key.DVFSPolicy)
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.Key.CalibQ))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Tasks)))
	for _, t := range e.Tasks {
		buf = appendString(buf, t.Name)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.Steps)))
		for _, s := range t.Steps {
			buf = append(buf, byte(s))
		}
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(t.InstrPerByte))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(t.Kappa))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(t.OutPerByte))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(t.InPerByte))
		buf = binary.BigEndian.AppendUint32(buf, uint32(t.Replicas))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Plan)))
	for _, core := range e.Plan {
		buf = binary.BigEndian.AppendUint64(buf, uint64(int64(core)))
	}
	return buf
}

// taskMinLen is the fewest payload bytes one encoded task takes: name
// length, step count, four float64 aggregates, replica count.
const taskMinLen = 4 + 4 + 4*8 + 4

func decodeEntry(payload []byte) (*Entry, bool) {
	r := recframe.NewReader(payload)
	long := false
	str := func() string {
		n := r.Count(1)
		long = long || n > maxStringLen
		return string(r.Bytes(n))
	}
	e := &Entry{}
	e.Key.Algorithm = str()
	e.Key.Policy = str()
	e.Key.PolicyParams = r.U64()
	e.Key.Signature = r.U64()
	e.Key.LSetQ = int64(r.U64())
	e.Key.PlatformHash = r.U64()
	e.Key.DVFSPolicy = str()
	e.Key.CalibQ = int32(r.U32())
	nTasks := r.Count(taskMinLen)
	if nTasks > maxTasks {
		return nil, false
	}
	e.Tasks = make([]costmodel.LogicalTask, nTasks)
	for i := range e.Tasks {
		t := &e.Tasks[i]
		t.Name = str()
		nSteps := r.Count(1)
		if nSteps > maxSteps {
			return nil, false
		}
		t.Steps = make([]compress.StepKind, nSteps)
		for j := range t.Steps {
			t.Steps[j] = compress.StepKind(r.U8())
		}
		t.InstrPerByte = math.Float64frombits(r.U64())
		t.Kappa = math.Float64frombits(r.U64())
		t.OutPerByte = math.Float64frombits(r.U64())
		t.InPerByte = math.Float64frombits(r.U64())
		t.Replicas = int(int32(r.U32()))
	}
	nPlan := r.Count(8)
	if nPlan > maxPlanLen {
		return nil, false
	}
	e.Plan = make(costmodel.Plan, nPlan)
	for i := range e.Plan {
		e.Plan[i] = int(int64(r.U64()))
	}
	if long || !r.OK() || r.Len() != 0 {
		return nil, false
	}
	return e, true
}

// LoadBytes decodes a CSPC file image, returning every entry of the longest
// decodable prefix. It never panics and never returns an error: a bad magic
// or version yields an empty slice, and the first torn or corrupt record
// (short frame, CRC mismatch, lying length field, trailing garbage inside a
// payload) ends the load with the entries decoded so far.
func LoadBytes(data []byte) []*Entry {
	r := recframe.NewReader(data)
	if string(r.Bytes(len(persistMagic))) != persistMagic || r.U32() != persistVersion {
		return nil
	}
	var entries []*Entry
	for r.Len() >= 8 {
		n, want := int(r.U32()), r.U32()
		if n > maxPayloadLen {
			break
		}
		payload := r.Bytes(n)
		if !r.OK() || recframe.Checksum(payload) != want {
			break
		}
		e, ok := decodeEntry(payload)
		if !ok {
			break
		}
		entries = append(entries, e)
	}
	return entries
}

// SaveFile atomically persists the cache contents (least- to most-recently
// used, so a reload preserves recency): the image is written to a ".partial"
// sibling, fsynced, and renamed over path.
func (c *PlanCache) SaveFile(path string) error {
	data := EncodeEntries(c.Entries())
	tmp := path + ".partial"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
	return nil
}

// LoadFile warm-starts the cache from a persisted CSPC file, returning the
// number of entries restored. A missing file is a cold start (0, nil); a
// torn or corrupt file restores its decodable prefix and reports no error,
// matching the crash-recovery contract of the segment store. Only a genuine
// I/O failure reading an existing file surfaces as an error.
func (c *PlanCache) LoadFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	entries := LoadBytes(data)
	c.Load(entries)
	return len(entries), nil
}
