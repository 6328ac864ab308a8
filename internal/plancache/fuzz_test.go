package plancache

import (
	"encoding/binary"
	"testing"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/recframe"
)

// FuzzPlanCacheFile throws hostile bytes at the persisted-cache decoder. The
// contract under attack: LoadBytes never panics, never over-allocates from a
// lying length field, and anything it does decode re-encodes to a decodable
// image (the surviving prefix is real data, not garbage). CI replays the
// committed corpus under testdata/fuzz as regression tests.
func FuzzPlanCacheFile(f *testing.F) {
	// A small valid image to mutate from.
	c := NewPlanCache(4)
	c.Put(PlanKey{Algorithm: "tcomp32", Policy: "p", Signature: 42, LSetQ: 26000},
		[]costmodel.LogicalTask{{
			Name:         "read+encode",
			Steps:        []compress.StepKind{compress.StepRead, compress.StepEncode},
			InstrPerByte: 12.5, Kappa: 0.4, OutPerByte: 0.3, Replicas: 2,
		}},
		costmodel.Plan{0, 1})
	valid := EncodeEntries(c.Entries())
	header := valid[:len(persistMagic)+4]
	f.Add(valid)
	f.Add(valid[:len(valid)/2])           // torn mid-record
	f.Add([]byte{})                       // empty
	f.Add([]byte("CSPC"))                 // header torn mid-version
	f.Add([]byte("XSPC\x00\x00\x00\x02")) // wrong magic
	f.Add([]byte("CSPC\x00\x00\x00\x03")) // future version
	// Lying frame length: claims a huge payload follows.
	lyingFrame := append(append([]byte(nil), header...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	f.Add(lyingFrame)
	// Valid CRC over a payload whose *internal* counts lie: an empty key, then
	// a task count far beyond maxTasks.
	bad := make([]byte, 48)
	bad = binary.BigEndian.AppendUint32(bad, 0xffffffff)
	lyingPayload := binary.BigEndian.AppendUint32(append([]byte(nil), header...), uint32(len(bad)))
	lyingPayload = binary.BigEndian.AppendUint32(lyingPayload, recframe.Checksum(bad))
	lyingPayload = append(lyingPayload, bad...)
	f.Add(lyingPayload)
	// Bad CRC on an otherwise valid record.
	badCRC := append([]byte(nil), valid...)
	if len(badCRC) > 12 {
		badCRC[12] ^= 0xff
	}
	f.Add(badCRC)
	// A version-1 header stops the load at the version check, whatever
	// records follow it.
	v1 := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(v1[len(persistMagic):], 1)
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		entries := LoadBytes(data) // must not panic
		for _, e := range entries {
			if e == nil {
				t.Fatal("LoadBytes returned a nil entry")
			}
			if len(e.Tasks) > maxTasks || len(e.Plan) > maxPlanLen {
				t.Fatalf("decoded entry exceeds sanity caps: %d tasks, %d plan",
					len(e.Tasks), len(e.Plan))
			}
		}
		// Whatever decoded must survive a re-encode/re-decode round trip with
		// identical keys — the prefix is coherent data.
		re := LoadBytes(EncodeEntries(entries))
		if len(re) != len(entries) {
			t.Fatalf("re-decode lost entries: %d -> %d", len(entries), len(re))
		}
		for i := range re {
			if re[i].Key != entries[i].Key {
				t.Fatalf("entry %d key changed across re-encode", i)
			}
		}
		// A decodable input must also load into a cache without issue.
		c := NewPlanCache(8)
		c.Load(entries)
	})
}
