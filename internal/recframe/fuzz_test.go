package recframe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/compress"
)

// FuzzRecframe holds the codec to its contract on arbitrary bytes:
// ParseSealed never panics and wraps every rejection in ErrCorrupt, any
// frame it accepts re-seals to exactly the bytes it was parsed from, and a
// Reader driven by an arbitrary sequence of reads never returns a byte past
// the end, agrees with a plain cursor over the same bytes, and never admits
// a Count above remaining/minLen.
func FuzzRecframe(f *testing.F) {
	sealed, start := Begin(nil, 0x10, 7)
	sealed = AppendSegmentMeta(sealed, &compress.Segment{SliceIndex: 1, OrigLen: 64, BitLen: 24, Compressed: []byte{1, 2, 3}})
	sealed = append(sealed, 1, 2, 3)
	sealed = Seal(sealed, start)
	f.Add(sealed, 0, []byte{5, 6, 3, 0x43})
	f.Add(sealed[:len(sealed)-1], 0, []byte{6})             // torn CRC
	f.Add(append([]byte{0xAA}, sealed...), 1, []byte{1, 2}) // frame at an offset
	f.Add([]byte{0, 0, 0, 4, 0x10}, 0, []byte{4})           // length below Overhead
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 0, []byte{2})     // length above the cap
	f.Add([]byte{0, 0, 0, 3, 9}, -3, []byte{0x41, 0x47})    // lying count

	f.Fuzz(func(t *testing.T, data []byte, off int, ops []byte) {
		fr, err := ParseSealed(data, off, 1<<16)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
		} else {
			re, s := Begin(nil, fr.Kind, fr.Seq)
			re = Seal(append(re, fr.Payload...), s)
			if !bytes.Equal(re, data[off:off+fr.Size]) {
				t.Fatalf("re-sealed frame differs from the parsed bytes\n got %x\nwant %x", re, data[off:off+fr.Size])
			}
		}

		// Drive a Reader and a plain cursor (pos, ok) side by side.
		r := NewReader(data)
		pos, ok := 0, true
		take := func(n int) []byte {
			if !ok || n < 0 || n > len(data)-pos {
				ok = false
				return nil
			}
			pos += n
			return data[pos-n : pos]
		}
		for _, op := range ops {
			switch arg := int(op >> 3); op & 7 {
			case 0:
				if got, want := r.U8(), take(1); want != nil && got != want[0] || want == nil && got != 0 {
					t.Fatalf("U8 = %d, want %x", got, want)
				}
			case 1:
				if got, want := r.U32(), take(4); want != nil && got != binary.BigEndian.Uint32(want) || want == nil && got != 0 {
					t.Fatalf("U32 = %d, want %x", got, want)
				}
			case 2:
				if got, want := r.U64(), take(8); want != nil && got != binary.BigEndian.Uint64(want) || want == nil && got != 0 {
					t.Fatalf("U64 = %d, want %x", got, want)
				}
			case 3, 4:
				got, want := r.Bytes(arg), take(arg)
				if !bytes.Equal(got, want) || (got == nil) != (want == nil) || cap(got) != len(got) {
					t.Fatalf("Bytes(%d) = %x (cap %d), want %x", arg, got, cap(got), want)
				}
			case 5, 6:
				minLen := arg + 1
				n := r.Count(minLen)
				want := take(4)
				if want != nil && uint64(binary.BigEndian.Uint32(want)) > uint64((len(data)-pos)/minLen) {
					want, ok = nil, false
				}
				if want == nil && n != 0 || want != nil && n != int(binary.BigEndian.Uint32(want)) {
					t.Fatalf("Count(%d) = %d, want %x", minLen, n, want)
				}
				if n > r.Len()/minLen {
					t.Fatalf("Count(%d) = %d admits more than %d unread bytes hold", minLen, n, r.Len())
				}
			case 7:
				var s compress.Segment
				clen := r.SegmentMeta(&s)
				if want := take(SegmentMetaLen); want != nil && (s.SliceIndex != int(binary.BigEndian.Uint32(want)) ||
					s.OrigLen != int(binary.BigEndian.Uint32(want[4:])) || s.BitLen != binary.BigEndian.Uint64(want[8:]) ||
					clen != int(binary.BigEndian.Uint32(want[16:]))) {
					t.Fatalf("SegmentMeta = %+v, %d; want %x", s, clen, want)
				}
			}
			if r.OK() != ok {
				t.Fatalf("OK() = %v, want %v", r.OK(), ok)
			}
			if rest := len(data) - pos; ok && r.Len() != rest || !ok && r.Len() != 0 {
				t.Fatalf("Len() = %d with %d bytes unread (ok %v)", r.Len(), rest, ok)
			}
		}
	})
}
