package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(4)
	pattern := []bool{true, false, true, true, false, false, true, false, true, true}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.BitLen() != uint64(len(pattern)) {
		t.Fatalf("BitLen = %d, want %d", w.BitLen(), len(pattern))
	}
	r := NewReaderBits(w.Bytes(), w.BitLen())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %v, want %v", i, got, want)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	w := NewWriter(2)
	w.WriteBits(0xFF, 3) // only low 3 bits should land
	w.WriteBits(0, 5)
	r := NewReader(w.Bytes())
	v, err := r.ReadBits(8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x07 {
		t.Fatalf("got %#x, want 0x07", v)
	}
}

func TestWriteBitsZeroWidth(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xABCD, 0)
	if w.BitLen() != 0 || w.Len() != 0 {
		t.Fatalf("zero-width write changed state: bits=%d bytes=%d", w.BitLen(), w.Len())
	}
}

func TestWrite64Bits(t *testing.T) {
	const v = uint64(0xDEADBEEFCAFEF00D)
	w := NewWriter(8)
	w.WriteBits(v, 64)
	r := NewReader(w.Bytes())
	got, err := r.ReadBits(64)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("got %#x, want %#x", got, v)
	}
}

func TestUnalignedRoundTrip(t *testing.T) {
	w := NewWriter(16)
	widths := []uint{1, 5, 7, 13, 3, 32, 17, 64, 9, 2}
	vals := []uint64{1, 21, 100, 5000, 6, 0xFFFFFFFF, 99999, 1<<63 + 12345, 300, 3}
	for i := range widths {
		mask := uint64(1)<<widths[i] - 1
		if widths[i] == 64 {
			mask = ^uint64(0)
		}
		w.WriteBits(vals[i], widths[i])
		vals[i] &= mask
	}
	r := NewReaderBits(w.Bytes(), w.BitLen())
	for i := range widths {
		got, err := r.ReadBits(widths[i])
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != vals[i] {
			t.Fatalf("field %d = %#x, want %#x", i, got, vals[i])
		}
	}
}

func TestWriteBytesAligned(t *testing.T) {
	w := NewWriter(8)
	data := []byte{0x01, 0x02, 0xFE, 0xFF}
	w.WriteBytes(data)
	if !bytes.Equal(w.Bytes(), data) {
		t.Fatalf("aligned WriteBytes = %x, want %x", w.Bytes(), data)
	}
}

func TestWriteBytesUnaligned(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0b101, 3)
	data := []byte{0xAB, 0xCD}
	w.WriteBytes(data)
	r := NewReader(w.Bytes())
	head, err := r.ReadBits(3)
	if err != nil {
		t.Fatal(err)
	}
	if head != 0b101 {
		t.Fatalf("head = %b", head)
	}
	for i, want := range data {
		got, err := r.ReadBits(8)
		if err != nil {
			t.Fatal(err)
		}
		if byte(got) != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestByteReaderWriterInterfaces(t *testing.T) {
	w := NewWriter(1)
	if err := w.WriteByte(0x5A); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Bytes())
	b, err := r.ReadByte()
	if err != nil {
		t.Fatal(err)
	}
	if b != 0x5A {
		t.Fatalf("got %#x", b)
	}
	if _, err := r.ReadByte(); err != ErrUnexpectedEOF {
		t.Fatalf("expected ErrUnexpectedEOF, got %v", err)
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReaderBits([]byte{0xFF}, 5)
	if _, err := r.ReadBits(6); err != ErrUnexpectedEOF {
		t.Fatalf("expected EOF reading past limit, got %v", err)
	}
	// Reading exactly the remaining bits must succeed.
	v, err := r.ReadBits(5)
	if err != nil || v != 0x1F {
		t.Fatalf("got %#x, %v", v, err)
	}
}

func TestPeekSkip(t *testing.T) {
	r := NewReaderBits([]byte{0xAB, 0xCD, 0xEF}, 20)
	if err := r.Skip(4); err != nil {
		t.Fatal(err)
	}
	// Within 8 bytes of the end the window is zero-padded past the buffer.
	if got := r.Peek(); got != 0xEFCDAB>>4 {
		t.Fatalf("Peek = %#x, want %#x", got, 0xEFCDAB>>4)
	}
	// Skip past the readable bits fails and leaves the cursor alone.
	if err := r.Skip(17); err != ErrUnexpectedEOF {
		t.Fatalf("Skip past the limit: %v, want ErrUnexpectedEOF", err)
	}
	if err := r.Skip(16); err != nil || r.Remaining() != 0 {
		t.Fatalf("Skip(16) = %v with %d bits left, want nil and 0", err, r.Remaining())
	}
	if got := r.Peek(); got != 0xE {
		t.Fatalf("Peek at the limit = %#x, want the unread buffer bits 0xe", got)
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xABCD, 16)
	w.Reset()
	if w.BitLen() != 0 || w.Len() != 0 {
		t.Fatalf("Reset left state: bits=%d bytes=%d", w.BitLen(), w.Len())
	}
	w.WriteBits(0x3, 2)
	if w.Bytes()[0] != 0x3 {
		t.Fatalf("write after reset = %#x", w.Bytes()[0])
	}
}

func TestOffsetTracking(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xFFFF, 16)
	r := NewReader(w.Bytes())
	if r.Offset() != 0 {
		t.Fatalf("initial offset %d", r.Offset())
	}
	if _, err := r.ReadBits(5); err != nil {
		t.Fatal(err)
	}
	if r.Offset() != 5 {
		t.Fatalf("offset after 5 = %d", r.Offset())
	}
	if r.Remaining() != 11 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

// Property: any sequence of (value, width) fields survives a round trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		widths := make([]uint, count)
		vals := make([]uint64, count)
		w := NewWriter(count * 8)
		for i := 0; i < count; i++ {
			widths[i] = uint(rng.Intn(64)) + 1
			vals[i] = rng.Uint64()
			if widths[i] < 64 {
				vals[i] &= (1 << widths[i]) - 1
			}
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReaderBits(w.Bytes(), w.BitLen())
		for i := 0; i < count; i++ {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total bit length always equals the sum of written widths, and the
// byte length is its ceiling divided by 8.
func TestQuickLengthInvariant(t *testing.T) {
	f := func(widths []uint8) bool {
		w := NewWriter(0)
		var total uint64
		for _, raw := range widths {
			width := uint(raw%64) + 1
			w.WriteBits(^uint64(0), width)
			total += uint64(width)
		}
		wantBytes := int((total + 7) / 8)
		return w.BitLen() == total && w.Len() == wantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w.Len() > 1<<20 {
			w.Reset()
		}
		w.WriteBits(uint64(i), uint(i%63)+1)
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1 << 16)
	for i := 0; i < 1<<13; i++ {
		w.WriteBits(uint64(i), 37)
	}
	b.ReportAllocs()
	b.ResetTimer()
	r := NewReader(w.Bytes())
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 37 {
			r = NewReader(w.Bytes())
		}
		//lint:allow bitioerr benchmark hot loop; the Remaining guard above makes EOF impossible
		r.ReadBits(37)
	}
}
