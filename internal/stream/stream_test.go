package stream

import (
	"bytes"
	"testing"
)

func TestFramedBatchTuples(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6}
	b := NewFramedBatch(7, data, 2)
	if b.Index != 7 {
		t.Fatalf("Index = %d", b.Index)
	}
	if !bytes.Equal(b.Bytes(), data) || b.Size() != 6 {
		t.Fatalf("Bytes = %v, Size = %d", b.Bytes(), b.Size())
	}
	tuples := b.Tuples()
	if len(tuples) != 3 {
		t.Fatalf("%d tuples, want 3", len(tuples))
	}
	var flat []byte
	for i, tu := range tuples {
		if tu.Seq != 7<<32|uint64(i) || tu.Size() != 2 {
			t.Fatalf("tuple %d: Seq = %#x, Size = %d", i, tu.Seq, tu.Size())
		}
		flat = append(flat, tu.Payload...)
	}
	if !bytes.Equal(flat, data) {
		t.Fatalf("tuples flatten to %v, want %v", flat, data)
	}
	// Unframed bytes are one tuple numbered by the batch index.
	one := NewBatchBytes(3, data).Tuples()
	if len(one) != 1 || one[0].Seq != 3 || !bytes.Equal(one[0].Payload, data) {
		t.Fatalf("unframed tuples = %+v", one)
	}
}

func TestTupleSize(t *testing.T) {
	tu := Tuple{Payload: make([]byte, 16)}
	if tu.Size() != 16 {
		t.Fatalf("Size = %d", tu.Size())
	}
}

func TestBatchSlice(t *testing.T) {
	b := NewBatchBytes(0, []byte{0, 1, 2, 3, 4, 5, 6, 7})
	s := b.Slice(2, 5)
	if !bytes.Equal(s.Bytes(), []byte{2, 3, 4}) {
		t.Fatalf("Slice = %v", s.Bytes())
	}
	// Empty slice is legal.
	if e := b.Slice(3, 3); e.Size() != 0 {
		t.Fatalf("empty slice size = %d", e.Size())
	}
}

func TestBatchSlicePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBatchBytes(0, []byte{1, 2}).Slice(1, 5)
}
