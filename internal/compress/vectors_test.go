package compress

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stream"
)

var updateVectors = flag.Bool("update", false, "rewrite testdata/kernel_vectors.txt")

// vectorInputs is the format-stability corpus: lzevil's edge lengths (empty,
// sub-word, one word, word plus one byte), a zero run, seeded noise, and
// each dataset at a small and at a just-past-helperShare size.
func vectorInputs() []struct {
	name string
	data []byte
} {
	type input = struct {
		name string
		data []byte
	}
	noise := make([]byte, 4096)
	seed := uint32(1)
	for i := range noise {
		seed = seed*1103515245 + 12345
		noise[i] = byte(seed >> 16)
	}
	in := []input{
		{"empty", nil},
		{"1B", []byte("1")},
		{"3B", []byte("123")},
		{"4B", []byte("1234")},
		{"5B", []byte("1234x")},
		{"zeros-4096", make([]byte, 4096)},
		{"noise-4096", noise},
	}
	for _, g := range dataset.All(1) {
		for _, size := range []int{4096, helperShare + 3} {
			in = append(in, input{fmt.Sprintf("%s-%d", g.Name(), size), g.Batch(0, size).Bytes()})
		}
	}
	return in
}

// TestKernelVectors pins every kernel's exact output — bit length and the
// SHA-256 of the packed bytes — on a fixed corpus, so a change that alters
// the on-wire or on-disk bytes of any kernel fails here rather than in a
// reader of old segments. Regenerate only for a deliberate format change:
//
//	go test ./internal/compress -run TestKernelVectors -update
func TestKernelVectors(t *testing.T) {
	var got strings.Builder
	for _, alg := range append(All(), Extensions()...) {
		for _, in := range vectorInputs() {
			res := alg.NewSession().CompressBatch(stream.NewBatchBytes(0, in.data))
			fmt.Fprintf(&got, "%s %s %d %d %x\n", alg.Name(), in.name, len(res.Compressed), res.BitLen, sha256.Sum256(res.Compressed))
		}
	}
	path := filepath.Join("testdata", "kernel_vectors.txt")
	if *updateVectors {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read vectors (run with -update to create): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(have) != len(want) {
		t.Fatalf("%d vectors, golden file has %d", len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Errorf("vector %d:\n got  %s\n want %s", i, have[i], want[i])
		}
	}
}
