package dataset

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateVectors = flag.Bool("update", false, "rewrite testdata/dataset_vectors.txt")

// vectorGenerators is the generator corpus of TestDatasetVectors: the four
// evaluation datasets and a Replay of a prime-length trace, so batches wrap
// around the trace end at every size.
func vectorGenerators() []Generator {
	trace := make([]byte, 10007)
	seed := uint32(1)
	for i := range trace {
		seed = seed*1103515245 + 12345
		trace[i] = byte(seed >> 16)
	}
	r, err := NewReplay("Replay", trace, 8)
	if err != nil {
		panic(err)
	}
	return append(All(1), r)
}

// TestDatasetVectors pins every generator's exact bytes — length and SHA-256
// of Batch(i, size).Bytes() — for a few batch indices and sizes from one
// tuple up to the paper's B = 932 800, so a rewrite of a generator cannot
// silently change the proxy data every profile and figure is built from.
// Regenerate only for a deliberate change of the data:
//
//	go test ./internal/dataset -run TestDatasetVectors -update
func TestDatasetVectors(t *testing.T) {
	var got strings.Builder
	for _, g := range vectorGenerators() {
		for _, size := range []int{1, 1000, 4096, 65539, 932800} {
			for _, i := range []int{0, 1, 7} {
				data := g.Batch(i, size).Bytes()
				fmt.Fprintf(&got, "%s %d %d %d %x\n", g.Name(), size, i, len(data), sha256.Sum256(data))
			}
		}
	}
	path := filepath.Join("testdata", "dataset_vectors.txt")
	if *updateVectors {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
