package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/plancache"
	"repro/internal/segstore"
	"repro/internal/stream"
)

var updateContainerVectors = flag.Bool("update", false, "rewrite testdata/container_vectors.txt")

// containerPayload is the fixed batch every container vector compresses:
// 48 KiB of slowly drifting 32-bit readings with a little seeded jitter, so
// every kernel compresses it and 12 slices each get a whole number of words.
func containerPayload() []byte {
	out := make([]byte, 0, 48<<10)
	seed := uint32(7)
	for i := 0; len(out) < cap(out); i++ {
		seed = seed*1103515245 + 12345
		v := uint32(1000+(i/64)%37*3) + (seed>>16)&3
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

// TestContainerVectors pins the bytes of every record container a
// compressed batch leaves in — the served FrameResult, a sealed `.cseg`
// segment (header, two batch frames, footer frame, trailer) and a CSPC
// plan-cache image — as length and SHA-256, for every algorithm at 1 and at
// 12 slices. The kernels' own bytes are pinned by TestKernelVectors; this
// test fails when the framing around them moves. Regenerate only for a
// deliberate container change:
//
//	go test ./internal/serve -run TestContainerVectors -update
func TestContainerVectors(t *testing.T) {
	payload := containerPayload()
	m := Measure{LatencyPerByte: 0.75, EnergyPerByte: 1.25, Contention: 1.5, Violated: true}
	var got strings.Builder
	var entries []*plancache.Entry
	for _, alg := range append(compress.All(), compress.Extensions()...) {
		sets := compress.StageSets(alg)
		workers := make([]int, len(sets))
		for i := range workers {
			workers[i] = 1
		}
		for _, slices := range []int{1, 12} {
			res, err := compress.RunPipeline(alg, stream.NewBatchBytes(0, payload), slices, workers)
			if err != nil {
				t.Fatal(err)
			}
			var frame bytes.Buffer
			if err := writeResultFrame(&frame, 7, res, m, &resultScratch{}); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "result %s %d %d %x\n", alg.Name(), slices, frame.Len(), sha256.Sum256(frame.Bytes()))

			seg := sealedSegment(t, alg.Name(), len(payload), res)
			fmt.Fprintf(&got, "cseg %s %d %d %x\n", alg.Name(), slices, len(seg), sha256.Sum256(seg))
			res.Release()
		}
		var tasks []costmodel.LogicalTask
		for i, set := range sets {
			tasks = append(tasks, costmodel.LogicalTask{
				Name:         fmt.Sprintf("stage%d", i),
				Steps:        set,
				InstrPerByte: 10 + float64(i), Kappa: 0.25 * float64(i+1),
				OutPerByte: 0.5, InPerByte: 1, Replicas: i + 1,
			})
		}
		entries = append(entries, &plancache.Entry{
			Key: plancache.PlanKey{
				Algorithm: alg.Name(), Policy: "cstream", PolicyParams: 3,
				Signature: uint64(len(entries)) * 0x9E3779B97F4A7C15, LSetQ: 26000,
				PlatformHash: 0xC0FFEE, DVFSPolicy: "performance", CalibQ: -2,
			},
			Tasks: tasks,
			Plan:  costmodel.Plan{0, 4, 1, 5, 2, 3}[:len(sets)+1],
		})
	}
	img := plancache.EncodeEntries(entries)
	fmt.Fprintf(&got, "cspc all - %d %x\n", len(img), sha256.Sum256(img))
	checkContainerGolden(t, filepath.Join("testdata", "container_vectors.txt"), got.String())
}

// sealedSegment appends res twice to a fresh store, closes it, and returns
// the one sealed segment file it left.
func sealedSegment(t *testing.T, alg string, batchBytes int, res *compress.PipelineResult) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := segstore.Open(dir, segstore.Options{Algorithm: alg, BatchBytes: batchBytes})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 2; batch++ {
		if err := st.AppendResult(batch, 1_700_000_000_000_000_000+int64(batch), res); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := segstore.SegmentFiles(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("segment files %v, %v; want exactly one", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkContainerGolden compares got line by line with the golden file at
// path, rewriting the file first under -update.
func checkContainerGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateContainerVectors {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read vectors (run with -update to create): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(have) != len(want) {
		t.Fatalf("%d vectors, golden file has %d", len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Errorf("vector %d:\n got  %s\n want %s", i, have[i], want[i])
		}
	}
}
