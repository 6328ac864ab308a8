package segstore

import (
	"errors"
	"testing"
)

var errInjected = errors.New("injected I/O failure")

// faultFile wraps a store's active segment file and fails its failWrite'th
// Write (counting from 1, 0 never), writing the first half of the bytes
// first when short is set, and every Sync when failSync is set.
type faultFile struct {
	segmentFile
	failWrite, writes int
	short, failSync   bool
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.writes++
	if f.writes != f.failWrite {
		return f.segmentFile.Write(p)
	}
	n := 0
	if f.short {
		n, _ = f.segmentFile.Write(p[:len(p)/2])
	}
	return n, errInjected
}

func (f *faultFile) Sync() error {
	if f.failSync {
		return errInjected
	}
	return f.segmentFile.Sync()
}

// TestFailedWritePoisonsStore injects a short write, a failed fsync and a
// failed seal under a live store. In each case every later AppendResult,
// Rotate and Close must return the injected error, and the directory must
// reopen with every acknowledged batch readable — where a store that kept
// appending after a short write indexed later batches inside the torn
// bytes, and recovery dropped them.
func TestFailedWritePoisonsStore(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		file faultFile
		// failAt is the append that fails (-1: none; the rotation does).
		failAt int
	}{
		{"short write", Options{Algorithm: "tcomp32"}, faultFile{failWrite: 2, short: true}, 1},
		{"failed fsync", Options{Algorithm: "tcomp32", SyncEvery: 2}, faultFile{failSync: true}, 1},
		{"failed seal", Options{Algorithm: "tcomp32"}, faultFile{failWrite: 3}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ff := tc.file
			ff.segmentFile = st.f
			st.f = &ff
			acked := 0
			for i := 0; i < 2; i++ {
				_, res := testBatch(t, "tcomp32", i, 4096)
				err := st.AppendResult(i, int64(i), res)
				if i == tc.failAt {
					if !errors.Is(err, errInjected) {
						t.Fatalf("append %d: err = %v, want the injected failure", i, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				acked++
			}
			if tc.failAt < 0 {
				if err := st.Rotate(); !errors.Is(err, errInjected) {
					t.Fatalf("Rotate: err = %v, want the injected failure", err)
				}
			}
			_, res := testBatch(t, "tcomp32", 2, 4096)
			if err := st.AppendResult(2, 2, res); !errors.Is(err, errInjected) {
				t.Fatalf("append after the failure: err = %v, want the injected failure", err)
			}
			if err := st.Rotate(); !errors.Is(err, errInjected) {
				t.Fatalf("Rotate after the failure: err = %v, want the injected failure", err)
			}
			for i := 0; i < 2; i++ {
				if err := st.Close(); !errors.Is(err, errInjected) {
					t.Fatalf("Close %d after the failure: err = %v, want the injected failure", i, err)
				}
			}

			st, err = Open(dir, Options{Algorithm: "tcomp32"})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			files, err := SegmentFiles(dir)
			if err != nil {
				t.Fatal(err)
			}
			readable := 0
			for _, path := range files {
				seg, err := OpenSegment(path)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < seg.Batches(); i++ {
					b, err := seg.ReadBatch(i)
					if err != nil {
						t.Fatalf("%s batch %d: %v", path, i, err)
					}
					if _, err := b.Decode(); err != nil {
						t.Fatalf("%s batch %d: %v", path, i, err)
					}
					readable++
				}
				seg.Close()
			}
			if readable < acked {
				t.Fatalf("%d batches readable after recovery, %d were acknowledged", readable, acked)
			}
		})
	}
}
