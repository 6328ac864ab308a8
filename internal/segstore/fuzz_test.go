package segstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/recframe"
)

// fuzzSeedSegment builds a real sealed segment through the Store so the fuzzer
// starts from bytes the writer actually produces, not an approximation.
func fuzzSeedSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	st, err := Open(dir, Options{Algorithm: "delta32"})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, res := testBatch(f, "delta32", i, 256)
		if err := st.AppendResult(i, int64(i), res); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	files, err := SegmentFiles(dir)
	if err != nil || len(files) != 1 {
		f.Fatalf("seed segment: files=%v err=%v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzSegmentFooter throws arbitrary bytes at the full segment open path —
// the O(1) sealed-trailer route, the forward recovery scan, and per-entry
// frame parsing — and checks the recovery invariants hold for any input: no
// panic, no index entry outside the file, the valid prefix re-scans cleanly
// (recovery converges instead of truncating again on reopen), and the real
// OpenSegment on the same bytes never crashes. Seeds cover a writer-produced
// sealed segment, an older writer's segment with checkpoint footers
// mid-stream (testdata/checkpointed), torn tails, a lying footer count with
// a recomputed CRC, and the hostile handcrafted corpus in
// testdata/fuzz/FuzzSegmentFooter.
func FuzzSegmentFooter(f *testing.F) {
	sealed := fuzzSeedSegment(f)
	checkpointed, err := os.ReadFile(filepath.Join("testdata", "checkpointed", segPrefix+"00000001"+segSuffix))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add(sealed[:len(sealed)-3])             // torn trailer
	f.Add(sealed[:len(sealed)-trailerSize-2]) // torn footer frame
	f.Add(checkpointed)                       // checkpoint footers mid-stream
	f.Add([]byte{})                           // empty file
	f.Add(sealed[:headerSize])                // header only, no frames

	// A sealed segment whose trailer points one byte past the real footer:
	// sealedIndex must reject it and the scan must still recover the batches.
	skewed := append([]byte(nil), sealed...)
	off := binary.BigEndian.Uint64(skewed[len(skewed)-trailerSize:])
	binary.BigEndian.PutUint64(skewed[len(skewed)-trailerSize:], off+1)
	f.Add(skewed)

	// A footer frame whose entry count lies but whose CRC is recomputed to
	// match, so only parseFooterPayload's own bounds check can catch it.
	lying := append([]byte(nil), sealed...)
	fOff := int(off)
	n := int(binary.BigEndian.Uint32(lying[fOff : fOff+4]))
	binary.BigEndian.PutUint32(lying[fOff+4+recframe.Overhead:], 1<<30)
	body := lying[fOff+4 : fOff+4+n]
	binary.BigEndian.PutUint32(lying[fOff+4+n:], recframe.Checksum(body))
	f.Add(lying)

	f.Fuzz(func(t *testing.T, data []byte) {
		if idx, ok := sealedIndex(data); ok {
			for _, e := range idx {
				// Entries come from a CRC-valid footer but may still point at
				// garbage; following them must fail loudly, never crash.
				fr, err := recframe.ParseSealed(data, int(e.Offset), MaxFrameBytes)
				if err != nil {
					continue
				}
				if fr.Kind == FrameBatch {
					_, _ = parseBatchPayload(fr, int(e.Offset), "delta32")
				}
			}
		}

		h, res, err := scanSegment(data)
		if err != nil {
			return // rejected outright (bad header): nothing else to hold
		}
		if h.Algorithm == "" {
			t.Fatal("scan accepted a header with no algorithm")
		}
		if res.validLen < headerSize || res.validLen > len(data) {
			t.Fatalf("validLen %d outside [%d, %d]", res.validLen, headerSize, len(data))
		}
		if res.truncatedBytes != len(data)-res.validLen {
			t.Fatalf("truncatedBytes %d, want %d", res.truncatedBytes, len(data)-res.validLen)
		}
		if res.truncatedBytes > 0 && res.truncatedFrames == 0 {
			t.Fatal("torn tail reported with zero truncated frames")
		}
		for _, e := range res.index {
			if e.Offset > uint64(res.validLen) {
				t.Fatalf("index entry offset %d past validLen %d", e.Offset, res.validLen)
			}
		}

		// Recovery convergence: the valid prefix the scan would seal must
		// itself re-scan with no loss and the identical index.
		h2, res2, err := scanSegment(data[:res.validLen])
		if err != nil {
			t.Fatalf("valid prefix no longer parses: %v", err)
		}
		if h2 != h {
			t.Fatalf("header changed across re-scan: %+v vs %+v", h2, h)
		}
		if res2.truncatedBytes != 0 || len(res2.index) != len(res.index) {
			t.Fatalf("re-scan of valid prefix: %d truncated bytes, %d entries (want 0, %d)",
				res2.truncatedBytes, len(res2.index), len(res.index))
		}

		// The public open path must agree with the raw scan and never panic.
		p := filepath.Join(t.TempDir(), "fuzz"+segSuffix)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := OpenSegment(p)
		if err != nil {
			t.Fatalf("scan accepted the bytes but OpenSegment did not: %v", err)
		}
		defer seg.Close()
		for i := 0; i < seg.Batches(); i++ {
			if b, err := seg.ReadBatch(i); err == nil {
				_, _ = b.Decode()
			}
		}
	})
}
