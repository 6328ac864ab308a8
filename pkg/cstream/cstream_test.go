package cstream_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/pkg/cstream"
)

func open(t *testing.T, opts ...cstream.Option) *cstream.Session {
	t.Helper()
	base := []cstream.Option{
		cstream.WithBatchBytes(64 << 10),
		cstream.WithProfileBatches(2),
	}
	s, err := cstream.NewSession("tcomp32", cstream.DatasetSource("Rovio", 42), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestOpenRejectsUnknownInputs(t *testing.T) {
	if _, err := cstream.NewSession("nosuchalg", cstream.DatasetSource("Rovio", 1)); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	if _, err := cstream.NewSession("tcomp32", cstream.DatasetSource("NoSuchDataset", 1)); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if _, err := cstream.NewSession("tcomp32", cstream.DatasetSource("Rovio", 1), cstream.WithPlatform("cray")); err == nil {
		t.Fatal("expected error for unknown platform")
	}
}

// TestRunBatchRoundTrips drives the session's one real-compression path
// (runBatchInto, behind Push) on the source's own batches and decodes each
// result both in place and from detached segments.
func TestRunBatchRoundTrips(t *testing.T) {
	s := open(t)
	if len(s.Plan()) == 0 {
		t.Fatal("empty plan")
	}
	est := s.Estimate()
	if est.LatencyPerByte <= 0 || est.EnergyPerByte <= 0 {
		t.Fatalf("bad estimate %+v", est)
	}
	for batch := 0; batch < 2; batch++ {
		res, err := s.Push(context.Background(), s.RawBatch(batch))
		if err != nil {
			t.Fatal(err)
		}
		if res.Batch != batch || res.InputBytes != 64<<10 {
			t.Fatalf("batch %d: index %d, input bytes %d", batch, res.Batch, res.InputBytes)
		}
		if res.Ratio() <= 0 || res.CompressedBytes() <= 0 {
			t.Fatalf("bad result %+v", res)
		}
		decoded, err := res.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(decoded, s.RawBatch(batch)) {
			t.Fatalf("batch %d: round trip mismatch", batch)
		}
		// The standalone decoder must accept segments detached from the
		// result, as after crossing a network.
		detached, err := cstream.DecodeSegments(s.Algorithm(), res.Segments, res.InputBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(detached, decoded) {
			t.Fatalf("batch %d: detached decode mismatch", batch)
		}
	}
	if s.Pushes() != 2 {
		t.Fatalf("pushes = %d, want 2", s.Pushes())
	}
}

func TestRunBatchCancelled(t *testing.T) {
	s := open(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Push(ctx, s.RawBatch(0)); err != context.Canceled {
		t.Fatalf("Push: err = %v, want context.Canceled", err)
	}
	if _, err := s.PushReuse(ctx, s.RawBatch(0), &cstream.BatchResult{}); err != context.Canceled {
		t.Fatalf("PushReuse: err = %v, want context.Canceled", err)
	}
	if s.Pushes() != 0 {
		t.Fatalf("cancelled pushes counted: %d", s.Pushes())
	}
}

func TestClosedSessionRejectsUse(t *testing.T) {
	s := open(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(context.Background(), s.RawBatch(0)); !errors.Is(err, cstream.ErrClosed) {
		t.Fatalf("Push: err = %v, want ErrClosed", err)
	}
	if _, err := s.PushReuse(context.Background(), s.RawBatch(0), &cstream.BatchResult{}); !errors.Is(err, cstream.ErrClosed) {
		t.Fatalf("PushReuse: err = %v, want ErrClosed", err)
	}
	if err := s.RotateSegment(); !errors.Is(err, cstream.ErrClosed) {
		t.Fatalf("RotateSegment: err = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMeasureAndSummary(t *testing.T) {
	s := open(t)
	m := s.Measure()
	if m.LatencyPerByte <= 0 || m.EnergyPerByte <= 0 {
		t.Fatalf("bad measurement %+v", m)
	}
	sum := s.MeasureRepeated(10)
	if sum.Runs != 10 || sum.MeanLatency <= 0 || sum.P99Latency < sum.MeanLatency {
		t.Fatalf("bad summary %+v", sum)
	}
}

func TestFacadeMatchesInternalDeployment(t *testing.T) {
	// Two sessions with the same seed must agree plan-for-plan — the
	// determinism contract examples rely on.
	pa, pb := open(t).Plan(), open(t).Plan()
	if len(pa) != len(pb) {
		t.Fatalf("plan lengths differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("plans diverge at task %d: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}
