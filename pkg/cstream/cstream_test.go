package cstream_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/pkg/cstream"
)

func open(t *testing.T, opts ...cstream.Option) *cstream.Runner {
	t.Helper()
	base := []cstream.Option{
		cstream.WithSeed(42),
		cstream.WithBatchBytes(64 << 10),
		cstream.WithProfileBatches(2),
	}
	r, err := cstream.Open("tcomp32", "Rovio", append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestOpenRejectsUnknownInputs(t *testing.T) {
	if _, err := cstream.Open("nosuchalg", "Rovio"); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	if _, err := cstream.Open("tcomp32", "NoSuchDataset"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if _, err := cstream.Open("tcomp32", "Rovio", cstream.WithPlatform("cray")); err == nil {
		t.Fatal("expected error for unknown platform")
	}
}

func TestRunBatchRoundTrips(t *testing.T) {
	r := open(t)
	if len(r.Plan()) == 0 {
		t.Fatal("empty plan")
	}
	est := r.Estimate()
	if est.LatencyPerByte <= 0 || est.EnergyPerByte <= 0 {
		t.Fatalf("bad estimate %+v", est)
	}
	for batch := 0; batch < 2; batch++ {
		res, err := r.RunBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.InputBytes != 64<<10 {
			t.Fatalf("input bytes = %d", res.InputBytes)
		}
		if res.Ratio() <= 0 || res.CompressedBytes() <= 0 {
			t.Fatalf("bad result %+v", res)
		}
		decoded, err := res.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(decoded, r.RawBatch(batch)) {
			t.Fatalf("batch %d: round trip mismatch", batch)
		}
		// The standalone decoder must accept segments detached from the
		// result, as after crossing a network.
		detached, err := cstream.DecodeSegments(r.Algorithm(), res.Segments, res.InputBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(detached, decoded) {
			t.Fatalf("batch %d: detached decode mismatch", batch)
		}
	}
	st := r.Stats()
	if st.Batches != 2 {
		t.Fatalf("batches = %d, want 2", st.Batches)
	}
	if st.PlanSearches == 0 {
		t.Fatal("expected at least one plan search")
	}
}

func TestRunBatchCancelled(t *testing.T) {
	r := open(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunBatch(ctx, 0); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestClosedRunnerRejectsUse(t *testing.T) {
	r := open(t)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunBatch(context.Background(), 0); !errors.Is(err, cstream.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestMeasureAndSummary(t *testing.T) {
	r := open(t)
	m := r.Measure()
	if m.LatencyPerByte <= 0 || m.EnergyPerByte <= 0 {
		t.Fatalf("bad measurement %+v", m)
	}
	s := r.MeasureRepeated(10)
	if s.Runs != 10 || s.MeanLatency <= 0 || s.P99Latency < s.MeanLatency {
		t.Fatalf("bad summary %+v", s)
	}
}

func TestFrequencyControlAndReplan(t *testing.T) {
	r := open(t)
	if err := r.SetClusterFrequency(1, 1200); err != nil {
		t.Fatal(err)
	}
	if err := r.Replan(); err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Plan() {
		if p.CoreType == "big" && p.FreqMHz != 1200 {
			t.Fatalf("big core at %d MHz after pinning to 1200", p.FreqMHz)
		}
	}
	if err := r.ResetFrequencies(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptationModes(t *testing.T) {
	for _, mode := range []cstream.AdaptationMode{cstream.AdaptPID, cstream.AdaptStats} {
		r, err := cstream.Open("tcomp32", "Micro",
			cstream.WithSeed(3),
			cstream.WithBatchBytes(64<<10),
			cstream.WithAdaptation(mode),
			cstream.WithPlanCache(16))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetDynamicRange(500); err != nil {
			t.Fatal(err)
		}
		for batch := 0; batch < 3; batch++ {
			rep, err := r.ProcessBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			if rep.LatencyPerByte <= 0 {
				t.Fatalf("mode %d batch %d: bad report %+v", mode, batch, rep)
			}
		}
		r.Close()
	}
}

func TestProcessBatchRequiresAdaptation(t *testing.T) {
	r := open(t)
	if _, err := r.ProcessBatch(0); err == nil {
		t.Fatal("expected error without WithAdaptation")
	}
}

func TestGovernors(t *testing.T) {
	govs := cstream.Governors()
	if len(govs) != 3 {
		t.Fatalf("governors = %d, want 3", len(govs))
	}
	for _, g := range govs {
		if g.Name == "" {
			t.Fatalf("unnamed governor %+v", g)
		}
	}
}

func TestFacadeMatchesInternalDeployment(t *testing.T) {
	// Two facade opens with the same seed must agree plan-for-plan — the
	// determinism contract examples rely on.
	a := open(t)
	b := open(t)
	pa, pb := a.PlanVector(), b.PlanVector()
	if len(pa) != len(pb) {
		t.Fatalf("plan lengths differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("plans diverge at task %d: %d vs %d", i, pa[i], pb[i])
		}
	}
}

func TestWithPolicy(t *testing.T) {
	// Every registered policy opens and round-trips one batch through the
	// facade; the listing covers mechanisms, breakdown factors, extensions.
	infos := cstream.Policies()
	if len(infos) < 12 {
		t.Fatalf("Policies() lists %d entries, want >= 12", len(infos))
	}
	classes := map[string]bool{}
	for _, info := range infos {
		classes[info.Class] = true
		r := open(t, cstream.WithPolicy(info.Name))
		res, err := r.RunBatch(context.Background(), 0)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		decoded, err := res.Decode()
		if err != nil {
			t.Fatalf("%s: decode: %v", info.Name, err)
		}
		if len(decoded) != res.InputBytes {
			t.Fatalf("%s: decoded %d of %d bytes", info.Name, len(decoded), res.InputBytes)
		}
	}
	for _, class := range []string{"mechanism", "breakdown", "extension"} {
		if !classes[class] {
			t.Errorf("Policies() lists no %s entries", class)
		}
	}
	if _, err := cstream.Open("tcomp32", "Rovio", cstream.WithPolicy("no-such-policy")); err == nil {
		t.Fatal("expected error for unregistered policy")
	}
}

func TestAdaptationRequiresDefaultPolicy(t *testing.T) {
	var ext string
	for _, info := range cstream.Policies() {
		if info.Class == "extension" {
			ext = info.Name
			break
		}
	}
	if ext == "" {
		t.Fatal("no extension policy registered")
	}
	_, err := cstream.Open("tcomp32", "Rovio",
		cstream.WithAdaptation(cstream.AdaptPID),
		cstream.WithPolicy(ext))
	if err == nil {
		t.Fatal("AdaptPID accepted a non-CStream policy")
	}
	_, err = cstream.Open("tcomp32", "Rovio",
		cstream.WithAdaptation(cstream.AdaptStats),
		cstream.WithPolicy(ext))
	if err == nil {
		t.Fatal("AdaptStats accepted a non-CStream policy")
	}
}
