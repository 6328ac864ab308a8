package cstream_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/pkg/cstream"
)

// TestSessionMatchesOpenAcrossKernels is the byte-identity contract of the
// Session: for every kernel, NewSession(alg, DatasetSource(name, seed)) must
// open exactly the deployment the library's internals open by hand with the
// same seed and profile (core.NewPlanner, core.ProfileWorkload,
// DeployProfile) — same estimate and plan vector — and Push must return
// frames byte-identical to Deployment.RunBatchData for the same batch bytes.
func TestSessionMatchesOpenAcrossKernels(t *testing.T) {
	const (
		seed           = 42
		batchBytes     = 32 << 10
		profileBatches = 2
	)
	ctx := context.Background()
	for _, name := range []string{"tcomp32", "tdic32", "lz4", "delta32", "rle32", "huff8"} {
		t.Run(name, func(t *testing.T) {
			alg, err := compress.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := dataset.ByName("Rovio", seed)
			if err != nil {
				t.Fatal(err)
			}
			machine := amp.NewRK3399()
			planner, err := core.NewPlanner(machine, seed)
			if err != nil {
				t.Fatal(err)
			}
			w := core.NewWorkload(alg, gen)
			w.BatchBytes = batchBytes
			w.LSet = cstream.DefaultLatencyConstraint
			dep, err := planner.DeployProfile(w, core.ProfileWorkload(w, profileBatches, 0), core.MechCStream)
			if err != nil {
				t.Fatal(err)
			}

			session, err := cstream.NewSession(name, cstream.DatasetSource("Rovio", seed),
				cstream.WithBatchBytes(batchBytes),
				cstream.WithProfileBatches(profileBatches))
			if err != nil {
				t.Fatal(err)
			}
			defer session.Close()

			if est := session.Estimate(); est.LatencyPerByte != dep.Estimate.LatencyPerByte || est.EnergyPerByte != dep.Estimate.EnergyPerByte {
				t.Fatalf("estimates differ: %+v vs %+v", est, dep.Estimate)
			}
			plan := session.Plan()
			if len(plan) != len(dep.Plan) {
				t.Fatalf("plan lengths differ: %d vs %d", len(plan), len(dep.Plan))
			}
			for i, p := range plan {
				if p.Core != dep.Plan[i] || p.Task != dep.Graph.Tasks[i].Name {
					t.Fatalf("plans diverge at task %d: %s on core %d vs %s on core %d",
						i, p.Task, p.Core, dep.Graph.Tasks[i].Name, dep.Plan[i])
				}
			}

			for batch := 0; batch < 2; batch++ {
				b := w.Dataset.Batch(batch, batchBytes)
				got, err := session.Push(ctx, session.RawBatch(batch))
				if err != nil {
					t.Fatal(err)
				}
				want, err := dep.RunBatchData(ctx, alg, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.InputBytes != want.InputBytes || got.TotalBits != want.TotalBits {
					t.Fatalf("batch %d: result headers differ: %d/%d vs %d/%d bits/bytes",
						batch, got.TotalBits, got.InputBytes, want.TotalBits, want.InputBytes)
				}
				if len(got.Segments) != len(want.Segments) {
					t.Fatalf("batch %d: %d vs %d segments", batch, len(got.Segments), len(want.Segments))
				}
				for i := range got.Segments {
					g, r := &got.Segments[i], &want.Segments[i]
					if g.SliceIndex != r.SliceIndex || g.BitLen != r.BitLen || g.OrigLen != r.OrigLen || !bytes.Equal(g.Compressed, r.Compressed) {
						t.Fatalf("batch %d segment %d: frames differ", batch, i)
					}
				}
				want.Release()
			}
		})
	}
}

func TestSessionSources(t *testing.T) {
	sample := make([]byte, 16<<10)
	for i := range sample {
		sample[i] = byte(i >> 2)
	}

	t.Run("bytes", func(t *testing.T) {
		s, err := cstream.NewSession("lz4", cstream.BytesSource("replay", sample, 0),
			cstream.WithBatchBytes(8<<10))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.SourceName() != "replay" {
			t.Fatalf("source name = %q", s.SourceName())
		}
		res, err := s.Push(context.Background(), sample[:8<<10])
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := res.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(decoded, sample[:8<<10]) {
			t.Fatal("round trip mismatch")
		}
		if s.Pushes() != 1 {
			t.Fatalf("pushes = %d", s.Pushes())
		}
	})

	t.Run("reader", func(t *testing.T) {
		s, err := cstream.NewSession("delta32", cstream.ReaderSource("trace", bytes.NewReader(sample), 0),
			cstream.WithBatchBytes(8<<10))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Push(context.Background(), sample[:4096]); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("empty bytes", func(t *testing.T) {
		if _, err := cstream.NewSession("lz4", cstream.BytesSource("empty", nil, 0)); err == nil {
			t.Fatal("empty sample accepted")
		}
	})
	t.Run("nil source", func(t *testing.T) {
		if _, err := cstream.NewSession("lz4", nil); !errors.Is(err, cstream.ErrInvalidOption) {
			t.Fatalf("err = %v, want ErrInvalidOption", err)
		}
	})
	t.Run("unknown dataset", func(t *testing.T) {
		if _, err := cstream.NewSession("lz4", cstream.DatasetSource("NoSuch", 1)); err == nil {
			t.Fatal("unknown dataset accepted")
		}
	})
}

func TestSessionPushErrors(t *testing.T) {
	s, err := cstream.NewSession("lz4", cstream.DatasetSource("Micro", 1),
		cstream.WithBatchBytes(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Push(context.Background(), nil); err == nil {
		t.Fatal("empty push accepted")
	}
	if _, err := s.PushReuse(context.Background(), []byte{}, &cstream.BatchResult{}); err == nil {
		t.Fatal("empty PushReuse accepted")
	}
	if s.Pushes() != 0 {
		t.Fatalf("rejected pushes counted: %d", s.Pushes())
	}
}

// TestSentinelErrors pins the errors.Is contract of the package's sentinel
// errors across every constructor path that can produce them.
func TestSentinelErrors(t *testing.T) {
	if _, err := cstream.NewSession("nosuchalg", cstream.DatasetSource("Rovio", 1)); !errors.Is(err, cstream.ErrUnknownAlgorithm) {
		t.Fatalf("NewSession: err = %v, want ErrUnknownAlgorithm", err)
	}
	// An impossibly tight constraint is infeasible on every platform; only
	// WithRequireFeasible turns that into a failure.
	tight := []cstream.Option{
		cstream.WithBatchBytes(32 << 10),
		cstream.WithProfileBatches(2),
		cstream.WithLatencyConstraint(1e-9),
	}
	if _, err := cstream.NewSession("tcomp32", cstream.DatasetSource("Micro", 1),
		append(tight, cstream.WithRequireFeasible())...); !errors.Is(err, cstream.ErrInfeasible) {
		t.Fatalf("WithRequireFeasible: err = %v, want ErrInfeasible", err)
	}
	s, err := cstream.NewSession("tcomp32", cstream.DatasetSource("Micro", 1), tight...)
	if err != nil {
		t.Fatalf("best-effort infeasible open failed: %v", err)
	}
	if s.Feasible() {
		t.Fatal("1e-9 µs/B reported feasible")
	}
	s.Close()
	if _, err := s.Push(context.Background(), s.RawBatch(0)); !errors.Is(err, cstream.ErrClosed) {
		t.Fatalf("closed session: err = %v, want ErrClosed", err)
	}
}

// TestOptionValidation is the validation table of the With* options: every
// option rejects out-of-range arguments at construction time with an error
// wrapping ErrInvalidOption, and the message names the offending option.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name    string
		opt     cstream.Option
		mention string
	}{
		{"negative latency constraint", cstream.WithLatencyConstraint(-1), "WithLatencyConstraint"},
		{"zero latency constraint", cstream.WithLatencyConstraint(0), "WithLatencyConstraint"},
		{"unknown platform", cstream.WithPlatform("cray"), "WithPlatform"},
		{"negative batch bytes", cstream.WithBatchBytes(-4096), "WithBatchBytes"},
		{"zero batch bytes", cstream.WithBatchBytes(0), "WithBatchBytes"},
		{"zero profile batches", cstream.WithProfileBatches(0), "WithProfileBatches"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cstream.NewSession("tcomp32", cstream.DatasetSource("Micro", 1), tc.opt)
			if !errors.Is(err, cstream.ErrInvalidOption) {
				t.Fatalf("err = %v, want ErrInvalidOption", err)
			}
			if !strings.Contains(err.Error(), tc.mention) {
				t.Fatalf("error %q does not name %q", err, tc.mention)
			}
		})
	}

	// Multiple bad options surface together via errors.Join.
	_, err := cstream.NewSession("tcomp32", cstream.DatasetSource("Micro", 1),
		cstream.WithBatchBytes(-1),
		cstream.WithProfileBatches(0))
	if !errors.Is(err, cstream.ErrInvalidOption) {
		t.Fatalf("err = %v, want ErrInvalidOption", err)
	}
	for _, mention := range []string{"WithBatchBytes", "WithProfileBatches"} {
		if !strings.Contains(err.Error(), mention) {
			t.Fatalf("joined error %q drops %q", err, mention)
		}
	}

	// Valid options still open.
	s, err := cstream.NewSession("tcomp32", cstream.DatasetSource("Micro", 1),
		cstream.WithSeed(1),
		cstream.WithBatchBytes(16<<10),
		cstream.WithProfileBatches(1),
		cstream.WithLatencyConstraint(50),
		cstream.WithPlatform("rk3399"))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}
