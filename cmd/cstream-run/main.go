// Command cstream-run plans and executes one stream compression procedure
// with a chosen parallelization mechanism, reporting the scheduling plan,
// the model's estimates, the measured latency/energy on the simulated
// platform, and the real compression result of the functional pipeline.
//
// Usage:
//
//	cstream-run -alg tcomp32 -data Rovio -mech CStream -lset 26 -batches 3
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

func main() {
	var (
		algName = flag.String("alg", "tcomp32", "algorithm: tcomp32, tdic32, lz4")
		dsName  = flag.String("data", "Rovio", "dataset: Sensor, Rovio, Stock, Micro")
		mech    = flag.String("mech", core.MechCStream, "scheduling policy (see -list-policies)")
		listPol = flag.Bool("list-policies", false, "list the registered scheduling policies and exit")
		lset    = flag.Float64("lset", core.DefaultLSet, "compressing latency constraint (µs/byte)")
		batch   = flag.Int("batch", core.DefaultBatchBytes, "batch size B in bytes")
		batches = flag.Int("batches", 3, "number of batches to compress functionally")
		reps    = flag.Int("reps", 100, "platform measurements for CLCV")
		seed    = flag.Int64("seed", 1, "random seed")
		verify  = flag.Bool("verify", true, "decode the compressed output and verify losslessness")
		traced  = flag.Bool("trace", false, "print an execution timeline of the functional pipeline")
		telDir  = flag.String("telemetry", "", "directory to write metrics.json, decisions.jsonl and trace.json into (empty = telemetry off)")
	)
	flag.Parse()

	if *listPol {
		fmt.Print(policy.Describe())
		return
	}
	if _, ok := policy.Lookup(*mech); !ok {
		fmt.Fprintf(os.Stderr, "cstream-run: unknown policy %q; registered policies:\n%s", *mech, policy.Describe())
		os.Exit(2)
	}
	if err := run(*algName, *dsName, *mech, *lset, *batch, *batches, *reps, *seed, *verify, *traced, *telDir); err != nil {
		fmt.Fprintf(os.Stderr, "cstream-run: %v\n", err)
		os.Exit(1)
	}
}

func run(algName, dsName, mech string, lset float64, batch, batches, reps int, seed int64, verify, traced bool, telDir string) error {
	alg, err := compress.ByName(algName)
	if err != nil {
		return err
	}
	gen, err := dataset.ByName(dsName, seed)
	if err != nil {
		return err
	}
	w := core.NewWorkload(alg, gen)
	w.LSet = lset
	w.BatchBytes = batch

	machine := amp.NewRK3399()
	planner, err := core.NewPlanner(machine, seed)
	if err != nil {
		return err
	}
	var sink *telemetry.Sink
	if telDir != "" {
		sink = telemetry.New()
		planner.Telemetry = sink
	}
	dep, err := planner.Deploy(w, mech)
	if err != nil {
		return err
	}

	fmt.Printf("workload   %s  (B=%d bytes, L_set=%.1f µs/B)\n", w.Name(), w.BatchBytes, w.LSet)
	fmt.Printf("mechanism  %s\n", mech)
	fmt.Printf("plan       feasible=%v\n", dep.Feasible)
	for i, t := range dep.Graph.Tasks {
		c := machine.Core(dep.Plan[i])
		fmt.Printf("  task %-28s -> core %d (%s)  κ=%.1f  %.1f instr/B  l̂=%.2f µs/B  ê=%.3f µJ/B\n",
			t.Name, c.ID, c.Type, t.Kappa, t.InstrPerByte,
			dep.Estimate.PerTaskLatency[i], dep.Estimate.PerTaskEnergy[i])
	}
	fmt.Printf("estimate   L_est=%.2f µs/B  E_est=%.3f µJ/B\n",
		dep.Estimate.LatencyPerByte, dep.Estimate.EnergyPerByte)

	ms := dep.Executor.RunRepeated(dep.Graph, dep.Plan, reps)
	lat := make([]float64, len(ms))
	energy := make([]float64, len(ms))
	for i, m := range ms {
		lat[i] = m.LatencyPerByte
		energy[i] = m.EnergyPerByte
	}
	s := metrics.Summarize(lat, energy, w.LSet)
	fmt.Printf("measured   L_pro=%.2f µs/B (p99 %.2f)  E_mes=%.3f µJ/B  CLCV=%.2f (%d runs)\n",
		s.MeanLatency, s.P99Latency, s.MeanEnergy, s.CLCV, s.Runs)
	planner.RecordMeasurement(dep, ms, w.LSet)

	var rec telemetry.Recorder
	// Chain the text-Gantt recorder and the telemetry span recorder as
	// needed; nil means the unobserved fast path.
	var obs compress.StageObserver
	if traced {
		obs = rec.Record
	}
	if sink != nil {
		spanRec := sink.Spans()
		if prev := obs; prev != nil {
			obs = func(stage string, slice int, start, end time.Time) {
				prev(stage, slice, start, end)
				spanRec.Record(stage, slice, start, end)
			}
		} else {
			obs = spanRec.Record
		}
	}
	var inBytes, outBits uint64
	for i := 0; i < batches; i++ {
		res, err := dep.RunBatchObserved(context.Background(), w, i, obs)
		if err != nil {
			return err
		}
		inBytes += uint64(res.InputBytes)
		outBits += res.TotalBits
		if verify {
			got, err := compress.DecodeSegments(alg.Name(), res)
			if err != nil {
				return fmt.Errorf("batch %d: decode: %w", i, err)
			}
			want := w.Dataset.Batch(i, w.BatchBytes).Bytes()
			if len(got) != len(want) {
				return fmt.Errorf("batch %d: round trip length mismatch", i)
			}
			for j := range got {
				if got[j] != want[j] {
					return fmt.Errorf("batch %d: round trip mismatch at byte %d", i, j)
				}
			}
		}
	}
	ratio := float64(outBits) / float64(inBytes*8)
	fmt.Printf("compressed %d batches: %d bytes -> %d bytes (ratio %.3f)",
		batches, inBytes, (outBits+7)/8, ratio)
	if verify {
		fmt.Printf("  [lossless round trip verified]")
	}
	fmt.Println()
	if traced {
		rec.Render(os.Stdout, 64)
	}
	if sink != nil {
		if err := writeTelemetry(sink, telDir); err != nil {
			return err
		}
		fmt.Printf("telemetry  wrote metrics.json, decisions.jsonl, trace.json to %s\n", telDir)
	}
	return nil
}

// writeTelemetry dumps the three telemetry artifacts into dir, creating it if
// needed. trace.json loads directly into Perfetto / chrome://tracing.
func writeTelemetry(sink *telemetry.Sink, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mj, err := sink.MetricsJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics.json"), mj, 0o644); err != nil {
		return err
	}
	var dec bytes.Buffer
	if err := sink.Decisions().WriteJSONL(&dec); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "decisions.jsonl"), dec.Bytes(), 0o644); err != nil {
		return err
	}
	tj, err := sink.ChromeTraceJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), tj, 0o644)
}
