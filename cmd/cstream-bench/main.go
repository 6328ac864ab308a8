// Command cstream-bench regenerates the tables and figures of the paper's
// evaluation (Section VII) on the simulated asymmetric multicore platform.
//
// Usage:
//
//	cstream-bench -list
//	cstream-bench -run fig7
//	cstream-bench -run all [-fast] [-seed 1] [-reps 100]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list available experiment ids and exit")
		listPol   = flag.Bool("list-policies", false, "list the registered scheduling policies and exit")
		run       = flag.String("run", "", "experiment id to run, or 'all'")
		fast      = flag.Bool("fast", false, "use reduced sweep grids and repetitions")
		seed      = flag.Int64("seed", 1, "random seed for datasets, noise and random placement")
		reps      = flag.Int("reps", 0, "override CLCV repetition count (default 100, 25 with -fast)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		telDir    = flag.String("telemetry", "", "directory to write metrics.json and decisions.jsonl into (empty = telemetry off)")
		cacheFile = flag.String("plan-cache-file", "", "warm-start the plan cache from this file and persist it back on exit")
	)
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			title, _ := exp.Title(id)
			fmt.Printf("  %-8s %s\n", id, title)
		}
		return
	}
	if *listPol {
		fmt.Print(policy.Describe())
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "usage: cstream-bench -run <id>|all [-fast] [-seed N] [-reps N]; -list shows ids")
		os.Exit(2)
	}

	cfg := exp.DefaultConfig()
	if *fast {
		cfg = exp.FastConfig()
	}
	cfg.Seed = *seed
	if *reps > 0 {
		cfg.Reps = *reps
	}
	var sink *telemetry.Sink
	if *telDir != "" {
		sink = telemetry.New()
		cfg.Telemetry = sink
	}
	cfg.PlanCacheFile = *cacheFile

	runner, err := exp.NewRunner(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cstream-bench: %v\n", err)
		os.Exit(1)
	}

	ids := []string{*run}
	if *run == "all" {
		ids = exp.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		table, err := runner.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cstream-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			if err := table.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "cstream-bench: %s: %v\n", id, err)
				os.Exit(1)
			}
		} else {
			table.Render(os.Stdout)
			fmt.Printf("  (%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}

	if err := runner.SavePlanCache(); err != nil {
		fmt.Fprintf(os.Stderr, "cstream-bench: %v\n", err)
		os.Exit(1)
	}

	if sink != nil {
		if err := writeTelemetry(sink, *telDir); err != nil {
			fmt.Fprintf(os.Stderr, "cstream-bench: telemetry: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry: wrote metrics.json and decisions.jsonl to %s\n", *telDir)
	}
}

// writeTelemetry dumps the metrics snapshot and the scheduling-decision log
// accumulated over all executed experiments.
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
	return os.WriteFile(filepath.Join(dir, "decisions.jsonl"), dec.Bytes(), 0o644)
}
