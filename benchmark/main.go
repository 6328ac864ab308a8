// Command benchmark is the repository's benchmark: one command that runs a
// named workload against the public entry points of internal/serve,
// pkg/cstream, internal/core, internal/compress and internal/segstore,
// verifies every output it samples, prints each metric by name with its
// unit, and ends with the one-line JSON result the driver reads.
//
// BENCHMARK.json at the repository root declares how it is run; README.md in
// this directory explains the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 20

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	tmpDir   string
	traceOut string
}

// phases is how one run divides its time. The timed phase is what -seconds
// buys; warm-up and read-back are a tenth of it each, and the traced run
// halves the timed phase to leave room for the ladder.
type phases struct {
	warmup, timed, readback time.Duration
	// window is the width of the throughput windows whose median is reported.
	window time.Duration
	// setupReps is how many cold set-ups the setup_s median is taken over.
	setupReps int
}

func planPhases(cfg config) phases {
	total := time.Duration(cfg.seconds * float64(time.Second))
	p := phases{warmup: total / 10, timed: total, readback: total / 10, window: time.Second, setupReps: 9}
	if cfg.trace {
		p.timed = total / 2
	}
	if p.timed < 8*time.Second {
		p.window = p.timed / 8
	}
	if cfg.smoke {
		p.setupReps = 2
	}
	return p
}

// env is what every workload runs in: the configuration, the generator count,
// the library-path reference, one span buffer per generator (traced runs
// only), and the main goroutine's operation tally.
type env struct {
	cfg    config
	gens   int
	ph     phases
	out    io.Writer
	ref    *reference
	epoch  time.Time
	tracer []*tracer // index gens is the main goroutine's
	t      tally
	// rungNames collects the ladder's rung names for the span dump.
	rungNames []string
}

// tracerFor returns generator g's span buffer, nil on an untraced run.
func (e *env) tracerFor(g int) *tracer {
	if e.tracer == nil {
		return nil
	}
	return e.tracer[g]
}

// minRounds is the fewest rounds a round workload runs however short the
// timed phase: a traced run needs one traced and one untraced round.
func (e *env) minRounds() int {
	if e.cfg.trace {
		return 2
	}
	return 1
}

func (e *env) mainTracer() *tracer { return e.tracerFor(e.gens) }

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.out, format+"\n", args...) }

// reportMedian sets a metric to the median of a series of windows or rounds
// and prints the quartiles and the sample count beside it.
func (e *env) reportMedian(rep *report, name, of string, xs []float64) {
	q1, q2, q3 := quartiles(xs)
	rep.set(name, q2)
	e.logf("# %s: median of %d %s %.6g (quartiles %.6g %.6g)", name, len(xs), of, q2, q1, q3)
}

// tally counts operations attempted and failed. Each goroutine keeps its own
// and they are merged when it is joined, so counting costs the hot loops no
// shared write.
type tally struct {
	attempted, failed int64
	firstErr          error
}

// op counts one operation and reports whether it succeeded.
func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return false
	}
	return true
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// generators is G: closed-loop generator goroutines, and at most as many
// TCP connections. GOMAXPROCS is left alone.
func generators() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// spanCapacity bounds one generator's span buffer; at ~40 B a span this is
// 16 MB per generator, allocated once before the timed phase.
const spanCapacity = 400_000

func newEnv(cfg config, out io.Writer) (*env, error) {
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, gens: generators(), ph: planPhases(cfg), out: out, ref: ref, epoch: time.Now()}
	if cfg.trace {
		for g := 0; g <= e.gens; g++ {
			e.tracer = append(e.tracer, newTracer(g, e.epoch, spanCapacity))
		}
		e.mainTracer().on = true
	}
	return e, nil
}

var errUnknownWorkload = errors.New("unknown workload")

// runWorkload runs one workload end to end and returns what it measured.
func runWorkload(cfg config, out io.Writer) (*report, error) {
	e, err := newEnv(cfg, out)
	if err != nil {
		return nil, err
	}
	e.logf("# workload=%s seed=%d seconds=%g trace=%v smoke=%v generators=%d", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke, e.gens)
	for _, line := range hostHeader(cfg.tmpDir) {
		e.logf("# %s", line)
	}
	var rep *report
	switch cfg.workload {
	case "serve-small", "serve-large":
		rep, err = runServe(e)
	case "embed-durable":
		rep, err = runEmbed(e)
	case "session-churn":
		rep, err = runChurn(e)
	default:
		return nil, fmt.Errorf("%w %q", errUnknownWorkload, cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed, rep.firstErr = e.t.attempted, e.t.failed, e.t.firstErr
	if cfg.trace && cfg.traceOut != "" {
		n, err := writeSpans(cfg.traceOut, e.tracer, e.rungNames)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		var dropped int64
		for _, t := range e.tracer {
			dropped += t.dropped
		}
		e.logf("# %d spans written to %s (%d dropped: buffer full)", n, cfg.traceOut, dropped)
	}
	return rep, nil
}

func main() {
	var cfg config
	var traceFlag int
	var printManifest bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve-small, serve-large, embed-durable, session-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seeds the dataset generators and the churn trace")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run (spans, counters, the layer ladder; prints the per-layer metrics)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes and a sub-second timed phase: checks plumbing, not performance")
	flag.StringVar(&cfg.tmpDir, "tmpdir", os.TempDir(), "directory for segment files and, by default, the span dump")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "where a traced run writes its spans (default <tmpdir>/trace-<workload>.json)")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if printManifest {
		os.Stdout.Write(manifest(runSeconds))
		return
	}
	cfg.trace = traceFlag != 0
	if cfg.smoke {
		cfg.seconds = 0.4
	}
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(cfg.tmpDir, "trace-"+cfg.workload+".json")
	}
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}

	rep, err := runWorkload(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
	}
	rep.print(os.Stdout, endToEndDefs, perLayerDefs)
	fmt.Printf("# attempted=%d failed=%d fail_frac=%g\n", rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	res, err := rep.result(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed; first: %v\n", rep.failed, rep.attempted, rep.firstErr)
		os.Exit(1)
	}
}
