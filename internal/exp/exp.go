// Package exp contains one driver per table and figure of the paper's
// evaluation (Section VII). Each driver regenerates the artifact's rows or
// series on the simulated platform; cmd/cstream-bench renders them and
// bench_test.go wraps them as testing.B benchmarks.
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// DefaultPlanCacheCapacity is the plan-cache capacity implied by
// Config.PlanCacheFile when Config.PlanCache is zero.
const DefaultPlanCacheCapacity = 256

// Config controls experiment scale.
type Config struct {
	// Seed drives every stochastic element.
	Seed int64
	// Reps is the number of repeated measurements for CLCV (paper: 100).
	Reps int
	// BatchBytes is B.
	BatchBytes int
	// LSet is the default latency constraint (µs/byte).
	LSet float64
	// ProfileBatches is the number of batches used to instantiate the model.
	ProfileBatches int
	// Fast trims sweep grids for quick runs (tests, smoke benches).
	Fast bool
	// PlanCache, when positive, enables an LRU plan cache of that capacity
	// on the runner's shared planner.
	PlanCache int
	// PlanCacheFile, when non-empty, warm-starts the shared planner's plan
	// cache from the file at construction and persists it when the runner is
	// saved with SavePlanCache (the file may not exist yet; that is not an
	// error). Implies a plan cache of DefaultPlanCacheCapacity when PlanCache
	// is zero.
	PlanCacheFile string
	// Telemetry, when non-nil, receives metrics and scheduling-decision
	// events from the shared planner for the whole experiment run.
	Telemetry *telemetry.Sink
}

// DefaultConfig reproduces the paper's settings.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Reps:           100,
		BatchBytes:     core.DefaultBatchBytes,
		LSet:           core.DefaultLSet,
		ProfileBatches: 10,
	}
}

// FastConfig is a reduced-scale configuration for tests and smoke runs.
func FastConfig() Config {
	c := DefaultConfig()
	c.Reps = 25
	c.ProfileBatches = 3
	c.Fast = true
	return c
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the artifact id, e.g. "fig7" or "table4".
	ID string
	// Title describes the artifact.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold formatted cells.
	Rows [][]string
	// Notes carry qualitative observations the paper states about the
	// artifact, checked by the drivers where possible.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// WriteCSV emits the table as RFC-4180-style CSV (without notes), for
// plotting tools.
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// Runner executes experiments, sharing one planner (machine + fitted model)
// across drivers.
type Runner struct {
	Cfg     Config
	machine *amp.Machine
	planner *core.Planner
}

// NewRunner builds a runner with a freshly profiled platform.
func NewRunner(cfg Config) (*Runner, error) {
	m := amp.NewRK3399()
	pl, err := core.NewPlanner(m, cfg.Seed)
	if err != nil {
		return nil, err
	}
	capacity := cfg.PlanCache
	if capacity <= 0 && cfg.PlanCacheFile != "" {
		capacity = DefaultPlanCacheCapacity
	}
	if capacity > 0 {
		pl.EnablePlanCache(capacity)
	}
	if cfg.PlanCacheFile != "" {
		if _, err := pl.LoadPlanCache(cfg.PlanCacheFile); err != nil {
			return nil, fmt.Errorf("plan cache file: %w", err)
		}
	}
	pl.Telemetry = cfg.Telemetry
	return &Runner{Cfg: cfg, machine: m, planner: pl}, nil
}

// SavePlanCache persists the shared planner's plan cache to
// Cfg.PlanCacheFile, if one is configured. It is a no-op otherwise.
func (r *Runner) SavePlanCache() error {
	if r.Cfg.PlanCacheFile == "" {
		return nil
	}
	if err := r.planner.SavePlanCache(r.Cfg.PlanCacheFile); err != nil {
		return fmt.Errorf("plan cache file: %w", err)
	}
	return nil
}

// Machine exposes the simulated platform.
func (r *Runner) Machine() *amp.Machine { return r.machine }

// Planner exposes the shared planner.
func (r *Runner) Planner() *core.Planner { return r.planner }

// driver is one experiment entry point.
type driver struct {
	title string
	run   func(*Runner) (*Table, error)
}

// drivers maps artifact ids to implementations.
var drivers = map[string]driver{
	"fig3":   {"Roofline model of the asymmetric multicores", (*Runner).Fig3},
	"table2": {"Bandwidth and latency of cross-core communication", (*Runner).Table2},
	"fig5":   {"Shared vs private state in parallel tdic32 (Rovio)", (*Runner).Fig5},
	"fig7":   {"Energy consumption comparison (E_mes)", (*Runner).Fig7},
	"fig8":   {"Compressing latency constraint violation (CLCV)", (*Runner).Fig8},
	"fig9":   {"Adaptation to dynamic workload", (*Runner).Fig9},
	"fig10":  {"Impacts of varying L_set", (*Runner).Fig10},
	"fig11":  {"Impacts of varying batch size B", (*Runner).Fig11},
	"fig12":  {"Impacts of varying vocabulary duplication", (*Runner).Fig12},
	"fig13":  {"Impacts of varying symbol duplication", (*Runner).Fig13},
	"fig14":  {"Impacts of varying dynamic range", (*Runner).Fig14},
	"fig15":  {"Impacts of statically varying core frequency", (*Runner).Fig15},
	"fig16":  {"Impacts of DVFS strategies", (*Runner).Fig16},
	"fig17":  {"Break-down factor analysis", (*Runner).Fig17},
	"table4": {"Decomposed vs whole vs replicated task comparison", (*Runner).Table4},
	"table5": {"Model correctness under optimal scheduling plans", (*Runner).Table5},

	// Beyond the paper (its stated future work):
	"ext-algs":        {"Extension algorithms (delta32, rle32) under CStream", (*Runner).ExtAlgorithms},
	"ext-platforms":   {"CStream on a Jetson-TX2-class platform", (*Runner).ExtPlatforms},
	"ext-adapt":       {"PID vs statistics-triggered adaptation", (*Runner).ExtAdaptive},
	"ext-pipesim":     {"Discrete-event pipeline dynamics under CStream", (*Runner).ExtPipeline},
	"ext-multistream": {"Concurrent streams on shared core capacity", (*Runner).ExtMultiStream},
	"ext-policies":    {"One deploy per registered scheduling policy", (*Runner).ExtPolicies},
	"ext-plancache":   {"Plan-cache effect on adaptation search cost", (*Runner).ExtPlanCache},
}

// IDs lists all experiment ids in a stable order.
func IDs() []string {
	out := make([]string, 0, len(drivers))
	for id := range drivers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's description.
func Title(id string) (string, bool) {
	d, ok := drivers[id]
	return d.title, ok
}

// Run executes the named experiment.
func (r *Runner) Run(id string) (*Table, error) {
	d, ok := drivers[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
	}
	return d.run(r)
}

// measure executes a deployment Reps times and returns latency and energy
// samples.
func (r *Runner) measure(d *core.Deployment) (lat, energy []float64) {
	ms := d.Executor.RunRepeated(d.Graph, d.Plan, r.Cfg.Reps)
	lat = make([]float64, len(ms))
	energy = make([]float64, len(ms))
	for i, m := range ms {
		lat[i] = m.LatencyPerByte
		energy[i] = m.EnergyPerByte
	}
	return lat, energy
}

// workload builds a paper workload with the runner's B and L_set.
func (r *Runner) workload(alg, ds string) (core.Workload, error) {
	w, err := workloadByName(alg, ds, r.Cfg.Seed)
	if err != nil {
		return core.Workload{}, err
	}
	w.BatchBytes = r.Cfg.BatchBytes
	w.LSet = r.Cfg.LSet
	return w, nil
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
