// Package cstream is the public facade of the CStream reproduction: it
// parallelizes stream compression procedures on (simulated) asymmetric
// multicores under a compressing-latency constraint, per "Parallelizing
// Stream Compression for IoT Applications on Asymmetric Multicores"
// (Zeng & Zhang, ICDE 2023).
//
// Open an algorithm-dataset pair, optionally tune it with functional
// options, then drive batches through the planned pipeline:
//
//	r, err := cstream.Open("tcomp32", "Rovio",
//		cstream.WithSeed(42),
//		cstream.WithBatchBytes(256*1024),
//		cstream.WithLatencyConstraint(26))
//	defer r.Close()
//	res, err := r.RunBatch(ctx, 0)
//
// The internal packages remain the implementation; this package is the only
// supported API surface.
package cstream

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/policy"
)

// AdaptationMode selects the runtime feedback loop.
type AdaptationMode int

const (
	// AdaptNone keeps the initial plan for the whole run.
	AdaptNone AdaptationMode = iota
	// AdaptPID enables the paper's incremental-PID model recalibration and
	// replanning loop (Section V-D).
	AdaptPID
	// AdaptStats enables the statistics-triggered controller that replans
	// within one batch of a detected stream-statistic shift.
	AdaptStats
)

// Re-exported PID gains of the adaptation loop (PSO-tuned, Section V-D).
const (
	AdaptP = core.AdaptP
	AdaptI = core.AdaptI
	AdaptD = core.AdaptD
)

// DefaultBatchBytes and DefaultLatencyConstraint are the paper's evaluation
// defaults (B and L_set of Definition 1).
const (
	DefaultBatchBytes        = core.DefaultBatchBytes
	DefaultLatencyConstraint = core.DefaultLSet
)

type config struct {
	seed            int64
	seedSet         bool
	platform        string
	batchBytes      int
	lset            float64
	profileBatches  int
	adaptation      AdaptationMode
	planCache       int
	planCacheFile   string
	policy          string
	requireFeasible bool
	telemetry       *Telemetry
	segmentDir      string
	segmentRotate   SegmentRotation

	// errs accumulates option-validation failures; applyOptions surfaces
	// them from Open/NewSession instead of letting a bad argument panic or
	// be silently clamped deep inside internal/core.
	errs []error
}

// Option customizes Open, NewSession, NewDrone and RunStreams. Every With*
// option validates its argument when the constructor applies it; an
// out-of-range value fails the constructor with an error wrapping
// ErrInvalidOption.
type Option func(*config)

// optionErr records one failed validation.
func (c *config) optionErr(format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("%w: %s", ErrInvalidOption, fmt.Sprintf(format, args...)))
}

// WithLatencyConstraint sets L_set, the compressing-latency constraint in
// µs per stream byte. It must be positive.
func WithLatencyConstraint(lset float64) Option {
	return func(c *config) {
		if lset <= 0 {
			c.optionErr("WithLatencyConstraint(%v): constraint must be positive", lset)
			return
		}
		c.lset = lset
	}
}

// WithPlatform selects the simulated board: "rk3399" (default) or
// "jetson-tx2".
func WithPlatform(name string) Option {
	return func(c *config) {
		switch name {
		case "", "rk3399", "jetson-tx2":
			c.platform = name
		default:
			c.optionErr("WithPlatform(%q): unknown platform (want rk3399 or jetson-tx2)", name)
		}
	}
}

// WithSeed seeds the dataset generator and every stochastic component of the
// simulation; runs with the same seed are deterministic.
func WithSeed(seed int64) Option {
	return func(c *config) {
		c.seed = seed
		c.seedSet = true
	}
}

// WithBatchBytes sets B, the batch size in bytes. It must be positive.
func WithBatchBytes(b int) Option {
	return func(c *config) {
		if b <= 0 {
			c.optionErr("WithBatchBytes(%d): batch size must be positive", b)
			return
		}
		c.batchBytes = b
	}
}

// WithProfileBatches sets how many batches the planner profiles before
// searching for a plan (default 10, minimum 1).
func WithProfileBatches(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.optionErr("WithProfileBatches(%d): need at least one profiling batch", n)
			return
		}
		c.profileBatches = n
	}
}

// WithAdaptation enables a runtime feedback loop; use Runner.ProcessBatch to
// drive it.
func WithAdaptation(mode AdaptationMode) Option {
	return func(c *config) {
		switch mode {
		case AdaptNone, AdaptPID, AdaptStats:
			c.adaptation = mode
		default:
			c.optionErr("WithAdaptation(%d): unknown adaptation mode", mode)
		}
	}
}

// WithPlanCache enables an LRU plan cache of the given capacity, so
// replanning for a statistically familiar workload regime is served without
// a search. Capacity must be positive.
func WithPlanCache(capacity int) Option {
	return func(c *config) {
		if capacity <= 0 {
			c.optionErr("WithPlanCache(%d): capacity must be positive", capacity)
			return
		}
		c.planCache = capacity
	}
}

// DefaultPlanCacheCapacity is the plan-cache capacity WithPlanCacheFile
// falls back to when WithPlanCache was not given.
const DefaultPlanCacheCapacity = 256

// WithPlanCacheFile persists the plan cache across process lifetimes: the
// constructor warm-starts from path when the file exists (torn or corrupt
// files restore their decodable prefix and the lost regimes fall back to full
// search), and Runner.Close atomically rewrites it. Implies a plan cache of
// DefaultPlanCacheCapacity unless WithPlanCache set one.
func WithPlanCacheFile(path string) Option {
	return func(c *config) {
		if path == "" {
			c.optionErr("WithPlanCacheFile(%q): empty path", path)
			return
		}
		c.planCacheFile = path
	}
}

// WithPolicy selects the scheduling policy by registry name: one of the
// paper's mechanisms ("CStream", "OS", "CS", "RR", "BO", "LO"), a breakdown
// factor, or an extension policy ("HEFT", "Chain"). See Policies for the
// full list. The default is "CStream". Adaptation modes (WithAdaptation)
// require the default policy, since the feedback loops replan with CStream's
// search machinery. An unregistered name fails the constructor with
// ErrUnknownPolicy.
func WithPolicy(name string) Option {
	return func(c *config) {
		if _, ok := policy.Lookup(name); !ok {
			c.errs = append(c.errs, fmt.Errorf("%w %q (registered: %s)",
				ErrUnknownPolicy, name, strings.Join(policy.Names(), ", ")))
			return
		}
		c.policy = name
	}
}

// WithRequireFeasible makes Open and NewSession fail with ErrInfeasible when
// the planner cannot satisfy the latency constraint, instead of returning a
// best-effort infeasible deployment. Service front-ends use it to shed
// sessions whose SLO class demands a feasibility guarantee.
func WithRequireFeasible() Option {
	return func(c *config) { c.requireFeasible = true }
}

func defaultConfig() config {
	return config{
		seed:           1,
		platform:       "rk3399",
		batchBytes:     DefaultBatchBytes,
		lset:           DefaultLatencyConstraint,
		profileBatches: 10,
		policy:         core.MechCStream,
	}
}

// applyOptions folds the options into the default config and surfaces the
// first accumulated validation failure.
func applyOptions(opts []Option) (config, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(cfg.errs) > 0 {
		return cfg, errors.Join(cfg.errs...)
	}
	return cfg, nil
}

// setupPlanner applies the plan-lifecycle configuration shared by every
// constructor (Open/NewSession, RunStreams, NewDrone): cache capacity, the
// persisted-cache warm start, and telemetry.
func setupPlanner(planner *core.Planner, cfg *config) error {
	capacity := cfg.planCache
	if capacity == 0 && cfg.planCacheFile != "" {
		capacity = DefaultPlanCacheCapacity
	}
	if capacity > 0 {
		planner.EnablePlanCache(capacity)
	}
	if cfg.planCacheFile != "" {
		if _, err := planner.LoadPlanCache(cfg.planCacheFile); err != nil {
			return fmt.Errorf("cstream: plan cache file: %w", err)
		}
	}
	if cfg.telemetry != nil {
		planner.Telemetry = cfg.telemetry.sink
	}
	return nil
}

func machineFor(platform string) (*amp.Machine, error) {
	switch platform {
	case "", "rk3399":
		return amp.NewRK3399(), nil
	case "jetson-tx2":
		return amp.NewJetsonTX2(), nil
	default:
		return nil, fmt.Errorf("cstream: unknown platform %q (want rk3399 or jetson-tx2)", platform)
	}
}

// Open profiles the workload, fits the platform cost model, and searches for
// the energy-minimal feasible scheduling plan. The returned Runner is ready
// to compress batches.
//
// Open is the dataset-bound compatibility wrapper over the Session API: it
// is exactly NewSession with a DatasetSource, minus the Session handle. New
// code that feeds its own bytes should use NewSession and Session.Push.
func Open(algorithm, datasetName string, opts ...Option) (*Runner, error) {
	cfg, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	gen, err := dataset.ByName(datasetName, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("cstream: %w", err)
	}
	return openRunner(algorithm, gen, cfg)
}

// openRunner is the one construction path behind Open and NewSession:
// resolve the algorithm, build the simulated platform and planner, profile
// the generator's sample batches, and deploy under the configured policy or
// adaptation loop.
func openRunner(algorithm string, gen dataset.Generator, cfg config) (*Runner, error) {
	alg, err := compress.ByName(algorithm)
	if err != nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownAlgorithm, algorithm)
	}
	machine, err := machineFor(cfg.platform)
	if err != nil {
		return nil, err
	}
	planner, err := core.NewPlanner(machine, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("cstream: %w", err)
	}
	if err := setupPlanner(planner, &cfg); err != nil {
		return nil, err
	}

	w := core.NewWorkload(alg, gen)
	w.BatchBytes = cfg.batchBytes
	w.LSet = cfg.lset

	r := &Runner{
		cfg:     cfg,
		machine: machine,
		planner: planner,
		w:       w,
		tel:     cfg.telemetry,
	}
	switch cfg.adaptation {
	case AdaptNone:
		prof := core.ProfileWorkload(w, cfg.profileBatches, 0)
		dep, err := planner.DeployProfile(w, prof, cfg.policy)
		if err != nil {
			return nil, fmt.Errorf("cstream: %w", err)
		}
		r.prof, r.dep = prof, dep
	case AdaptPID:
		if cfg.policy != core.MechCStream {
			return nil, fmt.Errorf("cstream: adaptation requires policy %s, got %q", core.MechCStream, cfg.policy)
		}
		ad, err := core.NewAdaptive(planner, w, true)
		if err != nil {
			return nil, fmt.Errorf("cstream: %w", err)
		}
		r.adaptPID = ad
	case AdaptStats:
		if cfg.policy != core.MechCStream {
			return nil, fmt.Errorf("cstream: adaptation requires policy %s, got %q", core.MechCStream, cfg.policy)
		}
		ad, err := core.NewStatsAdaptive(planner, w)
		if err != nil {
			return nil, fmt.Errorf("cstream: %w", err)
		}
		r.adaptStats = ad
	default:
		return nil, fmt.Errorf("cstream: unknown adaptation mode %d", cfg.adaptation)
	}
	if cfg.requireFeasible && !r.Feasible() {
		return nil, fmt.Errorf("%w (workload %s, L_set %.3g µs/B)", ErrInfeasible, w.Name(), w.LSet)
	}
	r.store, err = openSegmentStore(alg.Name(), cfg)
	if err != nil {
		return nil, err
	}
	return r, nil
}

func toPipelineResult(segs []Segment, inputBytes int) *compress.PipelineResult {
	res := &compress.PipelineResult{
		InputBytes: inputBytes,
		Segments:   make([]compress.Segment, len(segs)),
	}
	for i, s := range segs {
		res.Segments[i] = compress.Segment{
			SliceIndex: s.SliceIndex,
			Compressed: s.Compressed,
			BitLen:     s.BitLen,
			OrigLen:    s.OrigLen,
		}
		res.TotalBits += s.BitLen
	}
	return res
}

func decodePipeline(algorithm string, res *compress.PipelineResult) ([]byte, error) {
	return compress.DecodeSegments(algorithm, res)
}

// PolicyInfo describes one registered scheduling policy.
type PolicyInfo struct {
	// Name is the registry name, accepted by WithPolicy.
	Name string
	// Description is a one-line summary of the strategy.
	Description string
	// Class labels the registry class: "mechanism" (the paper's six),
	// "breakdown" (Section VII-D factors), or "extension".
	Class string
	// LatencyAware reports whether the policy plans against L_set.
	LatencyAware bool
	// Params is the policy's parameter string, empty when parameterless.
	Params string
}

// Policies lists every registered scheduling policy in registry order: the
// paper's six mechanisms first, then the four breakdown factors, then the
// extension policies.
func Policies() []PolicyInfo {
	var out []PolicyInfo
	for _, info := range policy.Infos() {
		out = append(out, PolicyInfo{
			Name:         info.Name,
			Description:  info.Description,
			Class:        info.Class.String(),
			LatencyAware: info.LatencyAware,
			Params:       info.Params,
		})
	}
	return out
}

// Governors lists the available DVFS governors and their switching costs.
func Governors() []GovernorInfo {
	var out []GovernorInfo
	for _, name := range []string{"default", "conservative", "ondemand"} {
		gov, ok := amp.GovernorByName(name)
		if !ok {
			continue
		}
		out = append(out, GovernorInfo{
			Name:             gov.Name(),
			SwitchOverheadUS: gov.SwitchOverheadUS(),
			SwitchEnergyUJ:   gov.SwitchEnergyUJ(),
		})
	}
	return out
}

// GovernorInfo describes one DVFS governor.
type GovernorInfo struct {
	// Name is the governor's identifier.
	Name string
	// SwitchOverheadUS and SwitchEnergyUJ are the per-transition costs.
	SwitchOverheadUS, SwitchEnergyUJ float64
}
