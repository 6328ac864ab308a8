// Package cstream is the public facade of the CStream reproduction: it
// parallelizes stream compression procedures on (simulated) asymmetric
// multicores under a compressing-latency constraint, per "Parallelizing
// Stream Compression for IoT Applications on Asymmetric Multicores"
// (Zeng & Zhang, ICDE 2023).
//
// Open a session for an algorithm and a Source, optionally tuned with
// functional options, then push batches through the planned pipeline:
//
//	s, err := cstream.NewSession("tcomp32", cstream.DatasetSource("Rovio", 42),
//		cstream.WithBatchBytes(256*1024),
//		cstream.WithLatencyConstraint(26))
//	defer s.Close()
//	res, err := s.Push(ctx, data)
//
// The internal packages remain the implementation; this package is the only
// supported API surface.
package cstream

import (
	"errors"
	"fmt"

	"repro/internal/amp"
	"repro/internal/core"
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
	planCacheFile   string
	requireFeasible bool
	telemetry       *Telemetry
	segmentDir      string
	segmentRotate   SegmentRotation

	// errs accumulates option-validation failures; applyOptions surfaces
	// them from NewSession instead of letting a bad argument panic or
	// be silently clamped deep inside internal/core.
	errs []error
}

// Option customizes NewSession. Every With* option validates its
// argument when the constructor applies it; an out-of-range value fails the
// constructor with an error wrapping ErrInvalidOption.
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

// DefaultPlanCacheCapacity is the capacity of the plan cache
// WithPlanCacheFile enables.
const DefaultPlanCacheCapacity = 256

// WithPlanCacheFile persists the plan cache across process lifetimes: the
// constructor warm-starts from path when the file exists (torn or corrupt
// files restore their decodable prefix and the lost regimes fall back to full
// search), and Session.Close atomically rewrites it. The cache holds
// DefaultPlanCacheCapacity plans.
func WithPlanCacheFile(path string) Option {
	return func(c *config) {
		if path == "" {
			c.optionErr("WithPlanCacheFile(%q): empty path", path)
			return
		}
		c.planCacheFile = path
	}
}

// WithRequireFeasible makes NewSession fail with ErrInfeasible when
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

// setupPlanner applies the plan-lifecycle configuration: the persisted
// plan cache's warm start, and telemetry.
func setupPlanner(planner *core.Planner, cfg *config) error {
	if cfg.planCacheFile != "" {
		planner.EnablePlanCache(DefaultPlanCacheCapacity)
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
