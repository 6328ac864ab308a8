package cstream

import (
	"context"
	"fmt"

	"repro/internal/stream"
)

// Session is a source-agnostic compression stream: a planned pipeline plus a
// push interface for caller-supplied batches. It embeds the Runner it plans
// with, so every Runner inspection method (Plan, Estimate, Feasible, Stats,
// Measure, ...) is available on the Session; the dataset-bound batch methods
// (RunBatch, RawBatch) operate on the source's deterministic sample
// generator.
//
// A Session is not safe for concurrent use; open one Session per stream,
// exactly as the paper gives every stream its own pipeline (Section IV-B).
type Session struct {
	*Runner

	src    Source
	pushes int64
}

// NewSession profiles the source's sample data, fits the platform cost
// model, searches for the energy-minimal feasible scheduling plan, and
// returns a Session ready to compress caller-supplied batches through
// Session.Push.
//
// With a DatasetSource the session is byte-identical to the dataset-bound
// Open path: NewSession(alg, DatasetSource(name, seed)) plans and compresses
// exactly as Open(alg, name, WithSeed(seed)) — the source's seed becomes the
// session seed unless WithSeed overrides it.
func NewSession(algorithm string, src Source, opts ...Option) (*Session, error) {
	if src == nil {
		return nil, fmt.Errorf("%w: NewSession requires a non-nil Source", ErrInvalidOption)
	}
	cfg, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if seed, ok := src.preferredSeed(); ok && !cfg.seedSet {
		cfg.seed = seed
	}
	gen, err := src.resolve(cfg.seed)
	if err != nil {
		return nil, err
	}
	r, err := openRunner(algorithm, gen, cfg)
	if err != nil {
		return nil, err
	}
	return &Session{Runner: r, src: src}, nil
}

// SourceName returns the name of the session's source.
func (s *Session) SourceName() string { return s.src.Name() }

// Pushes returns how many batches have been pushed through the session.
func (s *Session) Pushes() int64 { return s.pushes }

// Push compresses one caller-supplied batch through the planned pipeline —
// the same execution path RunBatch drives for dataset batches, so every
// slice runs the algorithm's kernel on the caller-runs slice executor, in a
// pooled kernel session (the zero-allocation hot path). The batch
// index recorded in the result counts pushes from zero. Cancelling ctx
// aborts the run. After Close, Push fails with ErrClosed.
func (s *Session) Push(ctx context.Context, data []byte) (*BatchResult, error) {
	if s.closed {
		return nil, fmt.Errorf("session: %w", ErrClosed)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("cstream: Push with an empty batch")
	}
	b := stream.NewBatchBytes(int(s.pushes), data)
	res, err := s.runBatch(ctx, b)
	if err != nil {
		return nil, err
	}
	s.pushes++
	return res, nil
}

// PushReuse is Push writing into a caller-owned BatchResult: into's segment
// slice and each segment's Compressed buffer are recycled past their
// high-water marks, so a steady-state pusher that hands the same BatchResult
// back every batch keeps the whole push path allocation-free. A nil into
// behaves exactly like Push. The returned pointer is into (or the fresh
// result when into is nil); its contents are only valid until the next
// PushReuse with the same into.
func (s *Session) PushReuse(ctx context.Context, data []byte, into *BatchResult) (*BatchResult, error) {
	if s.closed {
		return nil, fmt.Errorf("session: %w", ErrClosed)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("cstream: Push with an empty batch")
	}
	if into == nil {
		into = &BatchResult{}
	}
	b := stream.NewBatchBytes(int(s.pushes), data)
	res, err := s.runBatchInto(ctx, b, into)
	if err != nil {
		return nil, err
	}
	s.pushes++
	return res, nil
}
