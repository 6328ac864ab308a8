package cstream

import "errors"

// Sentinel errors returned by the facade. Every constructor and method wraps
// these with context via fmt.Errorf("...: %w", ...), so callers branch with
// errors.Is instead of matching message strings.
var (
	// ErrClosed is returned by Runner and Session methods after Close.
	ErrClosed = errors.New("cstream: closed")

	// ErrUnknownAlgorithm is returned by Open and NewSession when the
	// algorithm name is not registered (see compress.ByName for the set).
	ErrUnknownAlgorithm = errors.New("cstream: unknown algorithm")

	// ErrUnknownPolicy is returned at Open/NewSession time when WithPolicy
	// named a scheduling policy that is not in the registry (see Policies).
	ErrUnknownPolicy = errors.New("cstream: unknown policy")

	// ErrInfeasible is returned by Open and NewSession under
	// WithRequireFeasible when no plan satisfying the latency constraint
	// exists, and by the serve layer when admission sheds a session whose
	// SLO class demands a feasible plan.
	ErrInfeasible = errors.New("cstream: no feasible plan under the latency constraint")

	// ErrInvalidOption is returned by Open and NewSession when a functional
	// option received an out-of-range argument; the wrapped message names
	// the option and the offending value.
	ErrInvalidOption = errors.New("cstream: invalid option")
)
