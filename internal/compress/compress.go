// Package compress implements the three stream compression algorithms the
// paper evaluates — tcomp32 (stateless bit-level null suppression), tdic32
// (stateful dictionary variable-length coding) and a simplified lz4 — plus
// two extension algorithms from the paper's future work (delta32, rle32),
// all with matching decoders for lossless round-trip verification.
//
// Every algorithm is decomposed into the paper's steps (read / encode / write
// for stateless; read / pre-process / state-update / state-encode / write for
// stateful). While compressing, each step tallies abstract *instruction* and
// *memory-access* counters as a function of the data actually processed; the
// counters play the role the authors' `perf` profiles played: they define a
// step's operational intensity κ = instructions / memory accesses, which the
// AMP simulator and cost model convert into latency and energy.
package compress

import (
	"fmt"

	"repro/internal/stream"
)

// StepKind identifies one step of a stream compression procedure.
type StepKind int

// Step kinds, in pipeline order. Stateless algorithms use Read, Encode,
// Write (the paper's s0–s2); stateful ones use Read, Preprocess, StateUpdate,
// StateEncode, Write (s0–s4).
const (
	StepRead StepKind = iota
	StepEncode
	StepPreprocess
	StepStateUpdate
	StepStateEncode
	StepWrite

	// numStepKinds sizes Result.Steps.
	numStepKinds
)

// String returns the paper's name for the step within its algorithm class.
func (k StepKind) String() string {
	switch k {
	case StepRead:
		return "read"
	case StepEncode:
		return "encode"
	case StepPreprocess:
		return "pre-process"
	case StepStateUpdate:
		return "state-update"
	case StepStateEncode:
		return "state-encode"
	case StepWrite:
		return "write"
	}
	return fmt.Sprintf("step(%d)", int(k))
}

// Cost tallies abstract instructions and memory accesses, the two quantities
// the roofline model consumes.
type Cost struct {
	Instructions float64
	MemAccesses  float64
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.Instructions += o.Instructions
	c.MemAccesses += o.MemAccesses
}

// Kappa returns the operational intensity κ (instructions per memory
// access). A zero-access cost reports κ = Instructions to stay finite.
func (c Cost) Kappa() float64 {
	if c.MemAccesses <= 0 {
		return c.Instructions
	}
	return c.Instructions / c.MemAccesses
}

// StepStats records one step's cost and the data volume leaving it, which
// the cost model uses to size inter-task communication.
type StepStats struct {
	Cost Cost
	// OutBytes is the volume handed to the next step (compressed output for
	// the final step).
	OutBytes int
}

// Result captures the outcome of compressing one batch.
type Result struct {
	// InputBytes is the uncompressed batch size.
	InputBytes int
	// Compressed holds the packed output bits.
	Compressed []byte
	// BitLen is the exact compressed length in bits.
	BitLen uint64
	// Steps holds each decomposition step's measured stats, indexed by
	// StepKind; entries for steps outside the algorithm's template are zero.
	Steps [numStepKinds]StepStats
}

// Ratio returns the compression ratio (compressed bits / input bits); lower
// is better, matching the paper's usage.
func (r *Result) Ratio() float64 {
	if r.InputBytes == 0 {
		return 0
	}
	return float64(r.BitLen) / float64(r.InputBytes*8)
}

// TotalCost sums cost over all steps, in StepKind order.
func (r *Result) TotalCost() Cost {
	var c Cost
	for _, s := range r.Steps {
		c.Add(s.Cost)
	}
	return c
}

// Algorithm describes a stream compression algorithm the framework can
// parallelize.
type Algorithm interface {
	// Name returns the workload label ("tcomp32", "tdic32", "lz4").
	Name() string
	// Stateful reports whether the algorithm keeps cross-tuple state.
	Stateful() bool
	// Steps returns the decomposition template in pipeline order.
	Steps() []StepKind
	// NewSession creates an independent compression session (private state).
	NewSession() Session
}

// Session compresses successive batches, carrying algorithm state across
// batches within one stream. Sessions are not safe for concurrent use; the
// runtime gives every replica its own session (Section IV-B).
type Session interface {
	// CompressBatch compresses one batch and reports per-step stats. The
	// returned Result owns its buffers: it stays valid indefinitely, across
	// later calls on the same session.
	CompressBatch(b *stream.Batch) *Result
	// CompressBatchReuse is CompressBatch on the zero-allocation hot path:
	// the returned Result and its Compressed buffer alias storage owned by
	// the session and are overwritten by the next CompressBatch or
	// CompressBatchReuse call. Callers that retain output across calls must
	// copy it (or use CompressBatch). Output bytes and step costs are
	// bit-identical to CompressBatch.
	CompressBatchReuse(b *stream.Batch) *Result
	// Reset clears any cross-batch state.
	Reset()
}

// ByName constructs the named algorithm. Recognized: the paper's tcomp32,
// tdic32 and lz4, plus the extension algorithms delta32 and rle32.
func ByName(name string) (Algorithm, error) {
	switch name {
	case "tcomp32":
		return NewTcomp32(), nil
	case "tdic32":
		return NewTdic32(), nil
	case "lz4":
		return NewLZ4(), nil
	case "delta32":
		return NewDelta32(), nil
	case "rle32":
		return NewRLE32(), nil
	case "huff8":
		return NewHuff8(), nil
	}
	return nil, fmt.Errorf("compress: unknown algorithm %q", name)
}

// All returns the three evaluated algorithms in the paper's order.
func All() []Algorithm {
	return []Algorithm{NewTcomp32(), NewLZ4(), NewTdic32()}
}

// Extensions returns the algorithms added beyond the paper's evaluation
// (its future work calls for supporting more stream compression algorithms).
func Extensions() []Algorithm {
	return []Algorithm{NewDelta32(), NewRLE32(), NewHuff8()}
}

// resetResult prepares a session-owned Result for the next CompressBatchReuse
// call; the Steps array is zeroed in place, so steady-state calls allocate
// nothing.
func resetResult(res *Result, inputBytes int) {
	*res = Result{InputBytes: inputBytes}
}

// cloneResult deep-copies a session-owned Result so the copy stays valid
// after the session's scratch is reused. CompressBatch wraps the reuse path
// with exactly this copy.
func cloneResult(r *Result) *Result {
	out := *r
	out.Compressed = append([]byte(nil), r.Compressed...)
	return &out
}
