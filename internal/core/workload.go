// Package core is CStream itself: the framework that parallelizes stream
// compression procedures on asymmetric multicores (Section III-B). It wires
// together the fine-grained decomposition of Section IV (profiling real
// per-step costs, applying the fusion rule, replicating bottleneck tasks)
// and the asymmetry-aware scheduling of Section V (model-guided plan search,
// feedback-based recalibration), and provides the competing mechanisms the
// paper evaluates against.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/stream"
)

// Workload is a stream compression procedure (Definition 1): an algorithm
// applied to batches of a dataset under a latency constraint.
type Workload struct {
	// Algorithm is the stream compression algorithm to parallelize.
	Algorithm compress.Algorithm
	// Dataset generates the input stream.
	Dataset dataset.Generator
	// BatchBytes is B (default 932 800 in the paper).
	BatchBytes int
	// LSet is the compressing latency constraint in µs per byte (default 26).
	LSet float64
}

// Paper-default workload parameters.
const (
	// DefaultBatchBytes is the evaluation batch size B.
	DefaultBatchBytes = 932800
	// DefaultLSet is the default latency constraint (µs/byte).
	DefaultLSet = 26.0
)

// NewWorkload assembles a workload with the paper's default B and L_set.
func NewWorkload(alg compress.Algorithm, gen dataset.Generator) Workload {
	return Workload{Algorithm: alg, Dataset: gen, BatchBytes: DefaultBatchBytes, LSet: DefaultLSet}
}

// Name is the paper's Algorithm-Dataset label, e.g. "tcomp32-Rovio".
func (w Workload) Name() string {
	return w.Algorithm.Name() + "-" + w.Dataset.Name()
}

// StepProfile is the measured cost of one compression step, normalized per
// stream byte — the output of the paper's perf-based profiling.
type StepProfile struct {
	// Kind identifies the step.
	Kind compress.StepKind
	// InstrPerByte is the step's instruction count per stream byte.
	InstrPerByte float64
	// Kappa is the step's operational intensity.
	Kappa float64
	// OutPerByte is the data volume the step emits per stream byte.
	OutPerByte float64
}

// Profile is the per-step cost characterization of a workload, measured by
// running the real algorithm over a moderate number of batches (the paper
// instantiates its model with 10–100 batches).
type Profile struct {
	// Workload identifies what was profiled.
	Workload string
	// Steps holds per-step costs in pipeline order.
	Steps []StepProfile
	// StageSets are the algorithm's runnable cut points.
	StageSets [][]compress.StepKind
	// BatchBytes is the profiled batch size.
	BatchBytes int
	// Ratio is the observed compression ratio.
	Ratio float64
}

// ProfileWorkload measures a workload's per-step costs over `batches`
// consecutive batches starting at firstBatch. It runs the actual compression
// (a fresh session, so stateful algorithms warm their state naturally).
//
// Generating the proxy batches can cost more than compressing them, so it
// follows the slice rule: min(compress.SliceCount(B, batches), GOMAXPROCS)
// participants generate a window of that many batches side by side (see
// generateBatches), and the window is then compressed serially, in index
// order, on the one session, because stateful kernels carry state from batch
// to batch. At most one window is live at a time. Below 128 KiB the rule
// gives one participant, so small shapes generate inline.
func ProfileWorkload(w Workload, batches, firstBatch int) *Profile {
	if batches < 1 {
		batches = 1
	}
	sess := w.Algorithm.NewSession()
	window := make([]*stream.Batch, min(compress.SliceCount(w.BatchBytes, batches), runtime.GOMAXPROCS(0)))
	// sum accumulates every batch's input, output and per-step stats.
	var sum compress.Result
	for lo := 0; lo < batches; lo += len(window) {
		win := window[:min(len(window), batches-lo)]
		generateBatches(w, firstBatch+lo, win)
		for _, b := range win {
			// Only the counts and costs are read, so the session's reused
			// result serves and the compressed bytes are never copied.
			r := sess.CompressBatchReuse(b)
			sum.InputBytes += r.InputBytes
			sum.BitLen += r.BitLen
			for k, st := range r.Steps {
				acc := &sum.Steps[k]
				acc.Cost.Add(st.Cost)
				acc.OutBytes += st.OutBytes
			}
		}
	}
	p := &Profile{
		Workload:   w.Name(),
		StageSets:  compress.StageSets(w.Algorithm),
		BatchBytes: w.BatchBytes,
		Ratio:      sum.Ratio(),
	}
	totalIn := sum.InputBytes
	for _, k := range w.Algorithm.Steps() {
		st := sum.Steps[k]
		sp := StepProfile{Kind: k}
		if totalIn > 0 {
			sp.InstrPerByte = st.Cost.Instructions / float64(totalIn)
			sp.OutPerByte = float64(st.OutBytes) / float64(totalIn)
		}
		sp.Kappa = st.Cost.Kappa()
		p.Steps = append(p.Steps, sp)
	}
	return p
}

// generateBatches fills out with w's batches first, first+1, .... Batch is
// a pure function of its index and safe for concurrent use
// (dataset.Generator), so the caller and len(out)-1 transient helpers claim
// indices off an atomic cursor, as the slice executor's participants claim
// slices. A one-batch window runs inline.
func generateBatches(w Workload, first int, out []*stream.Batch) {
	if len(out) == 1 {
		out[0] = w.Dataset.Batch(first, w.BatchBytes)
		return
	}
	var cursor atomic.Int32
	claim := func() {
		for i := int(cursor.Add(1)) - 1; i < len(out); i = int(cursor.Add(1)) - 1 {
			out[i] = w.Dataset.Batch(first+i, w.BatchBytes)
		}
	}
	var helpers sync.WaitGroup
	for h := 1; h < len(out); h++ {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			claim()
		}()
	}
	claim()
	helpers.Wait()
}

// profileBatch measures one concrete batch (used by the adaptive runtime to
// obtain the ground-truth costs after a workload shift).
func profileBatch(alg compress.Algorithm, b *stream.Batch) *Profile {
	sess := alg.NewSession()
	r := sess.CompressBatchReuse(b)
	p := &Profile{
		Workload:   alg.Name(),
		StageSets:  compress.StageSets(alg),
		BatchBytes: b.Size(),
	}
	if r.InputBytes > 0 {
		p.Ratio = float64(r.BitLen) / float64(r.InputBytes*8)
	}
	for _, k := range alg.Steps() {
		st := r.Steps[k]
		sp := StepProfile{Kind: k, Kappa: st.Cost.Kappa()}
		if r.InputBytes > 0 {
			sp.InstrPerByte = st.Cost.Instructions / float64(r.InputBytes)
			sp.OutPerByte = float64(st.OutBytes) / float64(r.InputBytes)
		}
		p.Steps = append(p.Steps, sp)
	}
	return p
}
