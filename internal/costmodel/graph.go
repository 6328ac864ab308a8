// Package costmodel implements the paper's cost model (Section V-B): given a
// graph of decomposed compression tasks and a scheduling plan, it estimates
// per-task energy e_i (Eq. 4), throughput η_i and efficiency ζ_i via fitted
// four-segment rooflines (Eq. 5), computation latency (Eq. 6) and
// communication latency with per-direction asymmetric costs (Eq. 7).
//
// The package also contains the ground-truth Executor: the "hardware run"
// that produces measured latency and energy from the amp simulator, against
// which the model's estimates are compared (Table V).
package costmodel

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/fmath"
)

// floatBits is the raw IEEE-754 encoding, with -0 canonicalized to +0 so
// equal values hash equally.
func floatBits(v float64) uint64 {
	if fmath.IsZero(v) {
		return 0
	}
	return math.Float64bits(v)
}

// Task is one decomposed, possibly replicated unit of a stream compression
// procedure. All data-volume quantities are normalized per byte of the
// input stream, so a replica handling 1/R of the stream carries 1/R-scaled
// instruction and volume figures.
type Task struct {
	// ID indexes the task within its Graph.
	ID int
	// Name labels the task (e.g. "read+encode#0").
	Name string
	// InstrPerByte is the task's instruction count per stream byte.
	InstrPerByte float64
	// Kappa is the task's operational intensity (instructions per memory
	// access), invariant across cores thanks to the single ISA.
	Kappa float64
	// Replicas is the replica count of the logical task this task belongs
	// to; used to charge the replication overhead.
	Replicas int
}

// Edge is a producer→consumer connection in the pipeline.
type Edge struct {
	// From and To are task IDs.
	From, To int
	// BytesPerStreamByte is the transfer volume per stream byte (i_i of
	// Eq. 7, normalized).
	BytesPerStreamByte float64
}

// Graph is a decomposed stream compression procedure.
type Graph struct {
	// Tasks in topological order (producers before consumers).
	Tasks []Task
	// Edges connect tasks; From must precede To.
	Edges []Edge
	// BatchBytes is B, used to amortize per-batch static overheads.
	BatchBytes int

	// The inbound-edge index Inputs serves from, built on its first call:
	// Inputs(id) is in[inStart[id]:inStart[id+1]].
	inOnce  sync.Once
	in      []Edge
	inStart []int
}

// Validate checks structural invariants.
func (g *Graph) Validate() error {
	for i, t := range g.Tasks {
		if t.ID != i {
			return fmt.Errorf("costmodel: task %d has ID %d", i, t.ID)
		}
		if t.InstrPerByte < 0 || t.Kappa <= 0 {
			return fmt.Errorf("costmodel: task %q has invalid costs", t.Name)
		}
		if t.Replicas < 1 {
			return fmt.Errorf("costmodel: task %q has replicas %d", t.Name, t.Replicas)
		}
	}
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Tasks) || e.To < 0 || e.To >= len(g.Tasks) {
			return fmt.Errorf("costmodel: edge %v out of range", e)
		}
		if e.From >= e.To {
			return fmt.Errorf("costmodel: edge %v not topological", e)
		}
		if e.BytesPerStreamByte < 0 {
			return fmt.Errorf("costmodel: edge %v has negative volume", e)
		}
	}
	if g.BatchBytes <= 0 {
		return fmt.Errorf("costmodel: batch bytes %d", g.BatchBytes)
	}
	return nil
}

// Inputs returns the edges feeding task id, in Edges order. The result
// aliases an index built on the first call, so Tasks and Edges must not
// change after it and callers must not write the result.
func (g *Graph) Inputs(id int) []Edge {
	g.inOnce.Do(g.indexInputs)
	if id < 0 || id+1 >= len(g.inStart) {
		return nil
	}
	return g.in[g.inStart[id]:g.inStart[id+1]:g.inStart[id+1]]
}

// indexInputs groups the edges by consumer with a stable counting sort.
func (g *Graph) indexInputs() {
	n := len(g.Tasks)
	for _, e := range g.Edges {
		n = max(n, e.To+1)
	}
	start := make([]int, n+2)
	for _, e := range g.Edges {
		if e.To >= 0 {
			start[e.To+2]++
		}
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	in := make([]Edge, start[n+1])
	for _, e := range g.Edges {
		if e.To >= 0 {
			in[start[e.To+1]] = e
			start[e.To+1]++
		}
	}
	g.in, g.inStart = in, start[:n+1]
}

// Plan maps each task (by index) to a core ID (Definition 2).
type Plan []int

// Clone copies the plan.
func (p Plan) Clone() Plan {
	q := make(Plan, len(p))
	copy(q, p)
	return q
}

// String renders the plan as core assignments.
func (p Plan) String() string {
	return fmt.Sprintf("%v", []int(p))
}

// Equal reports whether two plans are byte-identical assignments.
func (p Plan) Equal(q Plan) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Fingerprint hashes the assignment vector (FNV-1a), for use as a cache or
// dedup key.
func (p Plan) Fingerprint() uint64 {
	h := fnvOffset
	for _, c := range p {
		h = fnvMix(h, uint64(c))
	}
	return h
}

const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

// fnvMix folds an 8-byte word into an FNV-1a hash.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Fingerprint hashes the graph structure and per-task costs, so two
// decompositions can be compared cheaply for cache keying.
func (g *Graph) Fingerprint() uint64 {
	h := fnvOffset
	h = fnvMix(h, uint64(g.BatchBytes))
	h = fnvMix(h, uint64(len(g.Tasks)))
	for _, t := range g.Tasks {
		h = fnvMix(h, floatBits(t.InstrPerByte))
		h = fnvMix(h, floatBits(t.Kappa))
		h = fnvMix(h, uint64(t.Replicas))
	}
	for _, e := range g.Edges {
		h = fnvMix(h, uint64(e.From))
		h = fnvMix(h, uint64(e.To))
		h = fnvMix(h, floatBits(e.BytesPerStreamByte))
	}
	return h
}

// Replication overhead calibration (Table IV: t_re×2 versus t_all): each
// replica of a task replicated R≥2 ways costs an extra flat energy per
// stream byte (cache thrashing, duplicated state) and stretches its latency.
const (
	// ReplicaEnergyOverheadPerByte is µJ per stream byte per replica for a
	// reference-sized task (the whole tcomp32 procedure of Table IV); the
	// overhead of replicating smaller tasks scales with their size, since
	// cache thrashing is proportional to the working set being duplicated.
	ReplicaEnergyOverheadPerByte = 0.082
	// ReplicaOverheadRefInstr is the reference logical task size
	// (instructions per stream byte of Table IV's t_all).
	ReplicaOverheadRefInstr = 430.0
	// ReplicaLatencyFactor inflates a replica's computation latency.
	ReplicaLatencyFactor = 1.06
)

// ReplicaOverhead returns the per-replica energy overhead (µJ per stream
// byte) for a task: zero when unreplicated, otherwise scaled by the logical
// task's total instruction weight.
func ReplicaOverhead(t Task) float64 {
	if t.Replicas <= 1 {
		return 0
	}
	logical := t.InstrPerByte * float64(t.Replicas)
	return ReplicaEnergyOverheadPerByte * logical / ReplicaOverheadRefInstr
}

// TaskBatchEnergyUJ is the fixed per-task energy cost of handling one batch
// (wakeups, cache warm-up / thrashing). Negligible at the paper's default
// B≈1 MB, it is what makes very small batches slightly more expensive per
// byte (Fig. 11).
const TaskBatchEnergyUJ = 8.0
