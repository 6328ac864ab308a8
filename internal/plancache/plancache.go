// Package plancache provides a small thread-safe LRU cache for scheduling
// plans. Plan search is the framework's hot path; workloads whose profiled
// statistics land in the same quantized regime reuse each other's plans
// instead of re-running the DFS, which is what keeps adaptive runs that
// oscillate between regimes cheap (Section V-D's replanning loop).
package plancache

import "math"

// PlanKey identifies a cached plan: same algorithm, statistically similar
// workload (quantized profile signature), same latency constraint, same
// platform state (core inventory and frequencies) and DVFS policy, same
// model calibration regime.
type PlanKey struct {
	// Algorithm names the compression algorithm.
	Algorithm string
	// Policy names the scheduling policy that produced the plan, and
	// PolicyParams hashes its parameter string — two policies (or two
	// parameterizations of one policy) never share an entry.
	Policy       string
	PolicyParams uint64
	// Signature hashes the quantized workload statistics (per-step costs,
	// batch size).
	Signature uint64
	// LSetQ is the latency constraint in milli-µs/byte.
	LSetQ int64
	// PlatformHash covers the platform name and per-core type/frequency.
	PlatformHash uint64
	// DVFSPolicy labels the active frequency governor.
	DVFSPolicy string
	// CalibQ is the quantized model calibration scale.
	CalibQ int32
}

// QuantizeLog buckets a positive value logarithmically at 8 buckets per
// octave (~9% wide), so statistically similar measurements share a bucket
// while regime shifts (the paper's 500→50000 dynamic-range jump) do not.
func QuantizeLog(v float64) int32 {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return math.MinInt32
	}
	return int32(math.Round(8 * math.Log2(v)))
}

// QuantizeLSet quantizes a latency constraint to milli-µs/byte: constraints
// are user-set round numbers, so exact buckets are the right granularity.
func QuantizeLSet(lset float64) int64 {
	return int64(math.Round(lset * 1000))
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits, Misses, Evictions int64
	Size, Capacity          int
}
