package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// Decision kinds, the `kind` field of the decision-log schema.
const (
	// KindDeploy is an initial Deploy/DeployProfile planning decision.
	KindDeploy = "deploy"
	// KindReplanPID is a re-plan adopted by the incremental-PID loop after a
	// calibration round converged.
	KindReplanPID = "replan_pid"
	// KindReplanStats is a re-plan triggered by the statistics monitor.
	KindReplanStats = "replan_stats"
	// KindMeasure records simulated measurements of the current plan against
	// its predictions (the Table IV / Table V comparison).
	KindMeasure = "measure"
)

// TaskSample is one task's predicted — and, when available, measured —
// per-byte cost inside a Decision.
type TaskSample struct {
	// Task names the graph task; Core is where the plan put it.
	Task string `json:"task"`
	Core int    `json:"core"`
	// PredictedL and PredictedE are the cost model's per-byte latency (µs/B)
	// and energy (µJ/B) for this task under the chosen plan.
	PredictedL float64 `json:"predicted_l"`
	PredictedE float64 `json:"predicted_e"`
	// MeasuredL and MeasuredE are simulated-execution observations (present
	// on measure and re-plan events, zero otherwise).
	MeasuredL float64 `json:"measured_l,omitempty"`
	MeasuredE float64 `json:"measured_e,omitempty"`
	// RelErrL and RelErrE are |measured−predicted|/measured, the Table IV
	// accuracy metric (computed with internal/metrics.RelativeError; present
	// only with measurements).
	RelErrL float64 `json:"rel_err_l,omitempty"`
	RelErrE float64 `json:"rel_err_e,omitempty"`
}

// Decision is one event of the scheduling-decision log: every Deploy,
// re-plan, and plan measurement appends exactly one. Serialized as one JSON
// object per line (JSON Lines) by WriteJSONL.
type Decision struct {
	// Seq is the event's position in the log, assigned by Append.
	Seq int `json:"seq"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Mechanism and Workload identify what was planned (e.g. "CStream",
	// "tcomp32-Rovio").
	Mechanism string `json:"mechanism,omitempty"`
	Workload  string `json:"workload,omitempty"`
	// Policy names the registered scheduling policy behind the decision. For
	// the paper's mechanisms it equals Mechanism; extension policies carry
	// their registry name. PolicyParams is the policy's parameter string
	// (e.g. "headroom=1.000"), empty for parameterless policies.
	Policy       string `json:"policy,omitempty"`
	PolicyParams string `json:"policy_params,omitempty"`
	// Batch is the batch index that triggered a re-plan (-1 when not batch
	// driven).
	Batch int `json:"batch,omitempty"`
	// Plan is the chosen task→core assignment vector.
	Plan []int `json:"plan,omitempty"`
	// Feasible is the planner's verdict on the latency constraint; CacheHit
	// reports that the plan was served from the plan cache without a search.
	Feasible bool `json:"feasible"`
	CacheHit bool `json:"cache_hit,omitempty"`
	// PlanMode labels how this decision's plan was acquired: "cache" (exact
	// hit) or "full" (searched). Set on deploy and re-plan decisions.
	PlanMode string `json:"plan_mode,omitempty"`
	// Searches and NodesExplored count the plan-search invocations and the
	// DP/B&B search-tree leaves examined while making this decision;
	// SearchMicros is the wall-clock time those searches took.
	Searches      int64   `json:"searches,omitempty"`
	NodesExplored int64   `json:"nodes_explored,omitempty"`
	SearchMicros  float64 `json:"search_us,omitempty"`
	// PredictedL/PredictedE are the model's per-byte estimates for the chosen
	// plan; MeasuredL/MeasuredE are observations where available, with
	// RelErrL/RelErrE their relative errors (metrics.RelativeError).
	PredictedL float64 `json:"predicted_l"`
	PredictedE float64 `json:"predicted_e"`
	MeasuredL  float64 `json:"measured_l,omitempty"`
	MeasuredE  float64 `json:"measured_e,omitempty"`
	RelErrL    float64 `json:"rel_err_l,omitempty"`
	RelErrE    float64 `json:"rel_err_e,omitempty"`
	// Tasks breaks the prediction (and measurement) down per task.
	Tasks []TaskSample `json:"tasks,omitempty"`
}

// DecisionLog is an append-only, concurrency-safe log of scheduling
// decisions. A nil *DecisionLog no-ops. When a stream writer is attached,
// events are additionally emitted as JSON Lines at append time.
type DecisionLog struct {
	mu     sync.Mutex
	events []Decision
	stream io.Writer
}

// NewDecisionLog builds an empty log.
func NewDecisionLog() *DecisionLog { return &DecisionLog{} }

// Stream attaches w so every subsequent Append also writes the event as one
// JSON line. Pass nil to detach.
func (l *DecisionLog) Stream(w io.Writer) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.stream = w
	l.mu.Unlock()
}

// Append assigns the event's sequence number and records it.
func (l *DecisionLog) Append(d Decision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	d.Seq = len(l.events)
	l.events = append(l.events, d)
	stream := l.stream
	l.mu.Unlock()
	if stream != nil {
		if b, err := json.Marshal(d); err == nil {
			b = append(b, '\n')
			// A failed stream write only loses the live copy; the event
			// stays in the log for WriteJSONL.
			stream.Write(b) //nolint:errcheck
		}
	}
}

// Events returns a copy of the logged decisions in append order.
func (l *DecisionLog) Events() []Decision {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Decision, len(l.events))
	copy(out, l.events)
	return out
}

// Len returns the number of logged decisions.
func (l *DecisionLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// WriteJSONL serializes the whole log as JSON Lines: one decision object per
// line, in sequence order.
func (l *DecisionLog) WriteJSONL(w io.Writer) error {
	for _, d := range l.Events() {
		b, err := json.Marshal(d)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
