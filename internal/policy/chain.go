package policy

import (
	"repro/internal/compress"
	"repro/internal/costmodel"
)

// chainPolicy replicates the compression pipeline as a partially-replicable
// task chain, in the spirit of Idouar et al.'s energy-aware replication of
// IoT task chains: only stateless tasks may be replicated (see replicable),
// and replicas are added to the bottleneck replicable task until the latency
// constraint holds. Placement of each candidate chain uses
// the energy-minimal DP plan search under the true model, so the policy
// isolates the value of replication *structure* — same placement machinery
// as CStream, different replication rule, no energy hill-climb.
type chainPolicy struct{}

func (chainPolicy) Name() string { return Chain }

func (chainPolicy) Description() string {
	return "chain replication of stateless tasks only (Idouar-style), DP placement"
}

func (chainPolicy) Params() string { return "" }

func (chainPolicy) LatencyAware() bool { return true }

func (chainPolicy) Overheads(batchBytes int) costmodel.ExecOverheads {
	return modelOverheads(batchBytes)
}

func (chainPolicy) Deploy(h Host, req Request) (Result, error) {
	tasks := costmodel.CloneTasks(req.Fine)
	mod := h.Model()
	maxTasks := 2 * h.Machine().NumCores()
	for iter := 0; ; iter++ {
		g := costmodel.BuildGraph(tasks, req.BatchBytes)
		plan := h.SearchPlan(mod, g, req.LSet).Plan
		est := mod.Estimate(g, plan, req.LSet)
		res := Result{Tasks: tasks, Graph: g, Plan: plan, Estimate: est, Feasible: est.Feasible}
		if est.Feasible || len(g.Tasks) >= maxTasks || iter >= maxScaleIters {
			return res, nil
		}
		li := bottleneckReplicable(tasks, est.PerTaskLatency)
		if li < 0 {
			// Every remaining bottleneck is stateful: the chain cannot scale
			// further, report the best infeasible configuration honestly.
			return res, nil
		}
		tasks[li].Replicas++
	}
}

// bottleneckReplicable returns the index of the replicable logical task
// owning the highest per-replica latency, or -1 when no task may be
// replicated. Replicas are laid out consecutively by BuildGraph, so graph
// indices fold back onto logical tasks by walking replica counts.
func bottleneckReplicable(tasks []costmodel.LogicalTask, perTask []float64) int {
	best, bestLat := -1, 0.0
	acc := 0
	for li, t := range tasks {
		r := t.Replicas
		if r < 1 {
			r = 1
		}
		if replicable(t) {
			for k := 0; k < r; k++ {
				if idx := acc + k; idx < len(perTask) {
					if best < 0 || perTask[idx] > bestLat {
						best, bestLat = li, perTask[idx]
					}
				}
			}
		}
		acc += r
	}
	return best
}

// replicable is Chain's replication rule: a task carrying a cross-batch state
// update (dictionary maintenance and the like) keeps a single instance,
// because Chain assumes that state is shared by the whole stream. It is the
// one policy that assumes so; every slice of the executor runs a private
// session (DESIGN.md, "Stateful replication").
func replicable(t costmodel.LogicalTask) bool {
	for _, s := range t.Steps {
		if s == compress.StepStateUpdate {
			return false
		}
	}
	return true
}
