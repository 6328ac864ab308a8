package policy

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/costmodel"
)

// replicable must be false exactly for tasks carrying cross-batch state.
func TestReplicable(t *testing.T) {
	stateless := costmodel.LogicalTask{Name: "enc", Steps: []compress.StepKind{compress.StepEncode}}
	if !replicable(stateless) {
		t.Fatal("stateless task reported non-replicable")
	}
	stateful := costmodel.LogicalTask{Name: "upd", Steps: []compress.StepKind{compress.StepStateUpdate}}
	if replicable(stateful) {
		t.Fatal("stateful task reported replicable")
	}
}

// bottleneckReplicable must skip stateful tasks even when they own the worst
// per-replica latency, and report -1 when nothing may be replicated.
func TestBottleneckReplicable(t *testing.T) {
	tasks := []costmodel.LogicalTask{
		{Name: "read", Steps: []compress.StepKind{compress.StepRead}, Replicas: 2},
		{Name: "update", Steps: []compress.StepKind{compress.StepStateUpdate}, Replicas: 1},
		{Name: "write", Steps: []compress.StepKind{compress.StepWrite}, Replicas: 1},
	}
	// Graph layout: read#0, read#1, update, write. The stateful update task
	// is the true bottleneck; the chain rule must fall back to the slowest
	// replicable one.
	perTask := []float64{3, 4, 10, 2}
	if got := bottleneckReplicable(tasks, perTask); got != 0 {
		t.Fatalf("bottleneckReplicable = %d, want 0 (read, the slowest replicable)", got)
	}

	allStateful := []costmodel.LogicalTask{
		{Name: "update", Steps: []compress.StepKind{compress.StepStateUpdate}, Replicas: 1},
	}
	if got := bottleneckReplicable(allStateful, []float64{10}); got != -1 {
		t.Fatalf("bottleneckReplicable = %d, want -1 when every task is stateful", got)
	}
}

// Chain deployments must never add replicas to a stateful task, whatever the
// replication pressure: the per-logical-task replica count of every stateful
// task stays 1.
func TestChainKeepsStatefulSingle(t *testing.T) {
	// Drive the real policy through a host-free check: replicate manually
	// under the chain rule until saturation and observe the invariant.
	tasks := []costmodel.LogicalTask{
		{Name: "read", Steps: []compress.StepKind{compress.StepRead}, InstrPerByte: 2, Kappa: 1, OutPerByte: 1, InPerByte: 1, Replicas: 1},
		{Name: "update", Steps: []compress.StepKind{compress.StepStateUpdate}, InstrPerByte: 50, Kappa: 3, OutPerByte: 1, InPerByte: 1, Replicas: 1},
		{Name: "write", Steps: []compress.StepKind{compress.StepWrite}, InstrPerByte: 1, Kappa: 0.5, OutPerByte: 1, InPerByte: 1, Replicas: 1},
	}
	// The stateful task dominates latency; repeated chain rounds must pile
	// replicas onto the replicable neighbours only.
	for round := 0; round < 6; round++ {
		g := costmodel.BuildGraph(tasks, 32*1024)
		perTask := make([]float64, len(g.Tasks))
		acc := 0
		for _, lt := range tasks {
			r := lt.Replicas
			for k := 0; k < r; k++ {
				perTask[acc+k] = lt.InstrPerByte / float64(r)
			}
			acc += r
		}
		li := bottleneckReplicable(tasks, perTask)
		if li < 0 {
			break
		}
		tasks[li].Replicas++
	}
	for _, lt := range tasks {
		if !replicable(lt) && lt.Replicas != 1 {
			t.Fatalf("stateful task %s replicated to %d", lt.Name, lt.Replicas)
		}
	}
}
