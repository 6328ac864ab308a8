package costmodel

import (
	"fmt"

	"repro/internal/compress"
)

// LogicalTask is one fused group of compression steps before replication.
// Scheduling policies replicate logical tasks and expand them into a
// schedulable Graph with BuildGraph.
type LogicalTask struct {
	// Name labels the task by its steps, e.g. "read+encode".
	Name string
	// Steps are the fused compression steps.
	Steps []compress.StepKind
	// InstrPerByte, Kappa and OutPerByte aggregate the member steps.
	InstrPerByte, Kappa, OutPerByte float64
	// InPerByte is the volume fetched from the upstream task per stream byte
	// (the upstream task's OutPerByte; i_i of Eq. 7, normalized).
	InPerByte float64
	// Replicas is the data-parallel replica count (≥1).
	Replicas int
}

// CloneTasks copies logical tasks so replication never mutates a caller's
// canonical decomposition.
func CloneTasks(in []LogicalTask) []LogicalTask {
	out := make([]LogicalTask, len(in))
	copy(out, in)
	return out
}

// BuildGraph expands logical tasks and their replica counts into a
// schedulable Graph. Replicas split the stream evenly; an edge between
// logical tasks expands into a full bipartite connection whose per-pair
// volume splits the logical volume.
func BuildGraph(tasks []LogicalTask, batchBytes int) *Graph {
	g := &Graph{BatchBytes: batchBytes}
	// ids[i] lists the graph task IDs of logical task i's replicas.
	ids := make([][]int, len(tasks))
	for li, lt := range tasks {
		r := lt.Replicas
		if r < 1 {
			r = 1
		}
		for k := 0; k < r; k++ {
			id := len(g.Tasks)
			name := lt.Name
			if r > 1 {
				name = fmt.Sprintf("%s#%d", lt.Name, k)
			}
			g.Tasks = append(g.Tasks, Task{
				ID:           id,
				Name:         name,
				InstrPerByte: lt.InstrPerByte / float64(r),
				Kappa:        lt.Kappa,
				Replicas:     r,
			})
			ids[li] = append(ids[li], id)
		}
		if li > 0 && lt.InPerByte > 0 {
			pairs := float64(len(ids[li-1]) * len(ids[li]))
			for _, from := range ids[li-1] {
				for _, to := range ids[li] {
					g.Edges = append(g.Edges, Edge{
						From: from, To: to,
						BytesPerStreamByte: lt.InPerByte / pairs,
					})
				}
			}
		}
	}
	return g
}
